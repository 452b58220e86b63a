//! Seeded text composition helpers.
//!
//! Articles should not all read identically — a corpus of carbon-copy
//! templates would make BM25 ranking trivial and unrealistic. These
//! helpers pick phrasing variants from a seeded RNG so generation stays
//! deterministic per seed while varying across documents.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A deterministic phrase picker bound to one document's RNG stream.
pub struct TextGen<'a> {
    rng: &'a mut ChaCha8Rng,
}

impl<'a> TextGen<'a> {
    pub fn new(rng: &'a mut ChaCha8Rng) -> Self {
        TextGen { rng }
    }

    /// Choose one variant uniformly.
    pub fn pick<'v>(&mut self, variants: &[&'v str]) -> &'v str {
        assert!(!variants.is_empty());
        variants[self.rng.gen_range(0..variants.len())]
    }

    /// A filler sentence of loosely on-topic color, to vary document
    /// length and dilute term frequencies.
    pub fn filler(&mut self, topic_hint: &str) -> String {
        let openers = [
            "Industry observers note that",
            "According to operators,",
            "Analysts point out that",
            "It is widely reported that",
            "Engineers familiar with the matter say",
        ];
        let closers = [
            "the picture continues to evolve year over year.",
            "investment in the sector has accelerated recently.",
            "reliability remains the overriding design goal.",
            "capacity demand keeps growing steadily.",
            "maintenance planning is a constant concern.",
        ];
        format!(
            "{} {} {}",
            self.pick(&openers),
            topic_hint,
            self.pick(&closers)
        )
    }

    /// Draw a boolean with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }

    /// Random integer in `[lo, hi)`.
    pub fn int(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.gen_range(lo..hi)
    }
}

/// Join sentences into a paragraph.
pub fn paragraph(sentences: &[String]) -> String {
    sentences.join(" ")
}

/// Join paragraphs into a body.
pub fn body(paragraphs: &[String]) -> String {
    paragraphs.join("\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pick_is_deterministic_per_seed() {
        let variants = ["a", "b", "c", "d"];
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut tg = TextGen::new(&mut rng);
            (0..10).map(|_| tg.pick(&variants)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn pick_covers_all_variants_eventually() {
        let variants = ["a", "b", "c"];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut tg = TextGen::new(&mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(tg.pick(&variants));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn filler_embeds_the_hint() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut tg = TextGen::new(&mut rng);
        let s = tg.filler("submarine cable capacity");
        assert!(s.contains("submarine cable capacity"));
    }

    #[test]
    fn paragraph_and_body_join() {
        let p = paragraph(&["One.".into(), "Two.".into()]);
        assert_eq!(p, "One. Two.");
        let b = body(&[p.clone(), "Three.".into()]);
        assert_eq!(b, "One. Two.\n\nThree.");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut tg = TextGen::new(&mut rng);
        assert!(!tg.chance(0.0));
        assert!(tg.chance(1.0));
    }
}
