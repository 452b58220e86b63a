//! Golden test for fact extraction over the synthetic web.
//!
//! Every document of the four default scenario webs (default corpus
//! seed and distractor count) is read by `Extraction::from_text` twice:
//! once bare, the way the model reads a knowledge chunk, and once with
//! the page title as subject hint. One `web/url fingerprint` line per
//! document is compared with `extraction_golden.golden`; the
//! fingerprint is `ira_simllm::fingerprint64` over the JSON of both
//! extractions. The last line per web fingerprints the whole web's
//! lines, so a reordered or missing document also shows up.
//!
//! On a mismatch the test prints each differing label, then the full
//! replacement golden text. Replace the golden file with that text
//! only after a deliberate extraction change.

use ira_simllm::{fingerprint64, Extraction};
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::scenario::ScenarioRegistry;
use ira_worldmodel::World;

const GOLDEN: &str = include_str!("extraction_golden.golden");

fn items() -> Vec<(String, String)> {
    let world = World::standard();
    let mut items = Vec::new();
    for name in ScenarioRegistry::standard().names() {
        let corpus = Corpus::generate(
            &world,
            CorpusConfig {
                scenario: name,
                ..CorpusConfig::default()
            },
        );
        let mut web = String::new();
        for doc in corpus.iter() {
            let text = doc.full_text();
            let pair = (
                Extraction::from_text(&text, None),
                Extraction::from_text(&text, Some(&doc.title)),
            );
            let json = serde_json::to_string(&pair).expect("extraction serializes");
            let line = (
                format!("{name}/{}", doc.url()),
                format!("{:016x}", fingerprint64(&json)),
            );
            web.push_str(&format!("{} {}\n", line.0, line.1));
            items.push(line);
        }
        items.push((
            format!("{name}/all"),
            format!("{:016x}", fingerprint64(&web)),
        ));
    }
    items
}

#[test]
fn extraction_matches_the_golden_fingerprints() {
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    let items = items();
    let mut fresh = String::new();
    let mut diffs = Vec::new();
    for (i, (label, fp)) in items.iter().enumerate() {
        fresh.push_str(&format!("{label} {fp}\n"));
        if golden.get(i) != Some(&(label.as_str(), fp.as_str())) {
            diffs.push(label.clone());
        }
    }
    if !diffs.is_empty() || golden.len() != items.len() {
        panic!(
            "{} of {} extraction items differ from the golden file ({} golden lines):\n{}\n\n\
             replacement extraction_golden.golden:\n{fresh}",
            diffs.len(),
            items.len(),
            golden.len(),
            diffs.join("\n")
        );
    }
}
