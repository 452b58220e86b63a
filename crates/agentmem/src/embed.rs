//! Feature-hashed text embeddings.
//!
//! Each text maps to a fixed-dimension vector: tokens are hashed into
//! buckets (FNV-1a), counted, and the vector L2-normalised. Cosine
//! similarity between such vectors approximates lexical overlap — a
//! deterministic, dependency-free stand-in for the sentence-embedding
//! model a production agent would call. Light suffix stripping keeps
//! "cables"/"cable" in the same bucket.

/// Embedding dimensionality. 256 buckets keeps collisions rare for
/// document-sized texts while staying cache-friendly.
pub const EMBED_DIM: usize = 256;

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Call `f` on each token of `text`, lightly stemmed, mirroring the
/// index-side treatment enough for retrieval purposes: runs of
/// alphanumeric characters at least 2 bytes long, lowercased, with
/// "datacenter(s)" split in two and one suffix stripped. Each token is
/// built in one reused buffer; only a non-ASCII word allocates, for
/// `str::to_lowercase`.
fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut word = String::new();
    for w in text.split(|c: char| !c.is_alphanumeric()) {
        if w.len() < 2 {
            continue;
        }
        word.clear();
        if w.is_ascii() {
            word.push_str(w);
            word.make_ascii_lowercase();
        } else {
            word.push_str(&w.to_lowercase());
        }
        // Compound normalisation: "datacenter(s)" and "data center"
        // must land in the same buckets.
        if word == "datacenter" || word == "datacenters" {
            f("data");
            f("center");
            continue;
        }
        let stem = ["ing", "ed", "ly", "s"]
            .iter()
            .find_map(|suffix| word.strip_suffix(suffix).filter(|s| s.len() >= 3));
        f(stem.unwrap_or(&word));
    }
}

/// Embed `text` into a unit-norm vector.
pub fn embed(text: &str) -> Vec<f32> {
    let mut v = vec![0.0f32; EMBED_DIM];
    for_each_token(text, |tok| {
        let bucket = (fnv1a(tok.as_bytes()) % EMBED_DIM as u64) as usize;
        v[bucket] += 1.0;
    });
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

/// Cosine similarity between two embeddings (assumed same dim).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The non-zero buckets of an embedding as `(bucket, value)` pairs, in
/// ascending bucket order — the operand of [`sparse_dot`].
pub fn nonzero_buckets(v: &[f32]) -> Vec<(usize, f32)> {
    v.iter()
        .enumerate()
        .filter(|&(_, &x)| x != 0.0)
        .map(|(i, &x)| (i, x))
        .collect()
}

/// [`cosine`] of a dense embedding and a sparse one (from
/// [`nonzero_buckets`]), touching only the sparse side's buckets.
///
/// Bit-identical to `cosine(dense, sparse_as_dense)` when both vectors
/// are finite, non-negative and [`EMBED_DIM`] long, as every embedding
/// [`embed`] returns is. Every product `cosine` adds that this skips is
/// `+0.0`, and adding `+0.0` to a sum that is already `≥ +0.0` leaves it
/// unchanged; the products both add come in the same ascending bucket
/// order. The accumulator starts at `+0.0`, not the `-0.0` that
/// `f32: Sum` starts from, so vectors that share no bucket give `+0.0`
/// like `cosine` does.
pub fn sparse_dot(sparse: &[(usize, f32)], dense: &[f32]) -> f32 {
    sparse_dots(sparse, [dense])[0]
}

/// [`sparse_dot`] of one sparse embedding against `N` dense ones at
/// once. Each lane is its own sum, in the same order, so each equals
/// the single [`sparse_dot`] bit for bit; computing them together only
/// overlaps their add latencies.
pub(crate) fn sparse_dots<const N: usize>(sparse: &[(usize, f32)], dense: [&[f32]; N]) -> [f32; N] {
    let mut sums = [0.0f32; N];
    for &(i, x) in sparse {
        for (sum, d) in sums.iter_mut().zip(dense) {
            *sum += d[i] * x;
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_unit_norm() {
        let v = embed("submarine cable repeaters and latitude");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let v = embed("");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&v, &v), 0.0);
    }

    #[test]
    fn identical_texts_have_cosine_one() {
        let a = embed("The EllaLink submarine cable connects Fortaleza to Sines.");
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn related_texts_beat_unrelated_texts() {
        let cable = embed("The EllaLink submarine cable connects Brazil to Portugal.");
        let cable2 = embed("EllaLink is a submarine cable linking Brazil and Europe.");
        let pasta = embed("Salt the pasta water until it tastes like the sea.");
        assert!(cosine(&cable, &cable2) > cosine(&cable, &pasta) + 0.2);
    }

    #[test]
    fn stemming_aligns_variants() {
        let a = embed("cable repeater");
        let b = embed("cables repeaters");
        assert!(cosine(&a, &b) > 0.99);
    }

    /// Reference tokenizer: the same rules, one allocation per token.
    fn allocating_tokens(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|w| w.len() >= 2)
            .flat_map(|w| {
                let w = w.to_lowercase();
                if w == "datacenter" || w == "datacenters" {
                    return vec!["data".to_string(), "center".to_string()];
                }
                for suffix in ["ing", "ed", "ly", "s"] {
                    if let Some(stripped) = w.strip_suffix(suffix) {
                        if stripped.len() >= 3 {
                            return vec![stripped.to_string()];
                        }
                    }
                }
                vec![w]
            })
            .collect()
    }

    fn tokens(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for_each_token(text, |t| out.push(t.to_string()));
        out
    }

    #[test]
    fn tokens_match_the_allocating_tokenizer() {
        for text in [
            "Datacenters and DATACENTER; data-center",
            "Routing rerouted quickly: ed ing ly s bed sing fly gas",
            "ΣΟΦΙΑ ΟΔΟΣ İstanbul Straße ǅemal ÉTÉS naïvely",
            "",
            "a b c 12 3.4 x_y",
        ] {
            assert_eq!(tokens(text), allocating_tokens(text), "{text}");
        }
    }

    proptest::proptest! {
        #[test]
        fn tokens_match_the_allocating_tokenizer_on_any_text(text in "\\PC{0,120}") {
            proptest::prop_assert_eq!(tokens(&text), allocating_tokens(&text));
        }

        #[test]
        fn tokens_match_on_mixed_case_words(text in "[a-zA-Z ÉéΣσς.-]{0,80}") {
            proptest::prop_assert_eq!(tokens(&text), allocating_tokens(&text));
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        assert_eq!(embed("solar superstorm"), embed("solar superstorm"));
    }
}
