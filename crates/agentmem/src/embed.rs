//! Feature-hashed text embeddings.
//!
//! Each text maps to a fixed-dimension vector: tokens are hashed into
//! buckets (FNV-1a), counted, and the vector L2-normalised. Cosine
//! similarity between such vectors approximates lexical overlap — a
//! deterministic, dependency-free stand-in for the sentence-embedding
//! model a production agent would call. Light suffix stripping keeps
//! "cables"/"cable" in the same bucket.

use ira_simllm::{TextCache, TextValue};
use std::sync::Arc;

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

/// The token count of each bucket of `text`, and the counts' L2 norm.
fn bucket_counts(text: &str) -> ([f32; EMBED_DIM], f32) {
    let mut v = [0.0f32; EMBED_DIM];
    for_each_token(text, |tok| {
        let bucket = (fnv1a(tok.as_bytes()) % EMBED_DIM as u64) as usize;
        v[bucket] += 1.0;
    });
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    (v, norm)
}

/// Embed `text` into a unit-norm vector.
pub fn embed(text: &str) -> Vec<f32> {
    let (mut v, norm) = bucket_counts(text);
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v.to_vec()
}

/// `nonzero_buckets(&embed(text))`, built without the dense vector:
/// the same counts divided by the same norm, bucket by bucket, so it is
/// bit-identical.
pub fn embed_sparse(text: &str) -> Vec<(usize, f32)> {
    let (v, norm) = bucket_counts(text);
    v.iter()
        .enumerate()
        .filter(|&(_, &count)| count != 0.0)
        .map(|(i, &count)| (i, count / norm))
        .collect()
}

/// Bytes of text and sparse embeddings the process-wide
/// [`struct@EMBEDDINGS`] holds at most: room for the pages a workload's
/// sessions keep fetching, not for a long-lived store's whole history.
const EMBEDDING_BUDGET_BYTES: usize = 256 << 10;

/// Every store in the process embeds memorized text through this
/// cache, so sessions over the same webs embed each page once. Queries
/// never enter it: retrieval embeds them with [`embed_sparse`].
pub(crate) static EMBEDDINGS: TextCache<SparseEmbedding> = TextCache::new(EMBEDDING_BUDGET_BYTES);

/// A text's [`embed_sparse`], as [`struct@EMBEDDINGS`] holds it.
pub(crate) struct SparseEmbedding(pub(crate) Box<[(usize, f32)]>);

impl TextValue for SparseEmbedding {
    fn of_text(text: &Arc<str>) -> SparseEmbedding {
        SparseEmbedding(embed_sparse(text).into_boxed_slice())
    }

    fn held_bytes(&self) -> usize {
        std::mem::size_of_val::<[(usize, f32)]>(&self.0)
    }
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
    let mut sum = 0.0f32;
    for &(i, x) in sparse {
        sum += dense[i] * x;
    }
    sum
}

/// Entries per tile of an [`EmbeddingMatrix`].
const TILE: usize = 32;

/// The embeddings of [`TILE`] consecutive entries, bucket-major:
/// `tile[b][slot]` is bucket `b` of the tile's entry `slot`.
type Tile = [[f32; TILE]; EMBED_DIM];

/// The embeddings of a sequence of entries, stored once, bucket-major:
/// row `b` holds bucket `b` of every entry, in entry order. The rows
/// are cut into tiles of [`TILE`] entries, so the matrix grows one
/// fixed-size tile at a time and never copies what it holds; slots past
/// the last entry are zero.
///
/// [`EmbeddingMatrix::dots`] is the one similarity scan over it.
#[derive(Default)]
pub(crate) struct EmbeddingMatrix {
    tiles: Vec<Box<Tile>>,
    len: usize,
}

impl EmbeddingMatrix {
    /// Append an entry's embedding, given as its non-zero buckets (from
    /// [`nonzero_buckets`] or [`embed_sparse`]). The new slot is past
    /// the last entry, so its other buckets are already zero.
    pub(crate) fn push(&mut self, sparse: &[(usize, f32)]) {
        if self.len == self.tiles.len() * TILE {
            let zeros = vec![[0.0; TILE]; EMBED_DIM].into_boxed_slice();
            self.tiles.push(zeros.try_into().expect("EMBED_DIM rows"));
        }
        let slot = self.len % TILE;
        let tile = &mut self.tiles[self.len / TILE];
        for &(b, x) in sparse {
            tile[b][slot] = x;
        }
        self.len += 1;
    }

    /// Remove entry `i` from every row, keeping the order of the rest.
    pub(crate) fn remove(&mut self, i: usize) {
        assert!(i < self.len, "entry {i} of {}", self.len);
        let used = self.len.div_ceil(TILE);
        for t in i / TILE..used {
            let start = if t == i / TILE { i % TILE } else { 0 };
            for b in 0..EMBED_DIM {
                // The next tile's first entry moves into this tile's
                // last slot; past the last entry, a zero does.
                let carry = if t + 1 < used {
                    self.tiles[t + 1][b][0]
                } else {
                    0.0
                };
                let row = &mut self.tiles[t][b];
                row.copy_within(start + 1.., start);
                row[TILE - 1] = carry;
            }
        }
        self.len -= 1;
    }

    /// Entry `i`'s embedding, as [`embed`] returned it.
    pub(crate) fn column(&self, i: usize) -> Vec<f32> {
        assert!(i < self.len, "entry {i} of {}", self.len);
        let slot = i % TILE;
        self.tiles[i / TILE].iter().map(|row| row[slot]).collect()
    }

    /// Set `out[e]` to the [`sparse_dot`] of `sparse` (from
    /// [`nonzero_buckets`]) with entry `e`'s embedding, for every entry.
    /// Per entry these are the same products, added in the same
    /// ascending bucket order from `+0.0`, so each result is
    /// bit-identical to `sparse_dot`, and to [`cosine`] on embeddings
    /// from [`embed`]. The inner loop runs along a row over one tile's
    /// entries, whose sums stay in a local array the compiler can keep
    /// in vector registers.
    pub(crate) fn dots(&self, sparse: &[(usize, f32)], out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.len.div_ceil(TILE) * TILE, 0.0);
        let (sums, _) = out.as_chunks_mut::<TILE>();
        for (tile, sums) in self.tiles.iter().zip(sums) {
            let mut acc = [0.0f32; TILE];
            for &(b, x) in sparse {
                for (sum, &v) in acc.iter_mut().zip(&tile[b]) {
                    *sum += v * x;
                }
            }
            *sums = acc;
        }
        out.truncate(self.len);
    }
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

    /// Texts that share words, so their dots are mostly non-zero.
    fn page(i: usize) -> String {
        let words = [
            "cable", "storm", "latitude", "grid", "outage", "route", "solar",
        ];
        (0..=i % 5)
            .map(|j| words[(i + j * 3) % words.len()])
            .collect::<Vec<_>>()
            .join(" ")
    }

    proptest::proptest! {
        #[test]
        fn matrix_matches_its_entries_through_pushes_and_removals(
            // Push this many pages, then remove at these positions
            // (each taken modulo the length at the time).
            n in 0usize..200,
            removals in proptest::collection::vec(0usize..200, 0..70),
            query in 0usize..40,
        ) {
            let mut matrix = EmbeddingMatrix::default();
            let mut texts: Vec<String> = (0..n).map(page).collect();
            for text in &texts {
                matrix.push(&nonzero_buckets(&embed(text)));
            }
            for r in removals {
                if !texts.is_empty() {
                    let i = r % texts.len();
                    texts.remove(i);
                    matrix.remove(i);
                }
            }
            let q = nonzero_buckets(&embed(&page(query)));
            let mut sims = vec![7.0; 3];
            matrix.dots(&q, &mut sims);
            proptest::prop_assert_eq!(sims.len(), texts.len());
            for (i, text) in texts.iter().enumerate() {
                let v = embed(text);
                proptest::prop_assert_eq!(matrix.column(i), v.clone());
                proptest::prop_assert_eq!(sims[i].to_bits(), sparse_dot(&q, &v).to_bits());
            }
            // An empty operand (an empty query) gives `+0.0`, as
            // `sparse_dot` and `cosine` do.
            matrix.dots(&[], &mut sims);
            proptest::prop_assert!(sims.iter().all(|s| s.to_bits() == 0));
            for (t, tile) in matrix.tiles.iter().enumerate() {
                for row in tile.iter() {
                    for (slot, &x) in row.iter().enumerate() {
                        if t * TILE + slot >= texts.len() {
                            proptest::prop_assert_eq!(x.to_bits(), 0, "slot past the end");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        assert_eq!(embed("solar superstorm"), embed("solar superstorm"));
    }

    fn bits(sparse: &[(usize, f32)]) -> Vec<(usize, u32)> {
        sparse.iter().map(|&(b, x)| (b, x.to_bits())).collect()
    }

    /// The bytes held, checked against the sum of the held costs.
    fn held(cache: &TextCache<SparseEmbedding>) -> usize {
        let sum: usize = cache
            .entries()
            .iter()
            .map(|(text, value)| text.len() + value.held_bytes())
            .sum();
        assert_eq!(sum, cache.held(), "held must be the sum of the held costs");
        sum
    }

    proptest::proptest! {
        #[test]
        fn cached_embeddings_equal_the_dense_ones(
            texts in proptest::collection::vec("\\PC{0,80}", 1..12),
            // Small enough that most runs drop the whole map, and that
            // some texts never fit.
            budget in 0usize..1200,
        ) {
            let cache = TextCache::<SparseEmbedding>::new(budget);
            // The first pass reads each text first; later ones re-read
            // it, held or, after a drop-all, made again.
            for _ in 0..3 {
                for text in &texts {
                    let want = bits(&nonzero_buckets(&embed(text)));
                    proptest::prop_assert_eq!(bits(&embed_sparse(text)), want.clone());
                    let got = cache.read(text);
                    proptest::prop_assert_eq!(bits(&got.0), want);
                    // Held right after its read exactly when it fits.
                    let fits = text.len() + got.held_bytes() <= budget;
                    proptest::prop_assert_eq!(cache.contains(text), fits);
                    proptest::prop_assert!(held(&cache) <= budget);
                }
            }
        }
    }

    #[test]
    fn concurrent_first_reads_embed_once() {
        const THREADS: usize = 8;
        let cache = TextCache::<SparseEmbedding>::new(1 << 20);
        let text = "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, \
                    Portugal, linking South America and Europe.";
        let start = std::sync::Barrier::new(THREADS);
        let read: Vec<Arc<SparseEmbedding>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.read(text)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let want = bits(&nonzero_buckets(&embed(text)));
        for embedding in &read {
            assert_eq!(bits(&embedding.0), want);
            assert!(Arc::ptr_eq(embedding, &read[0]), "embedded once");
        }
        assert_eq!(cache.entries().len(), 1);
    }
}
