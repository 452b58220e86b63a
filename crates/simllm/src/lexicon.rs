//! Term interning, content fingerprints, and virtual-op accounting —
//! the shared vocabulary layer of the retrieval/grounding hot path.
//!
//! Every confidence decision used to re-lowercase the same operator,
//! region, and entity strings on every call. This module provides the
//! machinery to pay that normalization cost **once**:
//!
//! * [`Interner`] — a deterministic, insertion-ordered string interner
//!   mapping normalized strings to dense `u32` [`Term`] symbols.
//!   Identical input sequences always produce identical symbol
//!   assignments, so interned structures are safe inside the
//!   byte-identical determinism envelope.
//! * [`fingerprint64`] — a stable 64-bit FNV-1a content fingerprint
//!   for goldens and digests that must not change across builds.
//! * `WordHasher` — a word-at-a-time (FxHash-style) hasher for the
//!   in-process caches: every [`crate::textcache::TextCache`] and each
//!   [`crate::model::Llm`]'s answer map. It reads 8 bytes per step; the
//!   caches compare the full keys on every hit, so its collisions cost
//!   a recomputation, never a wrong answer.
//! * [`ops`] — process-wide virtual-op counters (characters
//!   normalized, extraction/answer cache hits and misses). These count
//!   *deterministic work units*, not time, so a perf baseline built on
//!   them can be checked with strict equality in CI.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A dense interned-term symbol. Symbols are assigned in first-seen
/// order starting at 0, so equal insertion sequences yield equal
/// symbols.
pub type Term = u32;

/// Deterministic insertion-ordered string interner.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<String, Term>,
    strings: Vec<String>,
}

impl Interner {
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its symbol (allocating the next dense id
    /// on first sight).
    pub fn intern(&mut self, s: &str) -> Term {
        if let Some(&t) = self.map.get(s) {
            return t;
        }
        let t = self.strings.len() as Term;
        self.map.insert(s.to_string(), t);
        self.strings.push(s.to_string());
        t
    }

    /// Look up a string without interning it. `None` means the term
    /// was never seen, which callers treat as "cannot match".
    pub fn get(&self, s: &str) -> Option<Term> {
        self.map.get(s).copied()
    }

    /// The string behind a symbol.
    pub fn resolve(&self, t: Term) -> Option<&str> {
        self.strings.get(t as usize).map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable 64-bit FNV-1a fingerprint of a string.
pub fn fingerprint64(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Word-at-a-time hasher (the FxHash mixing step: rotate, xor, multiply)
/// for in-process cache keys. Unlike [`fingerprint64`] it is not a
/// stable format: nothing may persist or print its values.
#[derive(Default)]
pub(crate) struct WordHasher {
    hash: u64,
}

/// `BuildHasher` for maps keyed through [`WordHasher`].
pub(crate) type WordBuildHasher = BuildHasherDefault<WordHasher>;

const WORD_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(WORD_SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            // The tail length is folded in so "a\0" and "a" differ.
            self.add(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Process-wide deterministic virtual-op counters for the grounding
/// hot path. Counts are *work units* (characters normalized, cache
/// probes), not timers: the same workload always produces the same
/// counts, which is what lets CI pin the `p1_hotpath` reports byte for
/// byte.
///
/// The model's chunk extractions live in one process-wide reading
/// cache, so extraction work is process-level: a text is absorbed (one
/// `absorb_calls`, its length in `tokenize_chars`, one
/// `extract_misses`) once per process while it stays resident, however
/// many models read it, and every later kept use is an `extract_hits`.
/// The totals of a fixed workload therefore do not depend on thread
/// count, but how they split between concurrent sessions does: a
/// delta taken around one session counts only the texts it read
/// first.
pub mod ops {
    use super::{AtomicU64, Ordering};

    static TOKENIZE_CHARS: AtomicU64 = AtomicU64::new(0);
    static ABSORB_CALLS: AtomicU64 = AtomicU64::new(0);
    static CLASSIFY_CALLS: AtomicU64 = AtomicU64::new(0);
    static EXTRACT_HITS: AtomicU64 = AtomicU64::new(0);
    static EXTRACT_MISSES: AtomicU64 = AtomicU64::new(0);
    static ANSWER_HITS: AtomicU64 = AtomicU64::new(0);
    static ANSWER_MISSES: AtomicU64 = AtomicU64::new(0);

    /// `n` characters of text were normalized (lowercased / scanned
    /// for markers) during extraction, classification, or index build.
    pub fn tokenize_chars(n: usize) {
        TOKENIZE_CHARS.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// One full-text `absorb` pass ran (for a model's chunk, once per
    /// resident text per process).
    pub fn absorb_call() {
        ABSORB_CALLS.fetch_add(1, Ordering::Relaxed);
    }

    /// One question classification ran.
    pub fn classify_call() {
        CLASSIFY_CALLS.fetch_add(1, Ordering::Relaxed);
    }

    /// Kept-chunk probes of the process-wide reading cache: a miss
    /// absorbed the chunk's extraction, a hit reused the one already
    /// absorbed (by any model in the process).
    pub fn extract_hit() {
        EXTRACT_HITS.fetch_add(1, Ordering::Relaxed);
    }
    pub fn extract_miss() {
        EXTRACT_MISSES.fetch_add(1, Ordering::Relaxed);
    }

    /// Grounded-answer cache probe results.
    pub fn answer_hit() {
        ANSWER_HITS.fetch_add(1, Ordering::Relaxed);
    }
    pub fn answer_miss() {
        ANSWER_MISSES.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time reading of every counter.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct OpSnapshot {
        pub tokenize_chars: u64,
        pub absorb_calls: u64,
        pub classify_calls: u64,
        pub extract_hits: u64,
        pub extract_misses: u64,
        pub answer_hits: u64,
        pub answer_misses: u64,
    }

    impl OpSnapshot {
        /// Counter-wise difference since `earlier` (saturating).
        pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
            OpSnapshot {
                tokenize_chars: self.tokenize_chars.saturating_sub(earlier.tokenize_chars),
                absorb_calls: self.absorb_calls.saturating_sub(earlier.absorb_calls),
                classify_calls: self.classify_calls.saturating_sub(earlier.classify_calls),
                extract_hits: self.extract_hits.saturating_sub(earlier.extract_hits),
                extract_misses: self.extract_misses.saturating_sub(earlier.extract_misses),
                answer_hits: self.answer_hits.saturating_sub(earlier.answer_hits),
                answer_misses: self.answer_misses.saturating_sub(earlier.answer_misses),
            }
        }
    }

    pub fn snapshot() -> OpSnapshot {
        OpSnapshot {
            tokenize_chars: TOKENIZE_CHARS.load(Ordering::Relaxed),
            absorb_calls: ABSORB_CALLS.load(Ordering::Relaxed),
            classify_calls: CLASSIFY_CALLS.load(Ordering::Relaxed),
            extract_hits: EXTRACT_HITS.load(Ordering::Relaxed),
            extract_misses: EXTRACT_MISSES.load(Ordering::Relaxed),
            answer_hits: ANSWER_HITS.load(Ordering::Relaxed),
            answer_misses: ANSWER_MISSES.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter. Benchmarks call this between phases; tests
    /// must NOT rely on it (tests in one binary run concurrently) and
    /// should measure snapshot deltas instead.
    pub fn reset() {
        TOKENIZE_CHARS.store(0, Ordering::Relaxed);
        ABSORB_CALLS.store(0, Ordering::Relaxed);
        CLASSIFY_CALLS.store(0, Ordering::Relaxed);
        EXTRACT_HITS.store(0, Ordering::Relaxed);
        EXTRACT_MISSES.store(0, Ordering::Relaxed);
        ANSWER_HITS.store(0, Ordering::Relaxed);
        ANSWER_MISSES.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_dense_insertion_ordered_symbols() {
        let mut i = Interner::new();
        assert_eq!(i.intern("google"), 0);
        assert_eq!(i.intern("facebook"), 1);
        assert_eq!(i.intern("google"), 0, "re-interning is stable");
        assert_eq!(i.get("facebook"), Some(1));
        assert_eq!(i.get("amazon"), None);
        assert_eq!(i.resolve(0), Some("google"));
        assert_eq!(i.resolve(9), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn interner_is_deterministic_across_builds() {
        let words = ["asia", "europe", "asia", "north america", "europe"];
        let build = || {
            let mut i = Interner::new();
            words.iter().map(|w| i.intern(w)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        assert_eq!(build(), vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        assert_eq!(fingerprint64("abc"), fingerprint64("abc"));
        assert_ne!(fingerprint64("abc"), fingerprint64("abd"));
        // FNV-1a test vector: empty input hashes to the offset basis.
        assert_eq!(fingerprint64(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn word_hasher_reads_every_byte_and_length() {
        let hash = |parts: &[&[u8]]| {
            let mut h = WordHasher::default();
            for p in parts {
                h.write(p);
            }
            h.finish()
        };
        // Tails shorter than a word, and zero bytes in them, still count.
        assert_ne!(hash(&[b"a"]), hash(&[b"a\0"]));
        assert_ne!(hash(&[b"abcdefgh"]), hash(&[b"abcdefgh\0"]));
        assert_ne!(hash(&[b"abcdefghi"]), hash(&[b"abcdefghj"]));
        assert_eq!(hash(&[b"abcdefghi"]), hash(&[b"abcdefghi"]));
        // `str` hashing appends a terminator, so boundaries count too.
        let key = |texts: &[&str]| {
            use std::hash::Hash;
            let mut h = WordHasher::default();
            texts.hash(&mut h);
            h.finish()
        };
        assert_ne!(key(&["ab", "c"]), key(&["a", "bc"]));
        assert_ne!(key(&["ab", "c"]), key(&["abc"]));
    }

    #[test]
    fn op_counters_accumulate() {
        let before = ops::snapshot();
        ops::tokenize_chars(120);
        ops::absorb_call();
        ops::classify_call();
        ops::extract_hit();
        ops::extract_miss();
        ops::answer_hit();
        ops::answer_miss();
        let delta = ops::snapshot().since(&before);
        // Other tests may add concurrently; ours are a lower bound.
        assert!(delta.tokenize_chars >= 120);
        assert!(delta.absorb_calls >= 1);
        assert!(delta.classify_calls >= 1);
        assert!(delta.extract_hits >= 1);
        assert!(delta.extract_misses >= 1);
        assert!(delta.answer_hits >= 1);
        assert!(delta.answer_misses >= 1);
    }
}
