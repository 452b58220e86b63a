//! The knowledge store: dedup, scored retrieval, eviction, and
//! `knowledge.json` persistence — plus the claim graph kept over the
//! entries (see [`crate::graph`]).
//!
//! The graph is built and persisted, never scored: retrieval ranks
//! entries on relevance, recency and importance alone. The graph serves
//! provenance, corroboration and poisoning analysis (`ira mem`, `save`,
//! the X5 detector), so it lags the entries: a memorise only queues its
//! entry, and the graph absorbs the queue, in insertion order, when it
//! is read or when an eviction must drop an entry's provenance. Every
//! graph therefore sees the absorb/remove sequence an eager one would,
//! and at most `capacity + 1` entries wait. `knowledge.json` bytes do
//! not depend on the graph.

use crate::embed::{embed, nonzero_buckets, EmbeddingMatrix};
use crate::entry::KnowledgeEntry;
use crate::graph::{ClaimGraph, GraphStats, HostStats};
use crate::provenance::{split_url, SourceRef};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use thiserror::Error;

/// Weights of the three retrieval components, following the
/// generative-agents formulation the paper builds on: relevance to the
/// query, recency of acquisition, and intrinsic importance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RetrievalWeights {
    pub relevance: f64,
    pub recency: f64,
    pub importance: f64,
    /// Recency half-life in virtual seconds.
    pub half_life_secs: f64,
    /// Redundancy penalty (MMR-style): each candidate's score is
    /// reduced by `diversity × max cosine similarity to the entries
    /// already selected`, so a prompt full of near-identical cable
    /// pages makes room for the general-principle page that actually
    /// completes the answer.
    #[serde(default = "default_diversity")]
    pub diversity: f64,
}

fn default_diversity() -> f64 {
    0.25
}

impl Default for RetrievalWeights {
    fn default() -> Self {
        RetrievalWeights {
            relevance: 1.0,
            recency: 0.1,
            importance: 0.1,
            half_life_secs: 3600.0,
            diversity: default_diversity(),
        }
    }
}

impl RetrievalWeights {
    /// Relevance-only scoring (the ablation baseline).
    pub fn relevance_only() -> Self {
        RetrievalWeights {
            relevance: 1.0,
            recency: 0.0,
            importance: 0.0,
            half_life_secs: 3600.0,
            diversity: 0.0,
        }
    }
}

/// Store configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Maximum number of entries before eviction.
    pub capacity: usize,
    /// Cosine similarity above which a new entry is considered a
    /// duplicate and dropped.
    pub dedup_threshold: f32,
    pub weights: RetrievalWeights,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            capacity: 2_000,
            dedup_threshold: 0.98,
            weights: RetrievalWeights::default(),
        }
    }
}

/// Persistence / IO failures.
#[derive(Debug, Error)]
pub enum StoreError {
    #[error("io error: {0}")]
    Io(#[from] std::io::Error),
    #[error("corrupt knowledge file: {0}")]
    Corrupt(#[from] serde_json::Error),
}

/// Serialized form of the store (the `knowledge.json` contents).
#[derive(Debug, Serialize, Deserialize)]
struct StoreFile {
    config: StoreConfig,
    next_id: u64,
    entries: Vec<KnowledgeEntry>,
}

/// At most this many floats (2 MiB) of similarity rows are memoized
/// (see [`Inner::similarity_row`]); one row alone may exceed it.
const MEMO_FLOATS: usize = 1 << 19;

/// The agent's knowledge memory. Thread-safe behind one lock, which
/// retrieval takes for writing too, since it fills the similarity-row
/// memo. Each store is read by its one agent's thread, so that costs no
/// contention.
pub struct KnowledgeStore {
    inner: RwLock<Inner>,
    config: StoreConfig,
    /// Session id stamped into provenance records (0 outside
    /// multi-session runs).
    session: AtomicU32,
}

struct Inner {
    /// The entries, each with an empty `embedding`: theirs are in
    /// `embeddings`, in the same order, and are filled in only when an
    /// entry leaves the store ([`Inner::entry`]).
    entries: Vec<KnowledgeEntry>,
    embeddings: EmbeddingMatrix,
    next_id: u64,
    graph: ClaimGraph,
    /// `entries[absorbed..]` are not in the graph yet.
    absorbed: usize,
    /// The session that memorised each entry of `entries[absorbed..]`.
    sessions: Vec<u32>,
    /// Memoized MMR rows: `rows[&i]` is entry `i`'s similarity to every
    /// entry. Rows are keyed by position, which only a write moves, so
    /// every accepted write clears them all.
    rows: HashMap<usize, Vec<f32>>,
}

impl Inner {
    fn new(entries: Vec<KnowledgeEntry>, embeddings: EmbeddingMatrix, next_id: u64) -> Self {
        Inner {
            sessions: vec![0; entries.len()],
            entries,
            embeddings,
            next_id,
            graph: ClaimGraph::default(),
            absorbed: 0,
            rows: HashMap::new(),
        }
    }

    /// Entry `i`'s similarity to every entry: the [`EmbeddingMatrix::dots`]
    /// sweep over its non-zero buckets, computed the first time it is
    /// asked for after a write. A row that would take the memo past
    /// [`MEMO_FLOATS`] clears it first.
    fn similarity_row(&mut self, i: usize) -> &[f32] {
        if !self.rows.contains_key(&i) {
            let mut row = Vec::new();
            self.embeddings
                .dots(&nonzero_buckets(&self.embeddings.column(i)), &mut row);
            // Every held row is as long as this one: a write clears
            // them all.
            if (self.rows.len() + 1) * row.len() > MEMO_FLOATS {
                self.rows.clear();
            }
            self.rows.insert(i, row);
        }
        &self.rows[&i]
    }

    /// Absorb the pending entries into the claim graph, in insertion
    /// order, with the provenance their memorise recorded.
    fn catch_up(&mut self) -> &ClaimGraph {
        for (e, session) in self.entries[self.absorbed..]
            .iter()
            .zip(self.sessions.drain(..))
        {
            let (host, path) = split_url(&e.source_url);
            self.graph.absorb(
                e.id,
                &e.content,
                SourceRef {
                    host,
                    path,
                    fetched_at_us: e.learned_at,
                    session,
                    entry_id: e.id,
                },
            );
        }
        self.absorbed = self.entries.len();
        &self.graph
    }

    /// Entry `i` as it leaves the store, with its embedding.
    fn entry(&self, i: usize) -> KnowledgeEntry {
        KnowledgeEntry {
            embedding: self.embeddings.column(i),
            ..self.entries[i].clone()
        }
    }

    fn all_entries(&self) -> Vec<KnowledgeEntry> {
        (0..self.entries.len()).map(|i| self.entry(i)).collect()
    }
}

/// One entry's state during a [`KnowledgeStore::retrieve`] selection.
struct Candidate {
    /// Base retrieval score (before the diversity penalty).
    score: f64,
    id: u64,
    /// Position in `Inner::entries`.
    index: usize,
    /// Max cosine to the entries selected so far.
    max_sim: f64,
    taken: bool,
}

/// The base order of retrieval: score desc, id asc. The entry position
/// breaks ties between duplicate ids (a loaded file may hold them) as a
/// stable sort by score and id would.
fn base_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then(a.id.cmp(&b.id))
        .then(a.index.cmp(&b.index))
}

/// Sort the `want` candidates that come first in the base order into
/// place at the front.
fn sort_first(candidates: &mut [Candidate], want: usize) {
    let m = want.min(candidates.len());
    if m < candidates.len() {
        candidates.select_nth_unstable_by(m, base_order);
    }
    candidates[..m].sort_unstable_by(base_order);
}

impl KnowledgeStore {
    pub fn new(config: StoreConfig) -> Self {
        KnowledgeStore {
            inner: RwLock::new(Inner::new(Vec::new(), EmbeddingMatrix::default(), 0)),
            config,
            session: AtomicU32::new(0),
        }
    }

    pub fn with_defaults() -> Self {
        KnowledgeStore::new(StoreConfig::default())
    }

    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Set the session id stamped into provenance records of future
    /// memorisations.
    pub fn set_session(&self, session: u32) {
        self.session.store(session, Ordering::Relaxed);
    }

    /// Aggregate claim-graph statistics (the observability surface).
    pub fn graph_stats(&self) -> GraphStats {
        self.with_graph(ClaimGraph::stats)
    }

    /// Per-host contribution summary from the claim graph.
    pub fn graph_host_stats(&self) -> BTreeMap<String, HostStats> {
        self.with_graph(ClaimGraph::host_stats)
    }

    /// Run a closure against the claim graph, caught up with every
    /// entry, under the write lock (for audits, CLI queries, and
    /// tests). The closure must not call back into the store.
    pub fn with_graph<R>(&self, f: impl FnOnce(&ClaimGraph) -> R) -> R {
        f(self.inner.write().catch_up())
    }

    /// Serialize the claim graph to its compact binary snapshot.
    pub fn graph_to_bytes(&self) -> Vec<u8> {
        self.with_graph(ClaimGraph::to_bytes)
    }

    /// How many memorised entries the claim graph has not absorbed yet
    /// (never more than `capacity + 1` after a memorise).
    pub fn graph_backlog(&self) -> usize {
        let inner = self.inner.read();
        inner.entries.len() - inner.absorbed
    }

    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memorise a piece of content. Returns the new entry id, or `None`
    /// if it was dropped as a near-duplicate: if some stored entry's
    /// [`cosine`](crate::embed::cosine) to it reaches `dedup_threshold`.
    ///
    /// The dedup scan is one sweep of the embedding matrix over the new
    /// content's non-zero buckets, giving every stored entry's
    /// [`sparse_dot`](crate::embed::sparse_dot) with it. The new
    /// embedding and every stored one come from [`embed`], so both are
    /// finite, non-negative and `EMBED_DIM` long, and on such vectors
    /// `sparse_dot` is bit-identical to `cosine`: every accept/reject
    /// decision is the same as the dense scan's, with no rounding
    /// margin.
    pub fn memorize(
        &self,
        topic: &str,
        content: &str,
        source_url: &str,
        source_kind: &str,
        learned_at: u64,
        importance: f64,
    ) -> Option<u64> {
        let embedding = embed(content);
        let sparse = nonzero_buckets(&embedding);
        let inner = &mut *self.inner.write();

        let mut sims = Vec::new();
        inner.embeddings.dots(&sparse, &mut sims);
        let threshold = self.config.dedup_threshold;
        if sims.iter().any(|&sim| sim >= threshold) {
            return None;
        }
        // The push and any eviction below change the similarity rows.
        inner.rows.clear();

        let id = inner.next_id;
        inner.next_id += 1;
        inner.entries.push(KnowledgeEntry {
            id,
            topic: topic.to_string(),
            content: content.to_string(),
            source_url: source_url.to_string(),
            source_kind: source_kind.to_string(),
            learned_at,
            importance: importance.clamp(0.0, 1.0),
            embedding: Vec::new(),
        });
        inner.embeddings.push(&embedding);
        // The claim graph absorbs the entry when it is next read.
        inner.sessions.push(self.session.load(Ordering::Relaxed));

        if inner.entries.len() > self.config.capacity {
            // The graph must hold the victim before it can drop the
            // victim's provenance.
            inner.catch_up();
            // Evict the entry with the lowest standing value
            // (importance + recency, computed once per entry; the first
            // minimum wins), never the one just added.
            let newest = inner.entries.len() - 1;
            let now = learned_at;
            let weights = self.config.weights;
            let victim = inner.entries[..newest]
                .iter()
                .map(|e| standing(e, now, &weights))
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(i, _)| i);
            if let Some(i) = victim {
                let evicted = inner.entries.remove(i);
                inner.embeddings.remove(i);
                inner.absorbed -= 1;
                // The page is gone; its provenance records go with it.
                // The claims it asserted persist in the graph.
                inner.graph.remove_entry(evicted.id);
            }
        }

        Some(id)
    }

    /// Retrieve the top-`k` entries for a query at virtual time `now`,
    /// greedily maximising marginal relevance: at each step the
    /// highest-scoring remaining entry is chosen after subtracting the
    /// diversity penalty against what is already selected.
    ///
    /// That is the plain greedy loop. At every step it takes the
    /// remaining entry with the greatest `score − diversity × max_sim`,
    /// where `max_sim` is the `f64::max` fold from `0.0` of the entry's
    /// [`cosine`](crate::embed::cosine) to each selected entry, in
    /// selection order, and lets the *last* maximum in the base order
    /// (score desc, id asc) win ties, as `Iterator::max_by` over the
    /// sorted entries would. Every similarity comes from one sweep of
    /// the embedding matrix:
    ///
    /// - **Relevance** is one sweep over the query's non-zero buckets.
    /// - **Max similarity.** After each pick but the last, the pick's
    ///   similarity row (one sweep over its non-zero buckets) folds
    ///   into every candidate's `max_sim`. The row is memoized: between
    ///   two writes, an entry picked again reuses the row its first pick
    ///   swept, the same sums computed once. Every accepted write clears
    ///   the memo; a duplicate-rejected one changes nothing and keeps
    ///   it.
    ///
    /// Each sweep result is bit-identical to `cosine`: every stored
    /// embedding comes from [`embed`], also in a loaded store (see
    /// [`KnowledgeStore::from_json`]). With `diversity <= 0` the
    /// selection is the first `k` of the base order, and only those are
    /// sorted. Only the `k` winners are cloned.
    pub fn retrieve(&self, query: &str, k: usize, now: u64) -> Vec<KnowledgeEntry> {
        let inner = &mut *self.inner.write();
        self.select(inner, query, k, now)
            .into_iter()
            .map(|i| inner.entry(i))
            .collect()
    }

    /// The positions in `inner.entries` of what
    /// [`KnowledgeStore::retrieve`] returns, in selection order.
    fn select(&self, inner: &mut Inner, query: &str, k: usize, now: u64) -> Vec<usize> {
        let mut sims = Vec::new();
        inner
            .embeddings
            .dots(&nonzero_buckets(&embed(query)), &mut sims);
        let mut candidates: Vec<Candidate> = inner
            .entries
            .iter()
            .zip(&sims)
            .enumerate()
            .map(|(index, (e, &relevance))| Candidate {
                score: self.score(e, relevance, now),
                id: e.id,
                index,
                max_sim: 0.0,
                taken: false,
            })
            .collect();
        let k = k.min(candidates.len());

        let diversity = self.config.weights.diversity;
        if diversity <= 0.0 {
            sort_first(&mut candidates, k);
            return candidates[..k].iter().map(|c| c.index).collect();
        }

        // `candidates[i]` is entry `i`.
        let mut picks = Vec::with_capacity(k);
        while picks.len() < k {
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in candidates.iter().enumerate().filter(|(_, c)| !c.taken) {
                let adjusted = c.score - diversity * c.max_sim;
                let wins = best.is_none_or(|(b, best_adjusted)| {
                    adjusted
                        .total_cmp(&best_adjusted)
                        .then_with(|| base_order(c, &candidates[b]))
                        .is_gt()
                });
                if wins {
                    best = Some((i, adjusted));
                }
            }
            // `picks.len() < k <= candidates.len()` leaves one untaken.
            let Some((i, _)) = best else { break };
            candidates[i].taken = true;
            picks.push(i);
            if picks.len() < k {
                let row = inner.similarity_row(i);
                for (c, &sim) in candidates.iter_mut().zip(row) {
                    c.max_sim = c.max_sim.max(sim as f64);
                }
            }
        }
        picks
    }

    /// The retrieval score of an entry whose relevance to the query is
    /// `relevance`.
    fn score(&self, e: &KnowledgeEntry, relevance: f32, now: u64) -> f64 {
        let w = &self.config.weights;
        w.relevance * relevance as f64
            + w.recency * recency(e, now, w)
            + w.importance * e.importance
    }

    /// Retrieve just the content strings (prompt-ready), top-`k`,
    /// ordered least-relevant-first so the most relevant text sits
    /// closest to the question in the prompt (and survives context
    /// truncation longest).
    pub fn retrieve_texts(&self, query: &str, k: usize, now: u64) -> Vec<String> {
        let inner = &mut *self.inner.write();
        self.select(inner, query, k, now)
            .into_iter()
            .rev()
            .map(|i| inner.entries[i].content.clone())
            .collect()
    }

    /// Whether any entry was memorised from this exact URL.
    pub fn has_url(&self, url: &str) -> bool {
        self.inner
            .read()
            .entries
            .iter()
            .any(|e| e.source_url == url)
    }

    /// Every entry, in insertion order (for audits and persistence).
    pub fn entries(&self) -> Vec<KnowledgeEntry> {
        self.inner.read().all_entries()
    }

    /// Distinct (topic, count) pairs — what the agent has studied.
    pub fn topic_histogram(&self) -> Vec<(String, usize)> {
        use std::collections::BTreeMap;
        let inner = self.inner.read();
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for e in &inner.entries {
            *counts.entry(e.topic.clone()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Distinct (source_kind, count) pairs — the provenance audit.
    pub fn source_histogram(&self) -> Vec<(String, usize)> {
        use std::collections::BTreeMap;
        let inner = self.inner.read();
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for e in &inner.entries {
            *counts.entry(e.source_kind.clone()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Serialize to the `knowledge.json` format.
    pub fn to_json(&self) -> String {
        let inner = self.inner.read();
        let file = StoreFile {
            config: self.config,
            next_id: inner.next_id,
            entries: inner.all_entries(),
        };
        serde_json::to_string_pretty(&file).expect("store serializes")
    }

    /// Load from the `knowledge.json` format. Every entry is
    /// re-embedded from its `content`: the embedding is a pure function
    /// of the content, and a stored one is not trusted — an edited file
    /// could otherwise rig retrieval with an oversized, infinite or
    /// wrong-length vector. The claim graph starts empty with every
    /// entry pending at session 0, so it is rebuilt deterministically
    /// from the surviving entries when first read (historical claims of
    /// evicted entries are only recoverable from a graph snapshot — see
    /// [`KnowledgeStore::load`]).
    pub fn from_json(json: &str) -> Result<Self, StoreError> {
        let mut file: StoreFile = serde_json::from_str(json)?;
        let mut embeddings = EmbeddingMatrix::default();
        for e in &mut file.entries {
            embeddings.push(&embed(&e.content));
            e.embedding = Vec::new();
        }
        Ok(KnowledgeStore {
            inner: RwLock::new(Inner::new(file.entries, embeddings, file.next_id)),
            config: file.config,
            session: AtomicU32::new(0),
        })
    }

    /// The sidecar path of the binary graph snapshot saved next to a
    /// `knowledge.json` (`<path>.graph`).
    pub fn graph_snapshot_path(path: &Path) -> PathBuf {
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".graph");
        path.with_file_name(name)
    }

    /// Write `knowledge.json` to disk atomically (temp file + fsync +
    /// rename), wrapped in a checksum envelope, rotating the previous
    /// file to `<path>.bak` — plus the claim-graph binary snapshot as a
    /// `<path>.graph` sidecar under the same discipline. The JSON bytes
    /// are unchanged from the flat-store format. See [`crate::persist`].
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        crate::persist::save_atomic(path, &self.to_json())?;
        crate::persist::save_atomic_bytes(
            &KnowledgeStore::graph_snapshot_path(path),
            &self.graph_to_bytes(),
        )?;
        Ok(())
    }

    /// Read `knowledge.json` from disk, verifying its checksum and
    /// falling back to `<path>.bak` when the primary file is missing,
    /// truncated, or corrupted.
    ///
    /// The claim graph loads from the `<path>.graph` binary snapshot
    /// (with its own `.bak` fallback); when the snapshot is missing or
    /// fails verification, the graph is rebuilt deterministically from
    /// the JSON entries instead — degraded (evicted entries' historical
    /// claims are lost) but never fatal.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let json = crate::persist::load_with_backup(path)?;
        let store = KnowledgeStore::from_json(&json)?;
        let snapshot = KnowledgeStore::graph_snapshot_path(path);
        if let Ok(bytes) = crate::persist::load_bytes_with_backup(&snapshot) {
            if let Ok(graph) = ClaimGraph::from_bytes(&bytes) {
                let inner = &mut *store.inner.write();
                inner.graph = graph;
                inner.absorbed = inner.entries.len();
                inner.sessions.clear();
            }
        }
        Ok(store)
    }
}

/// How fresh an entry is at `now`: 1 when just learned, halving every
/// `half_life_secs` virtual seconds.
fn recency(e: &KnowledgeEntry, now: u64, w: &RetrievalWeights) -> f64 {
    let age_secs = now.saturating_sub(e.learned_at) as f64 / 1e6;
    0.5f64.powf(age_secs / w.half_life_secs)
}

fn standing(e: &KnowledgeEntry, now: u64, w: &RetrievalWeights) -> f64 {
    e.importance + recency(e, now, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KnowledgeStore {
        KnowledgeStore::with_defaults()
    }

    fn mem(s: &KnowledgeStore, topic: &str, content: &str, t: u64) -> Option<u64> {
        s.memorize(topic, content, "sim://x.test/p", "news", t, 0.5)
    }

    #[test]
    fn memorize_and_retrieve_by_relevance() {
        let s = store();
        mem(
            &s,
            "cables",
            "The EllaLink submarine cable connects Brazil to Portugal.",
            1,
        );
        mem(
            &s,
            "cooking",
            "Salt the pasta water until it tastes like the sea.",
            2,
        );
        mem(
            &s,
            "storms",
            "Geomagnetically induced currents grow stronger at high latitude.",
            3,
        );
        let hits = s.retrieve("submarine cable Brazil", 1, 10);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].content.contains("EllaLink"));
    }

    #[test]
    fn near_duplicates_are_dropped() {
        let s = store();
        assert!(mem(
            &s,
            "a",
            "The EllaLink submarine cable connects Brazil to Portugal.",
            1
        )
        .is_some());
        assert!(mem(
            &s,
            "b",
            "The EllaLink submarine cable connects Brazil to Portugal.",
            2
        )
        .is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn distinct_content_is_kept() {
        let s = store();
        assert!(mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1
        )
        .is_some());
        assert!(mem(
            &s,
            "b",
            "The Grace Hopper cable connects New York to Bude.",
            2
        )
        .is_some());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn recency_breaks_relevance_ties() {
        let config = StoreConfig {
            weights: RetrievalWeights {
                relevance: 1.0,
                recency: 0.5,
                importance: 0.0,
                half_life_secs: 1.0,
                diversity: 0.0,
            },
            ..StoreConfig::default()
        };
        let s = KnowledgeStore::new(config);
        // Two entries with disjoint-but-equal relevance to the query.
        s.memorize("t", "alpha fact about cables", "u1", "news", 0, 0.5);
        s.memorize(
            "t",
            "alpha fact about cables too",
            "u2",
            "news",
            10_000_000,
            0.5,
        );
        let hits = s.retrieve("alpha fact cables", 2, 10_000_000);
        assert_eq!(hits[0].source_url, "u2", "newer entry should rank first");
    }

    #[test]
    fn importance_lifts_ranking() {
        let config = StoreConfig {
            weights: RetrievalWeights {
                relevance: 1.0,
                recency: 0.0,
                importance: 1.0,
                half_life_secs: 3600.0,
                diversity: 0.0,
            },
            ..StoreConfig::default()
        };
        let s = KnowledgeStore::new(config);
        s.memorize("t", "beta fact about storms", "low", "news", 0, 0.0);
        s.memorize("t", "beta fact about storms also", "high", "news", 0, 1.0);
        let hits = s.retrieve("beta fact storms", 2, 0);
        assert_eq!(hits[0].source_url, "high");
    }

    #[test]
    fn capacity_eviction_keeps_newest() {
        let config = StoreConfig {
            capacity: 5,
            ..StoreConfig::default()
        };
        let s = KnowledgeStore::new(config);
        for i in 0..10u64 {
            s.memorize(
                "t",
                &format!("unique fact number{i:02} about topic{i:02} entry{i:02}"),
                &format!("u{i}"),
                "news",
                i * 1_000_000,
                0.1,
            );
        }
        assert_eq!(s.len(), 5);
        let entries = s.entries();
        assert!(
            entries.iter().any(|e| e.source_url == "u9"),
            "newest entry must survive eviction"
        );
    }

    #[test]
    fn has_url_tracks_sources() {
        let s = store();
        assert!(!s.has_url("sim://x.test/p"));
        mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1,
        );
        assert!(s.has_url("sim://x.test/p"));
        assert!(!s.has_url("sim://x.test/other"));
    }

    #[test]
    fn json_round_trip_preserves_entries() {
        let s = store();
        mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1,
        );
        mem(&s, "b", "Geomagnetic storms threaten power grids.", 2);
        let json = s.to_json();
        let back = KnowledgeStore::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.entries()[0].content, s.entries()[0].content);
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("ira-agentmem-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("knowledge.json");
        let s = store();
        mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1,
        );
        s.save(&path).unwrap();
        let back = KnowledgeStore::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_knowledge_file_recovers_from_bak() {
        let dir = std::env::temp_dir().join("ira-agentmem-trunc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("knowledge.json");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::persist::backup_path(&path)).ok();

        let s = store();
        mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1,
        );
        s.save(&path).unwrap();
        // Second save rotates the first generation to .bak.
        mem(&s, "b", "Geomagnetic storms threaten power grids.", 2);
        s.save(&path).unwrap();

        // Truncate the primary, as a crash mid-write would.
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 3]).unwrap();

        let back = KnowledgeStore::load(&path).unwrap();
        assert_eq!(
            back.len(),
            1,
            "must recover the previous generation from .bak"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::persist::backup_path(&path)).ok();
    }

    #[test]
    fn stored_embeddings_are_not_trusted_on_load() {
        let s = store();
        mem(
            &s,
            "cables",
            "The EllaLink submarine cable connects Brazil to Portugal.",
            1,
        );
        mem(
            &s,
            "cooking",
            "Salt the pasta water until it tastes like the sea.",
            2,
        );
        let honest = s.to_json();
        let rigged_embeddings = [
            format!("[{}]", vec!["10.0"; crate::EMBED_DIM].join(",")),
            // Out of f32 range: loads as +inf.
            format!("[{}]", vec!["1e39"; crate::EMBED_DIM].join(",")),
            "[1.0, 1.0, 1.0]".to_string(),
        ];
        // The pasta entry's embedding, blanked for splicing.
        let mut file: StoreFile = serde_json::from_str(&honest).unwrap();
        file.entries[1].embedding.clear();
        let template = serde_json::to_string(&file).unwrap();
        assert_eq!(template.matches(r#""embedding":[]"#).count(), 1);
        for rigged in rigged_embeddings {
            let json = template.replace(r#""embedding":[]"#, &format!(r#""embedding":{rigged}"#));
            let back = KnowledgeStore::from_json(&json).unwrap();
            let hits = back.retrieve("submarine cable Brazil", 1, 10);
            assert!(
                hits[0].content.contains("EllaLink"),
                "rigged by {rigged:.24}"
            );
            assert_eq!(back.to_json(), honest, "re-embedded from content");
        }
    }

    #[test]
    fn corrupt_json_is_an_error_not_a_panic() {
        assert!(matches!(
            KnowledgeStore::from_json("{not json"),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn retrieve_texts_orders_most_relevant_last() {
        let s = store();
        mem(
            &s,
            "a",
            "The EllaLink submarine cable connects Brazil to Portugal.",
            1,
        );
        mem(
            &s,
            "b",
            "Completely unrelated gardening trivia about roses.",
            2,
        );
        let texts = s.retrieve_texts("submarine cable Brazil", 2, 10);
        assert_eq!(texts.len(), 2);
        assert!(
            texts[1].contains("EllaLink"),
            "most relevant should be last"
        );
    }

    #[test]
    fn topic_histogram_counts_study_areas() {
        let s = store();
        s.memorize("cables", "fact one about cables", "u1", "news", 0, 0.5);
        s.memorize("cables", "fact two about routes", "u2", "news", 0, 0.5);
        s.memorize("storms", "fact three about storms", "u3", "news", 0, 0.5);
        let hist = s.topic_histogram();
        assert!(hist.contains(&("cables".to_string(), 2)));
        assert!(hist.contains(&("storms".to_string(), 1)));
    }

    #[test]
    fn source_histogram_counts_kinds() {
        let s = store();
        s.memorize("t", "fact one about cables", "u1", "news", 0, 0.5);
        s.memorize("t", "fact two about storms", "u2", "encyclopedia", 0, 0.5);
        s.memorize("t", "fact three about grids", "u3", "news", 0, 0.5);
        let hist = s.source_histogram();
        assert!(hist.contains(&("news".to_string(), 2)));
        assert!(hist.contains(&("encyclopedia".to_string(), 1)));
    }

    #[test]
    fn memorize_builds_the_claim_graph_with_provenance() {
        let s = store();
        s.set_session(7);
        s.memorize(
            "cables",
            "EllaLink cable connects Brazil",
            "sim://a.test/wiki/ellalink",
            "encyclopedia",
            11,
            0.5,
        );
        s.memorize(
            "cables",
            "Grace Hopper cable connects America",
            "sim://b.test/wiki/hopper",
            "encyclopedia",
            22,
            0.5,
        );
        let stats = s.graph_stats();
        assert!(stats.nodes >= 6);
        assert!(stats.corroborated_nodes >= 2, "cable and connects");
        s.with_graph(|g| {
            let cable = g.node_by_text("cable").unwrap();
            assert_eq!(g.corroboration(cable.id), 2);
            let sources = g.sources(cable.id);
            assert_eq!(sources[0].host, "a.test");
            assert_eq!(sources[0].path, "/wiki/ellalink");
            assert_eq!(sources[0].fetched_at_us, 11);
            assert_eq!(sources[0].session, 7);
        });
        let hosts = s.graph_host_stats();
        assert!(hosts.contains_key("a.test") && hosts.contains_key("b.test"));
    }

    #[test]
    fn the_graph_absorbs_pending_entries_when_read_or_before_an_eviction() {
        let s = KnowledgeStore::new(StoreConfig {
            capacity: 3,
            ..StoreConfig::default()
        });
        let page = |i: u64| format!("bulletin{i} reports cable{i} outage{i}");
        for i in 0..3 {
            s.memorize("t", &page(i), "sim://a.test/p", "news", i, 0.5);
        }
        assert_eq!(s.graph_backlog(), 3, "memorise does not absorb");
        assert!(s.graph_stats().nodes >= 9);
        assert_eq!(s.graph_backlog(), 0, "a read catches the graph up");
        for i in 3..6 {
            s.memorize("t", &page(i), "sim://a.test/p", "news", i, 0.5);
            assert_eq!(s.graph_backlog(), 0, "each write over capacity evicts");
        }
    }

    #[test]
    fn eviction_removes_provenance_from_graph() {
        let config = StoreConfig {
            capacity: 2,
            ..StoreConfig::default()
        };
        let s = KnowledgeStore::new(config);
        s.memorize(
            "t",
            "oldest stale claim nonsense",
            "sim://a.test/1",
            "news",
            0,
            0.0,
        );
        s.memorize(
            "t",
            "newer useful cable latitude",
            "sim://b.test/2",
            "news",
            1_000_000,
            0.9,
        );
        s.memorize(
            "t",
            "newest storm grid impact",
            "sim://c.test/3",
            "news",
            2_000_000,
            0.9,
        );
        assert_eq!(s.len(), 2);
        s.with_graph(|g| {
            let node = g.node_by_text("nonsense").unwrap();
            assert!(
                g.sources(node.id).is_empty(),
                "evicted entry's provenance must go"
            );
            assert_eq!(node.occurrences, 1, "the claim itself persists");
        });
    }

    #[test]
    fn save_writes_graph_sidecar_and_load_restores_it() {
        let dir = std::env::temp_dir().join("ira-agentmem-graph-sidecar");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("knowledge.json");
        let sidecar = KnowledgeStore::graph_snapshot_path(&path);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
        std::fs::remove_file(crate::persist::backup_path(&path)).ok();
        std::fs::remove_file(crate::persist::backup_path(&sidecar)).ok();

        let s = store();
        mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1,
        );
        mem(&s, "b", "Geomagnetic storms threaten power grids.", 2);
        s.save(&path).unwrap();
        assert!(sidecar.exists(), "sidecar snapshot must be written");

        let back = KnowledgeStore::load(&path).unwrap();
        assert_eq!(back.graph_backlog(), 0, "the snapshot holds every entry");
        assert_eq!(back.graph_to_bytes(), s.graph_to_bytes());

        // Corrupt the sidecar: load must fall back to a JSON rebuild.
        std::fs::write(&sidecar, b"garbage").unwrap();
        std::fs::remove_file(crate::persist::backup_path(&sidecar)).ok();
        let rebuilt = KnowledgeStore::load(&path).unwrap();
        assert_eq!(rebuilt.graph_backlog(), 2, "rebuilt when first read");
        assert_eq!(
            rebuilt.graph_to_bytes(),
            s.graph_to_bytes(),
            "no evictions happened, so the rebuild matches the snapshot"
        );

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
        std::fs::remove_file(crate::persist::backup_path(&path)).ok();
        std::fs::remove_file(crate::persist::backup_path(&sidecar)).ok();
    }

    /// A snapshot of source-less nodes with these terms and no entries.
    fn term_snapshot(terms: &[&str]) -> Vec<u8> {
        let mut out = b"IRAGRPH2".to_vec();
        out.extend((terms.len() as u32).to_le_bytes());
        for term in terms {
            out.extend((term.len() as u32).to_le_bytes());
            out.extend(term.as_bytes());
            out.extend(1u32.to_le_bytes());
            // First and last seen at 0.
            out.extend([0u8; 16]);
            out.extend(0u32.to_le_bytes());
        }
        out.extend(0u32.to_le_bytes());
        out
    }

    /// The same terms in the previous sidecar format, `IRAGRPH1`: a
    /// decayed flag per node, an empty edge section and a trailing
    /// decay count.
    fn term_snapshot_v1(terms: &[&str]) -> Vec<u8> {
        let mut out = b"IRAGRPH1".to_vec();
        out.extend((terms.len() as u32).to_le_bytes());
        for term in terms {
            out.extend((term.len() as u32).to_le_bytes());
            out.extend(term.as_bytes());
            out.extend(1u32.to_le_bytes());
            // First and last seen at 0, not decayed.
            out.extend([0u8; 17]);
            out.extend(0u32.to_le_bytes());
        }
        out.extend(0u32.to_le_bytes());
        out.extend(0u32.to_le_bytes());
        out.extend(0u64.to_le_bytes());
        out
    }

    #[test]
    fn non_canonical_graph_snapshot_falls_back_to_json_rebuild() {
        let dir = std::env::temp_dir().join("ira-agentmem-graph-canonical");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("knowledge.json");
        let sidecar = KnowledgeStore::graph_snapshot_path(&path);
        let s = store();
        mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1,
        );
        s.save(&path).unwrap();

        // A well-formed snapshot loads as it is...
        let canonical = term_snapshot(&["alpha", "beta"]);
        crate::persist::save_atomic_bytes(&sidecar, &canonical).unwrap();
        assert_eq!(
            KnowledgeStore::load(&path).unwrap().graph_to_bytes(),
            canonical
        );
        // ...one that repeats a term, or a well-formed one in the
        // previous format, does not decode, so the graph is rebuilt
        // from the JSON entries.
        for stale in [
            term_snapshot(&["alpha", "alpha"]),
            term_snapshot_v1(&["alpha", "beta"]),
        ] {
            crate::persist::save_atomic_bytes(&sidecar, &stale).unwrap();
            assert_eq!(
                KnowledgeStore::load(&path).unwrap().graph_to_bytes(),
                s.graph_to_bytes()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The similarity-row memo: each row's position and bits, in
    /// position order.
    fn memo(s: &KnowledgeStore) -> Vec<(usize, Vec<u32>)> {
        let inner = s.inner.read();
        let mut rows: Vec<(usize, Vec<u32>)> = inner
            .rows
            .iter()
            .map(|(&i, row)| (i, row.iter().map(|x| x.to_bits()).collect()))
            .collect();
        rows.sort();
        rows
    }

    /// A store offered `n` pages that share one word: dedup keeps
    /// nearly all of them (all of four).
    fn distinct_pages(capacity: usize, n: u64) -> KnowledgeStore {
        let s = KnowledgeStore::new(StoreConfig {
            capacity,
            ..StoreConfig::default()
        });
        for i in 0..n {
            let page = format!("bulletin{i} reports cable{i} outage{i}");
            s.memorize("t", &page, "sim://a.test/p", "news", i, 0.5);
        }
        s
    }

    #[test]
    fn the_row_memo_stays_under_its_cap() {
        let s = distinct_pages(StoreConfig::default().capacity, 1_000);
        let n = s.len();
        assert!(n > 900, "dedup kept {n}");
        let inner = &mut *s.inner.write();
        let mut peak = 0;
        for i in 0..n {
            let mut fresh = Vec::new();
            inner
                .embeddings
                .dots(&nonzero_buckets(&inner.embeddings.column(i)), &mut fresh);
            assert_eq!(inner.similarity_row(i), fresh, "row {i}");
            let held: usize = inner.rows.values().map(Vec::len).sum();
            assert!(held <= MEMO_FLOATS, "{held} floats after row {i}");
            peak = peak.max(held);
        }
        assert!(peak + n > MEMO_FLOATS, "the cap was reached");
        assert!(inner.rows.len() < n, "and the memo cleared");
    }

    #[test]
    fn an_accepted_write_empties_the_row_memo() {
        for capacity in [4, 2_000] {
            let s = distinct_pages(capacity, 4);
            s.retrieve("bulletin0 cable1 outage2", 3, 10);
            assert_eq!(memo(&s).len(), 2, "two picks with picks to come");
            let id = mem(&s, "t", "a fresh page about solar storms", 11);
            assert!(id.is_some());
            assert!(memo(&s).is_empty(), "capacity {capacity}");
        }
    }

    #[test]
    fn a_rejected_write_keeps_the_row_memo() {
        let s = distinct_pages(2_000, 4);
        s.retrieve_texts("bulletin0 cable1 outage2", 4, 10);
        let before = memo(&s);
        assert_eq!(before.len(), 3);
        assert!(mem(&s, "t", "bulletin1 reports cable1 outage1", 11).is_none());
        assert_eq!(memo(&s), before);
    }

    #[test]
    fn from_json_rebuilds_graph_deterministically() {
        let s = store();
        mem(
            &s,
            "a",
            "The EllaLink cable connects Brazil to Portugal.",
            1,
        );
        mem(&s, "b", "Geomagnetic storms threaten power grids.", 2);
        let back = KnowledgeStore::from_json(&s.to_json()).unwrap();
        assert_eq!(back.graph_to_bytes(), s.graph_to_bytes());
    }
}
