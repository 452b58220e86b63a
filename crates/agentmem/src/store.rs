//! The knowledge store: dedup, scored retrieval, eviction, and
//! `knowledge.json` persistence — plus the weighted claim graph
//! maintained alongside the entries (see [`crate::graph`]).
//!
//! The graph is always *built* (every memorise absorbs its content,
//! every eviction drops its provenance), but only *consulted* when
//! graph retrieval is switched on via
//! [`KnowledgeStore::set_graph_retrieval`] — the same legacy-parity
//! pattern as `set_scan_lookups` in the corpus index. With the flag
//! off, retrieval scoring, `knowledge.json` bytes, and therefore quiz
//! answers are byte-identical to the flat-store path.

use crate::embed::{cosine, embed, nonzero_buckets, sparse_dot, sparse_dots};
use crate::entry::KnowledgeEntry;
use crate::graph::{ClaimGraph, GraphConfig, GraphStats, HostStats};
use crate::provenance::{split_url, SourceRef};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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

/// The agent's knowledge memory. Thread-safe: retrieval fan-out reads
/// concurrently while the memoriser writes.
pub struct KnowledgeStore {
    inner: RwLock<Inner>,
    config: StoreConfig,
    /// When set, retrieval scoring adds the graph corroboration term.
    /// Runtime-only (never serialized) so `knowledge.json` stays
    /// byte-identical either way.
    graph_retrieval: AtomicBool,
    /// Session id stamped into provenance records (0 outside
    /// multi-session runs).
    session: AtomicU32,
}

struct Inner {
    entries: Vec<KnowledgeEntry>,
    next_id: u64,
    graph: ClaimGraph,
}

/// One entry's state during a [`KnowledgeStore::retrieve`] selection.
struct Candidate {
    /// Base retrieval score (before the diversity penalty).
    score: f64,
    id: u64,
    /// Position in `Inner::entries`.
    index: usize,
    /// Max cosine to the first `folded` selected entries.
    max_sim: f64,
    folded: usize,
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

/// Sort the `want` candidates that come next in the base order into
/// place after the sorted prefix `candidates[..sorted]`, leaving every
/// later candidate after them. Returns the new prefix length.
fn sort_more(candidates: &mut [Candidate], sorted: usize, want: usize) -> usize {
    let rest = &mut candidates[sorted..];
    let m = want.min(rest.len());
    if m < rest.len() {
        rest.select_nth_unstable_by(m, base_order);
    }
    rest[..m].sort_unstable_by(base_order);
    sorted + m
}

/// Candidates whose max similarities are brought up to date together.
const LANES: usize = 4;

/// Bring the `max_sim` of the candidates at `lanes` (positions, maybe
/// repeated) up to date: each folds in the selected entries it has not
/// seen yet, in selection order.
fn fold_selected(
    candidates: &mut [Candidate],
    lanes: [usize; LANES],
    selected: &[Vec<(usize, f32)>],
    entries: &[KnowledgeEntry],
) {
    let from = lanes
        .iter()
        .map(|&p| candidates[p].folded)
        .min()
        .unwrap_or_default();
    let dense = lanes.map(|p| entries[candidates[p].index].embedding.as_slice());
    for (j, s) in selected.iter().enumerate().skip(from) {
        for (&p, sim) in lanes.iter().zip(sparse_dots(s, dense)) {
            let c = &mut candidates[p];
            if c.folded <= j {
                c.max_sim = c.max_sim.max(sim as f64);
            }
        }
    }
    for p in lanes {
        candidates[p].folded = selected.len();
    }
}

impl KnowledgeStore {
    pub fn new(config: StoreConfig) -> Self {
        KnowledgeStore {
            inner: RwLock::new(Inner {
                entries: Vec::new(),
                next_id: 0,
                graph: ClaimGraph::new(GraphConfig::default()),
            }),
            config,
            graph_retrieval: AtomicBool::new(false),
            session: AtomicU32::new(0),
        }
    }

    pub fn with_defaults() -> Self {
        KnowledgeStore::new(StoreConfig::default())
    }

    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Switch the graph corroboration term in retrieval scoring on or
    /// off (default off). Off ⇒ scoring is byte-identical to the flat
    /// store; the graph is still built either way.
    pub fn set_graph_retrieval(&self, enabled: bool) {
        self.graph_retrieval.store(enabled, Ordering::Relaxed);
    }

    /// Whether graph-mode retrieval is active.
    pub fn graph_retrieval(&self) -> bool {
        self.graph_retrieval.load(Ordering::Relaxed)
    }

    /// Set the session id stamped into provenance records of future
    /// memorisations.
    pub fn set_session(&self, session: u32) {
        self.session.store(session, Ordering::Relaxed);
    }

    /// Replace the claim-graph tuning (expansion width, corroboration
    /// weight, decay horizon). Runtime-only; not serialized.
    pub fn set_graph_config(&self, config: GraphConfig) {
        self.inner.write().graph.set_config(config);
    }

    /// Aggregate claim-graph statistics (the observability surface).
    pub fn graph_stats(&self) -> GraphStats {
        self.inner.read().graph.stats()
    }

    /// Per-host contribution summary from the claim graph.
    pub fn graph_host_stats(&self) -> BTreeMap<String, HostStats> {
        self.inner.read().graph.host_stats()
    }

    /// Run a closure against the claim graph under the read lock (for
    /// audits, CLI queries, and tests).
    pub fn with_graph<R>(&self, f: impl FnOnce(&ClaimGraph) -> R) -> R {
        f(&self.inner.read().graph)
    }

    /// Serialize the claim graph to its compact binary snapshot.
    pub fn graph_to_bytes(&self) -> Vec<u8> {
        self.inner.read().graph.to_bytes()
    }

    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memorise a piece of content. Returns the new entry id, or `None`
    /// if it was dropped as a near-duplicate.
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
        let inner = &mut *self.inner.write();

        let duplicate = inner
            .entries
            .iter()
            .any(|e| cosine(&e.embedding, &embedding) >= self.config.dedup_threshold);
        if duplicate {
            return None;
        }

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
            embedding,
        });

        // Absorb into the claim graph with full provenance.
        let (host, path) = split_url(source_url);
        inner.graph.absorb(
            id,
            content,
            SourceRef {
                host,
                path,
                fetched_at_us: learned_at,
                session: self.session.load(Ordering::Relaxed),
                entry_id: id,
            },
        );

        if inner.entries.len() > self.config.capacity {
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
    /// With graph retrieval on, each entry's score additionally earns
    /// `corroboration_weight × entry_support` — the graph activation of
    /// its claims (query matches plus strong co-occurrence neighbors)
    /// weighted by how many *distinct hosts* corroborate each claim.
    ///
    /// The result is exactly that of the plain greedy loop: at every
    /// step, rescan all remaining entries in the base order (score desc,
    /// id asc) for the greatest `score − diversity × max_sim`, where
    /// `max_sim` is the `f64::max` fold from `0.0` of the entry's
    /// [`cosine`] to each selected entry, and let the *last* maximum
    /// win ties (`Iterator::max_by`). This loop does far less work:
    ///
    /// - **Cached max.** Each candidate keeps its `max_sim` and folds in
    ///   only the entries selected since it was last examined — the
    ///   same fold over the same values in the same order.
    /// - **Early exit.** The penalty is never negative (diversity > 0,
    ///   `max_sim ≥ 0`), so no adjusted score is above its base score.
    ///   Once a base score is strictly below the best adjusted score of
    ///   the step, neither that candidate nor any later one can win or
    ///   tie, and the scan stops. A candidate that ties the best
    ///   replaces it, as the last maximum does under `max_by`.
    /// - **Lazy order.** Only the prefix of the base order the scans
    ///   reach is sorted, in doubling chunks.
    /// - **Sparse dots.** Relevance and the similarity to a selected
    ///   entry are [`sparse_dot`]s over the query's or selected entry's
    ///   non-zero buckets, in ascending order from a `+0.0` accumulator:
    ///   bit-identical to [`cosine`] on finite, non-negative,
    ///   `EMBED_DIM`-long embeddings, which every stored embedding is
    ///   (they come from [`embed`], also in a loaded store — see
    ///   [`KnowledgeStore::from_json`]). A few candidates' sums are run
    ///   side by side, each in its own order.
    /// - Selected candidates are marked, not removed, and only the `k`
    ///   winners are cloned.
    pub fn retrieve(&self, query: &str, k: usize, now: u64) -> Vec<KnowledgeEntry> {
        let inner = self.inner.read();
        self.select(&inner, query, k, now)
            .into_iter()
            .map(|i| inner.entries[i].clone())
            .collect()
    }

    /// The positions in `inner.entries` of what
    /// [`KnowledgeStore::retrieve`] returns, in selection order.
    fn select(&self, inner: &Inner, query: &str, k: usize, now: u64) -> Vec<usize> {
        let q = nonzero_buckets(&embed(query));
        let activation = self.graph_retrieval().then(|| inner.graph.activate(query));
        let corroboration_weight = inner.graph.config().corroboration_weight;
        let mut candidates: Vec<Candidate> = inner
            .entries
            .iter()
            .enumerate()
            .map(|(index, e)| {
                let mut score = self.score(e, &q, now);
                if let Some(activation) = &activation {
                    score += corroboration_weight * inner.graph.entry_support(e.id, activation);
                }
                Candidate {
                    score,
                    id: e.id,
                    index,
                    max_sim: 0.0,
                    folded: 0,
                    taken: false,
                }
            })
            .collect();
        let k = k.min(candidates.len());

        let diversity = self.config.weights.diversity;
        if diversity <= 0.0 {
            sort_more(&mut candidates, 0, k);
            return candidates[..k].iter().map(|c| c.index).collect();
        }

        // `candidates[..sorted]` is in the base order; all later
        // candidates come after it.
        let mut sorted = 0;
        // Sparse embeddings of the selected entries, in selection order.
        let mut selected: Vec<Vec<(usize, f32)>> = Vec::with_capacity(k);
        let mut picks = Vec::with_capacity(k);
        while picks.len() < k {
            let mut best: Option<(usize, f64)> = None;
            for pos in 0..candidates.len() {
                if pos == sorted {
                    sorted = sort_more(&mut candidates, sorted, sorted.max(64));
                }
                let c = &candidates[pos];
                if c.taken {
                    continue;
                }
                if best.is_some_and(|(_, b)| c.score.total_cmp(&b).is_lt()) {
                    break;
                }
                if c.folded < selected.len() {
                    // The next few candidates are likely examined next.
                    let lanes = std::array::from_fn(|lane| (pos + lane).min(sorted - 1));
                    fold_selected(&mut candidates, lanes, &selected, &inner.entries);
                }
                let c = &candidates[pos];
                let adjusted = c.score - diversity * c.max_sim;
                if best.is_none_or(|(_, b)| adjusted.total_cmp(&b).is_ge()) {
                    best = Some((pos, adjusted));
                }
            }
            // `picks.len() < k <= candidates.len()` leaves one untaken.
            let Some((pos, _)) = best else { break };
            let winner = &mut candidates[pos];
            winner.taken = true;
            selected.push(nonzero_buckets(&inner.entries[winner.index].embedding));
            picks.push(winner.index);
        }
        picks
    }

    /// The retrieval score of an entry for a query's non-zero buckets.
    fn score(&self, e: &KnowledgeEntry, query: &[(usize, f32)], now: u64) -> f64 {
        let w = &self.config.weights;
        let relevance = sparse_dot(query, &e.embedding) as f64;
        let age_secs = now.saturating_sub(e.learned_at) as f64 / 1e6;
        let recency = 0.5f64.powf(age_secs / w.half_life_secs);
        w.relevance * relevance + w.recency * recency + w.importance * e.importance
    }

    /// Retrieve just the content strings (prompt-ready), top-`k`,
    /// ordered least-relevant-first so the most relevant text sits
    /// closest to the question in the prompt (and survives context
    /// truncation longest).
    pub fn retrieve_texts(&self, query: &str, k: usize, now: u64) -> Vec<String> {
        let inner = self.inner.read();
        self.select(&inner, query, k, now)
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
        self.inner.read().entries.clone()
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
            entries: inner.entries.clone(),
        };
        serde_json::to_string_pretty(&file).expect("store serializes")
    }

    /// Load from the `knowledge.json` format. Every entry is
    /// re-embedded from its `content`: the embedding is a pure function
    /// of the content, and a stored one is not trusted — an edited file
    /// could otherwise rig retrieval with an oversized, infinite or
    /// wrong-length vector. The claim graph is rebuilt
    /// deterministically from the surviving entries (historical claims
    /// of evicted entries are only recoverable from a graph snapshot —
    /// see [`KnowledgeStore::load`]).
    pub fn from_json(json: &str) -> Result<Self, StoreError> {
        let mut file: StoreFile = serde_json::from_str(json)?;
        for e in &mut file.entries {
            e.embedding = embed(&e.content);
        }
        let graph = rebuild_graph(&file.entries);
        Ok(KnowledgeStore {
            inner: RwLock::new(Inner {
                entries: file.entries,
                next_id: file.next_id,
                graph,
            }),
            config: file.config,
            graph_retrieval: AtomicBool::new(false),
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
            if let Ok(graph) = ClaimGraph::from_bytes(&bytes, GraphConfig::default()) {
                store.inner.write().graph = graph;
            }
        }
        Ok(store)
    }
}

/// Rebuild the claim graph from surviving entries, in insertion order.
/// The deterministic fallback when no graph snapshot is available.
fn rebuild_graph(entries: &[KnowledgeEntry]) -> ClaimGraph {
    let mut graph = ClaimGraph::new(GraphConfig::default());
    for e in entries {
        let (host, path) = split_url(&e.source_url);
        graph.absorb(
            e.id,
            &e.content,
            SourceRef {
                host,
                path,
                fetched_at_us: e.learned_at,
                session: 0,
                entry_id: e.id,
            },
        );
    }
    graph
}

fn standing(e: &KnowledgeEntry, now: u64, w: &RetrievalWeights) -> f64 {
    let age_secs = now.saturating_sub(e.learned_at) as f64 / 1e6;
    let recency = 0.5f64.powf(age_secs / w.half_life_secs);
    e.importance + recency
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
        assert!(stats.edges > 0);
        s.with_graph(|g| {
            let cable = g.node_by_text("cable").unwrap();
            assert_eq!(cable.corroboration(), 2);
            assert_eq!(cable.sources[0].host, "a.test");
            assert_eq!(cable.sources[0].path, "/wiki/ellalink");
            assert_eq!(cable.sources[0].fetched_at_us, 11);
            assert_eq!(cable.sources[0].session, 7);
        });
        let hosts = s.graph_host_stats();
        assert!(hosts.contains_key("a.test") && hosts.contains_key("b.test"));
    }

    #[test]
    fn graph_flag_off_means_flat_scoring() {
        // Two stores fed identically, one with graph retrieval toggled
        // on and back off — retrieval must be byte-identical.
        let feed = |s: &KnowledgeStore| {
            s.memorize(
                "t",
                "alpha cable latitude fact",
                "sim://a.test/1",
                "news",
                1,
                0.5,
            );
            s.memorize(
                "t",
                "beta storm latitude fact",
                "sim://b.test/2",
                "news",
                2,
                0.5,
            );
            s.memorize(
                "t",
                "gardening trivia roses",
                "sim://c.test/3",
                "forum",
                3,
                0.5,
            );
        };
        let plain = store();
        feed(&plain);
        let toggled = store();
        toggled.set_graph_retrieval(true);
        feed(&toggled);
        toggled.set_graph_retrieval(false);
        assert_eq!(
            plain.retrieve_texts("latitude fact", 2, 10),
            toggled.retrieve_texts("latitude fact", 2, 10)
        );
        assert_eq!(plain.to_json(), toggled.to_json());
    }

    #[test]
    fn graph_mode_lifts_corroborated_entries() {
        // Entries tie on flat scoring (disjoint vocab, same recency /
        // importance weights zeroed), but one claim set is asserted by
        // two hosts. Graph mode must prefer the corroborated entry.
        let config = StoreConfig {
            weights: RetrievalWeights {
                relevance: 1.0,
                recency: 0.0,
                importance: 0.0,
                half_life_secs: 3600.0,
                diversity: 0.0,
            },
            ..StoreConfig::default()
        };
        let s = KnowledgeStore::new(config);
        s.memorize(
            "t",
            "apex latitude figure corroborated",
            "sim://a.test/1",
            "news",
            1,
            0.5,
        );
        s.memorize(
            "t",
            "apex latitude figure confirmed independently",
            "sim://b.test/2",
            "news",
            2,
            0.5,
        );
        s.memorize(
            "t",
            "apex latitude bulletin exclusive fabricated",
            "sim://evil.test/3",
            "news",
            3,
            0.5,
        );
        s.set_graph_retrieval(true);
        let hits = s.retrieve("apex latitude", 1, 10);
        assert!(
            !hits[0].source_url.contains("evil"),
            "corroborated claims must outrank the single-host exclusive"
        );
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
                node.sources.is_empty(),
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
        assert_eq!(back.graph_to_bytes(), s.graph_to_bytes());

        // Corrupt the sidecar: load must fall back to a JSON rebuild.
        std::fs::write(&sidecar, b"garbage").unwrap();
        std::fs::remove_file(crate::persist::backup_path(&sidecar)).ok();
        let rebuilt = KnowledgeStore::load(&path).unwrap();
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
