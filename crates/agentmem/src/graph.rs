//! The weighted claim graph: interned-term claim nodes, co-occurrence
//! edges that strengthen across distinct documents, and per-node
//! provenance.
//!
//! This is the plexus design transplanted onto the agent's memory:
//! knowledge is not a flat list of pages but a graph of *claims*
//! (salient terms), each carrying the provenance of every document
//! that asserted it. Structure buys three things the flat store cannot
//! offer:
//!
//! * **Corroboration** — a claim supported by many *distinct hosts* is
//!   worth more than one a single source repeats loudly. Support is
//!   counted per host, so an adversary cannot manufacture agreement by
//!   publishing the same fake ten times.
//! * **Neighborhood retrieval** — a query activates its matched claim
//!   nodes plus their strongest co-occurrence neighbors, bridging
//!   vocabulary gaps term-coverage retrieval misses.
//! * **Decay** — claims no document has reinforced within a horizon
//!   (and that no second source ever corroborated) can be forgotten,
//!   bounding graph growth over long virtual horizons.
//!
//! Everything is deterministic: node ids are assigned in first-seen
//! order, edges live in an ordered map, and [`ClaimGraph::to_bytes`]
//! produces byte-identical snapshots for identical absorb sequences —
//! at any thread or worker count.

use crate::provenance::SourceRef;
use ira_simllm::lexicon::{Interner, Term};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Graph construction and retrieval knobs. Deliberately *not* part of
/// the serialized [`crate::StoreConfig`], so enabling the graph never
/// perturbs `knowledge.json` bytes.
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    /// Distinct significant terms absorbed per document (first-seen
    /// order). Bounds per-document edge fan-out quadratically.
    pub max_terms_per_doc: usize,
    /// Strongest edges followed per matched node during neighborhood
    /// expansion.
    pub expansion_per_node: usize,
    /// Weight of the corroboration term in graph-mode retrieval
    /// scoring (added to the legacy relevance/recency/importance
    /// score).
    pub corroboration_weight: f64,
    /// Forget un-corroborated claims not reinforced for this many
    /// virtual µs (0 disables decay, the default).
    pub decay_after_us: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            max_terms_per_doc: 24,
            expansion_per_node: 3,
            corroboration_weight: 0.35,
            decay_after_us: 0,
        }
    }
}

/// One claim node: an interned salient term plus full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimNode {
    /// Dense id, assigned in first-seen order.
    pub id: u32,
    /// Symbol in the graph's interner (== `id` by construction, kept
    /// separate so readers don't rely on the coincidence).
    pub term: Term,
    /// Total documents that mentioned the claim (historical count;
    /// unaffected by store eviction).
    pub occurrences: u32,
    /// Virtual time of first and latest mention.
    pub first_seen_us: u64,
    pub last_seen_us: u64,
    /// Decayed nodes keep their id (so edges/entry refs stay valid)
    /// but drop provenance and stop contributing to retrieval.
    pub decayed: bool,
    /// One record per live document that asserted the claim.
    pub sources: Vec<SourceRef>,
}

impl ClaimNode {
    /// Source-weighted support: the number of *distinct hosts* that
    /// asserted this claim. Repetition from one host counts once.
    pub fn corroboration(&self) -> usize {
        self.sources
            .iter()
            .map(|s| s.host.as_str())
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Aggregate graph statistics (the observability surface).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GraphStats {
    pub nodes: u64,
    pub live_nodes: u64,
    pub edges: u64,
    /// Live nodes supported by ≥ 2 distinct hosts.
    pub corroborated_nodes: u64,
    /// Histogram of live-node corroboration: counts for support
    /// 1, 2, 3, and ≥ 4 (always four buckets).
    pub corroboration_histogram: Vec<u64>,
    pub decay_evictions: u64,
}

/// Per-host contribution summary, the basis of source-trust weighting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Live claim nodes this host supports.
    pub claims: usize,
    /// Of those, claims at least one *other* host also supports.
    pub corroborated: usize,
    /// Claims only this host ever asserted.
    pub exclusive: usize,
}

/// Snapshot decode failure (truncation, bad magic, garbage counts).
#[derive(Debug, Clone)]
pub struct GraphDecodeError(pub String);

impl fmt::Display for GraphDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph snapshot decode error: {}", self.0)
    }
}

impl std::error::Error for GraphDecodeError {}

/// The claim graph. Owned by the knowledge store and mutated under its
/// write lock, so it needs no interior synchronization of its own.
#[derive(Debug, Default, Clone)]
pub struct ClaimGraph {
    config: GraphConfig,
    interner: Interner,
    nodes: Vec<ClaimNode>,
    by_term: HashMap<Term, u32>,
    /// `(a, b) -> distinct documents where both terms co-occurred`,
    /// with `a < b`.
    edges: BTreeMap<(u32, u32), u32>,
    /// Entry id → the claim nodes its content contributed.
    entry_nodes: BTreeMap<u64, Vec<u32>>,
    decay_evictions: u64,
}

impl ClaimGraph {
    pub fn new(config: GraphConfig) -> Self {
        ClaimGraph {
            config,
            ..ClaimGraph::default()
        }
    }

    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn nodes(&self) -> &[ClaimNode] {
        &self.nodes
    }

    pub fn decay_evictions(&self) -> u64 {
        self.decay_evictions
    }

    /// The text behind a node's term.
    pub fn term_text(&self, node_id: u32) -> Option<&str> {
        self.nodes
            .get(node_id as usize)
            .and_then(|n| self.interner.resolve(n.term))
    }

    /// Look a claim node up by its (normalized) term text.
    pub fn node_by_text(&self, term: &str) -> Option<&ClaimNode> {
        let t = self.interner.get(&term.to_lowercase())?;
        let id = *self.by_term.get(&t)?;
        self.nodes.get(id as usize)
    }

    /// The claim nodes an entry contributed.
    pub fn nodes_of_entry(&self, entry_id: u64) -> &[u32] {
        self.entry_nodes
            .get(&entry_id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Absorb one memorised document: upsert claim nodes for its
    /// significant terms, append provenance, and strengthen every
    /// pairwise co-occurrence edge by one (this document).
    pub fn absorb(&mut self, entry_id: u64, content: &str, source: SourceRef) {
        let now = source.fetched_at_us;
        let terms = significant_terms(content, self.config.max_terms_per_doc);
        let mut ids: Vec<u32> = Vec::with_capacity(terms.len());
        for term in &terms {
            let t = self.interner.intern(term);
            let id = match self.by_term.get(&t) {
                Some(&id) => {
                    let node = &mut self.nodes[id as usize];
                    node.occurrences += 1;
                    node.first_seen_us = node.first_seen_us.min(now);
                    node.last_seen_us = node.last_seen_us.max(now);
                    // A reinforced claim is no longer forgotten.
                    node.decayed = false;
                    id
                }
                None => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(ClaimNode {
                        id,
                        term: t,
                        occurrences: 1,
                        first_seen_us: now,
                        last_seen_us: now,
                        decayed: false,
                        sources: Vec::new(),
                    });
                    self.by_term.insert(t, id);
                    id
                }
            };
            self.nodes[id as usize].sources.push(SourceRef {
                entry_id,
                ..source.clone()
            });
            ids.push(id);
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let key = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                *self.edges.entry(key).or_insert(0) += 1;
            }
        }
        self.entry_nodes.insert(entry_id, ids);
        if self.config.decay_after_us > 0 {
            self.decay(now);
        }
    }

    /// The store evicted an entry: its provenance records disappear,
    /// but the claims themselves (and the co-occurrence evidence)
    /// persist — the plexus rule that knowledge outlives the page it
    /// was read from.
    pub fn remove_entry(&mut self, entry_id: u64) {
        if let Some(ids) = self.entry_nodes.remove(&entry_id) {
            let mut seen = BTreeSet::new();
            for id in ids {
                if seen.insert(id) {
                    self.nodes[id as usize]
                        .sources
                        .retain(|s| s.entry_id != entry_id);
                }
            }
        }
    }

    /// Forget un-corroborated claims not reinforced within the decay
    /// horizon: provenance is dropped, edges are cut, the id survives
    /// as a tombstone. Returns how many nodes were evicted.
    pub fn decay(&mut self, now_us: u64) -> u64 {
        let horizon = self.config.decay_after_us;
        if horizon == 0 {
            return 0;
        }
        let mut evicted: Vec<u32> = Vec::new();
        for node in &mut self.nodes {
            if !node.decayed
                && node.last_seen_us.saturating_add(horizon) < now_us
                && node
                    .sources
                    .iter()
                    .map(|s| s.host.as_str())
                    .collect::<BTreeSet<_>>()
                    .len()
                    < 2
            {
                node.decayed = true;
                node.sources.clear();
                evicted.push(node.id);
            }
        }
        if !evicted.is_empty() {
            let gone: BTreeSet<u32> = evicted.iter().copied().collect();
            self.edges
                .retain(|(a, b), _| !gone.contains(a) && !gone.contains(b));
        }
        self.decay_evictions += evicted.len() as u64;
        evicted.len() as u64
    }

    /// A node's co-occurrence neighbors as `(weight, neighbor id)`,
    /// sorted weight-descending with ties broken on neighbor id —
    /// the same deterministic order [`activate`](Self::activate)
    /// expands in.
    pub fn neighbors(&self, id: u32) -> Vec<(u32, u32)> {
        let mut neighbors: Vec<(u32, u32)> = self
            .edges
            .iter()
            .filter_map(|(&(a, b), &w)| {
                if a == id {
                    Some((w, b))
                } else if b == id {
                    Some((w, a))
                } else {
                    None
                }
            })
            .collect();
        neighbors.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        neighbors
    }

    /// Activate the graph for a query: matched nodes at 1.0, plus each
    /// matched node's strongest co-occurrence neighbors at an
    /// edge-weight-scaled fraction. Deterministic: ties break on node
    /// id.
    pub fn activate(&self, query: &str) -> BTreeMap<u32, f64> {
        let mut activation: BTreeMap<u32, f64> = BTreeMap::new();
        let matched: Vec<u32> = significant_terms(query, self.config.max_terms_per_doc)
            .iter()
            .filter_map(|t| self.interner.get(t))
            .filter_map(|t| self.by_term.get(&t).copied())
            .filter(|&id| !self.nodes[id as usize].decayed)
            .collect();
        for &id in &matched {
            activation.insert(id, 1.0);
        }
        for &id in &matched {
            let neighbors = self.neighbors(id);
            for &(w, n) in neighbors.iter().take(self.config.expansion_per_node) {
                if self.nodes[n as usize].decayed {
                    continue;
                }
                let strength = 0.5 * (w as f64 / (w as f64 + 1.0));
                let slot = activation.entry(n).or_insert(0.0);
                if strength > *slot {
                    *slot = strength;
                }
            }
        }
        activation
    }

    /// Graph support of one entry under an activation map: mean over
    /// the entry's claim nodes of `activation × ln(1 + corroboration)`.
    /// Uncorroborated claims (support 1) contribute `ln 2 ≈ 0.69`; a
    /// claim four hosts agree on contributes `ln 5 ≈ 1.6`.
    pub fn entry_support(&self, entry_id: u64, activation: &BTreeMap<u32, f64>) -> f64 {
        let Some(ids) = self.entry_nodes.get(&entry_id) else {
            return 0.0;
        };
        if ids.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &id in ids {
            let node = &self.nodes[id as usize];
            if node.decayed {
                continue;
            }
            if let Some(act) = activation.get(&id) {
                total += act * (1.0 + node.corroboration() as f64).ln();
            }
        }
        total / ids.len() as f64
    }

    /// Aggregate statistics over live nodes.
    pub fn stats(&self) -> GraphStats {
        let mut stats = GraphStats {
            nodes: self.nodes.len() as u64,
            edges: self.edges.len() as u64,
            decay_evictions: self.decay_evictions,
            corroboration_histogram: vec![0; 4],
            ..GraphStats::default()
        };
        for node in &self.nodes {
            if node.decayed {
                continue;
            }
            stats.live_nodes += 1;
            let support = node.corroboration();
            if support >= 2 {
                stats.corroborated_nodes += 1;
            }
            let bucket = support.clamp(1, 4) - 1;
            stats.corroboration_histogram[bucket] += 1;
        }
        stats
    }

    /// Per-host contribution summary over live nodes.
    pub fn host_stats(&self) -> BTreeMap<String, HostStats> {
        let mut hosts: BTreeMap<String, HostStats> = BTreeMap::new();
        for node in &self.nodes {
            if node.decayed || node.sources.is_empty() {
                continue;
            }
            let node_hosts: BTreeSet<&str> = node.sources.iter().map(|s| s.host.as_str()).collect();
            let corroborated = node_hosts.len() >= 2;
            for host in node_hosts {
                let slot = hosts.entry(host.to_string()).or_default();
                slot.claims += 1;
                if corroborated {
                    slot.corroborated += 1;
                } else {
                    slot.exclusive += 1;
                }
            }
        }
        hosts
    }

    /// Serialize to the compact binary snapshot format (see module
    /// docs of [`crate::persist`] for the checksum envelope it travels
    /// in). Identical graphs produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, self.nodes.len() as u32);
        for node in &self.nodes {
            put_str(&mut out, self.interner.resolve(node.term).unwrap_or(""));
            put_u32(&mut out, node.occurrences);
            put_u64(&mut out, node.first_seen_us);
            put_u64(&mut out, node.last_seen_us);
            out.push(node.decayed as u8);
            put_u32(&mut out, node.sources.len() as u32);
            for s in &node.sources {
                put_str(&mut out, &s.host);
                put_str(&mut out, &s.path);
                put_u64(&mut out, s.fetched_at_us);
                put_u32(&mut out, s.session);
                put_u64(&mut out, s.entry_id);
            }
        }
        put_u32(&mut out, self.edges.len() as u32);
        for (&(a, b), &w) in &self.edges {
            put_u32(&mut out, a);
            put_u32(&mut out, b);
            put_u32(&mut out, w);
        }
        put_u32(&mut out, self.entry_nodes.len() as u32);
        for (&entry_id, ids) in &self.entry_nodes {
            put_u64(&mut out, entry_id);
            put_u32(&mut out, ids.len() as u32);
            for &id in ids {
                put_u32(&mut out, id);
            }
        }
        put_u64(&mut out, self.decay_evictions);
        out
    }

    /// Decode a snapshot produced by [`ClaimGraph::to_bytes`]. The
    /// config is *not* serialized (it is runtime tuning, not state);
    /// the caller re-applies its own.
    pub fn from_bytes(bytes: &[u8], config: GraphConfig) -> Result<Self, GraphDecodeError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(GraphDecodeError("bad magic".into()));
        }
        let mut graph = ClaimGraph::new(config);
        let node_count = r.u32()? as usize;
        for id in 0..node_count {
            let term_text = r.str()?;
            let term = graph.interner.intern(&term_text);
            let occurrences = r.u32()?;
            let first_seen_us = r.u64()?;
            let last_seen_us = r.u64()?;
            let decayed = r.u8()? != 0;
            let source_count = r.u32()? as usize;
            let mut sources = Vec::with_capacity(source_count.min(1024));
            for _ in 0..source_count {
                sources.push(SourceRef {
                    host: r.str()?,
                    path: r.str()?,
                    fetched_at_us: r.u64()?,
                    session: r.u32()?,
                    entry_id: r.u64()?,
                });
            }
            let id = id as u32;
            graph.by_term.insert(term, id);
            graph.nodes.push(ClaimNode {
                id,
                term,
                occurrences,
                first_seen_us,
                last_seen_us,
                decayed,
                sources,
            });
        }
        let edge_count = r.u32()? as usize;
        for _ in 0..edge_count {
            let a = r.u32()?;
            let b = r.u32()?;
            let w = r.u32()?;
            if a as usize >= node_count || b as usize >= node_count {
                return Err(GraphDecodeError(format!("edge ({a},{b}) out of range")));
            }
            graph.edges.insert((a, b), w);
        }
        let entry_count = r.u32()? as usize;
        for _ in 0..entry_count {
            let entry_id = r.u64()?;
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let id = r.u32()?;
                if id as usize >= node_count {
                    return Err(GraphDecodeError(format!("entry node {id} out of range")));
                }
                ids.push(id);
            }
            graph.entry_nodes.insert(entry_id, ids);
        }
        graph.decay_evictions = r.u64()?;
        if r.pos != bytes.len() {
            return Err(GraphDecodeError(format!(
                "{} trailing bytes",
                bytes.len() - r.pos
            )));
        }
        Ok(graph)
    }
}

const MAGIC: &[u8] = b"IRAGRPH1";

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], GraphDecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(GraphDecodeError(format!(
                "truncated at byte {} (wanted {n} more)",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, GraphDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, GraphDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, GraphDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, GraphDecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| GraphDecodeError(format!("invalid utf-8 at byte {}", self.pos)))
    }
}

/// Words that carry no claim content; kept tiny and fixed so term
/// extraction is stable forever.
const STOPWORDS: &[&str] = &[
    "about", "above", "after", "again", "along", "also", "among", "been", "being", "between",
    "both", "could", "does", "down", "each", "ever", "every", "from", "gets", "have", "having",
    "into", "itself", "just", "like", "made", "make", "many", "more", "most", "much", "must",
    "near", "nearly", "only", "onto", "other", "over", "same", "should", "show", "shows", "side",
    "some", "such", "than", "that", "their", "them", "then", "there", "these", "they", "this",
    "those", "through", "under", "upon", "very", "well", "were", "what", "when", "where", "which",
    "while", "whose", "will", "with", "within", "would", "your",
];

/// Extract the distinct significant terms of a text: lowercased
/// alphanumeric words of length ≥ 4 that are not stopwords, in
/// first-seen order, capped at `max`. Pure and deterministic — the
/// vocabulary layer of every graph operation.
pub fn significant_terms(text: &str, max: usize) -> Vec<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut terms = Vec::new();
    for raw in text.split(|c: char| !c.is_ascii_alphanumeric()) {
        if terms.len() >= max {
            break;
        }
        if raw.len() < 4 {
            continue;
        }
        let word = raw.to_lowercase();
        if !word.chars().any(|c| c.is_ascii_alphabetic()) {
            continue;
        }
        if STOPWORDS.contains(&word.as_str()) {
            continue;
        }
        if seen.insert(word.clone()) {
            terms.push(word);
        }
    }
    terms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(host: &str, path: &str, t: u64) -> SourceRef {
        SourceRef {
            host: host.to_string(),
            path: path.to_string(),
            fetched_at_us: t,
            session: 0,
            entry_id: 0,
        }
    }

    fn graph() -> ClaimGraph {
        ClaimGraph::new(GraphConfig::default())
    }

    #[test]
    fn significant_terms_are_stable_and_filtered() {
        let terms = significant_terms(
            "The EllaLink submarine cable connects Brazil to Portugal. EllaLink again!",
            8,
        );
        assert_eq!(
            terms,
            vec![
                "ellalink",
                "submarine",
                "cable",
                "connects",
                "brazil",
                "portugal"
            ]
        );
        assert_eq!(
            significant_terms("a of to in 123 45.6", 8),
            Vec::<String>::new()
        );
        assert_eq!(significant_terms("alpha beta gamma delta", 2).len(), 2);
    }

    #[test]
    fn absorb_builds_nodes_edges_and_provenance() {
        let mut g = graph();
        g.absorb(0, "EllaLink cable connects Brazil", src("a.test", "/1", 10));
        g.absorb(
            1,
            "Grace Hopper cable connects America",
            src("b.test", "/2", 20),
        );
        assert!(g.node_count() >= 6);
        let cable = g.node_by_text("cable").unwrap();
        assert_eq!(cable.occurrences, 2);
        assert_eq!(cable.corroboration(), 2, "two distinct hosts");
        assert_eq!(cable.first_seen_us, 10);
        assert_eq!(cable.last_seen_us, 20);
        let ellalink = g.node_by_text("ellalink").unwrap();
        assert_eq!(ellalink.corroboration(), 1);
        // cable—connects co-occurred in both documents.
        let (a, b) = (cable.id.min(g.node_by_text("connects").unwrap().id), {
            cable.id.max(g.node_by_text("connects").unwrap().id)
        });
        assert_eq!(g.edges.get(&(a, b)), Some(&2));
    }

    #[test]
    fn same_host_repetition_does_not_corroborate() {
        let mut g = graph();
        for i in 0..5 {
            g.absorb(
                i,
                "shady bulletin inflates apex figures",
                src("adversary.test", &format!("/p{i}"), i),
            );
        }
        let node = g.node_by_text("bulletin").unwrap();
        assert_eq!(node.occurrences, 5);
        assert_eq!(node.corroboration(), 1, "one host, however loud");
    }

    #[test]
    fn activation_expands_to_strong_neighbors() {
        let mut g = graph();
        g.absorb(
            0,
            "geomagnetic latitude threatens cable",
            src("a.test", "/1", 1),
        );
        g.absorb(
            1,
            "geomagnetic latitude threatens cable",
            src("b.test", "/2", 2),
        );
        g.absorb(
            2,
            "unrelated gardening trivia roses",
            src("c.test", "/3", 3),
        );
        let activation = g.activate("geomagnetic");
        let matched = g.node_by_text("geomagnetic").unwrap().id;
        assert_eq!(activation.get(&matched), Some(&1.0));
        let neighbor = g.node_by_text("latitude").unwrap().id;
        let strength = activation.get(&neighbor).copied().unwrap();
        assert!(strength > 0.0 && strength < 1.0, "neighbor at {strength}");
        let roses = g.node_by_text("roses").unwrap().id;
        assert!(!activation.contains_key(&roses));
    }

    #[test]
    fn entry_support_prefers_corroborated_content() {
        let mut g = graph();
        // The honest claim appears on two hosts; the fake on one.
        g.absorb(
            0,
            "cable apex latitude degrees",
            src("honest-a.test", "/1", 1),
        );
        g.absorb(
            1,
            "cable apex latitude degrees",
            src("honest-b.test", "/2", 2),
        );
        g.absorb(
            2,
            "cable apex latitude degrees bulletin exclusive",
            src("adversary.test", "/3", 3),
        );
        let activation = g.activate("cable apex latitude");
        let honest = g.entry_support(0, &activation);
        let poison = g.entry_support(2, &activation);
        assert!(
            honest > poison,
            "corroborated entry must outscore the stuffed one ({honest} vs {poison})"
        );
    }

    #[test]
    fn remove_entry_drops_provenance_but_keeps_claims() {
        let mut g = graph();
        g.absorb(7, "ellalink cable brazil", src("a.test", "/1", 1));
        g.remove_entry(7);
        let node = g.node_by_text("ellalink").unwrap();
        assert!(node.sources.is_empty());
        assert_eq!(node.occurrences, 1, "historical count survives");
        assert!(g.nodes_of_entry(7).is_empty());
    }

    #[test]
    fn decay_forgets_stale_uncorroborated_claims() {
        let mut g = ClaimGraph::new(GraphConfig {
            decay_after_us: 100,
            ..GraphConfig::default()
        });
        g.absorb(0, "transient rumor claims nonsense", src("a.test", "/1", 0));
        g.absorb(1, "durable fact cable latitude", src("a.test", "/2", 0));
        g.absorb(2, "durable fact cable latitude", src("b.test", "/3", 50));
        let evicted = g.decay(500);
        assert!(evicted >= 1);
        assert!(g.node_by_text("rumor").unwrap().decayed);
        assert!(
            !g.node_by_text("durable").unwrap().decayed,
            "corroborated claims survive"
        );
        assert_eq!(g.decay_evictions(), evicted);
        let stats = g.stats();
        assert_eq!(stats.decay_evictions, evicted);
        assert!(stats.live_nodes < stats.nodes);
        // Re-mention resurrects the claim.
        g.absorb(3, "transient rumor resurfaces", src("c.test", "/4", 600));
        assert!(!g.node_by_text("rumor").unwrap().decayed);
    }

    #[test]
    fn stats_histogram_counts_support_levels() {
        let mut g = graph();
        g.absorb(0, "alpha shared claim", src("a.test", "/1", 1));
        g.absorb(1, "alpha shared claim", src("b.test", "/2", 2));
        g.absorb(2, "lonely solitary statement", src("a.test", "/3", 3));
        let stats = g.stats();
        assert_eq!(stats.nodes, stats.live_nodes);
        assert!(stats.corroborated_nodes >= 2);
        assert!(stats.corroboration_histogram[0] >= 2, "support-1 bucket");
        assert!(stats.corroboration_histogram[1] >= 2, "support-2 bucket");
    }

    #[test]
    fn host_stats_separate_corroborated_from_exclusive() {
        let mut g = graph();
        g.absorb(
            0,
            "shared vocabulary cable latitude",
            src("a.test", "/1", 1),
        );
        g.absorb(
            1,
            "shared vocabulary cable latitude",
            src("b.test", "/2", 2),
        );
        g.absorb(
            2,
            "exclusive bulletin nonsense spree",
            src("evil.test", "/3", 3),
        );
        let hosts = g.host_stats();
        assert_eq!(hosts["a.test"].corroborated, hosts["a.test"].claims);
        assert_eq!(hosts["evil.test"].corroborated, 0);
        assert_eq!(hosts["evil.test"].exclusive, hosts["evil.test"].claims);
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let mut g = graph();
        g.absorb(
            0,
            "EllaLink cable connects Brazil to Portugal",
            src("a.test", "/1", 10),
        );
        g.absorb(
            1,
            "Grace Hopper cable connects New York to Bude",
            src("b.test", "/2", 20),
        );
        g.remove_entry(0);
        let bytes = g.to_bytes();
        let back = ClaimGraph::from_bytes(&bytes, GraphConfig::default()).unwrap();
        assert_eq!(
            back.to_bytes(),
            bytes,
            "decode/encode must be a fixed point"
        );
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(
            back.node_by_text("cable").unwrap().sources,
            g.node_by_text("cable").unwrap().sources
        );
    }

    #[test]
    fn identical_absorb_sequences_serialize_identically() {
        let build = || {
            let mut g = graph();
            g.absorb(0, "alpha beta gamma", src("a.test", "/1", 1));
            g.absorb(1, "beta gamma delta", src("b.test", "/2", 2));
            g.to_bytes()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn truncated_and_corrupt_snapshots_are_errors() {
        let mut g = graph();
        g.absorb(0, "alpha beta gamma", src("a.test", "/1", 1));
        let bytes = g.to_bytes();
        assert!(ClaimGraph::from_bytes(&bytes[..bytes.len() / 2], GraphConfig::default()).is_err());
        assert!(ClaimGraph::from_bytes(b"NOTAGRPH", GraphConfig::default()).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ClaimGraph::from_bytes(&trailing, GraphConfig::default()).is_err());
    }
}
