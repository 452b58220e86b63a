//! The claim graph: interned-term claim nodes and per-node provenance.
//!
//! This is the plexus design transplanted onto the agent's memory:
//! alongside the flat list of pages the store keeps a graph of
//! *claims* (salient terms), each carrying the provenance of every
//! document that asserted it. Retrieval never scores it; it answers
//! questions the flat store cannot:
//!
//! * **Corroboration** — a claim supported by many *distinct hosts* is
//!   worth more than one a single source repeats loudly. Support is
//!   counted per host, so an adversary cannot manufacture agreement by
//!   publishing the same fake ten times.
//! * **Provenance** — every live source that asserted a claim
//!   ([`ClaimGraph::sources`]), so an auditor can check where a belief
//!   came from.
//!
//! # Layout
//!
//! * **Nodes.** A node's id is its term's symbol in the graph's
//!   interner: both are dense and assigned in first-seen order, and a
//!   snapshot that repeats a term text is rejected.
//! * **Provenance.** Each absorb adds *one* record (host, path, fetch
//!   time, session, entry id) to a graph-level table, and every node
//!   the document touched lists that record's id. Hosts are interned,
//!   so corroboration counts distinct host ids. Records and hosts are
//!   reference-counted and their slots reused once no node lists them:
//!   the table holds only live provenance, whatever the history of
//!   evictions and repeated entry ids.
//! * **Entries.** Each entry id maps to the nodes its latest absorb
//!   touched, so an eviction finds the records to drop.
//!
//! Everything is deterministic: ids are assigned in first-seen order,
//! sources are listed in absorb order and entries in id order, so
//! [`ClaimGraph::to_bytes`] produces byte-identical snapshots for
//! identical absorb sequences, at any thread or worker count.

use crate::provenance::SourceRef;
use ira_simllm::lexicon::Interner;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Distinct significant terms absorbed per document, in first-seen
/// order.
const MAX_TERMS_PER_DOC: usize = 24;

/// One claim node: an interned salient term plus its provenance.
#[derive(Debug, Clone)]
pub struct ClaimNode {
    /// Dense id, assigned in first-seen order; also the term's symbol
    /// in the graph's interner.
    pub id: u32,
    /// Total documents that mentioned the claim (historical count;
    /// unaffected by store eviction).
    pub occurrences: u32,
    /// Virtual time of first and latest mention.
    pub first_seen_us: u64,
    pub last_seen_us: u64,
    /// One provenance record id per live document that asserted the
    /// claim, in absorb order (see [`ClaimGraph::sources`]).
    sources: Vec<u32>,
}

/// Aggregate graph statistics (the observability surface).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GraphStats {
    pub nodes: u64,
    /// Nodes supported by ≥ 2 distinct hosts.
    pub corroborated_nodes: u64,
    /// Histogram of corroboration over nodes with live provenance:
    /// counts for support 1, 2, 3, and ≥ 4 (always four buckets).
    pub corroboration_histogram: Vec<u64>,
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

/// Snapshot decode failure: truncation, bad magic, garbage counts, or
/// a snapshot [`ClaimGraph::to_bytes`] cannot produce (a repeated term,
/// entries out of order).
#[derive(Debug, Clone)]
pub struct GraphDecodeError(pub String);

impl fmt::Display for GraphDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph snapshot decode error: {}", self.0)
    }
}

impl std::error::Error for GraphDecodeError {}

/// One absorbed document's provenance, shared by every node it touched.
#[derive(Debug, Clone)]
struct Record {
    host: u32,
    path: String,
    fetched_at_us: u64,
    session: u32,
    entry_id: u64,
    /// Node source lists holding this record; the slot is free at 0.
    refs: u32,
}

/// An interned host name and the records naming it (free at 0).
#[derive(Debug, Clone)]
struct Host {
    name: String,
    refs: u32,
}

/// The provenance record table and the hosts its records name.
#[derive(Debug, Default, Clone)]
struct Provenance {
    records: Vec<Record>,
    free_records: Vec<u32>,
    hosts: Vec<Host>,
    host_ids: HashMap<String, u32>,
    free_hosts: Vec<u32>,
}

impl Provenance {
    /// Store `source` (under `entry_id`) as a record already listed by
    /// `refs` nodes.
    fn add(&mut self, source: SourceRef, entry_id: u64, refs: u32) -> u32 {
        let host = match self.host_ids.get(&source.host) {
            Some(&h) => h,
            None => {
                let host = Host {
                    name: source.host.clone(),
                    refs: 0,
                };
                let h = reuse(&mut self.hosts, &mut self.free_hosts, host);
                self.host_ids.insert(source.host, h);
                h
            }
        };
        self.hosts[host as usize].refs += 1;
        let record = Record {
            host,
            path: source.path,
            fetched_at_us: source.fetched_at_us,
            session: source.session,
            entry_id,
            refs,
        };
        reuse(&mut self.records, &mut self.free_records, record)
    }

    /// One node stopped listing record `r`.
    fn release(&mut self, r: u32) {
        let record = &mut self.records[r as usize];
        record.refs -= 1;
        if record.refs > 0 {
            return;
        }
        record.path = String::new();
        self.free_records.push(r);
        let h = record.host;
        let host = &mut self.hosts[h as usize];
        host.refs -= 1;
        if host.refs == 0 {
            self.host_ids.remove(&std::mem::take(&mut host.name));
            self.free_hosts.push(h);
        }
    }

    fn host(&self, r: u32) -> u32 {
        self.records[r as usize].host
    }

    fn host_name(&self, h: u32) -> &str {
        &self.hosts[h as usize].name
    }

    fn source(&self, r: u32) -> SourceRef {
        let record = &self.records[r as usize];
        SourceRef {
            host: self.host_name(record.host).to_string(),
            path: record.path.clone(),
            fetched_at_us: record.fetched_at_us,
            session: record.session,
            entry_id: record.entry_id,
        }
    }

    /// The distinct hosts the records name, ascending, into `out`.
    fn hosts_of(&self, sources: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend(sources.iter().map(|&r| self.host(r)));
        out.sort_unstable();
        out.dedup();
    }
}

/// Put `value` in a free slot of `slots` if there is one, else at the
/// end; returns its index.
fn reuse<T>(slots: &mut Vec<T>, free: &mut Vec<u32>, value: T) -> u32 {
    match free.pop() {
        Some(i) => {
            slots[i as usize] = value;
            i
        }
        None => {
            slots.push(value);
            (slots.len() - 1) as u32
        }
    }
}

/// The claim graph. Owned by the knowledge store and mutated under its
/// write lock, so it needs no interior synchronization of its own.
#[derive(Debug, Default, Clone)]
pub struct ClaimGraph {
    interner: Interner,
    nodes: Vec<ClaimNode>,
    provenance: Provenance,
    /// Entry id → the claim nodes its content contributed.
    entry_nodes: BTreeMap<u64, Vec<u32>>,
}

impl ClaimGraph {
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn nodes(&self) -> &[ClaimNode] {
        &self.nodes
    }

    /// The text behind a node's term.
    pub fn term_text(&self, node_id: u32) -> Option<&str> {
        self.interner.resolve(node_id)
    }

    /// Look a claim node up by its (normalized) term text.
    pub fn node_by_text(&self, term: &str) -> Option<&ClaimNode> {
        let id = self.interner.get(&term.to_lowercase())?;
        self.nodes.get(id as usize)
    }

    /// The claim nodes an entry contributed.
    pub fn nodes_of_entry(&self, entry_id: u64) -> &[u32] {
        self.entry_nodes
            .get(&entry_id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// A node's provenance: one record per live document that asserted
    /// the claim, in absorb order.
    pub fn sources(&self, id: u32) -> Vec<SourceRef> {
        self.nodes.get(id as usize).map_or_else(Vec::new, |node| {
            node.sources
                .iter()
                .map(|&r| self.provenance.source(r))
                .collect()
        })
    }

    /// Source-weighted support: the number of *distinct hosts* that
    /// asserted a claim. Repetition from one host counts once.
    pub fn corroboration(&self, id: u32) -> usize {
        let mut hosts = Vec::new();
        if let Some(node) = self.nodes.get(id as usize) {
            self.provenance.hosts_of(&node.sources, &mut hosts);
        }
        hosts.len()
    }

    /// Absorb one memorised document: upsert claim nodes for its
    /// significant terms and record its provenance once for all of
    /// them.
    pub fn absorb(&mut self, entry_id: u64, content: &str, source: SourceRef) {
        let now = source.fetched_at_us;
        let mut ids: Vec<u32> = Vec::with_capacity(MAX_TERMS_PER_DOC);
        each_term(content, |word| {
            if ids.len() >= MAX_TERMS_PER_DOC {
                return false;
            }
            let id = self.interner.intern(word);
            if id as usize == self.nodes.len() {
                self.nodes.push(ClaimNode {
                    id,
                    occurrences: 0,
                    first_seen_us: now,
                    last_seen_us: now,
                    sources: Vec::new(),
                });
            }
            if !ids.contains(&id) {
                let node = &mut self.nodes[id as usize];
                node.occurrences += 1;
                node.first_seen_us = node.first_seen_us.min(now);
                node.last_seen_us = node.last_seen_us.max(now);
                ids.push(id);
            }
            true
        });
        if !ids.is_empty() {
            let record = self.provenance.add(source, entry_id, ids.len() as u32);
            for &id in &ids {
                self.nodes[id as usize].sources.push(record);
            }
        }
        self.entry_nodes.insert(entry_id, ids);
    }

    /// The store evicted an entry: its provenance records disappear,
    /// but the claims themselves persist — the plexus rule that
    /// knowledge outlives the page it was read from. Every record under
    /// the entry id leaves the nodes of the entry's latest absorb.
    pub fn remove_entry(&mut self, entry_id: u64) {
        let Some(ids) = self.entry_nodes.remove(&entry_id) else {
            return;
        };
        let provenance = &mut self.provenance;
        for id in ids {
            self.nodes[id as usize].sources.retain(|&r| {
                let stays = provenance.records[r as usize].entry_id != entry_id;
                if !stays {
                    provenance.release(r);
                }
                stays
            });
        }
    }

    /// Aggregate statistics; the histogram counts only nodes with live
    /// provenance.
    pub fn stats(&self) -> GraphStats {
        let mut stats = GraphStats {
            nodes: self.nodes.len() as u64,
            corroboration_histogram: vec![0; 4],
            ..GraphStats::default()
        };
        let mut hosts = Vec::new();
        for node in &self.nodes {
            self.provenance.hosts_of(&node.sources, &mut hosts);
            let support = hosts.len();
            if support == 0 {
                continue;
            }
            if support >= 2 {
                stats.corroborated_nodes += 1;
            }
            stats.corroboration_histogram[support.min(4) - 1] += 1;
        }
        stats
    }

    /// Per-host contribution summary over nodes with live provenance.
    pub fn host_stats(&self) -> BTreeMap<String, HostStats> {
        let mut by_id = vec![HostStats::default(); self.provenance.hosts.len()];
        let mut hosts = Vec::new();
        for node in &self.nodes {
            if node.sources.is_empty() {
                continue;
            }
            self.provenance.hosts_of(&node.sources, &mut hosts);
            let corroborated = hosts.len() >= 2;
            for &h in &hosts {
                let slot = &mut by_id[h as usize];
                slot.claims += 1;
                if corroborated {
                    slot.corroborated += 1;
                } else {
                    slot.exclusive += 1;
                }
            }
        }
        by_id
            .into_iter()
            .enumerate()
            .filter(|(_, s)| s.claims > 0)
            .map(|(h, s)| (self.provenance.host_name(h as u32).to_string(), s))
            .collect()
    }

    /// Serialize to the compact binary snapshot format (see module
    /// docs of [`crate::persist`] for the checksum envelope it travels
    /// in). Identical graphs produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, self.nodes.len() as u32);
        for node in &self.nodes {
            put_str(&mut out, self.interner.resolve(node.id).unwrap_or(""));
            put_u32(&mut out, node.occurrences);
            put_u64(&mut out, node.first_seen_us);
            put_u64(&mut out, node.last_seen_us);
            put_u32(&mut out, node.sources.len() as u32);
            for &r in &node.sources {
                let record = &self.provenance.records[r as usize];
                put_str(&mut out, self.provenance.host_name(record.host));
                put_str(&mut out, &record.path);
                put_u64(&mut out, record.fetched_at_us);
                put_u32(&mut out, record.session);
                put_u64(&mut out, record.entry_id);
            }
        }
        put_u32(&mut out, self.entry_nodes.len() as u32);
        for (&entry_id, ids) in &self.entry_nodes {
            put_u64(&mut out, entry_id);
            put_u32(&mut out, ids.len() as u32);
            for &id in ids {
                put_u32(&mut out, id);
            }
        }
        out
    }

    /// Decode a snapshot produced by [`ClaimGraph::to_bytes`].
    ///
    /// Only snapshots `to_bytes` can produce are accepted: term texts
    /// are distinct and entry ids are strictly ascending. Sources with
    /// equal fields share one provenance record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GraphDecodeError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(GraphDecodeError("bad magic".into()));
        }
        let mut graph = ClaimGraph::default();
        let mut records: HashMap<SourceRef, u32> = HashMap::new();
        let node_count = r.u32()? as usize;
        for id in 0..node_count {
            let id = id as u32;
            let term_text = r.str()?;
            let term = graph.interner.intern(&term_text);
            if term != id {
                return Err(GraphDecodeError(format!(
                    "node {id} repeats the term {term_text:?} of node {term}"
                )));
            }
            let occurrences = r.u32()?;
            let first_seen_us = r.u64()?;
            let last_seen_us = r.u64()?;
            let source_count = r.u32()? as usize;
            let mut sources = Vec::with_capacity(source_count.min(1024));
            for _ in 0..source_count {
                let source = SourceRef {
                    host: r.str()?,
                    path: r.str()?,
                    fetched_at_us: r.u64()?,
                    session: r.u32()?,
                    entry_id: r.u64()?,
                };
                let record = match records.get(&source) {
                    Some(&record) => {
                        graph.provenance.records[record as usize].refs += 1;
                        record
                    }
                    None => {
                        let entry_id = source.entry_id;
                        let record = graph.provenance.add(source.clone(), entry_id, 1);
                        records.insert(source, record);
                        record
                    }
                };
                sources.push(record);
            }
            graph.nodes.push(ClaimNode {
                id,
                occurrences,
                first_seen_us,
                last_seen_us,
                sources,
            });
        }
        let entry_count = r.u32()? as usize;
        for _ in 0..entry_count {
            let entry_id = r.u64()?;
            if graph
                .entry_nodes
                .last_key_value()
                .is_some_and(|(&last, _)| last >= entry_id)
            {
                return Err(GraphDecodeError(format!(
                    "entry {entry_id} is not after the entry before it"
                )));
            }
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
        if r.pos != bytes.len() {
            return Err(GraphDecodeError(format!(
                "{} trailing bytes",
                bytes.len() - r.pos
            )));
        }
        Ok(graph)
    }
}

const MAGIC: &[u8] = b"IRAGRPH2";

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

/// Words that carry no claim content; kept tiny, fixed and sorted (for
/// `binary_search`) so term extraction is stable forever.
const STOPWORDS: &[&str] = &[
    "about", "above", "after", "again", "along", "also", "among", "been", "being", "between",
    "both", "could", "does", "down", "each", "ever", "every", "from", "gets", "have", "having",
    "into", "itself", "just", "like", "made", "make", "many", "more", "most", "much", "must",
    "near", "nearly", "only", "onto", "other", "over", "same", "should", "show", "shows", "side",
    "some", "such", "than", "that", "their", "them", "then", "there", "these", "they", "this",
    "those", "through", "under", "upon", "very", "well", "were", "what", "when", "where", "which",
    "while", "whose", "will", "with", "within", "would", "your",
];

/// Call `f` on each candidate term of `text`, in order, until it
/// returns `false`: every run of ASCII letters and digits at least 4
/// bytes long that holds a letter and, lowercased, is not a stopword.
/// Runs are pure ASCII, so each is lowercased exactly in one reused
/// buffer.
fn each_term(text: &str, mut f: impl FnMut(&str) -> bool) {
    let mut word = String::new();
    for raw in text.split(|c: char| !c.is_ascii_alphanumeric()) {
        if raw.len() < 4 || !raw.bytes().any(|b| b.is_ascii_alphabetic()) {
            continue;
        }
        word.clear();
        word.push_str(raw);
        word.make_ascii_lowercase();
        if STOPWORDS.binary_search(&word.as_str()).is_ok() {
            continue;
        }
        if !f(&word) {
            break;
        }
    }
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
        ClaimGraph::default()
    }

    #[test]
    fn significant_terms_are_stable_and_filtered() {
        // The claim nodes one absorb creates are the document's distinct
        // significant terms, in first-seen order, capped per document.
        let terms = |text: &str| {
            let mut g = graph();
            g.absorb(0, text, src("a.test", "/1", 1));
            g.nodes()
                .iter()
                .map(|n| g.term_text(n.id).unwrap().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            terms("The EllaLink submarine cable connects Brazil to Portugal. EllaLink again!"),
            vec![
                "ellalink",
                "submarine",
                "cable",
                "connects",
                "brazil",
                "portugal"
            ]
        );
        assert_eq!(terms("a of to in 123 45.6"), Vec::<String>::new());
        let long: Vec<String> = (0..30).map(|i| format!("term{i}")).collect();
        assert_eq!(terms(&long.join(" ")), long[..MAX_TERMS_PER_DOC]);
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
        assert_eq!(g.corroboration(cable.id), 2, "two distinct hosts");
        assert_eq!(cable.first_seen_us, 10);
        assert_eq!(cable.last_seen_us, 20);
        let ellalink = g.node_by_text("ellalink").unwrap();
        assert_eq!(g.corroboration(ellalink.id), 1);
        assert_eq!(g.nodes_of_entry(0), [0, 1, 2, 3], "its four terms");
        let sources = g.sources(cable.id);
        assert_eq!(sources.len(), 2);
        assert_eq!(
            (sources[1].host.as_str(), sources[1].entry_id),
            ("b.test", 1)
        );
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
        assert_eq!(g.corroboration(node.id), 1, "one host, however loud");
    }

    #[test]
    fn remove_entry_drops_provenance_but_keeps_claims() {
        let mut g = graph();
        g.absorb(7, "ellalink cable brazil", src("a.test", "/1", 1));
        g.remove_entry(7);
        let node = g.node_by_text("ellalink").unwrap();
        assert!(g.sources(node.id).is_empty());
        assert_eq!(node.occurrences, 1, "historical count survives");
        assert!(g.nodes_of_entry(7).is_empty());
    }

    #[test]
    fn stats_histogram_counts_support_levels() {
        let mut g = graph();
        g.absorb(0, "alpha shared claim", src("a.test", "/1", 1));
        g.absorb(1, "alpha shared claim", src("b.test", "/2", 2));
        g.absorb(2, "lonely solitary statement", src("a.test", "/3", 3));
        let stats = g.stats();
        assert_eq!(stats.nodes, 6);
        assert!(stats.corroborated_nodes >= 2);
        assert!(stats.corroboration_histogram[0] >= 2, "support-1 bucket");
        assert!(stats.corroboration_histogram[1] >= 2, "support-2 bucket");
    }

    #[test]
    fn stats_histogram_skips_nodes_without_live_provenance() {
        let mut g = graph();
        g.absorb(0, "alpha shared claim", src("a.test", "/1", 1));
        g.remove_entry(0);
        let stats = g.stats();
        assert_eq!(stats.nodes, 3, "the claims themselves persist");
        assert_eq!(stats.corroboration_histogram, [0, 0, 0, 0]);
        assert!(g.host_stats().is_empty());
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
        let back = ClaimGraph::from_bytes(&bytes).unwrap();
        assert_eq!(
            back.to_bytes(),
            bytes,
            "decode/encode must be a fixed point"
        );
        assert_eq!(back.node_count(), g.node_count());
        let cable = g.node_by_text("cable").unwrap().id;
        assert_eq!(back.sources(cable), g.sources(cable));
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
        assert!(ClaimGraph::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(ClaimGraph::from_bytes(b"NOTAGRPH").is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ClaimGraph::from_bytes(&trailing).is_err());
    }

    #[test]
    fn stopwords_stay_sorted_for_binary_search() {
        assert!(
            STOPWORDS.windows(2).all(|w| w[0] < w[1]),
            "STOPWORDS must stay sorted and distinct"
        );
    }

    #[test]
    fn provenance_table_holds_only_live_records() {
        let mut g = graph();
        for i in 0..200u64 {
            let host = format!("h{}.test", i % 7);
            g.absorb(i, "shared claim words here", src(&host, "/p", i * 10));
            if i >= 3 {
                g.remove_entry(i - 3);
            }
        }
        let live = |g: &ClaimGraph| {
            let p = &g.provenance;
            (
                p.records.len() - p.free_records.len(),
                p.hosts.len() - p.free_hosts.len(),
                p.host_ids.len(),
            )
        };
        assert_eq!(live(&g), (3, 3, 3), "the last three entries' records");
        assert!(g.provenance.records.len() <= 4);
        for i in 197..200 {
            g.remove_entry(i);
        }
        assert_eq!(live(&g), (0, 0, 0));
        assert_eq!(g.corroboration(0), 0);
        assert!(g.host_stats().is_empty());
    }

    #[test]
    fn repeated_entry_ids_keep_their_removal_semantics() {
        let mut g = graph();
        g.absorb(5, "first page alpha shared", src("a.test", "/1", 1));
        g.absorb(5, "second page beta shared", src("b.test", "/2", 2));
        g.remove_entry(5);
        // Only the latest absorb's nodes lose their records, but they
        // lose every record under the id.
        let count = |t: &str| g.sources(g.node_by_text(t).unwrap().id).len();
        assert_eq!(count("shared"), 0);
        assert_eq!(count("beta"), 0);
        assert_eq!(count("alpha"), 1, "the first absorb's own node keeps it");
        assert_eq!(
            g.sources(g.node_by_text("alpha").unwrap().id)[0].host,
            "a.test"
        );
        assert_eq!(g.host_stats().len(), 1);
    }

    /// A snapshot with source-less nodes, written field by field.
    fn snapshot(terms: &[&str], entries: &[(u64, &[u32])]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        put_u32(&mut out, terms.len() as u32);
        for term in terms {
            put_str(&mut out, term);
            put_u32(&mut out, 1);
            put_u64(&mut out, 0);
            put_u64(&mut out, 0);
            put_u32(&mut out, 0);
        }
        put_u32(&mut out, entries.len() as u32);
        for &(entry_id, ids) in entries {
            put_u64(&mut out, entry_id);
            put_u32(&mut out, ids.len() as u32);
            for &id in ids {
                put_u32(&mut out, id);
            }
        }
        out
    }

    #[test]
    fn canonical_snapshot_decodes() {
        let bytes = snapshot(&["alpha", "beta", "gamma"], &[(3, &[0, 1]), (8, &[2])]);
        let g = ClaimGraph::from_bytes(&bytes).unwrap();
        assert_eq!(g.to_bytes(), bytes);
        assert_eq!(g.nodes_of_entry(3), [0, 1]);
        assert_eq!(g.term_text(2), Some("gamma"));
    }

    #[test]
    fn snapshot_with_a_repeated_term_is_rejected() {
        let bytes = snapshot(&["alpha", "beta", "alpha"], &[]);
        let err = ClaimGraph::from_bytes(&bytes).unwrap_err();
        assert!(err.0.contains("repeats the term"), "{err}");
    }

    #[test]
    fn snapshot_with_entries_out_of_order_is_rejected() {
        for entries in [[(5, &[0u32][..]), (3, &[1])], [(5, &[0]), (5, &[1])]] {
            let err = ClaimGraph::from_bytes(&snapshot(&["alpha", "beta"], &entries)).unwrap_err();
            assert!(err.0.contains("not after the entry before it"), "{err}");
        }
    }
}
