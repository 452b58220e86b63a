//! # ira-agentmem
//!
//! The agent's long-term knowledge memory — the `knowledge.json` file of
//! the HotNets '23 architecture (§3, component 3). Retrieved web content
//! is stored as scored, embedded entries; when the agent reasons, the
//! most relevant entries are loaded into the model's prompt.
//!
//! * [`mod@embed`] — feature-hashed bag-of-words embeddings with cosine
//!   similarity (a deterministic, dependency-free stand-in for a
//!   sentence-embedding model), plus a sparse dot over one side's
//!   non-zero buckets that is bit-identical to it, and the store's
//!   bucket-major embedding matrix, which runs that dot against every
//!   entry in one sweep.
//! * [`entry`] — the knowledge entry record, with provenance (source
//!   URL and kind) so the evaluation can audit where conclusions came
//!   from, as §4.2 of the paper does.
//! * [`store`] — the store: deduplication, generative-agents-style
//!   retrieval scoring (relevance + recency + importance), capacity
//!   eviction, and `knowledge.json` (de)serialization.
//! * [`persist`] — crash-safe persistence shared by everything that
//!   writes JSON state: atomic temp-file + fsync + rename writes,
//!   checksum envelopes (JSON and binary), and `.bak` rotation with
//!   fallback on load.
//! * [`graph`] — the weighted claim graph: interned-term claim nodes
//!   with per-source provenance, co-occurrence edges that strengthen
//!   across distinct documents, per-host corroboration (the poisoning
//!   detector's input), and a compact checksummed binary snapshot.
//!   Retrieval never scores it.
//! * [`provenance`] — [`provenance::SourceRef`] records (host, path,
//!   fetch virtual-time, absorbing session) attached to every claim.

pub mod embed;
pub mod entry;
pub mod graph;
pub mod persist;
pub mod provenance;
pub mod store;

pub use embed::{cosine, embed, nonzero_buckets, sparse_dot, EMBED_DIM};
pub use entry::KnowledgeEntry;
pub use graph::{ClaimGraph, ClaimNode, GraphConfig, GraphStats, HostStats};
pub use persist::{load_bytes_with_backup, load_with_backup, save_atomic, save_atomic_bytes};
pub use provenance::{split_url, SourceRef};
pub use store::{KnowledgeStore, RetrievalWeights, StoreConfig};
