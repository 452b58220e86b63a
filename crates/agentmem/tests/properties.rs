//! Property-based tests for embeddings, the knowledge store, its
//! loaders and the `IRAGRPH2` graph snapshot decoder.

use ira_agentmem::graph::GraphDecodeError;
use ira_agentmem::store::StoreError;
use ira_agentmem::{
    cosine, embed, load_with_backup, split_url, ClaimGraph, KnowledgeStore, SourceRef, StoreConfig,
    DEDUP_THRESHOLD, EMBED_DIM,
};
use proptest::prelude::*;
use std::path::Path;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A unique scratch directory per test case (proptest shrinks rerun the
/// closure many times, so the path must never collide across cases).
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ira-agentmem-props-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seeded_store(n: usize) -> KnowledgeStore {
    let store = KnowledgeStore::with_defaults();
    for i in 0..n {
        store.memorize(
            "cables",
            &format!("bulletin number{i:02} reports outage near landing{i:02} station"),
            &format!("sim://host{:02}.test/report/{i}", i % 3),
            "news",
            i as u64 * 11,
            0.5,
        );
    }
    store
}

proptest! {
    #[test]
    fn embeddings_are_unit_or_zero(s in "\\PC{0,300}") {
        let v = embed(&s);
        prop_assert_eq!(v.len(), EMBED_DIM);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm.abs() < 1e-4 || (norm - 1.0).abs() < 1e-4, "norm {norm}");
    }

    #[test]
    fn cosine_is_bounded_and_symmetric(a in "\\PC{0,200}", b in "\\PC{0,200}") {
        let va = embed(&a);
        let vb = embed(&b);
        let c = cosine(&va, &vb);
        prop_assert!((-1.0001..=1.0001).contains(&c));
        prop_assert!((c - cosine(&vb, &va)).abs() < 1e-6);
    }

    #[test]
    fn self_similarity_is_maximal(a in "[a-z ]{5,100}", b in "[a-z ]{5,100}") {
        let va = embed(&a);
        prop_assume!(va.iter().any(|&x| x != 0.0));
        let vb = embed(&b);
        prop_assert!(cosine(&va, &va) >= cosine(&va, &vb) - 1e-5);
    }

    #[test]
    fn store_never_exceeds_capacity(
        capacity in 1usize..20,
        n_inserts in 0usize..50,
    ) {
        let store = KnowledgeStore::new(StoreConfig { capacity, ..StoreConfig::default() });
        for i in 0..n_inserts {
            store.memorize(
                "topic",
                &format!("wholly distinct content item{i:03} about subject{i:03}"),
                &format!("sim://s.test/{i}"),
                "news",
                i as u64,
                0.5,
            );
        }
        prop_assert!(store.len() <= capacity);
    }

    #[test]
    fn memorizing_identical_content_is_idempotent(
        content in "[a-z ]{20,120}",
        repeats in 1usize..6,
    ) {
        let store = KnowledgeStore::with_defaults();
        prop_assume!(embed(&content).iter().any(|&x| x != 0.0));
        for i in 0..repeats {
            store.memorize("t", &content, &format!("u{i}"), "news", i as u64, 0.5);
        }
        prop_assert_eq!(store.len(), 1);
    }

    #[test]
    fn retrieve_respects_k_and_is_deterministic(
        k in 0usize..15,
        n in 0usize..12,
        query in "[a-z ]{3,40}",
    ) {
        let store = KnowledgeStore::with_defaults();
        for i in 0..n {
            store.memorize(
                "t",
                &format!("entry number{i:02} about theme{i:02} and cables"),
                &format!("u{i}"),
                "news",
                i as u64,
                0.5,
            );
        }
        let a = store.retrieve(&query, k, 1_000);
        let b = store.retrieve(&query, k, 1_000);
        prop_assert!(a.len() <= k.min(store.len()));
        prop_assert_eq!(
            a.iter().map(|e| e.id).collect::<Vec<_>>(),
            b.iter().map(|e| e.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_round_trip_preserves_everything(n in 0usize..10) {
        let store = KnowledgeStore::with_defaults();
        for i in 0..n {
            store.memorize(
                "topic",
                &format!("fact number{i:02} about region{i:02}"),
                &format!("sim://src.test/{i}"),
                "blog",
                i as u64 * 7,
                (i as f64 / 10.0).min(1.0),
            );
        }
        let restored = KnowledgeStore::from_json(&store.to_json()).unwrap();
        prop_assert_eq!(restored.len(), store.len());
        let a = store.entries();
        let b = restored.entries();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.content, &y.content);
            prop_assert_eq!(&x.source_url, &y.source_url);
            prop_assert_eq!(x.learned_at, y.learned_at);
        }
    }

    #[test]
    fn graph_snapshot_round_trips_through_disk(n in 0usize..8) {
        let dir = scratch_dir();
        let path = dir.join("knowledge.json");
        let store = seeded_store(n);
        store.save(&path).unwrap();
        let restored = KnowledgeStore::load(&path).unwrap();
        prop_assert_eq!(restored.len(), store.len());
        prop_assert_eq!(restored.graph_to_bytes(), store.graph_to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_with_no_bak_falls_back_to_json_rebuild(
        n in 1usize..8,
        pos in 0usize..1_000_000,
        truncate in 0usize..2,
    ) {
        let truncate = truncate == 1;
        let dir = scratch_dir();
        let path = dir.join("knowledge.json");
        let store = seeded_store(n);
        store.save(&path).unwrap();

        // First save: no .bak exists yet, so a damaged sidecar can only
        // recover via the deterministic rebuild from the JSON entries.
        let sidecar = KnowledgeStore::graph_snapshot_path(&path);
        let mut bytes = std::fs::read(&sidecar).unwrap();
        if truncate {
            bytes.truncate(pos % bytes.len());
        } else {
            let i = pos % bytes.len();
            bytes[i] ^= 0xFF;
        }
        std::fs::write(&sidecar, &bytes).unwrap();

        let restored = KnowledgeStore::load(&path).unwrap();
        prop_assert_eq!(restored.len(), store.len());
        let rebuilt = KnowledgeStore::from_json(&store.to_json()).unwrap();
        prop_assert_eq!(restored.graph_to_bytes(), rebuilt.graph_to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_recovers_from_bak_or_rebuild(
        n in 1usize..6,
        pos in 0usize..1_000_000,
        also_corrupt_bak in 0usize..2,
    ) {
        let also_corrupt_bak = also_corrupt_bak == 1;
        let dir = scratch_dir();
        let path = dir.join("knowledge.json");
        let store = seeded_store(n);
        store.save(&path).unwrap();
        let v1_graph = store.graph_to_bytes();

        // A rewrite rotates the v1 snapshot to `.bak`.
        store.memorize(
            "cables",
            "a late bulletin reports splicing finished overnight",
            "sim://host99.test/report/late",
            "news",
            9_000,
            0.5,
        );
        store.save(&path).unwrap();

        let sidecar = KnowledgeStore::graph_snapshot_path(&path);
        let mut bytes = std::fs::read(&sidecar).unwrap();
        let i = pos % bytes.len();
        bytes[i] ^= 0xFF;
        std::fs::write(&sidecar, &bytes).unwrap();
        if also_corrupt_bak {
            let bak = PathBuf::from(format!("{}.bak", sidecar.display()));
            let mut bak_bytes = std::fs::read(&bak).unwrap();
            let j = pos % bak_bytes.len();
            bak_bytes[j] ^= 0xFF;
            std::fs::write(&bak, &bak_bytes).unwrap();
        }

        let restored = KnowledgeStore::load(&path).unwrap();
        // Entries always come from the (intact) JSON: the full v2 set.
        prop_assert_eq!(restored.len(), store.len());
        if also_corrupt_bak {
            // Both snapshot generations damaged: deterministic rebuild
            // from the v2 JSON entries.
            let rebuilt = KnowledgeStore::from_json(&store.to_json()).unwrap();
            prop_assert_eq!(restored.graph_to_bytes(), rebuilt.graph_to_bytes());
        } else {
            // The rotated v1 snapshot is the freshest intact graph —
            // degraded (missing the last absorb) but never fatal.
            prop_assert_eq!(restored.graph_to_bytes(), v1_graph);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The words dedup pages are built from: few enough that random pages
/// are often near-duplicates of one another.
const DEDUP_WORDS: [&str; 4] = ["cable", "storm", "latitude", "outage"];

/// A page repeating each of [`DEDUP_WORDS`] the given number of times.
fn counted(counts: &[usize; 4]) -> String {
    let mut words = Vec::new();
    for (word, &n) in DEDUP_WORDS.iter().zip(counts) {
        words.extend(std::iter::repeat_n(*word, n));
    }
    words.join(" ")
}

/// The oracle: the dense dedup scan — does any stored entry's cosine
/// to `content` reach the store's threshold? It embeds each stored
/// content itself rather than trust the store's vectors.
fn dense_duplicate(store: &KnowledgeStore, content: &str) -> bool {
    let v = embed(content);
    store
        .entries()
        .iter()
        .any(|e| cosine(&embed(&e.content), &v) >= DEDUP_THRESHOLD)
}

proptest! {
    #[test]
    fn dedup_decisions_match_the_dense_scan(
        pages in prop::collection::vec((0usize..10, 0usize..10, 0usize..10, 0usize..10), 1..40),
    ) {
        let store = KnowledgeStore::with_defaults();
        for (i, &(a, b, c, d)) in pages.iter().enumerate() {
            let counts = [a, b, c, d];
            let content = counted(&counts);
            let duplicate = dense_duplicate(&store, &content);
            let id = store.memorize("t", &content, &format!("sim://h.test/{i}"), "news", i as u64, 0.5);
            prop_assert_eq!(id.is_none(), duplicate, "page {} {:?}", i, counts);
        }
    }
}

/// The words graph-equivalence pages are built from: few enough that
/// claims recur across pages and hosts, and some pages are duplicates.
const GRAPH_WORDS: [&str; 6] = ["cable", "storm", "latitude", "outage", "grid", "repeater"];

/// One step of a graph-equivalence run.
#[derive(Debug, Clone)]
enum GraphOp {
    /// Memorise the page of these [`GRAPH_WORDS`] indices from this
    /// host, at this importance (tenths).
    Memorize(Vec<usize>, usize, u8),
    SetSession(u32),
    Read,
}

/// Six memorises to one session change to two reads, on average. The
/// last draw is the importance of a memorise (in tenths) or the new
/// session.
fn graph_op() -> impl Strategy<Value = GraphOp> {
    (
        0u8..9,
        prop::collection::vec(0usize..GRAPH_WORDS.len(), 1..6),
        0usize..3,
        0u8..=10,
    )
        .prop_map(|(kind, words, host, n)| match kind {
            0..=5 => GraphOp::Memorize(words, host, n),
            6 => GraphOp::SetSession(u32::from(n % 4)),
            _ => GraphOp::Read,
        })
}

proptest! {
    /// The store's deferred claim graph reads the same as an oracle
    /// graph that absorbs every accepted write at once and drops every
    /// evicted entry's provenance at once.
    #[test]
    fn deferred_graph_reads_equal_an_eagerly_built_one(
        capacity in 1usize..=8,
        ops in prop::collection::vec(graph_op(), 1..60),
    ) {
        let store = KnowledgeStore::new(StoreConfig { capacity, ..StoreConfig::default() });
        let mut oracle = ClaimGraph::default();
        let mut absorbed: Vec<u64> = Vec::new();
        let mut session = 0;
        for (step, op) in ops.iter().enumerate() {
            match op {
                GraphOp::Memorize(words, host, importance) => {
                    let content: Vec<&str> = words.iter().map(|&w| GRAPH_WORDS[w]).collect();
                    let content = content.join(" ");
                    let url = format!("sim://host{host}.test/page/{step}");
                    let learned_at = step as u64 * 1_000_000;
                    let importance = f64::from(*importance) / 10.0;
                    let Some(id) =
                        store.memorize("t", &content, &url, "news", learned_at, importance)
                    else {
                        continue;
                    };
                    let (host, path) = split_url(&url);
                    oracle.absorb(
                        id,
                        &content,
                        SourceRef { host, path, fetched_at_us: learned_at, session, entry_id: id },
                    );
                    absorbed.push(id);
                    let live: Vec<u64> = store.entries().iter().map(|e| e.id).collect();
                    for id in absorbed.iter().filter(|id| !live.contains(id)) {
                        oracle.remove_entry(*id);
                    }
                    absorbed.retain(|id| live.contains(id));
                }
                GraphOp::SetSession(s) => {
                    session = *s;
                    store.set_session(*s);
                }
                GraphOp::Read => {
                    prop_assert_eq!(store.graph_to_bytes(), oracle.to_bytes());
                    prop_assert_eq!(store.graph_stats(), oracle.stats());
                    prop_assert_eq!(store.graph_host_stats(), oracle.host_stats());
                    prop_assert_eq!(store.graph_backlog(), 0);
                }
            }
            prop_assert!(store.graph_backlog() <= capacity + 1, "step {}", step);
        }
        prop_assert_eq!(store.graph_to_bytes(), oracle.to_bytes());
    }
}

/// Pairs whose cosine lies within 1e-6 of [`DEDUP_THRESHOLD`] (0.98):
/// one ulp below it, exactly on it, and one ulp above it. The stored
/// page sits at every position of stores of up to eight entries, and
/// first, last and on either side of the 32-entry tile boundaries of
/// the embedding matrix in larger stores.
#[test]
fn dedup_decisions_at_the_threshold_match_the_dense_scan() {
    let cases = [
        ([3, 3, 1, 1], [9, 6, 2, 2], false),
        ([3, 3, 1, 1], [8, 6, 4, 3], true),
        ([6, 2, 3, 1], [6, 1, 3, 2], true),
    ];
    for (stored, new, duplicate) in cases {
        let (stored, new) = (counted(&stored), counted(&new));
        let similarity = cosine(&embed(&stored), &embed(&new));
        assert!((similarity - 0.98).abs() <= 1e-6, "{similarity}");
        let small = (1..=8).flat_map(|len| (0..len).map(move |at| (len, at)));
        let large = [32, 33, 65].into_iter().flat_map(|len: usize| {
            [0, 30, 31, 32, 33, len - 1]
                .into_iter()
                .filter(move |&at| at < len)
                .map(move |at| (len, at))
        });
        for (len, at) in small.chain(large) {
            let store = KnowledgeStore::with_defaults();
            for i in 0..len {
                let page = if i == at {
                    stored.clone()
                } else {
                    format!("filler{i} garden{i} rose{i} pasta")
                };
                let url = format!("u{i}");
                assert!(store.memorize("t", &page, &url, "news", 0, 0.5).is_some());
            }
            assert_eq!(dense_duplicate(&store, &new), duplicate, "{similarity}");
            let id = store.memorize("t", &new, "new", "news", 1, 0.5);
            assert_eq!(id.is_none(), duplicate, "{similarity} at {at} of {len}");
        }
    }
}

/// A real snapshot with every section non-empty: documents from three
/// hosts (so some claims corroborate), a removed entry, and a source
/// record shared by several nodes.
fn real_snapshot() -> &'static [u8] {
    static SNAPSHOT: OnceLock<Vec<u8>> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut g = ClaimGraph::default();
        let docs = [
            ("a.test", "cable apex latitude degrees storm"),
            ("b.test", "cable apex latitude repeaters"),
            ("a.test", "gardening roses pasta"),
            ("c.test", "storm latitude outage grid"),
        ];
        for (i, (host, text)) in docs.into_iter().enumerate() {
            let entry_id = i as u64;
            let source = SourceRef {
                host: host.to_string(),
                path: format!("/doc/{i}"),
                fetched_at_us: 10 * entry_id,
                session: (i % 2) as u32,
                entry_id,
            };
            g.absorb(entry_id, text, source);
        }
        g.remove_entry(1);
        g.to_bytes()
    })
}

/// The decoder contract: any input yields `Ok` or a `GraphDecodeError`
/// (a panic fails the test), and a graph it accepts re-encodes to the
/// very bytes it was decoded from.
fn decode_is_total_and_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    match ClaimGraph::from_bytes(bytes) {
        Ok(graph) => {
            let again = graph.to_bytes();
            let first_difference = again.iter().zip(bytes).position(|(x, y)| x != y);
            prop_assert!(
                again == bytes,
                "an accepted snapshot of {} bytes re-encodes to {} bytes, first difference at {:?}",
                bytes.len(),
                again.len(),
                first_difference
            );
        }
        Err(GraphDecodeError(message)) => prop_assert!(!message.is_empty()),
    }
    Ok(())
}

#[test]
fn every_truncation_and_flipped_byte_of_a_real_snapshot_decodes_safely() {
    let snapshot = real_snapshot();
    let graph = ClaimGraph::from_bytes(snapshot).unwrap();
    assert_eq!(graph.to_bytes(), snapshot);
    for len in 0..snapshot.len() {
        assert!(
            ClaimGraph::from_bytes(&snapshot[..len]).is_err(),
            "a snapshot cut to {len} bytes decoded"
        );
    }
    for at in 0..snapshot.len() {
        for byte in [0x00, 0x01, 0x02, 0x7f, 0x80, 0xff, snapshot[at] ^ 0x01] {
            let mut bytes = snapshot.to_vec();
            bytes[at] = byte;
            if let Err(e) = decode_is_total_and_canonical(&bytes) {
                panic!("byte {at} set to {byte:#04x}: {e}");
            }
        }
    }
}

proptest! {
    #[test]
    fn graph_decoder_survives_arbitrary_bytes(
        magic in 0u8..2,
        tail in prop::collection::vec(0u8..=255, 0..512),
    ) {
        // Half the inputs carry the magic, so the body parser is reached.
        let mut bytes = real_snapshot()[..8 * magic as usize].to_vec();
        bytes.extend_from_slice(&tail);
        decode_is_total_and_canonical(&bytes)?;
    }

    #[test]
    fn graph_decoder_survives_truncated_and_mutated_snapshots(
        at in 0..real_snapshot().len(),
        byte in 0u8..=255,
        cut in 0..=real_snapshot().len(),
    ) {
        let mut bytes = real_snapshot().to_vec();
        bytes[at] = byte;
        bytes.truncate(cut);
        decode_is_total_and_canonical(&bytes)?;
    }
}

/// A real training checkpoint: the file `TrainingCheckpoint::save`
/// wrote after Bob's first training goal over the default web (six
/// entries in its `memory`), as ira-core's
/// `interrupted_training_resumes_to_identical_knowledge` reconstructs
/// it, while the dedup threshold was still a config field.
const CHECKPOINT: &[u8] = include_bytes!("data/checkpoint.json");

/// The checkpoint's `memory`: a store's `to_json`, or `None`.
fn checkpoint_memory(payload: &str) -> Option<String> {
    match serde_json::parse(payload).ok()? {
        serde_json::Value::Object(mut body) => match body.remove("memory")? {
            serde_json::Value::String(memory) => Some(memory),
            _ => None,
        },
        _ => None,
    }
}

/// The real inputs: a `knowledge.json` as `KnowledgeStore::save` writes
/// it (over the checkpoint's memory), its bare payload (as a file
/// written before checksum envelopes, which still loads; it is also the
/// checkpoint's `memory` text), and the checkpoint.
fn real_inputs() -> &'static [Vec<u8>; 3] {
    static INPUTS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let dir = scratch_dir();
        let path = dir.join("checkpoint.json");
        std::fs::write(&path, CHECKPOINT).unwrap();
        let payload = load_with_backup(&path).unwrap();
        let memory = checkpoint_memory(&payload).expect("the checkpoint holds a memory");
        let store = KnowledgeStore::from_json(&memory).unwrap();
        assert_eq!(store.len(), 6);
        // The checkpoint predates the fixed dedup threshold: its memory
        // still carries `config.dedup_threshold`, which load ignores and
        // `to_json` no longer writes.
        let old_field = "    \"dedup_threshold\": 0.9800000190734863,\n";
        assert!(memory.contains(old_field));
        assert_eq!(store.to_json(), memory.replace(old_field, ""));
        let path = dir.join("knowledge.json");
        store.save(&path).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        [file, memory.into_bytes(), CHECKPOINT.to_vec()]
    })
}

/// The loader contract: a typed error, or a store whose `to_json` loads
/// back to the same text (and whose claim graph builds).
fn loads_safely(loaded: Result<KnowledgeStore, StoreError>) -> Result<(), TestCaseError> {
    let store = match loaded {
        Ok(store) => store,
        Err(e) => {
            prop_assert!(!e.to_string().is_empty());
            return Ok(());
        }
    };
    let json = store.to_json();
    match KnowledgeStore::from_json(&json) {
        Ok(again) => prop_assert_eq!(again.to_json(), json),
        Err(e) => prop_assert!(false, "a loaded store's own to_json is rejected: {}", e),
    }
    store.graph_stats();
    Ok(())
}

/// Every loader over `bytes`, written to `path` (which has no `.bak`
/// or `.graph` sibling): `KnowledgeStore::load` on them as a knowledge
/// file, `from_json` on their text, and the checkpoint path (the
/// envelope reader, then `from_json` on the payload's `memory`).
fn every_loader_is_safe(path: &Path, bytes: &[u8]) -> Result<(), TestCaseError> {
    // A fresh file, not a truncated one: some filesystems flush a file
    // rewritten in place on close.
    std::fs::remove_file(path).ok();
    std::fs::write(path, bytes).unwrap();
    loads_safely(KnowledgeStore::load(path))?;
    loads_safely(KnowledgeStore::from_json(&String::from_utf8_lossy(bytes)))?;
    if let Some(memory) = load_with_backup(path)
        .ok()
        .as_deref()
        .and_then(checkpoint_memory)
    {
        loads_safely(KnowledgeStore::from_json(&memory))?;
    }
    Ok(())
}

#[test]
fn every_truncation_of_a_real_knowledge_file_and_checkpoint_loads_safely() {
    let dir = scratch_dir();
    let path = dir.join("input.json");
    for (input, bytes) in real_inputs().iter().enumerate() {
        for len in 0..=bytes.len() {
            if let Err(e) = every_loader_is_safe(&path, &bytes[..len]) {
                panic!("input {input} cut to {len} bytes: {e}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #[test]
    fn knowledge_loaders_survive_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..1024),
    ) {
        let dir = scratch_dir();
        every_loader_is_safe(&dir.join("input.json"), &bytes)?;
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn knowledge_loaders_survive_single_byte_flips(
        input in 0usize..3,
        at in 0usize..1_000_000,
        byte in 0u8..=255,
    ) {
        let mut bytes = real_inputs()[input].clone();
        let at = at % bytes.len();
        bytes[at] = byte;
        let dir = scratch_dir();
        every_loader_is_safe(&dir.join("input.json"), &bytes)?;
        std::fs::remove_dir_all(&dir).ok();
    }
}
