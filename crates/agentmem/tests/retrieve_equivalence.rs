//! `KnowledgeStore::retrieve` against the quadratic MMR loop it
//! replaced: random stores must give the same entries in the same
//! order, and the sparse relevance dot must match `cosine` bit for bit.
//! The oracle embeds every entry's content itself, so it does not share
//! the store's embedding matrix; a third property pins what the store
//! hands out from that matrix to `embed(content)`.

use ira_agentmem::{
    cosine, embed, nonzero_buckets, sparse_dot, KnowledgeEntry, KnowledgeStore, RetrievalWeights,
    StoreConfig,
};
use proptest::prelude::*;

/// A small vocabulary, so generated pages overlap heavily: many
/// near-duplicates, and many exact score ties.
const WORDS: [&str; 12] = [
    "cable", "storm", "latitude", "brazil", "outage", "grid", "solar", "repeater", "route",
    "pasta", "garden", "rose",
];

fn text(words: &[usize]) -> String {
    words
        .iter()
        .map(|&w| WORDS[w])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The retrieval score `quadratic_retrieve` ranks by.
fn quadratic_score(w: &RetrievalWeights, e: &KnowledgeEntry, query: &[f32], now: u64) -> f64 {
    let relevance = cosine(&embed(&e.content), query) as f64;
    let age_secs = now.saturating_sub(e.learned_at) as f64 / 1e6;
    let recency = 0.5f64.powf(age_secs / w.half_life_secs);
    w.relevance * relevance + w.recency * recency + w.importance * e.importance
}

/// The oracle: the greedy MMR selection as `KnowledgeStore::retrieve`
/// used to run it, reading the store through its public API. Every step
/// rescans all remaining candidates and recomputes each one's cosine to
/// every selected entry.
fn quadratic_retrieve(
    store: &KnowledgeStore,
    query: &str,
    k: usize,
    now: u64,
) -> Vec<KnowledgeEntry> {
    let q = embed(query);
    let entries = store.entries();
    let weights = store.config().weights;
    let mut candidates: Vec<(f64, &KnowledgeEntry)> = entries
        .iter()
        .map(|e| (quadratic_score(&weights, e, &q, now), e))
        .collect();
    // Deterministic base order: score desc, id asc.
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.id.cmp(&b.1.id)));

    let diversity = weights.diversity;
    if diversity <= 0.0 {
        return candidates
            .into_iter()
            .take(k)
            .map(|(_, e)| e.clone())
            .collect();
    }

    let mut selected: Vec<(KnowledgeEntry, Vec<f32>)> = Vec::with_capacity(k.min(candidates.len()));
    while selected.len() < k && !candidates.is_empty() {
        let best = candidates
            .iter()
            .enumerate()
            .map(|(i, (score, e))| {
                let v = embed(&e.content);
                let max_sim = selected
                    .iter()
                    .map(|(_, s)| cosine(s, &v) as f64)
                    .fold(0.0f64, f64::max);
                (i, score - diversity * max_sim)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((i, _)) => {
                let (_, e) = candidates.remove(i);
                selected.push((e.clone(), embed(&e.content)));
            }
            None => break,
        }
    }
    selected.into_iter().map(|(e, _)| e).collect()
}

fn ids(entries: &[KnowledgeEntry]) -> Vec<u64> {
    entries.iter().map(|e| e.id).collect()
}

fn urls(entries: &[KnowledgeEntry]) -> Vec<String> {
    entries.iter().map(|e| e.source_url.clone()).collect()
}

/// One step of a staleness run.
#[derive(Debug, Clone)]
enum Op {
    /// Memorise the page of these [`WORDS`] indices at this second.
    Memorize(Vec<usize>, u64),
    /// Offer the `n`th page memorised so far (modulo their count)
    /// again, a duplicate the store rejects.
    Remember(usize),
    /// Query `n` of the run's pool (modulo its size): the same query
    /// again, so picks repeat between writes. `texts` asks
    /// `retrieve_texts` instead of `retrieve`.
    Repeat { n: usize, texts: bool },
    /// A query of these words, top-`k` at this second.
    Fresh {
        words: Vec<usize>,
        k: usize,
        now_s: u64,
        texts: bool,
    },
    /// Reload the store from its own `to_json`.
    Reload,
}

/// Half the steps offer a page (one in five of them a page offered
/// before), nearly half retrieve (two in three of those a pool query),
/// and one in twenty reloads.
fn op() -> impl Strategy<Value = Op> {
    (
        0u8..40,
        prop::collection::vec(0..WORDS.len(), 0..6),
        0usize..=15,
        0u64..6,
    )
        .prop_map(|(kind, words, n, now_s)| {
            // The low bit picks `retrieve_texts`.
            let texts = kind % 2 == 1;
            match kind / 2 {
                0..=7 => Op::Memorize(words, now_s),
                8..=9 => Op::Remember(n),
                10..=15 => Op::Repeat { n, texts },
                16..=18 => Op::Fresh {
                    words,
                    k: n,
                    now_s,
                    texts,
                },
                _ => Op::Reload,
            }
        })
}

/// The same retrieval as `quadratic_retrieve`, in the shape `texts`
/// asks for: ids in selection order, or contents least relevant first.
fn answer(entries: Vec<KnowledgeEntry>, texts: bool) -> Vec<String> {
    if texts {
        entries.into_iter().rev().map(|e| e.content).collect()
    } else {
        entries.iter().map(|e| e.id.to_string()).collect()
    }
}

proptest! {
    #[test]
    fn retrieve_matches_the_quadratic_oracle(
        // (words, learned_at in seconds, importance step) per page.
        pages in prop::collection::vec(
            (prop::collection::vec(0..WORDS.len(), 0..6), 0u64..4, 0usize..3),
            0..=300,
        ),
        // (dedup threshold, capacity): a threshold above 1 keeps exact
        // duplicates; the small capacity evicts.
        (dedup_threshold, capacity) in (
            prop::sample::select(vec![0.98f32, 2.0]),
            prop::sample::select(vec![2_000usize, 120]),
        ),
        (recency, importance, diversity) in (
            prop::sample::select(vec![0.0f64, 0.1, 1.0]),
            prop::sample::select(vec![0.0f64, 0.1, 1.0]),
            prop::sample::select(vec![0.0f64, 0.25, 1.0, 3.0]),
        ),
        queries in prop::collection::vec(
            (prop::collection::vec(0..WORDS.len(), 0..5), 0usize..=15, 0u64..6),
            1..4,
        ),
    ) {
        let store = KnowledgeStore::new(StoreConfig {
            capacity,
            dedup_threshold,
            weights: RetrievalWeights {
                relevance: 1.0,
                recency,
                importance,
                half_life_secs: 1.0,
                diversity,
            },
        });
        for (i, (words, learned_s, importance_step)) in pages.iter().enumerate() {
            store.memorize(
                "t",
                &text(words),
                &format!("sim://host{}.test/{i}", i % 3),
                "news",
                learned_s * 1_000_000,
                *importance_step as f64 / 2.0,
            );
        }
        for (words, k, now_s) in &queries {
            let query = text(words);
            let now = now_s * 1_000_000;
            let fast = store.retrieve(&query, *k, now);
            prop_assert_eq!(
                ids(&fast),
                ids(&quadratic_retrieve(&store, &query, *k, now)),
                "query {:?}, k {}, {} entries", query, k, store.len()
            );
            let texts: Vec<String> = fast.into_iter().rev().map(|e| e.content).collect();
            prop_assert_eq!(store.retrieve_texts(&query, *k, now), texts);
        }
    }

    #[test]
    fn retrieve_matches_the_oracle_on_loaded_stores(
        // (words, id, learned_at in seconds) per entry: a hand-written
        // file may repeat ids and contents.
        rows in prop::collection::vec(
            (prop::collection::vec(0..WORDS.len(), 0..6), 0u64..20, 0u64..4),
            0..=200,
        ),
        diversity in prop::sample::select(vec![0.0f64, 0.25, 1.0]),
        (query, k) in (prop::collection::vec(0..WORDS.len(), 0..5), 0usize..=15),
    ) {
        let entries: Vec<KnowledgeEntry> = rows
            .iter()
            .enumerate()
            .map(|(i, (words, id, learned_s))| KnowledgeEntry {
                id: *id,
                topic: "t".into(),
                content: text(words),
                source_url: format!("u{i}"),
                source_kind: "news".into(),
                learned_at: learned_s * 1_000_000,
                importance: 0.5,
                embedding: Vec::new(),
            })
            .collect();
        let config = StoreConfig {
            weights: RetrievalWeights {
                half_life_secs: 1.0,
                diversity,
                ..RetrievalWeights::default()
            },
            ..StoreConfig::default()
        };
        let json = format!(
            r#"{{"config":{},"next_id":20,"entries":{}}}"#,
            serde_json::to_string(&config).unwrap(),
            serde_json::to_string(&entries).unwrap()
        );
        let store = KnowledgeStore::from_json(&json).unwrap();
        let query = text(&query);
        prop_assert_eq!(
            urls(&store.retrieve(&query, k, 3_000_000)),
            urls(&quadratic_retrieve(&store, &query, k, 3_000_000))
        );
    }

    /// Retrieval state kept between calls must follow every write:
    /// each retrieve of a random interleaving of accepted, rejected and
    /// evicting writes, repeated and fresh queries, and reloads equals
    /// the oracle's on the store as it is at that step.
    #[test]
    fn retrieve_after_every_write_matches_the_quadratic_oracle(
        capacity in prop::sample::select(vec![1usize, 7, 120]),
        diversity in prop::sample::select(vec![0.25f64, 1.0, 3.0]),
        pool in prop::collection::vec(
            (prop::collection::vec(0..WORDS.len(), 0..5), 0usize..=15, 0u64..6),
            1..4,
        ),
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let mut store = KnowledgeStore::new(StoreConfig {
            capacity,
            weights: RetrievalWeights {
                relevance: 1.0,
                recency: 0.1,
                importance: 0.1,
                half_life_secs: 1.0,
                diversity,
            },
            ..StoreConfig::default()
        });
        let mut pages: Vec<String> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let (query, k, now_s, texts) = match op {
                Op::Memorize(words, learned_s) => {
                    let page = text(&words);
                    let importance = (step % 3) as f64 / 2.0;
                    let url = format!("u{step}");
                    store.memorize("t", &page, &url, "news", learned_s * 1_000_000, importance);
                    pages.push(page);
                    continue;
                }
                Op::Remember(n) => {
                    if let Some(page) = pages.get(n % pages.len().max(1)) {
                        let url = format!("u{step}");
                        let len = store.len();
                        let accepted = store.memorize("t", page, &url, "news", 0, 0.5);
                        // Rejected unless eviction took its twin, or it
                        // is empty (a zero embedding matches nothing).
                        prop_assert!(accepted.is_none() || len == capacity || page.is_empty());
                    }
                    continue;
                }
                Op::Reload => {
                    let json = store.to_json();
                    store = KnowledgeStore::from_json(&json).unwrap();
                    continue;
                }
                Op::Repeat { n, texts } => {
                    let (words, k, now_s) = &pool[n % pool.len()];
                    (text(words), *k, *now_s, texts)
                }
                Op::Fresh { words, k, now_s, texts } => (text(&words), k, now_s, texts),
            };
            let now = now_s * 1_000_000;
            let got = if texts {
                store.retrieve_texts(&query, k, now)
            } else {
                answer(store.retrieve(&query, k, now), false)
            };
            prop_assert_eq!(
                got,
                answer(quadratic_retrieve(&store, &query, k, now), texts),
                "step {}: query {:?}, k {}, {} entries", step, query, k, store.len()
            );
        }
    }

    #[test]
    fn stored_embeddings_are_the_embeddings_of_their_contents(
        pages in prop::collection::vec(
            (prop::collection::vec(0..WORDS.len(), 0..6), 0u64..4, 0usize..3),
            0..=150,
        ),
        capacity in prop::sample::select(vec![1usize, 7, 64, 65, 2_000]),
        (query, k) in (prop::collection::vec(0..WORDS.len(), 0..5), 0usize..=15),
    ) {
        let store = KnowledgeStore::new(StoreConfig {
            capacity,
            dedup_threshold: 2.0,
            ..StoreConfig::default()
        });
        for (i, (words, learned_s, importance_step)) in pages.iter().enumerate() {
            store.memorize(
                "t",
                &text(words),
                &format!("u{i}"),
                "news",
                learned_s * 1_000_000,
                *importance_step as f64 / 2.0,
            );
        }
        prop_assert!(store.len() <= capacity);
        let json = store.to_json();
        let loaded = KnowledgeStore::from_json(&json).unwrap();
        prop_assert_eq!(loaded.to_json(), json, "to_json -> from_json -> to_json");
        for s in [&store, &loaded] {
            let query = text(&query);
            let handed_out = s.entries().into_iter().chain(s.retrieve(&query, k, 0));
            for e in handed_out {
                let want: Vec<u32> = embed(&e.content).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u32> = e.embedding.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got, want, "entry {}", e.id);
            }
        }
    }

    #[test]
    fn sparse_dot_is_cosine_bit_for_bit(query in "\\PC{0,120}", doc in "\\PC{0,300}") {
        let (q, d) = (embed(&query), embed(&doc));
        prop_assert_eq!(
            sparse_dot(&nonzero_buckets(&q), &d).to_bits(),
            cosine(&d, &q).to_bits()
        );
    }
}

#[test]
fn sparse_dot_of_an_empty_or_disjoint_query_is_positive_zero() {
    let doc = embed("The EllaLink submarine cable connects Brazil to Portugal.");
    for query in ["", "pasta", "!!"] {
        let q = embed(query);
        assert_eq!(cosine(&doc, &q).to_bits(), 0.0f32.to_bits(), "{query:?}");
        assert_eq!(
            sparse_dot(&nonzero_buckets(&q), &doc).to_bits(),
            0.0f32.to_bits(),
            "{query:?}"
        );
    }
}
