//! `KnowledgeStore::retrieve` against the quadratic MMR loop it
//! replaced: random stores must give the same entries in the same
//! order, and the sparse relevance dot must match `cosine` bit for bit.

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
    let relevance = cosine(&e.embedding, query) as f64;
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
    store.with_graph(|graph| {
        let activation = store.graph_retrieval().then(|| graph.activate(query));
        let corroboration_weight = graph.config().corroboration_weight;
        let mut candidates: Vec<(f64, &KnowledgeEntry)> = entries
            .iter()
            .map(|e| {
                let mut score = quadratic_score(&weights, e, &q, now);
                if let Some(activation) = &activation {
                    score += corroboration_weight * graph.entry_support(e.id, activation);
                }
                (score, e)
            })
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

        let mut selected: Vec<KnowledgeEntry> = Vec::with_capacity(k.min(candidates.len()));
        while selected.len() < k && !candidates.is_empty() {
            let best = candidates
                .iter()
                .enumerate()
                .map(|(i, (score, e))| {
                    let max_sim = selected
                        .iter()
                        .map(|s| cosine(&s.embedding, &e.embedding) as f64)
                        .fold(0.0f64, f64::max);
                    (i, score - diversity * max_sim)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match best {
                Some((i, _)) => {
                    let (_, e) = candidates.remove(i);
                    selected.push(e.clone());
                }
                None => break,
            }
        }
        selected
    })
}

fn ids(entries: &[KnowledgeEntry]) -> Vec<u64> {
    entries.iter().map(|e| e.id).collect()
}

fn urls(entries: &[KnowledgeEntry]) -> Vec<String> {
    entries.iter().map(|e| e.source_url.clone()).collect()
}

proptest! {
    #[test]
    fn retrieve_matches_the_quadratic_oracle(
        // (words, learned_at in seconds, importance step) per page.
        pages in prop::collection::vec(
            (prop::collection::vec(0..WORDS.len(), 0..6), 0u64..4, 0usize..3),
            0..=300,
        ),
        // (dedup threshold, capacity, graph retrieval): a threshold
        // above 1 keeps exact duplicates; the small capacity evicts.
        (dedup_threshold, capacity, graph) in (
            prop::sample::select(vec![0.98f32, 2.0]),
            prop::sample::select(vec![2_000usize, 120]),
            prop::sample::select(vec![false, true]),
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
        store.set_graph_retrieval(graph);
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
