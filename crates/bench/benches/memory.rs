//! Knowledge-memory operations: embed, memorize (of a page already
//! embedded, with dedup scan, and with eviction at capacity), the claim
//! graph's deferred absorb, and scored retrieval at several store
//! sizes, warm and cold.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ira_agentmem::{embed, KnowledgeStore};
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::World;

/// A store offered `n` synthetic entries. Dedup keeps about four in
/// five of them (83 of 100, 814 of 1,000), and the default capacity
/// leaves room for every timed write, so no case below the capacity
/// one evicts.
fn filled_store(n: usize) -> KnowledgeStore {
    let store = KnowledgeStore::with_defaults();
    for i in 0..n {
        memorize_entry(&store, i);
    }
    store
}

fn memorize_entry(store: &KnowledgeStore, i: usize) -> Option<u64> {
    store.memorize(
        "topic",
        &format!(
            "Entry number {i}: the cable system alpha-{i} connects city-{i} to port-{i} \
             and reaches a latitude of {} degrees.",
            i % 70
        ),
        &format!("sim://src.test/{i}"),
        "news",
        i as u64 * 1_000,
        0.5,
    )
}

fn bench_embed(c: &mut Criterion) {
    let text = "The Grace Hopper submarine cable connects New York, United States to Bude, \
                United Kingdom, linking North America and Europe. Along its route it reaches \
                a maximum geomagnetic latitude of 63.0 degrees.";
    c.bench_function("embed_document", |b| {
        b.iter(|| std::hint::black_box(embed(text)))
    });
    // The same page memorized into a fresh store: the first call embeds
    // it, so every timed one reads its embedding from the process-wide
    // cache, as a session re-fetching a page does.
    let memorize = |store: &KnowledgeStore| {
        store.memorize("cables", text, "sim://news.test/grace", "news", 0, 0.5)
    };
    memorize(&KnowledgeStore::with_defaults());
    c.bench_function("memorize_warm", |b| {
        b.iter_batched(
            KnowledgeStore::with_defaults,
            |store| {
                memorize(&store);
                // Handed back, so the store's drop is not timed.
                store
            },
            BatchSize::SmallInput,
        )
    });
}

/// Every offered text is new, so these time the embedding cache's miss
/// path: each write embeds its text before the dedup scan.
fn bench_memorize(c: &mut Criterion) {
    let mut group = c.benchmark_group("memorize_with_dedup_scan");
    for size in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let store = filled_store(size);
            let mut i = size as u64;
            b.iter(|| {
                i += 1;
                store.memorize(
                    "t",
                    &format!("fresh unique content number {i} about storms and cables"),
                    &format!("sim://new.test/{i}"),
                    "news",
                    i,
                    0.5,
                )
            })
        });
    }
    group.finish();
}

/// A store filled to the default capacity: every accepted write scores
/// every entry's standing, catches the claim graph up and evicts one
/// entry, the steady state of a long-lived agent. Each timed iteration
/// offers entries until one is accepted; the rejected ones cost only a
/// dedup scan.
fn bench_memorize_at_capacity(c: &mut Criterion) {
    let store = KnowledgeStore::with_defaults();
    let mut i = 0;
    while store.len() < store.config().capacity {
        memorize_entry(&store, i);
        i += 1;
    }
    c.bench_function("memorize_at_capacity", |b| {
        b.iter(|| {
            i += 1;
            while memorize_entry(&store, i).is_none() {
                i += 1;
            }
        })
    });
}

/// Every page of the default web, with its url.
fn default_web_pages() -> Vec<(String, String)> {
    let corpus = Corpus::generate(&World::standard(), CorpusConfig::default());
    corpus
        .iter()
        .map(|d| (d.full_text(), d.url().to_string()))
        .collect()
}

fn memorize_pages(pages: &[(String, String)]) -> KnowledgeStore {
    let store = KnowledgeStore::with_defaults();
    for (i, (text, url)) in pages.iter().enumerate() {
        store.memorize("topic", text, url, "page", i as u64 * 1_000, 0.5);
    }
    store
}

/// Every page of the default web memorized, in order, into a fresh
/// store: what one session's fetches cost the memory. The claim graph
/// absorbs none of them until it is read (`graph_catch_up`). After the
/// first iteration, pages read their embeddings from the process-wide
/// cache as far as its budget holds them.
fn bench_memorize_page(c: &mut Criterion) {
    let pages = default_web_pages();
    let mut group = c.benchmark_group("memorize_page");
    group.bench_with_input(
        BenchmarkId::new("default_web", format!("{}_pages", pages.len())),
        &pages,
        |b, pages| b.iter(|| memorize_pages(pages)),
    );
    group.finish();
}

/// The same pages memorized, then one graph snapshot: the deferred
/// absorb of every page (up to 24 terms each) lands in the read. Less `memorize_page`, this is what an
/// audit or a `save` pays.
fn bench_graph_catch_up(c: &mut Criterion) {
    let pages = default_web_pages();
    let mut group = c.benchmark_group("graph_catch_up");
    group.bench_with_input(
        BenchmarkId::new("default_web", format!("{}_pages", pages.len())),
        &pages,
        |b, pages| b.iter(|| memorize_pages(pages).graph_to_bytes()),
    );
    group.finish();
}

/// k = 10, the agent's `AgentConfig::retrieval_k`, over one store: all
/// but the first iteration find every pick's similarity row memoized,
/// since nothing writes in between.
fn bench_retrieve(c: &mut Criterion) {
    let mut group = c.benchmark_group("retrieve_top10");
    for size in [100usize, 1000] {
        let store = filled_store(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &store, |b, store| {
            b.iter(|| {
                std::hint::black_box(store.retrieve("cable system latitude degrees", 10, u64::MAX))
            })
        });
    }
    group.finish();
}

/// The same retrieve on a store fresh from `from_json` each iteration,
/// so every pick sweeps the matrix for its row: what the first retrieve
/// after a write costs.
fn bench_retrieve_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("retrieve_top10_cold");
    for size in [100usize, 1000] {
        let json = filled_store(size).to_json();
        group.bench_with_input(BenchmarkId::from_parameter(size), &json, |b, json| {
            b.iter_batched(
                || KnowledgeStore::from_json(json).expect("store loads"),
                |store| {
                    let hits = store.retrieve("cable system latitude degrees", 10, u64::MAX);
                    // Handed back, so the store's drop is not timed.
                    (store, hits)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_embed,
    bench_memorize,
    bench_memorize_at_capacity,
    bench_memorize_page,
    bench_graph_catch_up,
    bench_retrieve,
    bench_retrieve_cold
);
criterion_main!(benches);
