//! Knowledge-memory operations: embed, memorize (with dedup scan, and
//! eviction at capacity), the claim graph's deferred absorb, and scored
//! retrieval at several store sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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
}

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
/// absorbs none of them until it is read (`graph_catch_up`).
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

fn bench_retrieve(c: &mut Criterion) {
    // k = 10, the agent's `AgentConfig::retrieval_k`.
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

criterion_group!(
    benches,
    bench_embed,
    bench_memorize,
    bench_memorize_at_capacity,
    bench_memorize_page,
    bench_graph_catch_up,
    bench_retrieve
);
criterion_main!(benches);
