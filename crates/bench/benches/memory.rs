//! Knowledge-memory operations: embed, memorize (with dedup scan and
//! claim-graph absorb), and scored retrieval at several store sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ira_agentmem::{embed, KnowledgeStore, StoreConfig};
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::World;

fn filled_store(n: usize) -> KnowledgeStore {
    let store = KnowledgeStore::new(StoreConfig {
        capacity: n + 10,
        ..StoreConfig::default()
    });
    for i in 0..n {
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
        );
    }
    store
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

/// Every page of the default web memorized, in order, into a fresh
/// store: what one session's fetches cost the memory. Real pages carry
/// the claim-graph fan-out (up to 24 terms, 276 edges a page) that the
/// short synthetic texts above do not.
fn bench_memorize_page(c: &mut Criterion) {
    let corpus = Corpus::generate(&World::standard(), CorpusConfig::default());
    let pages: Vec<(String, String)> = corpus
        .iter()
        .map(|d| (d.full_text(), d.url().to_string()))
        .collect();
    let mut group = c.benchmark_group("memorize_page");
    group.bench_with_input(
        BenchmarkId::new("default_web", format!("{}_pages", pages.len())),
        &pages,
        |b, pages| {
            b.iter(|| {
                let store = KnowledgeStore::with_defaults();
                for (i, (text, url)) in pages.iter().enumerate() {
                    store.memorize("topic", text, url, "page", i as u64 * 1_000, 0.5);
                }
                store
            })
        },
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
    bench_memorize_page,
    bench_retrieve
);
criterion_main!(benches);
