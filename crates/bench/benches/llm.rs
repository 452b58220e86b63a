//! Simulated-LLM operations: extraction, grounded and ungrounded
//! answering, and intent classification.

use criterion::{criterion_group, criterion_main, Criterion};
use ira_simllm::extract::Extraction;
use ira_simllm::intent::classify;
use ira_simllm::Llm;
use ira_webcorpus::{Corpus, CorpusConfig, SourceKind};
use ira_worldmodel::World;

const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable that \
                       connects Brazil to Europe or the one that connects the US to Europe?";

fn knowledge() -> Vec<String> {
    vec![
        "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes.".into(),
        "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, linking \
         South America and Europe. Along its route it reaches a maximum geomagnetic latitude \
         of 46.0 degrees. The system spans approximately 6134 kilometres. The cable is \
         powered through roughly 87 optical repeaters."
            .into(),
        "The Grace Hopper submarine cable connects New York, United States to Bude, United \
         Kingdom, linking North America and Europe. Along its route it reaches a maximum \
         geomagnetic latitude of 63.0 degrees."
            .into(),
    ]
}

fn bench_extraction(c: &mut Criterion) {
    let text = knowledge().join("\n");
    c.bench_function("extract_facts", |b| {
        b.iter(|| std::hint::black_box(Extraction::from_text(&text, None)))
    });
}

fn bench_classify(c: &mut Criterion) {
    c.bench_function("intent_classify", |b| {
        b.iter(|| std::hint::black_box(classify(CABLE_Q)))
    });
}

fn bench_grounded_answer(c: &mut Criterion) {
    let llm = Llm::gpt4(1);
    let k = knowledge();
    c.bench_function("llm_answer_grounded", |b| {
        b.iter(|| std::hint::black_box(llm.answer(CABLE_Q, &k)))
    });
}

/// The cold path: ten encyclopedia pages of the default web, read by a
/// fresh model each iteration, so every call misses the answer cache
/// and every chunk misses the extraction cache.
fn bench_answer_miss(c: &mut Criterion) {
    let corpus = Corpus::generate(&World::standard(), CorpusConfig::default());
    let pages: Vec<String> = corpus
        .iter()
        .filter(|d| d.source == SourceKind::Encyclopedia)
        .take(10)
        .map(|d| d.full_text())
        .collect();
    assert_eq!(pages.len(), 10);
    c.bench_function("llm_answer_miss", |b| {
        b.iter(|| std::hint::black_box(Llm::gpt4(1).answer(CABLE_Q, &pages)))
    });
}

fn bench_ungrounded_answer(c: &mut Criterion) {
    let llm = Llm::gpt4(1);
    c.bench_function("llm_answer_ungrounded", |b| {
        b.iter(|| std::hint::black_box(llm.answer(CABLE_Q, &[])))
    });
}

criterion_group!(
    benches,
    bench_extraction,
    bench_classify,
    bench_grounded_answer,
    bench_answer_miss,
    bench_ungrounded_answer
);
criterion_main!(benches);
