//! End-to-end agent pipeline: training and one self-learning question.
//! Sample counts are kept low — each iteration is a full agent run.

use criterion::{criterion_group, criterion_main, Criterion};
use ira_engine::{Engine, SessionConfig};

const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable that \
                       connects Brazil to Europe or the one that connects the US to Europe?";

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("agent_pipeline");
    group.sample_size(10);
    // One engine for the whole group: each iteration pays session
    // spawn plus the agent run, as a sweep or serve request does; the
    // corpus is generated once.
    let engine = Engine::new();
    group.bench_function("train_bob", |b| {
        b.iter(|| {
            let mut bob = engine.spawn_session(SessionConfig::bob()).agent;
            std::hint::black_box(bob.train())
        })
    });
    group.bench_function("train_and_self_learn_cable_q", |b| {
        b.iter(|| {
            let mut bob = engine.spawn_session(SessionConfig::bob()).agent;
            bob.train();
            std::hint::black_box(bob.self_learn(CABLE_Q))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
