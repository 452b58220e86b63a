//! The per-layer ledger of a traced run: what the decorators counted
//! inside each unit, what the layer-isolation replays measured, and
//! the derived per-layer metrics.
//!
//! Layer self times that add up to the traced pass: `engine` (session
//! construction), `simnet` (wrapped search + fetch, which contain the
//! `webcorpus` BM25 query), `simllm` (wrapped model calls), `obs`
//! (sink records inside sessions), `serve` (intake + render) and
//! `core` — the unit's time minus all of those, i.e. the agent loop
//! with its inline `agentmem` work. Whatever the traced pass spent
//! outside every layer (grading, digests, loop glue) is the residual.

use crate::report::Metric;
use crate::session::Probe;
use crate::timed::{Meter, Reading, WebLog};
use ira::agentmem::KnowledgeStore;
use ira::engine::{Engine, SessionConfig};
use ira::webcorpus::{Corpus, SearchEngine};
use std::time::Instant;

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

#[derive(Debug, Default)]
pub struct Ledger {
    pub units: u64,
    /// Host time inside units (construction included).
    pub unit_ns: u64,
    pub construct_ns: u64,
    pub cost: Probe,
    /// Sink records made inside units.
    pub obs_in_units: Reading,
    /// Wall time of the traced passes, replays excluded.
    pub pass_ns: u64,
    pub serve_intake_ns: u64,
    pub serve_requests: u64,
    pub serve_render: Reading,
    // Layer-isolation replays.
    pub corpus_search: Meter,
    pub index_build: Reading,
    pub memorize: Meter,
    pub memorize_accepted: u64,
    pub retrieve: Meter,
    pub retrieve_entries: u64,
    pub spawn: Meter,
    pub replay_ns: u64,
}

/// Corpus generation timings from set-up (ms per corpus).
pub type GenerateMs = Vec<f64>;

impl Ledger {
    /// Fold one unit's decorator deltas in.
    pub fn add_unit(&mut self, unit_ns: u64, construct_ns: u64, cost: &Probe) {
        self.units += 1;
        self.unit_ns += unit_ns;
        self.construct_ns += construct_ns;
        let total = &mut self.cost;
        total.search += cost.search;
        total.fetch += cost.fetch;
        total.fetch_failures += cost.fetch_failures;
        total.call += cost.call;
        total.answer += cost.answer;
        total.propose += cost.propose;
        total.tokens += cost.tokens;
        let (a, b) = (&mut total.ops, &cost.ops);
        a.tokenize_chars += b.tokenize_chars;
        a.absorb_calls += b.absorb_calls;
        a.classify_calls += b.classify_calls;
        a.extract_hits += b.extract_hits;
        a.extract_misses += b.extract_misses;
        a.answer_hits += b.answer_hits;
        a.answer_misses += b.answer_misses;
    }

    /// Replay a unit's queries through `Corpus::search`, its pages
    /// through `KnowledgeStore::memorize` into `store`, then its
    /// questions through `retrieve_texts` on that store.
    pub fn replay_unit(
        &mut self,
        corpus: &Corpus,
        log: &WebLog,
        store: &KnowledgeStore,
        topic: &str,
        questions: &[&str],
        k: usize,
    ) {
        let start = Instant::now();
        for (query, hits) in &log.queries {
            std::hint::black_box(self.corpus_search.time(|| corpus.search(query, *hits)));
        }
        for (i, (url, body)) in log.pages.iter().enumerate() {
            let now = i as u64;
            let stored = self
                .memorize
                .time(|| store.memorize(topic, body, url, "web", now, 0.5));
            self.memorize_accepted += u64::from(stored.is_some());
        }
        for question in questions {
            self.retrieve_entries += store.len() as u64;
            let now = log.pages.len() as u64;
            std::hint::black_box(
                self.retrieve
                    .time(|| store.retrieve_texts(question, k, now)),
            );
        }
        self.replay_ns += ns_since(start);
    }

    /// Replay `Engine::spawn_session` for a unit's config.
    pub fn replay_spawn(&mut self, engine: &Engine, config: SessionConfig) {
        let start = Instant::now();
        std::hint::black_box(self.spawn.time(|| engine.spawn_session(config)));
        self.replay_ns += ns_since(start);
    }

    /// Replay `SearchEngine::build` over each corpus's documents.
    pub fn replay_index_builds<'a>(&mut self, corpora: impl IntoIterator<Item = &'a Corpus>) {
        for corpus in corpora {
            let start = Instant::now();
            std::hint::black_box(SearchEngine::build(corpus.iter()));
            let ns = ns_since(start);
            self.index_build += Reading { ns, calls: 1 };
            self.replay_ns += ns;
        }
    }

    /// The layer self times that sum to the traced pass, ns.
    fn layer_ns(&self) -> u64 {
        self.construct_ns
            + self.cost.search.ns
            + self.cost.fetch.ns
            + self.cost.call.ns
            + self.obs_in_units.ns
            + self.core_ns()
            + self.serve_intake_ns
            + self.serve_render.ns
    }

    fn core_ns(&self) -> u64 {
        self.unit_ns.saturating_sub(
            self.construct_ns
                + self.cost.search.ns
                + self.cost.fetch.ns
                + self.cost.call.ns
                + self.obs_in_units.ns,
        )
    }

    /// Share of the traced pass no layer accounts for.
    pub fn residual_share(&self) -> f64 {
        ratio(
            self.pass_ns.saturating_sub(self.layer_ns()) as f64,
            self.pass_ns as f64,
        )
    }

    /// Every per-layer metric this ledger defines, in the order
    /// `BENCHMARK.json` lists them. Serve-only figures are passed in.
    pub fn metrics(&self, generate_ms: &GenerateMs, extra: &LayerExtras) -> Vec<Metric> {
        let units = self.units.max(1) as f64;
        let c = &self.cost;
        let ops = &c.ops;
        vec![
            Metric::new("webcorpus.generate_ms", mean(generate_ms), "ms"),
            Metric::new(
                "webcorpus.index_build_ms",
                per_call_ns(self.index_build) / 1e6,
                "ms",
            ),
            Metric::new(
                "webcorpus.search_us",
                per_call_ns(self.corpus_search.read()) / 1e3,
                "us",
            ),
            Metric::new("simnet.search_us", per_call_ns(c.search) / 1e3, "us"),
            Metric::new(
                "simnet.searches_per_unit",
                c.search.calls as f64 / units,
                "count/unit",
            ),
            Metric::new("simnet.fetch_us", per_call_ns(c.fetch) / 1e3, "us"),
            Metric::new(
                "simnet.fetches_per_unit",
                c.fetch.calls as f64 / units,
                "count/unit",
            ),
            Metric::new(
                "simnet.fetch_fail_share",
                ratio(c.fetch_failures as f64, c.fetch.calls as f64),
                "share",
            ),
            Metric::new("simllm.call_us", per_call_ns(c.call) / 1e3, "us"),
            Metric::new("simllm.answer_us", per_call_ns(c.answer) / 1e3, "us"),
            Metric::new("simllm.propose_us", per_call_ns(c.propose) / 1e3, "us"),
            Metric::new(
                "simllm.calls_per_unit",
                c.call.calls as f64 / units,
                "count/unit",
            ),
            Metric::new(
                "simllm.tokens_per_unit",
                c.tokens as f64 / units,
                "tokens/unit",
            ),
            Metric::new(
                "simllm.answer_hit_ratio",
                ratio(
                    ops.answer_hits as f64,
                    (ops.answer_hits + ops.answer_misses) as f64,
                ),
                "ratio",
            ),
            Metric::new(
                "simllm.extract_hit_ratio",
                ratio(
                    ops.extract_hits as f64,
                    (ops.extract_hits + ops.extract_misses) as f64,
                ),
                "ratio",
            ),
            Metric::new(
                "simllm.tokenize_chars_per_unit",
                ops.tokenize_chars as f64 / units,
                "chars/unit",
            ),
            Metric::new(
                "agentmem.retrieve_us",
                per_call_ns(self.retrieve.read()) / 1e3,
                "us",
            ),
            Metric::new(
                "agentmem.memorize_us",
                per_call_ns(self.memorize.read()) / 1e3,
                "us",
            ),
            Metric::new(
                "agentmem.accept_ratio",
                ratio(
                    self.memorize_accepted as f64,
                    self.memorize.read().calls as f64,
                ),
                "ratio",
            ),
            Metric::new(
                "agentmem.entries",
                ratio(
                    self.retrieve_entries as f64,
                    self.retrieve.read().calls as f64,
                ),
                "count",
            ),
            Metric::new(
                "core.self_ms_per_unit",
                self.core_ns() as f64 / 1e6 / units,
                "ms",
            ),
            Metric::new(
                "engine.spawn_us",
                per_call_ns(self.spawn.read()) / 1e3,
                "us",
            ),
            Metric::new("engine.corpus_builds", extra.corpus_builds as f64, "count"),
            Metric::new("obs.record_ns", per_call_ns(extra.obs_records), "ns"),
            Metric::new(
                "obs.events_per_request",
                ratio(extra.obs_records.calls as f64, extra.obs_requests as f64),
                "count/unit",
            ),
            Metric::new(
                "serve.intake_us",
                ratio(self.serve_intake_ns as f64, self.serve_requests as f64) / 1e3,
                "us",
            ),
            Metric::new(
                "serve.render_us",
                per_call_ns(self.serve_render) / 1e3,
                "us",
            ),
            Metric::new("serve.shed_share", extra.shed_share, "share"),
            Metric::new("serve.degraded_share", extra.degraded_share, "share"),
            Metric::new("serve.retries", extra.retries, "count"),
            Metric::new("residual_share", self.residual_share(), "share"),
            Metric::new("trace.overhead_share", extra.overhead_share, "share"),
        ]
    }
}

/// Per-layer figures a workload measures outside the ledger proper.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerExtras {
    pub corpus_builds: usize,
    /// Records into the serve sink during the traced `serve_jsonl`
    /// batches, and the requests those batches held.
    pub obs_records: Reading,
    pub obs_requests: u64,
    pub shed_share: f64,
    pub degraded_share: f64,
    /// Retry attempts per batch.
    pub retries: f64,
    /// Throughput lost to tracing: `1 - traced / untraced`.
    pub overhead_share: f64,
}

pub fn per_call_ns(r: Reading) -> f64 {
    ratio(r.ns as f64, r.calls as f64)
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}
