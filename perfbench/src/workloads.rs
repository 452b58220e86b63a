//! The three workloads. Each has a set-up (timed, repeated, median
//! reported), an untraced measurement that yields the end-to-end
//! metrics, and a traced measurement that yields the per-layer ledger.
//!
//! | workload    | shape                                   | unit     |
//! |-------------|-----------------------------------------|----------|
//! | `serve_mix` | one JSONL batch into `Server::serve_jsonl`, `workers = nproc`, repeated | request |
//! | `bigweb`    | closed loop, one client, train+quiz sessions over ~6,000-distractor webs | session |
//! | `longlived` | closed loop, one client, one agent over a ~1,800-entry store | question |

use crate::calib::{HostClock, Span};
use crate::inputs::{self, QuestionPlan, SessionPlan, SCENARIOS};
use crate::ledger::{ns_since, ratio, GenerateMs, LayerExtras, Ledger};
use crate::report::{self, median, percentile, Digest, Metric};
use crate::session::{serve_body, serve_session_config, spawn_timed, Probe};
use crate::timed::{Reading, TimedCollector, TimedLlm, TimedWeb};
use ira::agentmem::{KnowledgeStore, StoreConfig};
use ira::core::{AgentConfig, Environment, ResearchAgent, RoleDefinition};
use ira::engine::{Engine, SessionConfig};
use ira::evalkit::{ConsistencyReport, QuizBank};
use ira::obs::{FlightRecorder, ObsHandle, SharedCollector};
use ira::serve::{
    nominal_cost, parse_requests, parse_responses, render_responses, Admission,
    AdmissionController, RequestKind, ResponsePayload, ResponseStatus, ServeConfig, ServeResponse,
    Server,
};
use ira::services::{Fetcher, LanguageModel, LlmStats, TimeSource};
use ira::simllm::Llm;
use ira::webcorpus::{Corpus, CorpusConfig, Topic};
use ira::worldmodel::World;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["serve_mix", "bigweb", "longlived"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Calibration probes around each set-up repetition.
const PROBES_AROUND: usize = 3;

/// Closed loops probe the host between units at most this often;
/// `serve_mix` batches are probed this often while they run.
const PROBE_INTERVAL_S: f64 = 0.1;

/// `serve_mix` batches are judged by the probes within this many
/// seconds: about one batch on either side.
const SERVE_WINDOW_S: f64 = 2.5;

/// Untraced/traced batch pairs a traced `serve_mix` run alternates to
/// measure the tracing overhead.
const OVERHEAD_PAIRS: usize = 2;

/// What one invocation measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra report fields: digests, sample counts, supported
    /// percentiles, residual and overhead.
    pub details: Vec<(&'static str, String)>,
}

pub struct Run {
    pub seed: u64,
    pub window: Duration,
}

impl Run {
    /// Keep going until the window is spent, but always do `min` rounds.
    fn more(&self, start: Instant, rounds: usize, min: usize) -> bool {
        rounds < min || start.elapsed() < self.window
    }
}

pub fn run(workload: &str, run: &Run, trace: bool) -> Option<Outcome> {
    warm_up();
    Some(match (workload, trace) {
        ("serve_mix", false) => serve_mix(run),
        ("serve_mix", true) => serve_mix_traced(run),
        ("bigweb", false) => bigweb(run),
        ("bigweb", true) => bigweb_traced(run),
        ("longlived", false) => longlived(run),
        ("longlived", true) => longlived_traced(run),
        _ => return None,
    })
}

/// Initialise the model's process-wide lexicon tables before any
/// timing, so the first unit does not pay for them.
fn warm_up() {
    std::hint::black_box(Llm::gpt4(1).answer("Which cable is most at risk?", &[]));
}

/// Run `build` `SETUP_REPS` times, dropping each result before the
/// next, and keep the last; returns the span of each repetition, with
/// calibration probes before each and after the last.
fn repeated_setup<T>(clock: &mut HostClock, mut build: impl FnMut() -> T) -> (T, Vec<Span>) {
    let mut spans = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        clock.probe(PROBES_AROUND);
        let (built, span) = Span::time(clock, &mut build);
        spans.push(span);
        state = Some(built);
    }
    clock.probe(PROBES_AROUND);
    (state.expect("at least one set-up"), spans)
}

/// Warm one corpus into the engine's cache, timing its generation.
fn warm_corpus(engine: &Engine, config: CorpusConfig, generate_ms: &mut GenerateMs) -> Arc<Corpus> {
    let start = Instant::now();
    let corpus = engine.corpus(config);
    generate_ms.push(start.elapsed().as_secs_f64() * 1e3);
    corpus
}

/// How a workload's throughput is taken.
#[derive(Clone, Copy)]
enum Throughput {
    /// The median over batches of this many units each.
    PerBatch(f64),
    /// Units over their summed time.
    ClosedLoop,
}

impl Throughput {
    fn per_s(self, unit_ms: &[f64]) -> f64 {
        match self {
            Throughput::PerBatch(units) => {
                let rates: Vec<f64> = unit_ms.iter().map(|ms| units / (ms / 1e3)).collect();
                median(&rates)
            }
            Throughput::ClosedLoop => {
                ratio(unit_ms.len() as f64, unit_ms.iter().sum::<f64>() / 1e3)
            }
        }
    }
}

/// What one latency sample is.
#[derive(Clone, Copy)]
enum Latency {
    /// One unit (one batch, for `serve_mix`).
    PerUnit,
    /// The mean unit time of a pass of `pass` units, leaving out the
    /// first pass of every round of `round` units, where the agent learns.
    PassMean { pass: usize, round: usize },
}

impl Latency {
    fn samples(self, unit_ms: &[f64]) -> Vec<f64> {
        match self {
            Latency::PerUnit => unit_ms.to_vec(),
            Latency::PassMean { pass, round } => unit_ms
                .chunks(round)
                .flat_map(|r| r.chunks(pass).skip(1))
                .map(|p| p.iter().sum::<f64>() / pass as f64)
                .collect(),
        }
    }
}

/// The end-to-end measurements. Times are reported in reference time
/// (`calib.rs`); the host times ride along in the details.
struct EndToEnd {
    clock: HostClock,
    setup: Vec<Span>,
    /// One span per unit (closed loops) or per batch (`serve_mix`).
    units: Vec<Span>,
    throughput: Throughput,
    latency: Latency,
    served_share: f64,
    consistent_share: f64,
    virtual_s: Vec<f64>,
}

impl EndToEnd {
    fn reference_ms(&self, spans: &[Span]) -> Vec<f64> {
        spans.iter().map(|s| s.reference_ms(&self.clock)).collect()
    }

    fn metrics(&self) -> Vec<Metric> {
        let setup_ms = self.reference_ms(&self.setup);
        let unit_ms = self.reference_ms(&self.units);
        let latency_ms = self.latency.samples(&unit_ms);
        vec![
            Metric::new("setup_s", median(&setup_ms) / 1e3, "s"),
            Metric::new("throughput_per_s", self.throughput.per_s(&unit_ms), "1/s"),
            Metric::new("latency_p50_ms", percentile(&latency_ms, 50.0), "ms"),
            Metric::new("latency_p90_ms", percentile(&latency_ms, 90.0), "ms"),
            Metric::new("served_share", self.served_share, "share"),
            Metric::new("consistent_share", self.consistent_share, "share"),
            Metric::new("virtual_p90_s", percentile(&self.virtual_s, 90.0), "s"),
            Metric::new("peak_rss_mb", report::peak_rss_mb(), "MiB"),
        ]
    }

    fn details(&self) -> Vec<(&'static str, String)> {
        let host_setup_ms: Vec<f64> = self.setup.iter().map(|s| s.host_ms).collect();
        let host_ms: Vec<f64> = self.units.iter().map(|s| s.host_ms).collect();
        let host_latency_ms = self.latency.samples(&host_ms);
        vec![
            ("kernel_ms", report::num(self.clock.kernel_ms())),
            ("probes", self.clock.probes().to_string()),
            ("host_setup_s", report::num(median(&host_setup_ms) / 1e3)),
            (
                "host_throughput_per_s",
                report::num(self.throughput.per_s(&host_ms)),
            ),
            (
                "host_latency_p50_ms",
                report::num(percentile(&host_latency_ms, 50.0)),
            ),
            (
                "host_latency_p90_ms",
                report::num(percentile(&host_latency_ms, 90.0)),
            ),
            ("setup_samples", self.setup.len().to_string()),
            ("latency_samples", host_latency_ms.len().to_string()),
            (
                "latency_supported_percentile",
                report::num(report::supported_percentile(host_latency_ms.len())),
            ),
            ("virtual_samples", self.virtual_s.len().to_string()),
            (
                "virtual_supported_percentile",
                report::num(report::supported_percentile(self.virtual_s.len())),
            ),
        ]
    }
}

/// Rounds of one fixed unit list: each round must reproduce the first
/// round's digest exactly.
#[derive(Default)]
struct Rounds {
    digest: Option<String>,
    rounds: u64,
    units: u64,
    failed: u64,
}

impl Rounds {
    fn finish(&mut self, digest: String, units: u64) {
        self.rounds += 1;
        self.units += units;
        match &self.digest {
            None => self.digest = Some(digest),
            Some(first) if *first != digest => self.failed += units,
            Some(_) => {}
        }
    }

    fn digest(&self) -> String {
        report::string(self.digest.as_deref().unwrap_or(""))
    }
}

/// A quiz unit's verdict lines plus the virtual clock and model usage,
/// folded into a digest.
fn digest_unit(
    digest: &mut Digest,
    label: &str,
    report: &ConsistencyReport,
    now_us: u64,
    stats: LlmStats,
) {
    digest.update(
        format!(
            "{label} now={now_us} calls={} tokens={}+{}\n",
            stats.calls, stats.prompt_tokens, stats.completion_tokens
        )
        .as_bytes(),
    );
    for item in &report.per_item {
        digest.update(
            format!(
                "  {} {:?} {} {}\n",
                item.id, item.verdict, item.confidence, item.matched.consistent
            )
            .as_bytes(),
        );
    }
}

/// Train, then self-learn and answer every quiz item: one `bigweb`
/// session body.
fn train_and_quiz(agent: &mut ResearchAgent, bank: &QuizBank) -> ConsistencyReport {
    agent.train();
    let mut report = ConsistencyReport::new("bigweb");
    for item in bank.iter() {
        agent.self_learn(&item.question);
        let answer = agent.ask(&item.question);
        report.add(item, &answer);
    }
    report
}

// ---------------------------------------------------------------- serve_mix

struct ServeSetup {
    engine: Arc<Engine>,
    generate_ms: GenerateMs,
}

struct ServeInputs {
    requests: usize,
    jsonl: String,
    banks: Vec<QuizBank>,
}

fn serve_inputs(seed: u64) -> ServeInputs {
    let banks = inputs::quiz_banks(&World::standard());
    let batch = inputs::serve_batch(seed, &banks);
    ServeInputs {
        requests: batch.len(),
        jsonl: inputs::to_jsonl(&batch),
        banks,
    }
}

fn serve_setup(clock: &mut HostClock) -> (ServeSetup, Vec<Span>) {
    let mut generate_ms = GenerateMs::new();
    let (engine, spans) = repeated_setup(clock, || {
        generate_ms.clear();
        let engine = Arc::new(Engine::new());
        for scenario in SCENARIOS {
            let config = CorpusConfig {
                seed: inputs::CORPUS_SEED,
                distractor_count: CorpusConfig::default().distractor_count,
                scenario,
            };
            warm_corpus(&engine, config, &mut generate_ms);
        }
        engine
    });
    (
        ServeSetup {
            engine,
            generate_ms,
        },
        spans,
    )
}

fn server(engine: &Arc<Engine>, workers: usize) -> Server {
    Server::with_engine(
        Arc::clone(engine),
        ServeConfig {
            workers,
            admission: inputs::serve_admission(),
            ..ServeConfig::default()
        },
    )
}

/// One batch through `serve_jsonl` with a flight recorder (wrapped or
/// not) as the sink, as `ira serve --flight` runs it. Returns the
/// transcript, the digest of transcript and flight dumps, and seconds.
fn serve_batch<C>(
    server: &Server,
    jsonl: &str,
    sink: Arc<C>,
    flight: impl Fn(&C) -> String,
) -> (String, String, f64)
where
    C: ira::obs::Collector + 'static,
{
    let start = Instant::now();
    let transcript = server
        .serve_jsonl(jsonl, Some(Arc::clone(&sink) as SharedCollector))
        .expect("generated batch parses");
    let secs = start.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    digest.update(transcript.as_bytes());
    digest.update(flight(&sink).as_bytes());
    (transcript, digest.hex(), secs)
}

fn plain_batch(server: &Server, jsonl: &str) -> (String, String, f64) {
    serve_batch(
        server,
        jsonl,
        Arc::new(FlightRecorder::default()),
        FlightRecorder::render,
    )
}

/// Outcome shares of one transcript.
struct ServeOutcomes {
    served_share: f64,
    consistent_share: f64,
    shed_share: f64,
    degraded_share: f64,
    retries: f64,
    virtual_s: Vec<f64>,
}

fn serve_outcomes(responses: &[ServeResponse]) -> ServeOutcomes {
    let n = responses.len() as f64;
    let count = |status| responses.iter().filter(|r| r.status == status).count() as f64;
    let (mut consistent, mut graded) = (0usize, 0usize);
    for r in responses {
        if let Some(ResponsePayload::Quiz { conclusions, .. }) = &r.result {
            graded += conclusions.len();
            consistent += conclusions.iter().filter(|c| c.consistent).count();
        }
    }
    ServeOutcomes {
        served_share: 1.0 - (count(ResponseStatus::Rejected) + count(ResponseStatus::Failed)) / n,
        consistent_share: ratio(consistent as f64, graded as f64),
        shed_share: count(ResponseStatus::Rejected) / n,
        degraded_share: count(ResponseStatus::Degraded) / n,
        retries: responses
            .iter()
            .map(|r| r.attempts.saturating_sub(1) as f64)
            .sum(),
        virtual_s: responses
            .iter()
            .filter(|r| r.attempts > 0)
            .map(|r| r.exec_virtual_us as f64 / 1e6)
            .collect(),
    }
}

fn serve_mix(run: &Run) -> Outcome {
    let input = serve_inputs(run.seed);
    let mut clock = HostClock::with_window(SERVE_WINDOW_S);
    let (setup, setup_spans) = serve_setup(&mut clock);
    let workers = report::nproc();
    let pool = server(&setup.engine, workers);

    let mut rounds = Rounds::default();
    let mut batches = Vec::new();
    let mut transcript = String::new();
    let start = Instant::now();
    while run.more(start, rounds.rounds as usize, 2) {
        let from = clock.now();
        let (text, digest, secs) =
            clock.probe_during(PROBE_INTERVAL_S, || plain_batch(&pool, &input.jsonl));
        batches.push(Span {
            from,
            to: clock.now(),
            host_ms: secs * 1e3,
        });
        rounds.finish(digest, input.requests as u64);
        transcript = text;
    }
    // The determinism contract: one worker gives the same bytes.
    let single = server(&setup.engine, 1);
    let (_, single_digest, _) = plain_batch(&single, &input.jsonl);
    let workers_agree = rounds.digest.as_deref() == Some(single_digest.as_str());
    if !workers_agree {
        rounds.failed += input.requests as u64;
    }

    let responses = parse_responses(&transcript).expect("transcript parses");
    let out = serve_outcomes(&responses);
    let batch_s: Vec<String> = batches
        .iter()
        .map(|b| report::num(b.host_ms / 1e3))
        .collect();
    let batch_reference_s: Vec<String> = batches
        .iter()
        .map(|b| report::num(b.reference_ms(&clock) / 1e3))
        .collect();
    let e2e = EndToEnd {
        clock,
        setup: setup_spans,
        units: batches,
        throughput: Throughput::PerBatch(input.requests as f64),
        latency: Latency::PerUnit,
        served_share: out.served_share,
        consistent_share: out.consistent_share,
        virtual_s: out.virtual_s,
    };
    let mut details = vec![
        ("digest", rounds.digest()),
        ("digest_workers_1", report::string(&single_digest)),
        ("workers", workers.to_string()),
        ("batches", rounds.rounds.to_string()),
        ("requests_per_batch", input.requests.to_string()),
        ("latency_is", report::string("time of one whole batch")),
        ("batch_s", format!("[{}]", batch_s.join(", "))),
        (
            "batch_reference_s",
            format!("[{}]", batch_reference_s.join(", ")),
        ),
    ];
    details.extend(e2e.details());
    Outcome {
        correct: rounds.failed == 0,
        attempted: rounds.units + input.requests as u64,
        failed: rounds.failed,
        metrics: e2e.metrics(),
        details,
    }
}

fn serve_mix_traced(run: &Run) -> Outcome {
    let input = serve_inputs(run.seed);
    let (setup, _) = serve_setup(&mut HostClock::default());
    let engine = &setup.engine;
    let pool = server(engine, report::nproc());
    let mut ledger = Ledger::default();
    let mut failed = 0u64;

    // Pass A: untraced batches (the reference) alternating with batches
    // into the timed sink, whose transcript and flight dumps must not
    // change. Their time ratio is the tracing overhead.
    let (transcript, reference, _) = plain_batch(&pool, &input.jsonl);
    let (mut untraced_secs, mut traced_secs) = (0.0, 0.0);
    let mut obs_records = Reading::default();
    for _ in 0..OVERHEAD_PAIRS {
        let (_, digest, secs) = plain_batch(&pool, &input.jsonl);
        untraced_secs += secs;
        failed += u64::from(digest != reference) * input.requests as u64;
        let sink = Arc::new(TimedCollector::new(FlightRecorder::default()));
        let (_, digest, secs) = serve_batch(&pool, &input.jsonl, Arc::clone(&sink), |s| {
            s.inner().render()
        });
        traced_secs += secs;
        failed += u64::from(digest != reference) * input.requests as u64;
        obs_records += sink.record.read();
    }
    let responses = parse_responses(&transcript).expect("transcript parses");
    let out = serve_outcomes(&responses);
    let k = AgentConfig::default().retrieval_k;

    // Pass B: intake, every admitted request as a session with timed
    // services, and render — on one thread, so the process-global op
    // counters belong to the unit they are read around.
    let corpora: Vec<Arc<Corpus>> = SCENARIOS
        .iter()
        .map(|&scenario| {
            engine.corpus(CorpusConfig {
                seed: inputs::CORPUS_SEED,
                distractor_count: CorpusConfig::default().distractor_count,
                scenario,
            })
        })
        .collect();
    ledger.replay_index_builds(corpora.iter().map(|c| c.as_ref()));
    let mut passes = 0usize;
    let start = Instant::now();
    while run.more(start, passes, 1) {
        passes += 1;
        let pass_start = Instant::now();
        let replay_before = ledger.replay_ns;

        let intake_start = Instant::now();
        let requests = parse_requests(&input.jsonl).expect("generated batch parses");
        let mut admission = AdmissionController::new(inputs::serve_admission());
        let decisions: Vec<Option<u64>> = requests
            .iter()
            .map(|r| {
                r.validate().ok()?;
                match admission.admit(nominal_cost(r.kind)) {
                    Admission::Admitted { queue_wait, .. } => Some(queue_wait.as_micros()),
                    Admission::Shed { .. } => None,
                }
            })
            .collect();
        ledger.serve_intake_ns += ns_since(intake_start);
        ledger.serve_requests += requests.len() as u64;

        let obs = Arc::new(TimedCollector::new(FlightRecorder::default()));
        for (index, (request, response)) in requests.iter().zip(&responses).enumerate() {
            let Some(queue_us) = decisions[index] else {
                if response.attempts > 0 {
                    failed += 1;
                }
                continue;
            };
            let handle = ObsHandle::new(Arc::clone(&obs) as SharedCollector, index as u32);
            let obs_before = obs.record.read();
            let unit_start = Instant::now();
            if request.kind == RequestKind::PanicProbe {
                // A probe's body only panics; what it costs is one
                // session provisioned per attempt.
                let mut construct_ns = 0;
                for attempt in 0..response.attempts {
                    let config = serve_session_config(request, attempt);
                    let t = Instant::now();
                    drop(spawn_timed(engine, config, Some(handle.clone())));
                    construct_ns += ns_since(t);
                }
                ledger.add_unit(ns_since(unit_start), construct_ns, &Probe::default());
                ledger.obs_in_units += obs.record.read().since(obs_before);
                continue;
            }
            let config = serve_session_config(request, 0);
            let corpus = engine.corpus(config.corpus);
            let t = Instant::now();
            let mut session = spawn_timed(engine, config.clone(), Some(handle));
            let construct_ns = ns_since(t);
            session.env.client.advance_us(queue_us);
            let before = session.probe();
            let deadline_us = request.deadline_us.unwrap_or(u64::MAX);
            let (payload, degraded) = serve_body(request, &mut session, deadline_us);
            let cost = session.probe().since(&before);
            let exec_us = session.web.now_us() - queue_us;
            ledger.add_unit(ns_since(unit_start), construct_ns, &cost);
            ledger.obs_in_units += obs.record.read().since(obs_before);

            let same = response.attempts == 1
                && response.queue_us == queue_us
                && response.exec_virtual_us == exec_us
                && response.degraded == degraded
                && response.result.as_ref() == Some(&payload);
            failed += u64::from(!same);

            let bank_index = SCENARIOS
                .iter()
                .position(|s| *s == request.scenario)
                .expect("batch scenarios are registered");
            let questions: Vec<&str> = match request.kind {
                RequestKind::Ask => request.question.as_deref().into_iter().collect(),
                RequestKind::Quiz => input.banks[bank_index]
                    .iter()
                    .map(|item| item.question.as_str())
                    .collect(),
                _ => Vec::new(),
            };
            let store = KnowledgeStore::new(StoreConfig::default());
            let log = session.web.take_log();
            ledger.replay_unit(&corpus, &log, &store, &request.id, &questions, k);
            ledger.replay_spawn(engine, config);
        }

        let render_start = Instant::now();
        std::hint::black_box(render_responses(&responses));
        ledger.serve_render += Reading {
            ns: ns_since(render_start),
            calls: 1,
        };
        ledger.pass_ns += ns_since(pass_start) - (ledger.replay_ns - replay_before);
    }

    let extras = LayerExtras {
        corpus_builds: engine.corpus_builds(),
        obs_records,
        obs_requests: OVERHEAD_PAIRS as u64 * input.requests as u64,
        shed_share: out.shed_share,
        degraded_share: out.degraded_share,
        retries: out.retries,
        overhead_share: 1.0 - untraced_secs / traced_secs,
    };
    Outcome {
        correct: failed == 0,
        attempted: (1 + 2 * OVERHEAD_PAIRS as u64) * input.requests as u64 + ledger.units,
        failed,
        metrics: ledger.metrics(&setup.generate_ms, &extras),
        details: vec![
            ("digest", report::string(&reference)),
            ("overhead_pairs", OVERHEAD_PAIRS.to_string()),
            ("replay_passes", passes.to_string()),
            ("units", ledger.units.to_string()),
            ("untraced_batch_s", report::num(untraced_secs)),
            ("traced_batch_s", report::num(traced_secs)),
        ],
    }
}

// ------------------------------------------------------------------- bigweb

struct BigSetup {
    engine: Arc<Engine>,
    generate_ms: GenerateMs,
}

fn big_corpus_config(scenario: usize) -> CorpusConfig {
    CorpusConfig {
        seed: inputs::CORPUS_SEED,
        distractor_count: inputs::BIG_DISTRACTORS,
        scenario: SCENARIOS[scenario],
    }
}

fn big_setup(clock: &mut HostClock) -> (BigSetup, Vec<Span>) {
    let mut generate_ms = GenerateMs::new();
    let (engine, spans) = repeated_setup(clock, || {
        generate_ms.clear();
        let engine = Arc::new(Engine::new());
        for scenario in 0..SCENARIOS.len() {
            warm_corpus(&engine, big_corpus_config(scenario), &mut generate_ms);
        }
        engine
    });
    (
        BigSetup {
            engine,
            generate_ms,
        },
        spans,
    )
}

/// The session a `bigweb` plan entry runs: Bob over the big web of its
/// scenario, seeds offset by the tenant.
fn bigweb_session(plan: &SessionPlan) -> SessionConfig {
    let bob = SessionConfig::bob();
    SessionConfig {
        corpus: big_corpus_config(plan.scenario),
        net_seed: bob.net_seed.wrapping_add(plan.tenant),
        llm_seed: bob.llm_seed.wrapping_add(plan.tenant),
        ..bob
    }
}

/// One untraced `bigweb` round, probing the host between sessions;
/// returns its digest and per-session (span, virtual s, consistent,
/// graded).
fn bigweb_round(
    clock: &mut HostClock,
    engine: &Engine,
    plans: &[SessionPlan],
    banks: &[QuizBank],
) -> (String, Vec<(Span, f64, usize, usize)>) {
    let mut digest = Digest::default();
    let mut units = Vec::with_capacity(plans.len());
    for plan in plans {
        clock.probe_every(PROBE_INTERVAL_S);
        let ((session, report), span) = Span::time(clock, || {
            let mut session = engine.spawn_session(bigweb_session(plan));
            let report = train_and_quiz(&mut session.agent, &banks[plan.scenario]);
            (session, report)
        });
        let now = session.now_us();
        digest_unit(
            &mut digest,
            SCENARIOS[plan.scenario],
            &report,
            now,
            session.agent.llm_stats(),
        );
        units.push((
            span,
            now as f64 / 1e6,
            report.consistent_count(),
            report.total(),
        ));
    }
    (digest.hex(), units)
}

fn bigweb(run: &Run) -> Outcome {
    let banks = inputs::quiz_banks(&World::standard());
    let plans = inputs::bigweb_plan(run.seed);
    let mut clock = HostClock::default();
    let (setup, setup_spans) = big_setup(&mut clock);

    let mut rounds = Rounds::default();
    let mut spans = Vec::new();
    let mut virtual_s = Vec::new();
    let (mut consistent, mut graded) = (0usize, 0usize);
    let start = Instant::now();
    while run.more(start, rounds.rounds as usize, 2) {
        let (digest, units) = bigweb_round(&mut clock, &setup.engine, &plans, &banks);
        rounds.finish(digest, units.len() as u64);
        for (span, virt, ok, total) in units {
            spans.push(span);
            virtual_s.push(virt);
            consistent += ok;
            graded += total;
        }
    }
    clock.probe(PROBES_AROUND);
    let e2e = EndToEnd {
        clock,
        setup: setup_spans,
        units: spans,
        throughput: Throughput::ClosedLoop,
        latency: Latency::PerUnit,
        served_share: 1.0 - ratio(rounds.failed as f64, rounds.units as f64),
        consistent_share: ratio(consistent as f64, graded as f64),
        virtual_s,
    };
    closed_loop_outcome(rounds, e2e)
}

/// End-to-end outcome of a closed-loop workload: every unit completes
/// (a unit whose round digest differs counts as failed).
fn closed_loop_outcome(rounds: Rounds, e2e: EndToEnd) -> Outcome {
    // Host seconds per round, to tell noise within a run from noise
    // between runs.
    let per_round = (rounds.units / rounds.rounds.max(1)).max(1) as usize;
    let round_s: Vec<String> = e2e
        .units
        .chunks(per_round)
        .map(|c| report::num(c.iter().map(|s| s.host_ms).sum::<f64>() / 1e3))
        .collect();
    let mut details = vec![
        ("digest", rounds.digest()),
        ("rounds", rounds.rounds.to_string()),
        ("round_s", format!("[{}]", round_s.join(", "))),
    ];
    details.extend(e2e.details());
    Outcome {
        correct: rounds.failed == 0,
        attempted: rounds.units,
        failed: rounds.failed,
        metrics: e2e.metrics(),
        details,
    }
}

fn bigweb_traced(run: &Run) -> Outcome {
    let banks = inputs::quiz_banks(&World::standard());
    let plans = inputs::bigweb_plan(run.seed);
    let mut clock = HostClock::default();
    let (setup, _) = big_setup(&mut clock);
    let engine = &setup.engine;
    let k = AgentConfig::default().retrieval_k;
    let mut ledger = Ledger::default();

    let (reference, untraced) = bigweb_round(&mut clock, engine, &plans, &banks);
    let untraced_ms: f64 = untraced.iter().map(|u| u.0.host_ms).sum();
    let corpora: Vec<Arc<Corpus>> = (0..SCENARIOS.len())
        .map(|s| engine.corpus(big_corpus_config(s)))
        .collect();
    ledger.replay_index_builds(corpora.iter().map(|c| c.as_ref()));

    let mut rounds = Rounds::default();
    rounds.finish(reference.clone(), plans.len() as u64);
    let mut traced_ms = 0.0;
    let start = Instant::now();
    while run.more(start, rounds.rounds as usize - 1, 1) {
        let pass_start = Instant::now();
        let replay_before = ledger.replay_ns;
        let mut digest = Digest::default();
        for plan in &plans {
            let config = bigweb_session(plan);
            let unit_start = Instant::now();
            let mut session = spawn_timed(engine, config.clone(), None);
            let construct_ns = ns_since(unit_start);
            let before = session.probe();
            let bank = &banks[plan.scenario];
            let report = train_and_quiz(&mut session.agent, bank);
            let cost = session.probe().since(&before);
            let unit_ns = ns_since(unit_start);
            ledger.add_unit(unit_ns, construct_ns, &cost);
            traced_ms += unit_ns as f64 / 1e6;
            digest_unit(
                &mut digest,
                SCENARIOS[plan.scenario],
                &report,
                session.web.now_us(),
                session.agent.llm_stats(),
            );

            let questions: Vec<&str> = bank.iter().map(|item| item.question.as_str()).collect();
            let store = KnowledgeStore::new(StoreConfig::default());
            let log = session.web.take_log();
            ledger.replay_unit(
                &corpora[plan.scenario],
                &log,
                &store,
                SCENARIOS[plan.scenario],
                &questions,
                k,
            );
            ledger.replay_spawn(engine, config);
        }
        rounds.finish(digest.hex(), plans.len() as u64);
        ledger.pass_ns += ns_since(pass_start) - (ledger.replay_ns - replay_before);
    }

    let traced_rounds = rounds.rounds - 1;
    let extras = LayerExtras {
        corpus_builds: engine.corpus_builds(),
        overhead_share: 1.0 - untraced_ms / (traced_ms / traced_rounds as f64),
        ..LayerExtras::default()
    };
    Outcome {
        correct: rounds.failed == 0,
        attempted: rounds.units,
        failed: rounds.failed,
        metrics: ledger.metrics(&setup.generate_ms, &extras),
        details: vec![
            ("digest", rounds.digest()),
            ("traced_rounds", traced_rounds.to_string()),
            ("units", ledger.units.to_string()),
        ],
    }
}

// ---------------------------------------------------------------- longlived

/// One `KnowledgeStore::memorize` call of the pre-fill, kept so the
/// store can be rebuilt call for call.
struct PrefillCall {
    topic: String,
    content: String,
    url: String,
    kind: String,
    learned_at: u64,
    importance: f64,
}

/// Pre-fill importance as the retrieval loop assigns it, `1 / (1 + rank)`
/// of the search hit a page came from: event pages as the top hit of
/// their incident's searches, distractors as a fifth-ranked hit.
const EVENT_IMPORTANCE: f64 = 1.0;
const DISTRACTOR_IMPORTANCE: f64 = 0.2;

fn prefill(store: &KnowledgeStore, calls: &[PrefillCall]) {
    for c in calls {
        store.memorize(
            &c.topic,
            &c.content,
            &c.url,
            &c.kind,
            c.learned_at,
            c.importance,
        );
    }
}

struct LongSetup {
    engine: Arc<Engine>,
    /// The web the agent lives in: the solar-superstorm big web.
    corpus: Arc<Corpus>,
    calls: Vec<PrefillCall>,
    /// The store set-up built, adopted by the first round.
    store: Option<KnowledgeStore>,
    generate_ms: GenerateMs,
}

/// Build the four big webs and pre-fill a store from their pages,
/// fetched through the simulated web: every scenario's event pages
/// first, then the solar-superstorm web's distractors, until the store
/// holds `LONGLIVED_ENTRIES` entries. The base fact pages are left out,
/// so the agent still searches, fetches and memorizes into the full
/// store while it answers.
fn long_setup(clock: &mut HostClock) -> (LongSetup, Vec<Span>) {
    repeated_setup(clock, || {
        let engine = Arc::new(Engine::new());
        let mut generate_ms = GenerateMs::new();
        let corpora: Vec<Arc<Corpus>> = (0..SCENARIOS.len())
            .map(|s| warm_corpus(&engine, big_corpus_config(s), &mut generate_ms))
            .collect();
        let store = KnowledgeStore::new(StoreConfig::default());
        let mut calls = Vec::new();
        let envs: Vec<Environment> = corpora
            .iter()
            .map(|c| Environment::from_parts(engine.world().clone(), Arc::clone(c), 0xFEED, None))
            .collect();
        let events = corpora.iter().enumerate().flat_map(|(i, c)| {
            c.iter()
                .filter(|d| d.topic == Topic::ScenarioEvent)
                .map(move |d| (i, d))
        });
        let distractors = corpora[0]
            .iter()
            .filter(|d| d.topic == Topic::Distractor)
            .map(|d| (0, d));
        for (web, doc) in events.chain(distractors) {
            if store.len() >= inputs::LONGLIVED_ENTRIES {
                break;
            }
            let url = doc.url().to_string();
            let Ok(content) = Fetcher::fetch(&envs[web].client, &url) else {
                continue;
            };
            let call = PrefillCall {
                topic: doc.topic.label().to_string(),
                content,
                url,
                kind: format!("{:?}", doc.source).to_lowercase(),
                learned_at: calls.len() as u64,
                importance: if doc.topic == Topic::ScenarioEvent {
                    EVENT_IMPORTANCE
                } else {
                    DISTRACTOR_IMPORTANCE
                },
            };
            prefill(&store, std::slice::from_ref(&call));
            calls.push(call);
        }
        LongSetup {
            corpus: Arc::clone(&corpora[0]),
            engine,
            calls,
            store: Some(store),
            generate_ms,
        }
    })
}

fn long_env(setup: &LongSetup, tenant: u64) -> Environment {
    Environment::from_parts(
        setup.engine.world().clone(),
        Arc::clone(&setup.corpus),
        SessionConfig::bob().net_seed.wrapping_add(tenant),
        None,
    )
}

fn long_llm_seed(tenant: u64) -> u64 {
    SessionConfig::bob().llm_seed.wrapping_add(tenant)
}

/// A store equal to the set-up one: the same memorize calls replayed.
fn rebuilt_store(calls: &[PrefillCall]) -> KnowledgeStore {
    let store = KnowledgeStore::new(StoreConfig::default());
    prefill(&store, calls);
    store
}

/// Self-learn, answer and grade one question; the digest gets the
/// verdict line.
fn answer_question(
    agent: &mut ResearchAgent,
    bank: &QuizBank,
    q: &QuestionPlan,
    digest: &mut Digest,
    now_us: impl Fn() -> u64,
) -> bool {
    let item = bank.iter().nth(q.item).expect("planned item exists");
    let v0 = now_us();
    agent.self_learn(&item.question);
    let answer = agent.ask(&item.question);
    let mut report = ConsistencyReport::new("longlived");
    report.add(item, &answer);
    digest_unit(digest, &item.id, &report, now_us() - v0, agent.llm_stats());
    report.consistent_count() == 1
}

fn longlived(run: &Run) -> Outcome {
    let banks = inputs::quiz_banks(&World::standard());
    let stream = inputs::longlived_plan(run.seed, &banks);
    let tenant = inputs::LONGLIVED_TENANT;
    let mut clock = HostClock::default();
    let (mut setup, setup_spans) = long_setup(&mut clock);

    let mut rounds = Rounds::default();
    let mut spans = Vec::new();
    let mut virtual_s = Vec::new();
    let mut consistent = 0usize;
    let start = Instant::now();
    while run.more(start, rounds.rounds as usize, 2) {
        let store = setup
            .store
            .take()
            .unwrap_or_else(|| rebuilt_store(&setup.calls));
        let env = long_env(&setup, tenant);
        let mut agent = ResearchAgent::with_memory(
            RoleDefinition::bob(),
            &env,
            AgentConfig::default(),
            long_llm_seed(tenant),
            store,
        );
        let mut digest = Digest::default();
        for q in &stream {
            clock.probe_every(PROBE_INTERVAL_S);
            let v0 = env.now_us();
            let (ok, span) = Span::time(&clock, || {
                answer_question(&mut agent, &banks[q.scenario], q, &mut digest, || {
                    env.now_us()
                })
            });
            spans.push(span);
            virtual_s.push((env.now_us() - v0) as f64 / 1e6);
            consistent += usize::from(ok);
        }
        rounds.finish(digest.hex(), stream.len() as u64);
    }
    clock.probe(PROBES_AROUND);
    let graded = spans.len();
    let e2e = EndToEnd {
        clock,
        setup: setup_spans,
        units: spans,
        throughput: Throughput::ClosedLoop,
        latency: Latency::PassMean {
            pass: stream.len() / inputs::LONGLIVED_PASSES,
            round: stream.len(),
        },
        served_share: 1.0 - ratio(rounds.failed as f64, rounds.units as f64),
        consistent_share: ratio(consistent as f64, graded as f64),
        virtual_s,
    };
    let mut outcome = closed_loop_outcome(rounds, e2e);
    outcome
        .details
        .push(("prefill_calls", setup.calls.len().to_string()));
    outcome
}

fn longlived_traced(run: &Run) -> Outcome {
    let banks = inputs::quiz_banks(&World::standard());
    let stream = inputs::longlived_plan(run.seed, &banks);
    let tenant = inputs::LONGLIVED_TENANT;
    let (mut setup, _) = long_setup(&mut HostClock::default());
    let k = AgentConfig::default().retrieval_k;
    let mut ledger = Ledger::default();
    ledger.replay_index_builds(std::iter::once(setup.corpus.as_ref()));

    // Reference: one untraced round on the set-up store.
    let store = setup.store.take().expect("set-up store");
    let env = long_env(&setup, tenant);
    let mut agent = ResearchAgent::with_memory(
        RoleDefinition::bob(),
        &env,
        AgentConfig::default(),
        long_llm_seed(tenant),
        store,
    );
    let mut digest = Digest::default();
    let untraced_start = Instant::now();
    for q in &stream {
        answer_question(&mut agent, &banks[q.scenario], q, &mut digest, || {
            env.now_us()
        });
    }
    let untraced_ms = untraced_start.elapsed().as_secs_f64() * 1e3;
    drop(agent);
    let mut rounds = Rounds::default();
    rounds.finish(digest.hex(), stream.len() as u64);

    let mut traced_ms = 0.0;
    let start = Instant::now();
    while run.more(start, rounds.rounds as usize - 1, 1) {
        // Restart: the agent's own store gets the pre-fill call for
        // call, exactly as `with_memory` adopts a rebuilt store.
        let env = long_env(&setup, tenant);
        let web = Arc::new(TimedWeb::new(env.client.clone()));
        let llm = Arc::new(TimedLlm::new(Llm::gpt4(long_llm_seed(tenant))));
        let mut agent = ResearchAgent::from_services(
            RoleDefinition::bob(),
            web.clone(),
            llm.clone(),
            AgentConfig::default(),
        );
        prefill(agent.memory(), &setup.calls);
        llm.invalidate_grounding();
        let replay_store = rebuilt_store(&setup.calls);
        let config = SessionConfig {
            corpus: big_corpus_config(0),
            ..SessionConfig::bob()
        };
        ledger.replay_spawn(&setup.engine, config);

        let pass_start = Instant::now();
        let replay_before = ledger.replay_ns;
        let mut digest = Digest::default();
        for q in &stream {
            let before = Probe::take(&web, &llm);
            let unit_start = Instant::now();
            answer_question(&mut agent, &banks[q.scenario], q, &mut digest, || {
                env.now_us()
            });
            let unit_ns = ns_since(unit_start);
            ledger.add_unit(unit_ns, 0, &Probe::take(&web, &llm).since(&before));
            traced_ms += unit_ns as f64 / 1e6;
            let question = &banks[q.scenario]
                .iter()
                .nth(q.item)
                .expect("planned item")
                .question;
            let log = web.take_log();
            ledger.replay_unit(
                &setup.corpus,
                &log,
                &replay_store,
                question,
                &[question.as_str()],
                k,
            );
        }
        rounds.finish(digest.hex(), stream.len() as u64);
        ledger.pass_ns += ns_since(pass_start) - (ledger.replay_ns - replay_before);
    }

    let traced_rounds = rounds.rounds - 1;
    let extras = LayerExtras {
        corpus_builds: setup.engine.corpus_builds(),
        overhead_share: 1.0 - untraced_ms / (traced_ms / traced_rounds as f64),
        ..LayerExtras::default()
    };
    Outcome {
        correct: rounds.failed == 0,
        attempted: rounds.units,
        failed: rounds.failed,
        metrics: ledger.metrics(&setup.generate_ms, &extras),
        details: vec![
            ("digest", rounds.digest()),
            ("traced_rounds", traced_rounds.to_string()),
            ("units", ledger.units.to_string()),
            ("prefill_calls", setup.calls.len().to_string()),
        ],
    }
}
