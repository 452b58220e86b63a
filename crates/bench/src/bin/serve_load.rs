//! Serve-layer load generator: throughput, latency, and shed/degraded
//! accounting for the resilient multi-tenant serve layer.
//!
//! Runs one mixed request batch (train / ask / quiz-with-deadline /
//! blackout quiz / panic probes / overload) through [`ira_serve::Server`]
//! at three worker-pool sizes sharing one engine-cached corpus, and
//! asserts the serve determinism contract in-binary: the response
//! transcript and the trace must be byte-identical at every
//! concurrency level. What varies with workers is host wall time —
//! reported per level as throughput on stderr — while the virtual
//! latency distribution (queue wait + retry backoff + session
//! execution) is worker-invariant and reported once with p50/p95/p99.
//!
//! Usage:
//!   serve_load                 full batch, writes results/BENCH_serve.json
//!   serve_load --smoke         reduced batch, writes results/BENCH_serve_smoke.json
//!                              (a metrics snapshot of the serve trace —
//!                              fully deterministic, diffable with
//!                              `ira trace diff` at zero tolerance)
//!
//! Stdout is the deterministic report; wall-clock timing goes to
//! stderr, matching the other sweep binaries.

use ira_engine::Engine;
use ira_obs::{summarize_events, JsonlCollector, LiveStats, SharedCollector};
use ira_serve::{
    render_responses, slo_sample, AdmissionConfig, RequestKind, ResponseStatus, ServeConfig,
    ServeRequest, ServeResponse, Server,
};
use ira_simnet::Duration;
use serde::Serialize;
use std::sync::Arc;

const WORKER_LEVELS: [usize; 3] = [1, 4, 8];

const SOLAR_QUESTION: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
     that connects Brazil to Europe or the one that connects the US to Europe?";
const DATACENTER_QUESTION: &str =
    "Whose datacenter is more vulnerable to a solar superstorm, Google's or Facebook's?";
const REPEATER_QUESTION: &str =
    "Which component of a submarine cable system is most at risk during a geomagnetic storm?";

fn train(id: &str, seed: u64, deadline_us: Option<u64>) -> ServeRequest {
    let mut req = ServeRequest::new(id, RequestKind::Train);
    req.seed = seed;
    req.deadline_us = deadline_us;
    req
}

fn ask(id: &str, seed: u64, question: &str) -> ServeRequest {
    let mut req = ServeRequest::new(id, RequestKind::Ask);
    req.seed = seed;
    req.question = Some(question.to_string());
    req
}

fn quiz(id: &str, seed: u64, deadline_us: u64, fault: Option<(f64, u64)>) -> ServeRequest {
    let mut req = ServeRequest::new(id, RequestKind::Quiz);
    req.seed = seed;
    req.deadline_us = Some(deadline_us);
    if let Some((intensity, fault_seed)) = fault {
        req.fault_intensity = intensity;
        req.fault_seed = fault_seed;
    }
    req
}

fn probe(id: &str, panics: Option<u32>) -> ServeRequest {
    let mut req = ServeRequest::new(id, RequestKind::PanicProbe);
    req.probe_panics = panics;
    req
}

/// Control-plane stats probe: reads the live-telemetry ledger without
/// spending an admission token.
fn stats(id: &str) -> ServeRequest {
    ServeRequest::new(id, RequestKind::Stats)
}

/// The full mixed batch: 16 tenants across every request kind, with
/// deadlines cutting two quizzes and one training run, a blackout
/// quiz, a probe that recovers on retry, one that never does, and a
/// tail request past the token-bucket burst (shed).
fn full_workload() -> Vec<ServeRequest> {
    vec![
        train("t0-train", 1, None),
        train("t1-train-cut", 2, Some(5_000_000)),
        ask("t2-ask-solar", 3, SOLAR_QUESTION),
        quiz("t3-quiz-cut", 4, 100_000_000, None),
        probe("t4-probe-retry", Some(1)),
        probe("t5-probe-dead", None),
        ask("t6-ask-dc", 5, DATACENTER_QUESTION),
        train("t7-train", 6, None),
        quiz("t8-quiz-blackout", 7, 110_000_000, Some((0.25, 7))),
        ask("t9-ask-solar", 8, SOLAR_QUESTION),
        train("t10-train-cut", 9, Some(5_000_000)),
        probe("t11-probe-ok", Some(0)),
        ask("t12-ask-repeater", 10, REPEATER_QUESTION),
        train("t13-train", 11, None),
        quiz("t14-quiz-cut", 12, 100_000_000, None),
        train("t15-train-tail", 13, None),
        stats("t16-stats"),
    ]
}

/// The smoke batch: one of everything cheap (no full quiz), sized so
/// the tail request overruns the bucket.
fn smoke_workload() -> Vec<ServeRequest> {
    vec![
        train("s0-train-cut", 1, Some(5_000_000)),
        ask("s1-ask-solar", 2, SOLAR_QUESTION),
        probe("s2-probe-retry", Some(1)),
        probe("s3-probe-dead", None),
        probe("s4-probe-ok", Some(0)),
        train("s5-train-tail", 3, None),
        stats("s6-stats"),
    ]
}

/// Admission sized against the workload: refill 1/s with 250 ms
/// arrival spacing drains net 0.75 tokens per arrival, so a burst of
/// `floor(0.75 * (billable - 1)) + 1` sheds exactly the batch's last
/// *billable* request and admits everything before it. Stats probes
/// spend no tokens, so they are excluded from the sizing.
fn admission_for(billable: usize) -> AdmissionConfig {
    let burst = (3 * (billable as u32 - 1)) / 4 + 1;
    AdmissionConfig {
        rate_per_sec: 1.0,
        burst,
        arrival_spacing: Duration::from_millis(250),
        lanes: 4,
        max_queue_wait: Duration::from_secs(600),
    }
}

#[derive(Debug, Clone, Serialize)]
struct LatencyReport {
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
}

#[derive(Debug, Clone, Serialize)]
struct OutcomeReport {
    ok: usize,
    degraded: usize,
    rejected: usize,
    failed: usize,
    /// Retry attempts consumed across the batch.
    retries: usize,
    /// Session panics caught by the supervisor (retried or terminal).
    panics: usize,
}

/// The SLO summary derived from the live-telemetry ledger: rates as
/// integer parts-per-million (so the report stays byte-stable) plus
/// the deterministic sketch percentiles.
#[derive(Debug, Clone, Serialize)]
struct SloReport {
    arrivals: u64,
    admitted: u64,
    shed_ppm: u64,
    degraded_ppm: u64,
    deadline_miss_ppm: u64,
    queue_p50_us: u64,
    queue_p95_us: u64,
    queue_p99_us: u64,
    exec_p50_us: u64,
    exec_p95_us: u64,
    exec_p99_us: u64,
}

/// Fold every `(request, response)` pair through the serve layer's
/// public [`slo_sample`] derivation — the same stream the in-server
/// ledger records — and collapse the per-key cells into one batch-wide
/// SLO cell.
fn slo_report(requests: &[ServeRequest], responses: &[ServeResponse]) -> SloReport {
    let mut live = LiveStats::default();
    for (request, response) in requests.iter().zip(responses) {
        live.record(&slo_sample(request, response));
    }
    let snapshot = live.snapshot(0);
    let mut all = ira_obs::SloCell::default();
    for cell in snapshot.total.values() {
        all.merge(cell);
    }
    SloReport {
        arrivals: all.arrivals,
        admitted: all.admitted,
        shed_ppm: all.shed_ppm(),
        degraded_ppm: all.degraded_ppm(),
        deadline_miss_ppm: all.deadline_miss_ppm(),
        queue_p50_us: all.queue.p50_us(),
        queue_p95_us: all.queue.p95_us(),
        queue_p99_us: all.queue.p99_us(),
        exec_p50_us: all.exec.p50_us(),
        exec_p95_us: all.exec.p95_us(),
        exec_p99_us: all.exec.p99_us(),
    }
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    bench: String,
    mode: String,
    requests: usize,
    /// Worker-invariant end-to-end virtual latency (queue + retry
    /// backoff + execution) over executed requests.
    virtual_latency_us: LatencyReport,
    outcomes: OutcomeReport,
    /// Batch-wide SLO rates and sketch percentiles from the live
    /// telemetry ledger.
    slo: SloReport,
    transcripts_identical: bool,
}

struct RunOutput {
    transcript: String,
    trace: String,
    responses: Vec<ServeResponse>,
    wall_ms: f64,
}

fn run_level(engine: &Arc<Engine>, workers: usize, requests: &[ServeRequest]) -> RunOutput {
    let billable = requests
        .iter()
        .filter(|r| r.kind != RequestKind::Stats)
        .count();
    let config = ServeConfig {
        workers,
        admission: admission_for(billable),
        ..ServeConfig::default()
    };
    let server = Server::with_engine(Arc::clone(engine), config);
    let collector = Arc::new(JsonlCollector::new());
    let start = std::time::Instant::now();
    let responses = server.handle_batch(requests, Some(Arc::clone(&collector) as SharedCollector));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    RunOutput {
        transcript: render_responses(&responses),
        trace: collector.render(),
        responses,
        wall_ms,
    }
}

/// End-to-end virtual latency of one served request.
fn latency_us(response: &ServeResponse) -> u64 {
    response.queue_us + response.retry_wait_us + response.exec_virtual_us
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn latency_report(responses: &[ServeResponse]) -> LatencyReport {
    // Executed requests only: sheds never ran, and control-plane stats
    // probes are answered at intake with zero attempts.
    let mut lat: Vec<u64> = responses
        .iter()
        .filter(|r| r.attempts > 0)
        .map(latency_us)
        .collect();
    lat.sort_unstable();
    LatencyReport {
        p50_us: percentile(&lat, 50.0),
        p95_us: percentile(&lat, 95.0),
        p99_us: percentile(&lat, 99.0),
        max_us: lat.last().copied().unwrap_or(0),
    }
}

fn outcome_report(responses: &[ServeResponse]) -> OutcomeReport {
    let mut out = OutcomeReport {
        ok: 0,
        degraded: 0,
        rejected: 0,
        failed: 0,
        retries: 0,
        panics: 0,
    };
    for response in responses {
        match response.status {
            ResponseStatus::Ok => out.ok += 1,
            ResponseStatus::Degraded => out.degraded += 1,
            ResponseStatus::Rejected => out.rejected += 1,
            ResponseStatus::Failed => out.failed += 1,
        }
        let retries = response.attempts.saturating_sub(1) as usize;
        out.retries += retries;
        // Each retry was provoked by a caught panic; a terminal
        // failure means the last attempt panicked too.
        out.panics += retries;
        if response.status == ResponseStatus::Failed
            && response
                .error
                .as_ref()
                .is_some_and(|e| e.kind == "serve.session_panicked")
        {
            out.panics += 1;
        }
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (mode, requests) = if smoke {
        ("smoke", smoke_workload())
    } else {
        ("full", full_workload())
    };

    println!("serve_load — resilient serve layer under a mixed multi-tenant batch");
    println!("mode: {mode}, requests: {}\n", requests.len());

    // The workload detonates panic probes on purpose; keep their
    // backtraces out of the report while leaving real panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let probe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("panic probe"));
        if !probe {
            default_hook(info);
        }
    }));

    let engine = Arc::new(Engine::new());
    // Warm the shared corpus cache so level timings measure serving,
    // not one-time corpus generation.
    let _ = run_level(&engine, WORKER_LEVELS[0], &[probe("warmup", Some(0))]);

    let runs: Vec<RunOutput> = WORKER_LEVELS
        .iter()
        .map(|&workers| run_level(&engine, workers, &requests))
        .collect();

    for pair in runs.windows(2) {
        assert_eq!(
            pair[0].transcript, pair[1].transcript,
            "serve transcript must be byte-identical across worker counts"
        );
        assert_eq!(
            pair[0].trace, pair[1].trace,
            "serve trace must be byte-identical across worker counts"
        );
    }
    println!(
        "transcripts and traces byte-identical across workers {:?}: yes\n",
        WORKER_LEVELS
    );

    let responses = &runs[0].responses;
    let latency = latency_report(responses);
    let outcomes = outcome_report(responses);
    let slo = slo_report(&requests, responses);

    println!("per-request outcomes (identical at every level):");
    for response in responses {
        let error = response
            .error
            .as_ref()
            .map(|e| format!(" [{}]", e.kind))
            .unwrap_or_default();
        println!(
            "  {:<18} {:<9} attempts={} queue={:>9}µs exec={:>10}µs{}",
            response.id,
            response.status.as_str(),
            response.attempts,
            response.queue_us,
            response.exec_virtual_us,
            error
        );
    }
    println!(
        "\noutcomes: ok={} degraded={} rejected={} failed={} retries={} panics={}",
        outcomes.ok,
        outcomes.degraded,
        outcomes.rejected,
        outcomes.failed,
        outcomes.retries,
        outcomes.panics
    );
    println!(
        "virtual latency (executed): p50={}µs p95={}µs p99={}µs max={}µs",
        latency.p50_us, latency.p95_us, latency.p99_us, latency.max_us
    );
    println!(
        "slo: arrivals={} admitted={} shed={} degraded={} deadline_miss={}",
        slo.arrivals,
        slo.admitted,
        ira_obs::fmt_ppm_pct(slo.shed_ppm),
        ira_obs::fmt_ppm_pct(slo.degraded_ppm),
        ira_obs::fmt_ppm_pct(slo.deadline_miss_ppm),
    );
    println!(
        "slo sketch percentiles: queue p50/p95/p99 = {}/{}/{}µs, exec = {}/{}/{}µs",
        slo.queue_p50_us,
        slo.queue_p95_us,
        slo.queue_p99_us,
        slo.exec_p50_us,
        slo.exec_p95_us,
        slo.exec_p99_us
    );
    for (workers, run) in WORKER_LEVELS.iter().zip(&runs) {
        eprintln!(
            "[timing] workers={workers} wall={:.0}ms throughput={:.1} req/s",
            run.wall_ms,
            requests.len() as f64 / (run.wall_ms / 1e3)
        );
    }

    // Sanity: the batch must actually exercise every degradation path.
    assert!(outcomes.rejected > 0, "workload never tripped admission");
    assert!(outcomes.degraded > 0, "workload never hit a deadline");
    assert!(outcomes.failed > 0, "workload never exhausted retries");
    assert!(outcomes.retries > 0, "workload never retried");

    if smoke {
        // The smoke artifact is the metrics snapshot folded from the
        // serve trace: pure virtual time and counts, so the checked-in
        // copy is pinned byte for byte.
        let events = ira_obs::parse_jsonl(&runs[0].trace).expect("serve trace parses");
        let snapshot = summarize_events(&events);
        let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
        let out = "results/BENCH_serve_smoke.json";
        std::fs::write(out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("\nwrote {out}");
        return;
    }

    let report = Report {
        bench: "serve_load".to_string(),
        mode: mode.to_string(),
        requests: requests.len(),
        virtual_latency_us: latency,
        outcomes,
        slo,
        transcripts_identical: true,
    };
    let out = "results/BENCH_serve.json";
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");
}
