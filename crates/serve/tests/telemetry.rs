//! Live-telemetry contract tests (ISSUE 10).
//!
//! The bar: `stats` snapshots and flight-recorder post-mortem dumps
//! are pure functions of the request batch — byte-identical across
//! `--workers 1/4/8` and repeat runs; stats probes never consume
//! admission tokens; a clean run leaves zero flight artifacts.

use ira_engine::Engine;
use ira_obs::{parse_jsonl, Fanout, FlightRecorder, JsonlCollector, LiveSnapshot};
use ira_serve::{
    render_responses, slo_sample, AdmissionConfig, RequestKind, ResponsePayload, ResponseStatus,
    ServeConfig, ServeRequest, ServeResponse, Server,
};
use ira_simnet::clock::Duration;
use std::sync::Arc;

/// One run of a batch with full tracing *and* the always-on flight
/// recorder fanned in, the way `ira serve --trace --flight` wires it.
struct Observed {
    transcript: String,
    trace: String,
    flight: String,
    dump_count: usize,
    responses: Vec<ServeResponse>,
}

fn run_observed(engine: &Arc<Engine>, config: ServeConfig, requests: &[ServeRequest]) -> Observed {
    let server = Server::with_engine(Arc::clone(engine), config);
    let trace = Arc::new(JsonlCollector::new());
    let flight = Arc::new(FlightRecorder::default());
    let sink = Arc::new(Fanout::new(vec![trace.clone(), flight.clone()]));
    let responses = server.handle_batch(requests, Some(sink));
    Observed {
        transcript: render_responses(&responses),
        trace: trace.render(),
        flight: flight.render(),
        dump_count: flight.dump_count(),
        responses,
    }
}

/// The acceptance-criteria workload: an injected panic, a
/// deadline-exceeded train, an overload shed, and a trailing stats
/// probe — every flight-recorder trigger fires, and the probe reads
/// the ledger the batch built.
fn telemetry_requests() -> Vec<ServeRequest> {
    let mut train = ServeRequest::new("train-full", RequestKind::Train);
    train.seed = 1;

    let mut train_cut = ServeRequest::new("train-cut", RequestKind::Train);
    train_cut.deadline_us = Some(5_000_000);

    let probe_dead = ServeRequest::new("probe-dead", RequestKind::PanicProbe);

    let shed_me = ServeRequest::new("late-train", RequestKind::Train);

    let stats = ServeRequest::new("stats-tail", RequestKind::Stats);

    vec![train, train_cut, probe_dead, shed_me, stats]
}

/// Burst 3 admits exactly the first three billable requests; the
/// fourth sheds. The stats probe is not billable.
fn tight_admission() -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: 0.1,
        burst: 3,
        arrival_spacing: Duration::from_millis(250),
        lanes: 2,
        max_queue_wait: Duration::from_secs(600),
    }
}

fn stats_snapshot(response: &ServeResponse) -> &LiveSnapshot {
    match response.result.as_ref().expect("stats result present") {
        ResponsePayload::Stats { snapshot } => snapshot,
        other => panic!("expected stats payload, got {other:?}"),
    }
}

#[test]
fn stats_snapshots_and_flight_dumps_are_worker_invariant() {
    let engine = Arc::new(Engine::new());
    let requests = telemetry_requests();
    let runs: Vec<Observed> = [1usize, 4, 8]
        .into_iter()
        .map(|workers| {
            let config = ServeConfig {
                workers,
                admission: tight_admission(),
                ..ServeConfig::default()
            };
            run_observed(&engine, config, &requests)
        })
        .collect();

    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(runs[0].transcript, run.transcript, "transcript, run {i}");
        assert_eq!(runs[0].trace, run.trace, "trace, run {i}");
        assert_eq!(runs[0].flight, run.flight, "flight dumps, run {i}");
    }
    // Repeat run at the same worker count: byte-identical too.
    let again = run_observed(
        &engine,
        ServeConfig {
            workers: 4,
            admission: tight_admission(),
            ..ServeConfig::default()
        },
        &requests,
    );
    assert_eq!(runs[0].flight, again.flight, "flight dumps, repeat run");
    assert_eq!(runs[0].transcript, again.transcript, "transcript, repeat");

    // Every failure mode produced a post-mortem: the panic probe
    // panics on 3 attempts (3 dumps), the cut train misses its
    // deadline once, and the late train sheds.
    let run = &runs[0];
    let flight_events = parse_jsonl(&run.flight).expect("dumps are valid traces");
    let headers: Vec<&str> = flight_events
        .iter()
        .filter(|e| e.stage == "flight")
        .map(|e| e.detail.as_str())
        .collect();
    assert_eq!(
        run.dump_count, 5,
        "3 panics + 1 deadline + 1 shed: {headers:?}"
    );
    let labels: Vec<String> = headers
        .iter()
        .map(|d| d.split_whitespace().next().unwrap_or("").to_string())
        .collect();
    assert_eq!(
        labels
            .iter()
            .filter(|l| *l == "trigger=serve.panic")
            .count(),
        3
    );
    assert!(labels.contains(&"trigger=serve.deadline".to_string()));
    assert!(labels.contains(&"trigger=serve.shed".to_string()));

    // The stats probe answered Ok without a session and saw the whole
    // batch's intake plus the previous requests' outcomes... which at
    // probe time (intake phase) is intake-only for this batch.
    let stats = &run.responses[4];
    assert_eq!(stats.status, ResponseStatus::Ok);
    assert_eq!(stats.attempts, 0);
    let snapshot = stats_snapshot(stats);
    let train_cell = &snapshot.total["solar-superstorm/train"];
    assert_eq!(train_cell.arrivals, 3, "train-full, train-cut, late-train");
    assert_eq!(train_cell.admitted, 2);
    assert_eq!(train_cell.shed, 1);
    assert_eq!(snapshot.total["solar-superstorm/panic_probe"].admitted, 1);
    // Outcomes land in the ledger after the merge phase, which is
    // after the intake-phase snapshot — so the probe's own batch shows
    // no completions yet. A later batch would see them (covered below).
    assert_eq!(train_cell.ok + train_cell.degraded + train_cell.failed, 0);
    assert!(snapshot.render_text().contains("solar-superstorm/train"));
}

#[test]
fn later_batches_see_earlier_outcomes_and_the_ledger_accumulates() {
    let server = Server::new(ServeConfig {
        workers: 2,
        admission: tight_admission(),
        ..ServeConfig::default()
    });
    let first = server.handle_batch(&telemetry_requests(), None);
    assert_eq!(first.len(), 5);

    // A lone stats probe in a fresh batch reads the accumulated ledger.
    let probe = vec![ServeRequest::new("stats-after", RequestKind::Stats)];
    let second = server.handle_batch(&probe, None);
    let snapshot = stats_snapshot(&second[0]);
    let train_cell = &snapshot.total["solar-superstorm/train"];
    assert_eq!(train_cell.admitted, 2);
    assert_eq!(train_cell.ok, 1, "train-full completed");
    assert_eq!(train_cell.degraded, 1, "train-cut missed its deadline");
    assert_eq!(train_cell.deadline_miss, 1);
    assert!(train_cell.exec.count() >= 2, "exec latencies were observed");
    let probe_cell = &snapshot.total["solar-superstorm/panic_probe"];
    assert_eq!(probe_cell.failed, 1);
    assert_eq!(probe_cell.retries, 2, "two retries before giving up");
    // The first batch's stats probe itself is in the ledger as an
    // admitted `stats` arrival.
    assert_eq!(snapshot.total["solar-superstorm/stats"].admitted, 1);

    // Replaying (request, response) pairs through the public
    // slo_sample derivation reproduces the server's own cumulative
    // cells — the contract `--stats-every` and serve_load lean on.
    let mut replay = ira_obs::LiveStats::default();
    for (request, response) in telemetry_requests().iter().zip(&first) {
        replay.record(&slo_sample(request, response));
    }
    for (request, response) in probe.iter().zip(&second) {
        replay.record(&slo_sample(request, response));
    }
    let replayed = replay.snapshot(0);
    let live = server.live_snapshot(0);
    assert_eq!(replayed.total, live.total, "replay matches the ledger");
}

#[test]
fn stats_probes_never_spend_admission_tokens() {
    // Burst 1: the single token goes to the first train; a following
    // train sheds. Stats probes interleaved before and after must all
    // answer Ok regardless.
    let server = Server::new(ServeConfig {
        workers: 1,
        admission: AdmissionConfig {
            rate_per_sec: 0.001,
            burst: 1,
            arrival_spacing: Duration::from_millis(250),
            lanes: 1,
            max_queue_wait: Duration::from_secs(600),
        },
        ..ServeConfig::default()
    });
    let requests = vec![
        ServeRequest::new("s-before", RequestKind::Stats),
        ServeRequest::new("t-1", RequestKind::Train),
        ServeRequest::new("s-mid", RequestKind::Stats),
        ServeRequest::new("t-2", RequestKind::Train),
        ServeRequest::new("s-after", RequestKind::Stats),
    ];
    let responses = server.handle_batch(&requests, None);
    assert_eq!(responses[0].status, ResponseStatus::Ok);
    assert_eq!(responses[1].status, ResponseStatus::Ok, "token available");
    assert_eq!(responses[2].status, ResponseStatus::Ok);
    assert_eq!(
        responses[3].status,
        ResponseStatus::Rejected,
        "bucket empty for the second train"
    );
    assert_eq!(responses[4].status, ResponseStatus::Ok);

    // Mid-batch snapshot ordering: s-mid saw t-1 admitted but not
    // t-2's shed; s-after saw both. And each probe's own arrival is
    // counted only after it answers.
    assert_eq!(stats_snapshot(&responses[0]).total.len(), 0);
    let mid = stats_snapshot(&responses[2]);
    assert_eq!(mid.total["solar-superstorm/train"].admitted, 1);
    assert_eq!(mid.total["solar-superstorm/train"].shed, 0);
    assert_eq!(mid.total["solar-superstorm/stats"].admitted, 1, "s-before");
    let after = stats_snapshot(&responses[4]);
    assert_eq!(after.total["solar-superstorm/train"].shed, 1);
    assert_eq!(after.total["solar-superstorm/stats"].admitted, 2);

    // Arrival clock: stats probes occupy slots (250ms apart).
    let arrivals: Vec<u64> = responses.iter().map(|r| r.arrival_us).collect();
    assert_eq!(arrivals, vec![0, 250_000, 500_000, 750_000, 1_000_000]);
}

#[test]
fn clean_runs_leave_zero_flight_artifacts() {
    let engine = Arc::new(Engine::new());
    let mut train = ServeRequest::new("clean-train", RequestKind::Train);
    train.seed = 1;
    let stats = ServeRequest::new("clean-stats", RequestKind::Stats);
    let observed = run_observed(
        &engine,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &[train, stats],
    );
    assert_eq!(observed.dump_count, 0);
    assert_eq!(observed.flight, "");
    assert_eq!(observed.responses[0].status, ResponseStatus::Ok);
    assert_eq!(observed.responses[1].status, ResponseStatus::Ok);
}

#[test]
fn stats_round_trips_through_the_wire_protocol() {
    let server = Server::new(ServeConfig {
        workers: 1,
        admission: tight_admission(),
        ..ServeConfig::default()
    });
    let input = "{\"id\":\"t\",\"kind\":\"train\"}\n{\"id\":\"s\",\"kind\":\"stats\"}\n";
    let out = server.serve_jsonl(input, None).expect("serves");
    let responses = ira_serve::parse_responses(&out).expect("parses back");
    assert_eq!(responses.len(), 2);
    let snapshot = stats_snapshot(&responses[1]);
    assert_eq!(snapshot.total["solar-superstorm/train"].admitted, 1);
    // The parsed snapshot renders the same bytes as the original.
    assert_eq!(
        render_responses(&responses),
        out,
        "render(parse(x)) == x for stats payloads"
    );
}
