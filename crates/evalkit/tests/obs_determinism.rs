//! Observability determinism: the trace a sweep produces is a pure
//! function of its seeds — byte-identical across repeat runs *and*
//! across thread counts — and the disabled (NullCollector-style) path
//! never builds an event at all.

use ira_engine::{Engine, SessionConfig};
use ira_evalkit::runner::sweep;
use ira_obs::{
    Collector, Fanout, JsonlCollector, MetricsSnapshot, ObsHandle, SharedCollector,
    SummaryCollector, TraceEvent,
};
use std::sync::Arc;

const QUESTION: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                        that connects Brazil to Europe or the one that connects the US to \
                        Europe?";

/// Train + self-learn `sessions` sessions on `threads` workers, all
/// emitting into one shared trace + summary pair.
fn run_observed_sweep(sessions: u32, threads: usize) -> (String, MetricsSnapshot) {
    let engine = Engine::new();
    let trace = Arc::new(JsonlCollector::new());
    let summary = Arc::new(SummaryCollector::new());
    let sink: SharedCollector = Arc::new(Fanout::new(vec![
        Arc::clone(&trace) as SharedCollector,
        Arc::clone(&summary) as SharedCollector,
    ]));
    let items: Vec<u32> = (0..sessions).collect();
    sweep(items, threads, |i, _| {
        let mut config = SessionConfig::bob();
        config.net_seed = 0xBEEF + i as u64 * 0x101;
        config.llm_seed = 0xB0B + i as u64;
        let handle = ObsHandle::new(Arc::clone(&sink), i as u32);
        let mut session = engine.spawn_session_with_handle(config, handle);
        session.agent.train();
        let _ = session.agent.self_learn(QUESTION);
    });
    (trace.render(), summary.snapshot())
}

#[test]
fn traces_are_byte_identical_across_thread_counts() {
    let (serial, serial_metrics) = run_observed_sweep(3, 1);
    let (parallel, parallel_metrics) = run_observed_sweep(3, 4);
    assert!(!serial.is_empty(), "the sweep must emit trace events");
    assert_eq!(
        serial, parallel,
        "per-session traces must be invariant under the sweep thread count"
    );
    assert_eq!(serial_metrics, parallel_metrics);
}

#[test]
fn traces_are_byte_identical_across_repeat_runs() {
    let (first, first_metrics) = run_observed_sweep(2, 2);
    let (second, second_metrics) = run_observed_sweep(2, 2);
    assert_eq!(first, second, "same seeds must reproduce the same trace");
    assert_eq!(first_metrics, second_metrics);
    // And the trace parses back into the same summary every time.
    let events = ira_obs::parse_jsonl(&first).expect("trace must parse");
    let a = ira_obs::summarize_events(&events).render();
    let b = ira_obs::summarize_events(&events).render();
    assert_eq!(a, b);
}

#[test]
fn rollup_of_per_session_snapshots_is_order_invariant() {
    let engine = Engine::new();
    let snapshots: Vec<MetricsSnapshot> = sweep((0..3u32).collect(), 2, |i, _| {
        let summary = Arc::new(SummaryCollector::new());
        let mut config = SessionConfig::bob();
        config.net_seed = 0xBEEF + i as u64;
        let handle = ObsHandle::new(Arc::clone(&summary) as SharedCollector, i as u32);
        let mut session = engine.spawn_session_with_handle(config, handle);
        session.agent.train();
        summary.snapshot()
    });
    let mut forward = MetricsSnapshot::default();
    snapshots.iter().for_each(|snap| forward.merge(snap));
    let mut reverse = MetricsSnapshot::default();
    snapshots.iter().rev().for_each(|snap| reverse.merge(snap));
    assert_eq!(forward, reverse, "rollup must be commutative");
    assert!(forward.counters.contains_key("cycle.start"));
    assert!(forward.histograms.contains_key("fetch.ok"));
    assert!(forward.gauges.contains_key("memory.entries"));
}

#[test]
fn profiles_are_byte_identical_across_thread_counts() {
    // The profiler is a pure fold of the trace, and the trace is
    // thread-count invariant — so both the text rendering and the JSON
    // serialization (what the CI gate pins at zero tolerance) must be
    // byte-identical however the sweep was scheduled.
    let (serial, _) = run_observed_sweep(3, 1);
    let (parallel, _) = run_observed_sweep(3, 4);
    let (wide, _) = run_observed_sweep(3, 8);

    let fold =
        |doc: &str| ira_obs::fold_trace(&ira_obs::parse_jsonl(doc).expect("trace must parse"));
    let (a, b, c) = (fold(&serial), fold(&parallel), fold(&wide));

    assert_eq!(a.render(10), b.render(10));
    assert_eq!(a.render(10), c.render(10));
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "profile JSON must be invariant under the sweep thread count"
    );
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&c).unwrap(),
    );
}

#[test]
fn profiled_sweep_produces_causal_trees_not_flat_lists() {
    let (doc, _) = run_observed_sweep(1, 1);
    let events = ira_obs::parse_jsonl(&doc).expect("trace must parse");
    let profile = ira_obs::fold_trace(&events);

    assert_eq!(profile.sessions.len(), 1);
    let session = &profile.sessions[0];
    // Training cycles and the self-learn scope are roots; llm calls and
    // fetches must hang *under* them, not float beside them.
    assert!(
        session.roots.iter().any(|r| r.key == "cycle.goal"),
        "training cycles must be root spans"
    );
    assert!(
        session.roots.iter().any(|r| r.key == "cycle.self_learn"),
        "self-learn must be a root span"
    );
    assert!(
        !session.roots.iter().any(|r| r.key == "llm.call"),
        "llm calls must be nested under a cycle, never a root"
    );
    let goal = session
        .roots
        .iter()
        .find(|r| r.key == "cycle.goal")
        .unwrap();
    assert!(
        goal.children.iter().any(|c| c.key == "llm.call"),
        "a goal cycle must contain its llm calls"
    );
    assert!(
        goal.children.iter().any(|c| c.key.starts_with("fetch.")),
        "a goal cycle must contain its fetches"
    );
    // Token counts parsed from llm.call details surface as span ops.
    assert!(goal
        .children
        .iter()
        .filter(|c| c.key == "llm.call")
        .all(|c| c.ops.contains_key("llm.prompt_tokens")));
    // The critical path descends from a root through real time.
    assert!(!session.critical_path.is_empty());
    assert!(session
        .critical_path
        .windows(2)
        .all(|w| w[0].inclusive_us >= w[1].inclusive_us));
}

/// Attach a flight recorder (triggered on each session's `self_learn`
/// span close) to the observed sweep and return its concatenated dump
/// artifact.
fn run_flight_sweep(sessions: u32, threads: usize) -> Arc<ira_obs::FlightRecorder> {
    let engine = Engine::new();
    let recorder = Arc::new(ira_obs::FlightRecorder::new(ira_obs::FlightConfig {
        capacity: 16,
        triggers: vec![ira_obs::FlightTrigger::new("cycle", "self_learn")],
    }));
    let sink: SharedCollector = Arc::clone(&recorder) as SharedCollector;
    sweep((0..sessions).collect::<Vec<u32>>(), threads, |i, _| {
        let mut config = SessionConfig::bob();
        config.net_seed = 0xBEEF + i as u64 * 0x101;
        config.llm_seed = 0xB0B + i as u64;
        let handle = ObsHandle::new(Arc::clone(&sink), i as u32);
        let mut session = engine.spawn_session_with_handle(config, handle);
        session.agent.train();
        let _ = session.agent.self_learn(QUESTION);
    });
    recorder
}

#[test]
fn flight_dumps_are_byte_identical_across_thread_counts() {
    let serial = run_flight_sweep(3, 1);
    let parallel = run_flight_sweep(3, 4);

    // One self_learn per session: exactly one dump each, rendered in
    // session order however the sweep was scheduled.
    assert_eq!(serial.dump_count(), 3);
    assert_eq!(
        serial.render(),
        parallel.render(),
        "flight dumps must be invariant under the sweep thread count"
    );
    assert_eq!(serial.events_seen(), parallel.events_seen());

    // Each dump is a valid trace: a flight.dump header followed by a
    // bounded window that ends with the trigger event.
    for dump in serial.dumps() {
        assert_eq!(dump.trigger, "cycle.self_learn");
        assert!(dump.events.len() <= 16, "window must respect capacity");
        assert!(dump.evicted > 0, "training overflows a 16-event ring");
        let last = dump.events.last().expect("window is never empty");
        assert_eq!(
            (last.stage.as_str(), last.name.as_str()),
            ("cycle", "self_learn")
        );
        let events = ira_obs::parse_jsonl(&dump.render()).expect("dump parses as a trace");
        assert_eq!(events.len(), dump.events.len() + 1);
    }

    // The default (serve-triggered) config never fires on an engine
    // sweep: the ring absorbs everything and leaves zero artifacts.
    let engine = Engine::new();
    let quiet = Arc::new(ira_obs::FlightRecorder::default());
    let handle = ObsHandle::new(Arc::clone(&quiet) as SharedCollector, 0);
    let mut session = engine.spawn_session_with_handle(SessionConfig::bob(), handle);
    session.agent.train();
    assert_eq!(quiet.dump_count(), 0);
    assert_eq!(quiet.render(), "");
    assert!(quiet.events_seen() > 0, "the ring still saw the stream");
}

/// Disabled collector that panics if anything ever reaches it: proves
/// the hot loop builds no events (and allocates no trace strings) when
/// tracing is off.
struct TripwireCollector;
impl Collector for TripwireCollector {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, event: TraceEvent) {
        panic!("disabled collector received {event:?}");
    }
}

#[test]
fn disabled_collector_costs_nothing_on_the_training_hot_loop() {
    let engine = Engine::new();

    // A full train + self-learn cycle with a disabled observer: the
    // tripwire proves no event is ever built on the disabled path.
    let handle = ObsHandle::new(Arc::new(TripwireCollector), 0);
    let mut observed = engine.spawn_session_with_handle(SessionConfig::bob(), handle);
    let observed_report = observed.agent.train();
    let observed_learning = observed.agent.self_learn(QUESTION);

    // And the run is byte-identical to a plain unobserved session.
    let mut plain = engine.spawn_session(SessionConfig::bob());
    let plain_report = plain.agent.train();
    let plain_learning = plain.agent.self_learn(QUESTION);

    assert_eq!(
        serde_json::to_string(&observed_report).unwrap(),
        serde_json::to_string(&plain_report).unwrap(),
        "a disabled observer must not perturb the run"
    );
    assert_eq!(
        observed_learning.final_confidence(),
        plain_learning.final_confidence()
    );
    assert_eq!(observed.now_us(), plain.now_us());
}
