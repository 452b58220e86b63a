//! Observability overhead on the X11 sweep (tooling calibration).
//!
//! Runs the X11 seed-robustness workload — ten train + self-learn
//! sessions over a shared [`Engine`] — under three observation modes
//! and reports median wall time over repeated runs:
//!
//! * `off`      — `spawn_session`: the disabled [`NullCollector`] path
//!   every existing experiment takes (emission closures never run).
//! * `summary`  — `spawn_session_with_handle` with a [`SummaryCollector`]
//!   aggregating counters/latency sketches.
//! * `jsonl`    — `spawn_session_with_handle` with a [`JsonlCollector`]
//!   buffering the full replayable trace in memory.
//! * `flight`   — `spawn_session_with_handle` with the always-on
//!   [`FlightRecorder`](ira::obs::FlightRecorder): a bounded
//!   per-session ring of recent events. No serve-stage triggers fire
//!   in an engine sweep, so this measures the pure ring-buffer cost of
//!   leaving the recorder attached.
//!
//! The `off` mode must stay within noise of the pre-instrumentation
//! X11 wall time (the <2% budget recorded in EXPERIMENTS.md); the
//! sweep sanity-checks its own verdicts so a mode that changed agent
//! behaviour would fail loudly.

use ira::evalkit::report::{banner, table};
use ira::prelude::*;
use ira_bench::threads_from_args;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counting allocator backing the warm-key no-allocation assertion:
/// one relaxed add per allocation, uniform across all three modes.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The steady-state contract [`SummaryCollector`] documents: once a
/// metric key has been seen, folding further events for it must not
/// allocate (reused key buffer, in-place registry updates).
fn assert_warm_key_folding_is_alloc_free() {
    use ira::obs::Collector as _;
    let collector = SummaryCollector::new();
    let mut events = Vec::new();
    for i in 0..1_000u64 {
        events.push(TraceEvent::point(0, i, "net", "cache_hit", ""));
        events.push(TraceEvent::span(0, i, "llm", "call", "", 40 + i));
    }
    for ev in events.drain(..2) {
        collector.record(ev); // warm-up pays the one-time key allocations
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let folded = events.len();
    for ev in events {
        collector.record(ev);
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "warm-key summary folding allocated {during} times over {folded} events"
    );
    println!("warm-key folding: 0 allocations over {folded} events\n");
}

/// The disabled-path contract the `off` rows lean on, asserted
/// directly: a disabled [`ObsHandle`](ira::obs::ObsHandle) never runs
/// an emit closure, opens no span state, and allocates nothing.
fn assert_disabled_path_is_alloc_free() {
    let handle = ira::obs::ObsHandle::disabled();
    const CALLS: u64 = 10_000;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..CALLS {
        handle.emit(|| TraceEvent::point(0, i, "net", "cache_hit", ""));
        let scope = handle.scope(i, "llm", "call");
        scope.finish(i + 40, || format!("call {i}"));
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "disabled observability allocated {during} times over {CALLS} emit+scope rounds"
    );
    println!("disabled path: 0 allocations over {CALLS} emit+scope rounds\n");
}

const QUESTION: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                        that connects Brazil to Europe or the one that connects the US to \
                        Europe?";

const RUNS: usize = 9;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Summary,
    Jsonl,
    Flight,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off (NullCollector)",
            Mode::Summary => "summary",
            Mode::Jsonl => "jsonl",
            Mode::Flight => "flight",
        }
    }
}

/// One full X11 sweep; returns (wall seconds, correct verdicts, events
/// recorded).
fn run_once(mode: Mode, threads: usize) -> (f64, usize, usize) {
    let start = std::time::Instant::now();
    let engine = Engine::new();
    let jsonl = Arc::new(JsonlCollector::new());
    let summary = Arc::new(SummaryCollector::new());
    let flight = Arc::new(ira::obs::FlightRecorder::default());
    let seeds: Vec<u64> = (0..10).map(|i| 0x5EED + i * 0x101).collect();
    let outcomes = sweep(seeds, threads, |i, seed| {
        let config = SessionConfig {
            corpus: CorpusConfig {
                seed,
                distractor_count: 150,
                ..CorpusConfig::default()
            },
            net_seed: seed ^ 0xBEEF,
            llm_seed: seed,
            ..SessionConfig::bob()
        };
        let sink: Option<SharedCollector> = match mode {
            Mode::Off => None,
            Mode::Summary => Some(Arc::clone(&summary) as _),
            Mode::Jsonl => Some(Arc::clone(&jsonl) as _),
            Mode::Flight => Some(Arc::clone(&flight) as _),
        };
        let mut session = match sink {
            Some(sink) => {
                engine.spawn_session_with_handle(config, ira::obs::ObsHandle::new(sink, i as u32))
            }
            None => engine.spawn_session(config),
        };
        session.agent.train();
        session.agent.self_learn(QUESTION);
        let answer = session.agent.ask(QUESTION);
        answer
            .verdict
            .as_deref()
            .unwrap_or("")
            .to_lowercase()
            .contains("united states")
    });
    let wall = start.elapsed().as_secs_f64();
    let correct = outcomes.into_iter().filter(|ok| *ok).count();
    let events = match mode {
        Mode::Off => 0,
        Mode::Summary => summary.snapshot().counters.values().sum::<u64>() as usize,
        Mode::Jsonl => jsonl.events().len(),
        Mode::Flight => {
            assert_eq!(
                flight.dump_count(),
                0,
                "no serve-stage trigger exists in an engine sweep"
            );
            flight.events_seen() as usize
        }
    };
    (wall, correct, events)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    samples[samples.len() / 2]
}

fn main() {
    let threads = threads_from_args();
    print!(
        "{}",
        banner(
            "OBS",
            "collector overhead on the X11 sweep",
            "(tooling) the disabled path must cost nothing; tracing must stay cheap \
             enough to leave on"
        )
    );
    println!("{RUNS} runs per mode, threads={threads}; reporting medians\n");

    assert_warm_key_folding_is_alloc_free();
    assert_disabled_path_is_alloc_free();

    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for mode in [Mode::Off, Mode::Summary, Mode::Jsonl, Mode::Flight] {
        let mut walls = Vec::new();
        let mut correct = 0;
        let mut events = 0;
        for _ in 0..RUNS {
            let (w, c, e) = run_once(mode, threads);
            assert_eq!(
                c,
                10,
                "{}: verdicts must not change under tracing",
                mode.label()
            );
            walls.push(w);
            correct = c;
            events = e;
        }
        let med = median(&mut walls);
        if mode == Mode::Off {
            baseline = med;
        }
        rows.push(vec![
            mode.label().to_string(),
            format!("{:.3}", med),
            format!("{:+.1}%", (med / baseline - 1.0) * 100.0),
            events.to_string(),
            format!("{correct}/10"),
        ]);
    }
    println!(
        "{}",
        table(
            &["mode", "median-wall-s", "vs-off", "events", "verdicts"],
            &rows
        )
    );
}
