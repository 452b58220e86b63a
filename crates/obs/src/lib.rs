//! `ira-obs`: deterministic observability for the incident-research
//! workspace.
//!
//! Traces and metrics here are driven entirely by the simnet
//! **virtual clock** — wall time never appears on the hot path — so a
//! trace is a pure function of the run's seeds: same seeds, same
//! trace, byte for byte, regardless of host speed or thread count.
//!
//! The pieces:
//!
//! - [`event::TraceEvent`] — one structured record (point, span, or
//!   gauge) on a session's virtual timeline, carrying a deterministic
//!   `span_id`/`parent_id` causal identity.
//! - [`collector::Collector`] — the pluggable sink.
//!   [`collector::NullCollector`] is the zero-cost default (event
//!   closures never run), [`collector::JsonlCollector`] buffers a
//!   replayable trace file, [`collector::SummaryCollector`] folds
//!   events into a [`metrics::MetricsSnapshot`].
//! - [`context::ObsHandle`] — a sink plus the session's span-id
//!   allocator; [`context::ScopedSpan`] threads the current parent
//!   through nested scopes across crate boundaries.
//! - [`metrics`] — counters, high-watermark gauges, and virtual-time
//!   latency sketches whose snapshots merge commutatively.
//! - [`sketch`] — [`sketch::QuantileSketch`], the one latency
//!   aggregator: exact up to [`SKETCH_EXACT_CAP`] values, fixed
//!   geometric buckets beyond, exactly mergeable, and checked when
//!   read from JSON.
//! - [`profile`] — fold a trace into causal span trees: inclusive /
//!   exclusive virtual time per stage, hotspots, critical paths.
//! - [`diff`] — compare two profiles or snapshots under per-key
//!   relative tolerances; the backend of the zero-tolerance CI gate.
//! - [`flight`] — the always-on [`flight::FlightRecorder`]: a bounded
//!   per-session ring of recent events, frozen into a JSONL
//!   post-mortem dump when a trigger (panic, shed, deadline) fires.
//! - [`live`] — sliding-window SLO aggregation on the virtual clock:
//!   windowed counters, integer-ppm rates, and latency percentiles
//!   from per-cell [`sketch::QuantileSketch`]es, snapshot as stable
//!   text or Prometheus-style exposition.

pub mod collector;
pub mod context;
pub mod diff;
pub mod event;
pub mod flight;
pub mod live;
pub mod metrics;
pub mod profile;
pub mod sketch;

pub use collector::{
    null_collector, Collector, Fanout, JsonlCollector, NullCollector, SharedCollector,
    SummaryCollector,
};
pub use context::{ObsContext, ObsHandle, ScopedSpan};
pub use diff::{flatten_json, DiffEntry, DiffReport, Tolerances};
pub use event::{parse_jsonl, render_jsonl, stage, EventClass, TraceEvent, TraceParseError};
pub use flight::{FlightConfig, FlightDump, FlightRecorder, FlightTrigger};
pub use live::{fmt_ppm_pct, LiveConfig, LiveSnapshot, LiveStats, SloCell, SloSample};
pub use metrics::MetricsSnapshot;
pub use profile::{fold_trace, PathStep, Profile, SessionProfile, SpanNode, StageAgg};
pub use sketch::{QuantileSketch, SKETCH_EXACT_CAP};

/// Build a per-stage latency/count summary from a parsed trace — the
/// backend of `ira trace summarize`. Deterministic: replaying the same
/// events in the same order always renders the same table.
pub fn summarize_events(events: &[TraceEvent]) -> MetricsSnapshot {
    let summary = SummaryCollector::new();
    for ev in events {
        summary.record(ev.clone());
    }
    let mut snap = summary.snapshot();
    let sessions: std::collections::BTreeSet<u32> = events.iter().map(|e| e.session).collect();
    snap.gauges
        .insert("trace.sessions".to_string(), sessions.len() as u64);
    snap.counters
        .insert("trace.events".to_string(), events.len() as u64);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_counts_sessions_and_events() {
        let events = vec![
            TraceEvent::point(0, 1, stage::CYCLE, "start", "g"),
            TraceEvent::span(1, 2, stage::FETCH, "ok", "u", 400),
            TraceEvent::point(1, 9, stage::CYCLE, "start", "g"),
        ];
        let snap = summarize_events(&events);
        assert_eq!(snap.counters.get("trace.events"), Some(&3));
        assert_eq!(snap.gauges.get("trace.sessions"), Some(&2));
        assert_eq!(snap.counters.get("cycle.start"), Some(&2));
        assert_eq!(snap.histograms.get("fetch.ok").unwrap().sum_us(), 400);
    }

    #[test]
    fn summarize_is_replay_stable() {
        let doc = "\
{\"session\":0,\"at_us\":10,\"class\":\"Span\",\"stage\":\"llm\",\"name\":\"call\",\"detail\":\"\",\"value\":120}\n\
{\"session\":0,\"at_us\":300,\"class\":\"Point\",\"stage\":\"net\",\"name\":\"cache_hit\",\"detail\":\"\",\"value\":0}\n";
        let events = parse_jsonl(doc).unwrap();
        let a = summarize_events(&events).render();
        let b = summarize_events(&parse_jsonl(doc).unwrap()).render();
        assert_eq!(a, b);
    }
}
