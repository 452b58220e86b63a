//! Pluggable trace sinks.
//!
//! The contract that keeps observability off the hot path: callers go
//! through [`ObsHandle::emit`](crate::ObsHandle::emit), which takes a
//! *closure* building the event. When the collector is disabled (the
//! [`NullCollector`] default) the closure never runs, so no strings
//! are formatted and no allocations happen — tracing that is off costs
//! one virtual call and one branch.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::event::{EventClass, TraceEvent};
use crate::metrics::MetricsSnapshot;

/// A sink for trace events. Implementations must be thread-safe: in a
/// parallel sweep every session thread shares one collector.
pub trait Collector: Send + Sync {
    /// Whether events should be built at all. Hot paths consult this
    /// (via [`ObsHandle::emit`](crate::ObsHandle::emit)) before doing
    /// any formatting work.
    fn enabled(&self) -> bool;
    /// Record one event. Only called when [`Collector::enabled`] is true.
    fn record(&self, event: TraceEvent);
}

/// Shared handle to a collector; cheap to clone into every layer.
pub type SharedCollector = Arc<dyn Collector>;

/// The zero-cost default: always disabled, drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _event: TraceEvent) {}
}

/// Returns the process-wide disabled collector.
pub fn null_collector() -> SharedCollector {
    Arc::new(NullCollector)
}

/// Buffers events grouped by session and renders them in session-id
/// order, each session's events in arrival order. Because every
/// session is driven by exactly one thread, per-session arrival order
/// is deterministic — so the rendered document is byte-identical
/// regardless of how many threads the sweep used.
#[derive(Debug, Default)]
pub struct JsonlCollector {
    sessions: Mutex<BTreeMap<u32, Vec<TraceEvent>>>,
}

impl JsonlCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// All events, session-id order then arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let sessions = self.sessions.lock();
        sessions.values().flat_map(|v| v.iter().cloned()).collect()
    }

    /// Render the full trace as a JSONL document.
    pub fn render(&self) -> String {
        let sessions = self.sessions.lock();
        let mut out = String::new();
        for events in sessions.values() {
            for ev in events {
                out.push_str(&ev.to_jsonl());
                out.push('\n');
            }
        }
        out
    }

    /// Write the rendered trace to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.render().as_bytes())?;
        file.flush()
    }
}

impl Collector for JsonlCollector {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&self, event: TraceEvent) {
        self.sessions
            .lock()
            .entry(event.session)
            .or_default()
            .push(event);
    }
}

/// Aggregates events into a [`MetricsSnapshot`] instead of retaining
/// them: points count, spans count + feed a virtual-time latency
/// sketch, gauges keep their high-watermark (a commutative merge, so
/// snapshots are thread-count invariant).
///
/// One mutex guards the snapshot and a reused metric-key buffer, so an
/// event takes one lock. Warm keys are updated in place and a warm
/// sketch never allocates, so steady-state folding allocates nothing
/// (pinned by the `warm_key_no_alloc` test and an assertion in the
/// `obs_overhead` bench).
#[derive(Debug, Default)]
pub struct SummaryCollector {
    state: Mutex<SummaryState>,
}

#[derive(Debug, Default)]
struct SummaryState {
    snapshot: MetricsSnapshot,
    key: String,
}

impl SummaryCollector {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        self.state.lock().snapshot.clone()
    }
}

impl Collector for SummaryCollector {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&self, event: TraceEvent) {
        let mut state = self.state.lock();
        let SummaryState { snapshot, key } = &mut *state;
        // The buffer keeps its capacity across events; after warm-up no
        // key formatting allocates.
        event.write_metric_key(key);
        match event.class {
            EventClass::Point => snapshot.incr(key, 1),
            EventClass::Span => {
                snapshot.incr(key, 1);
                snapshot.observe_us(key, event.value);
            }
            EventClass::Gauge => snapshot.gauge_max(key, event.value),
        }
    }
}

/// Broadcasts each event to several collectors (e.g. a trace file and
/// a metrics summary at once). Enabled iff any child is.
pub struct Fanout {
    children: Vec<SharedCollector>,
}

impl Fanout {
    pub fn new(children: Vec<SharedCollector>) -> Self {
        Fanout { children }
    }
}

impl Collector for Fanout {
    fn enabled(&self) -> bool {
        self.children.iter().any(|c| c.enabled())
    }
    fn record(&self, event: TraceEvent) {
        for child in &self.children {
            if child.enabled() {
                child.record(event.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stage;
    use crate::ObsHandle;

    /// A collector that panics if an event is ever built or recorded —
    /// used to prove the disabled path never evaluates closures.
    struct TripwireCollector;
    impl Collector for TripwireCollector {
        fn enabled(&self) -> bool {
            false
        }
        fn record(&self, _event: TraceEvent) {
            panic!("disabled collector received an event");
        }
    }

    #[test]
    fn disabled_collector_never_builds_events() {
        let handle = ObsHandle::new(Arc::new(TripwireCollector), 0);
        handle.emit(|| panic!("event closure ran on a disabled collector"));
        let span = handle.scope(10, stage::FETCH, "ok");
        assert_eq!(span.id(), 0);
        span.finish(20, || panic!("detail closure ran on a disabled collector"));
    }

    #[test]
    fn jsonl_collector_orders_by_session_then_arrival() {
        let sink = JsonlCollector::new();
        sink.record(TraceEvent::point(1, 5, stage::CYCLE, "start", "b"));
        sink.record(TraceEvent::point(0, 9, stage::CYCLE, "start", "a"));
        sink.record(TraceEvent::point(1, 6, stage::CYCLE, "end", "b"));
        let events = sink.events();
        assert_eq!(
            events
                .iter()
                .map(|e| (e.session, e.at_us))
                .collect::<Vec<_>>(),
            vec![(0, 9), (1, 5), (1, 6)]
        );
        let doc = sink.render();
        assert_eq!(doc.lines().count(), 3);
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn summary_collector_aggregates_by_class() {
        let sink = SummaryCollector::new();
        sink.record(TraceEvent::point(0, 0, stage::NET, "cache_hit", ""));
        sink.record(TraceEvent::point(0, 1, stage::NET, "cache_hit", ""));
        sink.record(TraceEvent::span(0, 2, stage::FETCH, "ok", "u", 500));
        sink.record(TraceEvent::gauge(0, 3, stage::MEMORY, "entries", 4));
        sink.record(TraceEvent::gauge(0, 4, stage::MEMORY, "entries", 2));
        let snap = sink.snapshot();
        assert_eq!(snap.counters.get("net.cache_hit"), Some(&2));
        assert_eq!(snap.counters.get("fetch.ok"), Some(&1));
        assert_eq!(snap.gauges.get("memory.entries"), Some(&4));
        let hist = snap.histograms.get("fetch.ok").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum_us(), 500);
    }

    #[test]
    fn fanout_reaches_every_enabled_child() {
        let trace = Arc::new(JsonlCollector::new());
        let summary = Arc::new(SummaryCollector::new());
        let fan = Fanout::new(vec![
            trace.clone() as SharedCollector,
            summary.clone() as SharedCollector,
            Arc::new(NullCollector) as SharedCollector,
        ]);
        assert!(fan.enabled());
        ObsHandle::new(Arc::new(fan), 0)
            .emit(|| TraceEvent::point(0, 0, stage::SEARCH, "issued", "q"));
        assert_eq!(trace.events().len(), 1);
        assert_eq!(summary.snapshot().counters.get("search.issued"), Some(&1));
    }

    #[test]
    fn span_guard_charges_virtual_duration() {
        let sink = Arc::new(JsonlCollector::new());
        let handle = ObsHandle::new(sink.clone(), 3);
        let span = handle.scope(100, stage::LLM, "call");
        span.finish(460, || "prompt=12".to_string());
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].value, 360);
        assert_eq!(events[0].at_us, 100);
        assert_eq!(events[0].session, 3);
    }
}
