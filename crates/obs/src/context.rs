//! Span identity and causal threading.
//!
//! An [`ObsContext`] owns a session's span-id allocator and the
//! "current parent" slot; an [`ObsHandle`] bundles a context with a
//! [`Collector`] sink and is the thing instrumented code holds. Every
//! event emitted through a handle gets a session-local `span_id`
//! (allocated in emission order, starting at 1) and the `parent_id` of
//! the innermost open [`ScopedSpan`] (0 when no scope is open).
//!
//! Determinism: ids are allocated by a session-local counter and each
//! session runs on exactly one thread, so for a fixed seed set the id
//! assignment — like the virtual timestamps — is identical across
//! runs and thread counts. Ids are only allocated when the sink is
//! enabled, which keeps the [`NullCollector`] path down to one branch:
//! no atomics touched, no closures run.
//!
//! [`NullCollector`]: crate::collector::NullCollector
//! [`Collector`]: crate::collector::Collector

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::collector::{null_collector, SharedCollector};
use crate::event::TraceEvent;

/// Per-session causal state: the span-id allocator and the current
/// parent span. One context is shared (via [`ObsHandle`] clones) by
/// every layer driving the same session — client, agent, Auto-GPT loop —
/// so nesting works across crate boundaries.
#[derive(Debug)]
pub struct ObsContext {
    session: u32,
    /// Next id to hand out; ids start at 1 (0 is "no span").
    next_id: AtomicU64,
    /// `span_id` of the innermost open scope; 0 = session root.
    parent: AtomicU64,
}

impl ObsContext {
    pub fn new(session: u32) -> Self {
        ObsContext {
            session,
            next_id: AtomicU64::new(1),
            parent: AtomicU64::new(0),
        }
    }

    pub fn session(&self) -> u32 {
        self.session
    }

    /// Allocate the next span id. Relaxed ordering is enough: a
    /// session is driven by one thread, the atomic only provides
    /// `Sync` for the shared handle.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The innermost open scope's id (0 = root).
    pub fn current_parent(&self) -> u64 {
        self.parent.load(Ordering::Relaxed)
    }

    /// Install a new current parent, returning the previous one.
    pub fn swap_parent(&self, id: u64) -> u64 {
        self.parent.swap(id, Ordering::Relaxed)
    }
}

/// A collector sink plus the session's causal context. Cheap to clone
/// (two `Arc`s); clones share the id allocator and parent slot, which
/// is exactly what lets a client-level fetch span nest under an
/// agent-level cycle span.
#[derive(Clone)]
pub struct ObsHandle {
    sink: SharedCollector,
    ctx: Arc<ObsContext>,
}

impl ObsHandle {
    pub fn new(sink: SharedCollector, session: u32) -> Self {
        ObsHandle {
            sink,
            ctx: Arc::new(ObsContext::new(session)),
        }
    }

    /// A handle wired to the [`NullCollector`](crate::NullCollector):
    /// emission is a single branch, scopes are inert.
    pub fn disabled() -> Self {
        ObsHandle::new(null_collector(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    pub fn session(&self) -> u32 {
        self.ctx.session
    }

    pub fn sink(&self) -> SharedCollector {
        Arc::clone(&self.sink)
    }

    pub fn context(&self) -> &Arc<ObsContext> {
        &self.ctx
    }

    /// Emit one event with causal identity filled in. The closure only
    /// runs — and an id is only allocated — when the sink is enabled,
    /// so the disabled path stays free.
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if self.sink.enabled() {
            let id = self.ctx.alloc_id();
            let parent = self.ctx.current_parent();
            self.sink.record(build().with_ids(id, parent));
        }
    }

    /// Open a causal scope at virtual time `start_us`. Until the
    /// returned guard is finished (or dropped), every event emitted
    /// through any clone of this handle is parented under it.
    pub fn scope(&self, start_us: u64, stage: &'static str, name: &'static str) -> ScopedSpan<'_> {
        if !self.sink.enabled() {
            return ScopedSpan {
                handle: self,
                start_us,
                stage,
                name,
                span_id: 0,
                prev_parent: 0,
                active: false,
            };
        }
        let span_id = self.ctx.alloc_id();
        let prev_parent = self.ctx.swap_parent(span_id);
        ScopedSpan {
            handle: self,
            start_us,
            stage,
            name,
            span_id,
            prev_parent,
            active: true,
        }
    }
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("session", &self.ctx.session)
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// An open causal scope: children emitted while it is open are
/// parented under it; finishing emits the scope's own `Span` event
/// (parented under the *previous* scope) and restores that previous
/// scope as current.
///
/// Note the event order this produces: children appear in the trace
/// *before* their parent's `Span` record, because the parent's
/// duration is only known at finish. The profiler resolves parents by
/// id, not position, so this is fine — and the id assignment is still
/// deterministic because ids are allocated at open, in program order.
#[must_use = "a scope that is never finished emits no span"]
pub struct ScopedSpan<'a> {
    handle: &'a ObsHandle,
    start_us: u64,
    stage: &'static str,
    name: &'static str,
    span_id: u64,
    prev_parent: u64,
    active: bool,
}

impl ScopedSpan<'_> {
    /// This scope's span id (0 when the sink is disabled).
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Close the scope at virtual time `end_us`, emitting its `Span`
    /// event. The detail closure only runs when the scope is active.
    pub fn finish(self, end_us: u64, detail: impl FnOnce() -> String) {
        let name = self.name;
        self.finish_as(end_us, name, detail);
    }

    /// Like [`ScopedSpan::finish`] but with an outcome-dependent name
    /// (e.g. a fetch scope closing as `ok` or `err`).
    pub fn finish_as(mut self, end_us: u64, name: &'static str, detail: impl FnOnce() -> String) {
        if !self.active {
            return;
        }
        self.active = false;
        self.handle.ctx.swap_parent(self.prev_parent);
        let dur = end_us.saturating_sub(self.start_us);
        self.handle.sink.record(
            TraceEvent::span(
                self.handle.ctx.session,
                self.start_us,
                self.stage,
                name,
                detail(),
                dur,
            )
            .with_ids(self.span_id, self.prev_parent),
        );
    }
}

impl Drop for ScopedSpan<'_> {
    fn drop(&mut self) {
        // Abandoned scope (early return / error path): restore the
        // parent chain but emit nothing — there is no end time.
        if self.active {
            self.handle.ctx.swap_parent(self.prev_parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::JsonlCollector;
    use crate::event::stage;

    fn jsonl_handle(session: u32) -> (Arc<JsonlCollector>, ObsHandle) {
        let sink = Arc::new(JsonlCollector::new());
        let handle = ObsHandle::new(sink.clone(), session);
        (sink, handle)
    }

    #[test]
    fn ids_are_allocated_in_emission_order() {
        let (sink, handle) = jsonl_handle(0);
        handle.emit(|| TraceEvent::point(0, 1, stage::CYCLE, "start", "a"));
        handle.emit(|| TraceEvent::point(0, 2, stage::CYCLE, "start", "b"));
        let events = sink.events();
        assert_eq!(events[0].span_id, 1);
        assert_eq!(events[1].span_id, 2);
        assert_eq!(events[0].parent_id, 0);
    }

    #[test]
    fn scopes_thread_parents_through_nesting() {
        let (sink, handle) = jsonl_handle(0);
        let outer = handle.scope(10, stage::CYCLE, "goal"); // id 1
        handle.emit(|| TraceEvent::point(0, 11, stage::SEARCH, "issued", "q")); // id 2
        let inner = handle.scope(12, stage::FETCH, "ok"); // id 3
        handle.emit(|| TraceEvent::point(0, 13, stage::NET, "cache_miss", "")); // id 4
        inner.finish(20, String::new);
        handle.emit(|| TraceEvent::point(0, 21, stage::MEMORY, "memorize", "")); // id 5
        outer.finish(30, String::new);

        let by_id: std::collections::BTreeMap<u64, TraceEvent> =
            sink.events().into_iter().map(|e| (e.span_id, e)).collect();
        assert_eq!(by_id[&2].parent_id, 1, "point under outer scope");
        assert_eq!(by_id[&3].parent_id, 1, "inner span under outer");
        assert_eq!(by_id[&4].parent_id, 3, "point under inner scope");
        assert_eq!(by_id[&5].parent_id, 1, "after inner finished");
        assert_eq!(by_id[&1].parent_id, 0, "outer is a root");
        assert_eq!(by_id[&1].value, 20, "outer duration");
    }

    #[test]
    fn clones_share_the_causal_context() {
        let (sink, handle) = jsonl_handle(7);
        let client_view = handle.clone();
        let scope = handle.scope(0, stage::CYCLE, "goal");
        client_view.emit(|| TraceEvent::point(7, 1, stage::NET, "cache_hit", ""));
        scope.finish(5, String::new);
        let events = sink.events();
        assert_eq!(
            events[0].parent_id,
            scope_id(&events),
            "clone saw the scope"
        );
    }

    fn scope_id(events: &[TraceEvent]) -> u64 {
        events.iter().find(|e| e.stage == "cycle").unwrap().span_id
    }

    #[test]
    fn abandoned_scope_restores_parent_without_emitting() {
        let (sink, handle) = jsonl_handle(0);
        let outer = handle.scope(0, stage::CYCLE, "goal");
        {
            let _inner = handle.scope(1, stage::FETCH, "ok");
            // dropped without finish — error path
        }
        handle.emit(|| TraceEvent::point(0, 2, stage::SEARCH, "issued", "q"));
        outer.finish(3, String::new);
        let events = sink.events();
        // Only the point and the outer span were emitted.
        assert_eq!(events.len(), 2);
        let point = events.iter().find(|e| e.stage == "search").unwrap();
        let outer_ev = events.iter().find(|e| e.stage == "cycle").unwrap();
        assert_eq!(point.parent_id, outer_ev.span_id);
    }

    #[test]
    fn disabled_handle_allocates_nothing() {
        let handle = ObsHandle::disabled();
        let scope = handle.scope(0, stage::CYCLE, "goal");
        assert_eq!(scope.id(), 0);
        handle.emit(|| panic!("closure ran on a disabled handle"));
        scope.finish(10, || panic!("detail closure ran on a disabled handle"));
        // The allocator was never touched.
        assert_eq!(handle.context().alloc_id(), 1);
    }
}
