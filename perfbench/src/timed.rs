//! Timing decorators for the three public seams a session is built
//! from: [`WebServices`], [`LanguageModel`] and the serve sink
//! [`Collector`]. Each wrapper forwards every call unchanged and only
//! adds host time and a call count (plus, for the web, a log of the
//! queries and pages it saw, which the layer-isolation replays feed
//! back through `webcorpus` and `agentmem`). The equivalence tests in
//! `tests/equivalence.rs` hold a wrapped session to byte-identical
//! answers, virtual clock and [`LlmStats`].

use ira::obs::{Collector, TraceEvent};
use ira::services::{
    ActionPlan, Answer, Fetcher, InferenceHook, LanguageModel, LlmStats, SearchHit, SearchProvider,
    ServiceError, TimeSource, WebServices,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Host time and call count of one wrapped operation. Relaxed atomics:
/// these are statistics that publish no other data.
#[derive(Debug, Default)]
pub struct Meter {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// A point-in-time reading of a [`Meter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    pub ns: u64,
    pub calls: u64,
}

impl Reading {
    pub fn since(self, earlier: Reading) -> Reading {
        Reading {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
        }
    }
}

impl std::ops::AddAssign for Reading {
    fn add_assign(&mut self, other: Reading) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

impl Meter {
    /// Run `f`, charging its host time and one call to this meter.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn read(&self) -> Reading {
        Reading {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// What a [`TimedWeb`] saw: every search `(query, k)` and every page
/// fetched successfully `(url, body)`, in call order.
#[derive(Debug, Default, Clone)]
pub struct WebLog {
    pub queries: Vec<(String, usize)>,
    pub pages: Vec<(String, String)>,
}

/// [`WebServices`] decorator: times `search` and `fetch`, counts fetch
/// failures, and logs queries and pages. The clock and
/// `source_available` pass straight through.
pub struct TimedWeb<W> {
    inner: W,
    pub search: Meter,
    pub fetch: Meter,
    fetch_failures: AtomicU64,
    log: Mutex<WebLog>,
}

impl<W> TimedWeb<W> {
    pub fn new(inner: W) -> Self {
        TimedWeb {
            inner,
            search: Meter::default(),
            fetch: Meter::default(),
            fetch_failures: AtomicU64::new(0),
            log: Mutex::new(WebLog::default()),
        }
    }

    pub fn fetch_failures(&self) -> u64 {
        self.fetch_failures.load(Ordering::Relaxed)
    }

    /// Take the log recorded so far, leaving it empty.
    pub fn take_log(&self) -> WebLog {
        std::mem::take(&mut *self.log.lock().expect("web log lock"))
    }
}

impl<W: WebServices> SearchProvider for TimedWeb<W> {
    fn search(&self, query: &str, k: usize) -> Result<Vec<SearchHit>, ServiceError> {
        let out = self.search.time(|| self.inner.search(query, k));
        self.log
            .lock()
            .expect("web log lock")
            .queries
            .push((query.to_string(), k));
        out
    }
}

impl<W: WebServices> Fetcher for TimedWeb<W> {
    fn fetch(&self, url: &str) -> Result<String, ServiceError> {
        let out = self.fetch.time(|| self.inner.fetch(url));
        match &out {
            Ok(body) => self
                .log
                .lock()
                .expect("web log lock")
                .pages
                .push((url.to_string(), body.clone())),
            Err(_) => {
                self.fetch_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    fn source_available(&self, url: &str) -> bool {
        self.inner.source_available(url)
    }
}

impl<W: WebServices> TimeSource for TimedWeb<W> {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_us(&self, us: u64) {
        self.inner.advance_us(us)
    }
}

/// [`LanguageModel`] decorator: every model call is charged to `call`;
/// `answer` and `propose_searches` also to their own meters.
pub struct TimedLlm<L> {
    inner: L,
    pub call: Meter,
    pub answer: Meter,
    pub propose: Meter,
}

impl<L> TimedLlm<L> {
    pub fn new(inner: L) -> Self {
        TimedLlm {
            inner,
            call: Meter::default(),
            answer: Meter::default(),
            propose: Meter::default(),
        }
    }
}

impl<L: LanguageModel> LanguageModel for TimedLlm<L> {
    fn answer(&self, question: &str, knowledge: &[String]) -> Answer {
        self.answer
            .time(|| self.call.time(|| self.inner.answer(question, knowledge)))
    }

    fn propose_searches(&self, question: &str, knowledge: &[String], max: usize) -> Vec<String> {
        self.propose.time(|| {
            self.call
                .time(|| self.inner.propose_searches(question, knowledge, max))
        })
    }

    fn plan_goal(&self, goal: &str) -> ActionPlan {
        self.call.time(|| self.inner.plan_goal(goal))
    }

    fn decompose(&self, task: &str) -> Vec<String> {
        self.call.time(|| self.inner.decompose(task))
    }

    fn shutdown_strategy(&self, knowledge: &[String]) -> Answer {
        self.call.time(|| self.inner.shutdown_strategy(knowledge))
    }

    fn stats(&self) -> LlmStats {
        self.inner.stats()
    }

    fn set_inference_hook(&self, hook: InferenceHook) {
        self.inner.set_inference_hook(hook)
    }

    fn invalidate_grounding(&self) {
        self.inner.invalidate_grounding()
    }

    fn set_grounding_mode(&self, mode: u64) {
        self.inner.set_grounding_mode(mode)
    }
}

/// [`Collector`] decorator: times every `record` into the wrapped sink.
pub struct TimedCollector<C> {
    inner: C,
    pub record: Meter,
}

impl<C> TimedCollector<C> {
    pub fn new(inner: C) -> Self {
        TimedCollector {
            inner,
            record: Meter::default(),
        }
    }

    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Collector> Collector for TimedCollector<C> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, event: TraceEvent) {
        self.record.time(|| self.inner.record(event))
    }
}
