//! The service traits the agent architecture is written against.

use crate::error::ServiceError;
use ira_simllm::{ActionPlan, Answer, LlmStats};
use std::sync::Arc;

/// Callback invoked after every model call with `(prompt_tokens,
/// completion_tokens)`. The agent layer installs one to charge
/// simulated inference latency to the session clock.
pub type InferenceHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// The typed model calls the agent loop makes. Implementations must be
/// shareable across the threads of one session (`Send + Sync`); all
/// methods take `&self` and any internal accounting is interior.
pub trait LanguageModel: Send + Sync {
    /// Answer a question grounded in the supplied knowledge snippets.
    fn answer(&self, question: &str, knowledge: &[String]) -> Answer;

    /// The paper's self-learning probe: up to `max` deduplicated
    /// search queries targeting the knowledge gaps behind a question.
    fn propose_searches(&self, question: &str, knowledge: &[String], max: usize) -> Vec<String>;

    /// Plan how to achieve a goal (the Auto-GPT planning phase).
    fn plan_goal(&self, goal: &str) -> ActionPlan;

    /// Chain-of-thought decomposition of a compound task.
    fn decompose(&self, task: &str) -> Vec<String>;

    /// Generate a storm response / shutdown strategy from knowledge.
    fn shutdown_strategy(&self, knowledge: &[String]) -> Answer;

    /// Cumulative usage counters.
    fn stats(&self) -> LlmStats;

    /// Install the inference-latency hook (see [`InferenceHook`]).
    fn set_inference_hook(&self, hook: InferenceHook);

    /// Signal that the caller's knowledge store changed, so any
    /// memoized grounded state the model holds may be stale. Models
    /// without such state ignore this (the default).
    fn invalidate_grounding(&self) {}

    /// Does nothing, and nothing in the workspace calls it: retrieval
    /// has one mode, so no model salts its cache by mode. Kept only so
    /// that existing decorators that forward it still compile; it is
    /// slated for removal.
    fn set_grounding_mode(&self, _mode: u64) {}
}

/// One search result, as the agent loop consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    pub url: String,
    pub title: String,
}

/// A search backend: query in, ranked hits out.
pub trait SearchProvider: Send + Sync {
    /// Run `query`, returning up to `k` ranked hits.
    fn search(&self, query: &str, k: usize) -> Result<Vec<SearchHit>, ServiceError>;
}

/// A page-fetch backend.
pub trait Fetcher: Send + Sync {
    /// Fetch the text body of `url`.
    fn fetch(&self, url: &str) -> Result<String, ServiceError>;

    /// Whether this URL's source is currently worth trying — `false`
    /// when the host is known-dead (e.g. its circuit breaker is open),
    /// so the agent can reroute *before* spending fetch budget.
    fn source_available(&self, url: &str) -> bool {
        let _ = url;
        true
    }
}

/// The session's clock. In simulation this is the virtual clock all
/// latency is charged to; a real deployment would read wall time and
/// ignore `advance_us`.
pub trait TimeSource: Send + Sync {
    /// Time elapsed so far, microseconds.
    fn now_us(&self) -> u64;

    /// Charge `us` microseconds of latency to the clock.
    fn advance_us(&self, us: u64);
}

/// One session's view of the web: search + fetch + the clock those
/// operations are timed against. Blanket-implemented, so any type
/// providing the three parts is a `WebServices` — including trait
/// objects assembled from parts.
pub trait WebServices: SearchProvider + Fetcher + TimeSource {}

impl<T: SearchProvider + Fetcher + TimeSource + ?Sized> WebServices for T {}

/// The knowledge-store surface the retrieval loop writes into and the
/// reasoning path reads from.
pub trait Memory: Send + Sync {
    /// Store one piece of content; `false` means it was dropped as a
    /// near-duplicate.
    fn memorize(
        &self,
        topic: &str,
        content: &str,
        source_url: &str,
        source_kind: &str,
        learned_at: u64,
        importance: f64,
    ) -> bool;

    /// Whether a page from this URL is already memorised.
    fn has_url(&self, url: &str) -> bool;

    /// The top-`k` knowledge texts for a query at time `now`.
    fn retrieve_texts(&self, query: &str, k: usize, now: u64) -> Vec<String>;

    /// Number of entries held.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
