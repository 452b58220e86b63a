//! # ira-simllm
//!
//! A deterministic, seeded simulation of a large language model — the
//! stand-in for GPT-4 in the HotNets '23 reproduction (see DESIGN.md
//! for the substitution argument).
//!
//! The model has exactly the two behavioural regimes the paper's agent
//! architecture exploits:
//!
//! 1. **Ungrounded** — with nothing relevant in context, it produces
//!    fluent, hedging, non-committal answers (the paper quotes ChatGPT
//!    doing precisely this) and reports low confidence.
//! 2. **Grounded** — with retrieved knowledge in context, it extracts
//!    facts and general principles from that text, reasons over them,
//!    commits to an answer, and reports calibrated high confidence.
//!
//! The pieces:
//!
//! * [`token`] — tokenizer and context-window accounting.
//! * [`chat`] — chat message / prompt types.
//! * [`extract`] — the fact-extraction layer ("reading"): parses
//!   entity facts and general principles out of context text.
//! * [`intent`] — question understanding: classifies a question into
//!   one of the investigation intents and fills its slots.
//! * [`lexicon`] — deterministic term interning, content fingerprints,
//!   the grounding caches' hasher, and the virtual-op counters behind
//!   the hot-path perf baseline.
//! * [`reason`] — the reasoning engine: evidence slots per intent,
//!   verdict selection, calibrated confidence, missing-knowledge
//!   reporting.
//! * [`prior`] — the ungrounded "pretraining prior" responses.
//! * [`plangen`] — goal → action-plan generation and chain-of-thought
//!   decomposition.
//! * [`model`] — the [`model::Llm`] facade tying it together, with
//!   token accounting and deterministic sampling.
//! * [`textcache`] — the process-wide, bounded text-keyed cache the
//!   model's readings and the knowledge store's embeddings share.

pub mod chat;
pub mod classterms;
pub mod extract;
pub mod intent;
pub mod lexicon;
pub mod model;
pub mod plangen;
pub mod prior;
pub mod reason;
pub mod textcache;
pub mod token;

pub use chat::{Message, Prompt, Role};
pub use extract::{Extraction, ExtractionIndex, Fact, Principle};
pub use intent::{Intent, RouteSpec};
pub use lexicon::{fingerprint64, Interner, Term};
pub use model::{Llm, LlmConfig, LlmStats};
pub use plangen::{ActionPlan, PlanStep};
pub use reason::{Answer, MissingKnowledge};
pub use textcache::{TextCache, TextValue};
