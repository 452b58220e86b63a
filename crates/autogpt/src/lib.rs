//! # ira-autogpt
//!
//! The Auto-GPT-style autonomous loop (§3.1 of the paper): the layer
//! that turns LLM "thoughts" into executed commands — web searches,
//! page fetches, and memory writes — without a human in the loop.
//!
//! * [`budget`] — hard resource limits so an autonomous run always
//!   terminates.
//! * [`agent`] — the executor: pursues goals and single queries against
//!   the simulated web, memorising what it reads. Each step is a point
//!   in the session's `ira-obs` trace; there is no separate log.

pub mod agent;
pub mod budget;

pub use agent::{AutoGpt, GoalReport};
pub use budget::{Budget, BudgetExhausted};
