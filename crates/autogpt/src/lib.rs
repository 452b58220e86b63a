//! # ira-autogpt
//!
//! The Auto-GPT-style autonomous loop (§3.1 of the paper): the layer
//! that turns LLM "thoughts" into executed commands — web searches,
//! page fetches, and memory writes — without a human in the loop.
//!
//! * [`command`] — the command vocabulary (`google`, `browse_website`,
//!   `memorize`, `task_complete`).
//! * [`cycle`] — the THOUGHTS / REASONING / PLAN / CRITICISM / COMMAND
//!   record each iteration produces, rendered the way Auto-GPT prints
//!   them.
//! * [`budget`] — hard resource limits so an autonomous run always
//!   terminates.
//! * [`events`] — a structured event log for observability and the
//!   cost experiments.
//! * [`agent`] — the executor: pursues goals and single queries against
//!   the simulated web, memorising what it reads.

pub mod agent;
pub mod budget;
pub mod command;
pub mod cycle;
pub mod events;

pub use agent::{AutoGpt, AutoGptConfig, GoalReport};
pub use budget::{Budget, BudgetExhausted};
pub use command::Command;
pub use cycle::AgentCycle;
pub use events::{Event, EventKind, EventLog};
