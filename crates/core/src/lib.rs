//! # ira-core
//!
//! The interactive research agent of *Towards Interactive Research
//! Agents for Internet Incident Investigation* (HotNets '23) — the
//! paper's primary contribution, assembled from the substrate crates:
//!
//! 1. **Role definition** ([`role`]) — agent name, role statement, and
//!    initial goals (the paper's agent Bob snippet is a preset).
//! 2. **Information retrieval** ([`agent`] + `ira-autogpt`) — the
//!    autonomous loop searches the (simulated) web per goal and
//!    memorises what it reads.
//! 3. **Knowledge memory** (`ira-agentmem`) — the `knowledge.json`
//!    store, loaded into the model's prompt at question time.
//! 4. **Knowledge testing and self-learning** ([`selflearn`]) — each
//!    query is answered with a self-assessed confidence; below the
//!    threshold, the agent proposes searches, retrieves more knowledge,
//!    and retries until confident or out of budget.
//!
//! [`mod@env`] builds the simulated world + web the agent lives in, and
//! [`stages`] times the two pipeline stages of Figure 1.

pub mod agent;
pub mod checkpoint;
pub mod config;
pub mod ensemble;
pub mod env;
pub mod questions;
pub mod role;
pub mod selflearn;
pub mod stages;

pub use ira_services as services;

pub use agent::{ResearchAgent, TrainingReport};
pub use checkpoint::TrainingCheckpoint;
pub use config::AgentConfig;
pub use ensemble::{Committee, CommitteeAnswer};
pub use env::{Environment, FaultSpec};
pub use questions::{generate as generate_questions, ResearchQuestion};
pub use role::RoleDefinition;
pub use selflearn::{LearningTrajectory, RoundRecord};
pub use stages::StageStats;
