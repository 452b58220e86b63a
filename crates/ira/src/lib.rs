//! `ira`: the facade crate.
//!
//! One dependency pulling in the whole workspace, plus a [`prelude`]
//! with the types nearly every experiment touches — so examples and
//! bench binaries write
//!
//! ```rust
//! use ira::prelude::*;
//! ```
//!
//! instead of reaching into six `ira-*` crates by deep path. The
//! individual crates remain available as modules ([`core`], [`engine`],
//! [`evalkit`], [`obs`], …) for anything the prelude does not cover.

pub use ira_agentmem as agentmem;
pub use ira_autogpt as autogpt;
pub use ira_core as core;
pub use ira_engine as engine;
pub use ira_evalkit as evalkit;
pub use ira_obs as obs;
pub use ira_serve as serve;
pub use ira_services as services;
pub use ira_simllm as simllm;
pub use ira_simnet as simnet;
pub use ira_webcorpus as webcorpus;
pub use ira_worldmodel as worldmodel;

/// The working set: spawn sessions, train agents, trace runs.
pub mod prelude {
    pub use ira_agentmem::{KnowledgeStore, StoreConfig};
    pub use ira_autogpt::Budget;
    pub use ira_core::{
        AgentConfig, Environment, FaultSpec, LearningTrajectory, ResearchAgent, RoleDefinition,
        TrainingReport,
    };
    pub use ira_engine::{Engine, Session, SessionConfig};
    pub use ira_evalkit::quiz::QuizBank;
    pub use ira_evalkit::runner::{
        evaluate_agent, evaluate_baseline, evaluate_scenario, full_paper_run, sweep, EvalRun,
    };
    pub use ira_obs::{
        Collector, Fanout, JsonlCollector, MetricsSnapshot, NullCollector, SharedCollector,
        SummaryCollector, TraceEvent,
    };
    pub use ira_serve::{ServeConfig, ServeRequest, ServeResponse, Server};
    pub use ira_services::{IraError, IraResult, ServiceError};
    pub use ira_simnet::{ClientConfig, Duration, Instant};
    pub use ira_webcorpus::CorpusConfig;
    pub use ira_worldmodel::scenario::{Scenario, ScenarioRegistry, ScenarioSpec};
    pub use ira_worldmodel::World;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_working_set() {
        let engine = Engine::new();
        let config = AgentConfig {
            confidence_threshold: 7,
            ..AgentConfig::default()
        };
        let mut session_config = SessionConfig::bob();
        session_config.agent = config;
        let session = engine.spawn_session(session_config);
        assert_eq!(session.now_us(), 0);
        let _: SharedCollector = std::sync::Arc::new(NullCollector);
    }

    #[test]
    fn prelude_covers_the_serve_layer() {
        let server = Server::new(ServeConfig::default());
        let mut probe = ServeRequest::new("p", ira_serve::RequestKind::PanicProbe);
        probe.probe_panics = Some(0);
        let responses: Vec<ServeResponse> = server.handle_batch(&[probe], None);
        assert_eq!(responses.len(), 1);
    }
}
