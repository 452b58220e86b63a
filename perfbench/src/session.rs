//! Sessions with timed services, and the `serve` session bodies the
//! traced `serve_mix` replay re-executes.
//!
//! [`spawn_timed`] builds exactly what `Engine::spawn_session_with_handle`
//! builds — the engine's cached corpus, `Environment::from_parts`, the
//! observer on the client before the agent clones it, a seeded GPT-4
//! model — but hands the agent its web and model through
//! `ResearchAgent::from_services`, wrapped in [`TimedWeb`] and
//! [`TimedLlm`].

use crate::timed::{Reading, TimedLlm, TimedWeb};
use ira::core::{AgentConfig, Environment, ResearchAgent, RoleDefinition};
use ira::engine::{Engine, FaultSpec, SessionConfig};
use ira::evalkit::{ConsistencyReport, QuizBank};
use ira::obs::ObsHandle;
use ira::serve::{QuizConclusion, RequestKind, ResponsePayload, ServeRequest};
use ira::services::{LanguageModel, TimeSource};
use ira::simllm::lexicon::ops::{self, OpSnapshot};
use ira::simllm::Llm;
use ira::simnet::{Client, Duration};
use ira::webcorpus::CorpusConfig;
use ira::worldmodel::scenario::{self, SOLAR_SUPERSTORM};
use std::sync::Arc;

/// A session whose agent talks to its web and model through timing
/// decorators; the decorators stay reachable for reading.
pub struct TimedSession {
    pub env: Environment,
    pub agent: ResearchAgent,
    pub web: Arc<TimedWeb<Client>>,
    pub llm: Arc<TimedLlm<Llm>>,
}

/// Build the session `Engine::spawn_session` would build for `config`
/// (or `spawn_session_with_handle`, given a `handle`), with timed
/// services.
pub fn spawn_timed(
    engine: &Engine,
    config: SessionConfig,
    handle: Option<ObsHandle>,
) -> TimedSession {
    let corpus = engine.corpus(config.corpus);
    let mut env = Environment::from_parts(
        engine.world().clone(),
        corpus,
        config.net_seed,
        config.faults,
    );
    if let Some(handle) = &handle {
        env.client.set_observer_handle(handle.clone());
    }
    let web = Arc::new(TimedWeb::new(env.client.clone()));
    let llm = Arc::new(TimedLlm::new(Llm::gpt4(config.llm_seed)));
    let mut agent =
        ResearchAgent::from_services(config.role, web.clone(), llm.clone(), config.agent);
    if let Some(handle) = handle {
        agent.set_observer_handle(handle);
    }
    TimedSession {
        env,
        agent,
        web,
        llm,
    }
}

/// Everything the decorators and the process-global op counters have
/// counted so far; the difference of two probes is one unit's cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub search: Reading,
    pub fetch: Reading,
    pub fetch_failures: u64,
    pub call: Reading,
    pub answer: Reading,
    pub propose: Reading,
    pub tokens: u64,
    pub ops: OpSnapshot,
}

impl Probe {
    pub fn take(web: &TimedWeb<Client>, llm: &TimedLlm<Llm>) -> Probe {
        let stats = llm.stats();
        Probe {
            search: web.search.read(),
            fetch: web.fetch.read(),
            fetch_failures: web.fetch_failures(),
            call: llm.call.read(),
            answer: llm.answer.read(),
            propose: llm.propose.read(),
            tokens: stats.prompt_tokens + stats.completion_tokens,
            ops: ops::snapshot(),
        }
    }

    pub fn since(&self, earlier: &Probe) -> Probe {
        Probe {
            search: self.search.since(earlier.search),
            fetch: self.fetch.since(earlier.fetch),
            fetch_failures: self.fetch_failures - earlier.fetch_failures,
            call: self.call.since(earlier.call),
            answer: self.answer.since(earlier.answer),
            propose: self.propose.since(earlier.propose),
            tokens: self.tokens - earlier.tokens,
            ops: self.ops.since(&earlier.ops),
        }
    }
}

impl TimedSession {
    pub fn probe(&self) -> Probe {
        Probe::take(&self.web, &self.llm)
    }
}

/// The seed strides `Server` provisions a request's attempt with.
const NET_SEED_BASE: u64 = 0xBEEF;
const LLM_SEED_BASE: u64 = 0xB0B;
const ATTEMPT_NET_STRIDE: u64 = 0x51F5_0000_0001;

/// The session config `Server` provisions for `attempt` of `request`
/// (no graph retrieval, the default corpus seed).
pub fn serve_session_config(request: &ServeRequest, attempt: u32) -> SessionConfig {
    SessionConfig {
        role: RoleDefinition::bob(),
        agent: AgentConfig::default(),
        corpus: CorpusConfig {
            seed: crate::inputs::CORPUS_SEED,
            distractor_count: request.distractors,
            scenario: scenario::static_name(&request.scenario).expect("validated scenario"),
        },
        net_seed: NET_SEED_BASE
            .wrapping_add(request.seed)
            .wrapping_add(attempt as u64 * ATTEMPT_NET_STRIDE),
        llm_seed: LLM_SEED_BASE.wrapping_add(request.seed),
        faults: (request.fault_intensity > 0.0).then(|| FaultSpec {
            intensity: request.fault_intensity,
            horizon: Duration::from_secs(60),
            seed: request.fault_seed.wrapping_add(attempt as u64),
        }),
    }
}

/// The serve session body for a `train`, `ask` or `quiz` request, as
/// `Server` runs it: cooperative deadline checks at goal and quiz-item
/// granularity. Returns the payload and whether the deadline cut it.
pub fn serve_body(
    request: &ServeRequest,
    session: &mut TimedSession,
    deadline_us: u64,
) -> (ResponsePayload, bool) {
    let agent = &mut session.agent;
    let goals_total = agent.role.goals.len();
    match request.kind {
        RequestKind::Train => {
            let report = agent.train_until(deadline_us);
            let goals_completed = report.per_goal.len();
            let payload = ResponsePayload::Train {
                goals_completed,
                goals_total,
                memory_entries: report.memory_entries,
            };
            (payload, goals_completed < goals_total)
        }
        RequestKind::Ask => {
            let question = request.question.as_deref().unwrap_or_default();
            let report = agent.train_until(deadline_us);
            let mut degraded = report.per_goal.len() < goals_total;
            if session.web.now_us() < deadline_us {
                agent.self_learn(question);
            } else {
                degraded = true;
            }
            let answer = agent.ask(question);
            let payload = ResponsePayload::Ask {
                text: answer.text,
                verdict: answer.verdict,
                confidence: answer.confidence,
            };
            (payload, degraded)
        }
        RequestKind::Quiz => {
            let report = agent.train_until(deadline_us);
            let train_truncated = report.per_goal.len() < goals_total;
            let world = &session.env.world;
            let quiz = if request.scenario == SOLAR_SUPERSTORM {
                QuizBank::from_world(world)
            } else {
                let sc = scenario::lookup(&request.scenario).expect("validated scenario");
                QuizBank::for_scenario(world, sc.as_ref())
            };
            let total = quiz.len();
            let mut consistency = ConsistencyReport::new(&request.id);
            let mut answered = 0usize;
            for item in quiz.iter() {
                if session.web.now_us() >= deadline_us {
                    break;
                }
                agent.self_learn(&item.question);
                let answer = agent.ask(&item.question);
                consistency.add(item, &answer);
                answered += 1;
            }
            let conclusions = consistency
                .per_item
                .iter()
                .map(|item| QuizConclusion {
                    id: item.id.clone(),
                    verdict: item.verdict.clone(),
                    confidence: item.confidence,
                    consistent: item.matched.consistent,
                })
                .collect();
            let payload = ResponsePayload::Quiz {
                answered,
                total,
                consistent: consistency.consistent_count(),
                conclusions,
            };
            (payload, train_truncated || answered < total)
        }
        RequestKind::PanicProbe | RequestKind::Stats => {
            unreachable!("probes and stats run no session body")
        }
    }
}
