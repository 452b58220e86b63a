//! The research agent: role + model + memory + autonomous retrieval,
//! with the knowledge-testing / self-learning loop of §3.
//!
//! The agent owns shared handles to its service backends — a
//! [`WebServices`] (search + fetch + session clock) and a
//! [`LanguageModel`] — rather than borrowing an environment, so agents
//! are `Send` and sessions can run on worker threads (see
//! `ira-engine`). [`ResearchAgent::new`] keeps the legacy convenience
//! wiring: clone the environment's client and build a seeded GPT-4
//! model.

use crate::config::{inference_us, AgentConfig, MAX_ROUNDS, SEARCHES_PER_ROUND};
use crate::env::Environment;
use crate::role::RoleDefinition;
use crate::selflearn::LearningTrajectory;
use crate::stages::StageStats;
use ira_agentmem::KnowledgeStore;
use ira_autogpt::{AutoGpt, Budget, GoalReport};
use ira_obs::{stage, ObsHandle, TraceEvent};
use ira_services::{Answer, LanguageModel, LlmStats, WebServices};
use ira_simllm::Llm;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// Summary of the initial goal-driven training phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    pub per_goal: Vec<GoalReport>,
    pub memory_entries: usize,
    pub llm: LlmStats,
    /// Virtual time the training consumed, microseconds.
    pub virtual_elapsed_us: u64,
}

impl TrainingReport {
    pub fn total_searches(&self) -> u32 {
        self.per_goal.iter().map(|g| g.searches).sum()
    }
    pub fn total_fetches(&self) -> u32 {
        self.per_goal.iter().map(|g| g.fetches).sum()
    }
    pub fn total_memorized(&self) -> u32 {
        self.per_goal.iter().map(|g| g.memorized).sum()
    }
}

/// What [`ResearchAgent::knowledge_query`] settles on: retrieve the
/// top `retrieval_k` entries for `query` at virtual time `now`. `texts`
/// holds that retrieval's texts, in prompt order, when it has already
/// run.
struct KnowledgeQuery<'q> {
    query: Cow<'q, str>,
    now: u64,
    texts: Option<Vec<String>>,
}

/// The interactive research agent.
pub struct ResearchAgent {
    pub role: RoleDefinition,
    config: AgentConfig,
    web: Arc<dyn WebServices>,
    llm: Arc<dyn LanguageModel>,
    memory: KnowledgeStore,
    stages: StageStats,
    obs: ObsHandle,
}

impl ResearchAgent {
    /// Create an untrained agent in an environment: the canonical
    /// simulation wiring — the environment's client as web services, a
    /// seeded GPT-4-class model.
    pub fn new(role: RoleDefinition, env: &Environment, config: AgentConfig, seed: u64) -> Self {
        let web: Arc<dyn WebServices> = Arc::new(env.client.clone());
        let llm: Arc<dyn LanguageModel> = Arc::new(Llm::gpt4(seed));
        Self::from_services(role, web, llm, config)
    }

    /// Create an agent over explicit service backends. The simulated
    /// inference latency is installed as the model's inference hook,
    /// charging every call to the web services' clock.
    pub fn from_services(
        role: RoleDefinition,
        web: Arc<dyn WebServices>,
        llm: Arc<dyn LanguageModel>,
        config: AgentConfig,
    ) -> Self {
        let clock = Arc::clone(&web);
        llm.set_inference_hook(Arc::new(move |prompt, completion| {
            clock.advance_us(inference_us(prompt, completion));
        }));
        ResearchAgent {
            role,
            config,
            web,
            llm,
            memory: KnowledgeStore::new(config.memory),
            stages: StageStats::default(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach an observation handle: the retrieval loops emit their
    /// cycle/search/fetch/memory points into it, knowledge-test
    /// verdicts and memory growth are recorded, and the model's
    /// inference hook is reinstalled to emit an LLM-call span (still
    /// charging the same virtual latency) for every call. LLM-call
    /// spans and all agent events are parented under whatever scope
    /// the session currently has open, so sharing one handle with the
    /// client makes one causal tree.
    pub fn set_observer_handle(&mut self, handle: ObsHandle) {
        self.obs = handle.clone();
        // Provenance records of future memorisations carry the
        // observing session's id.
        self.memory.set_session(handle.session());
        let clock = Arc::clone(&self.web);
        self.llm
            .set_inference_hook(Arc::new(move |prompt, completion| {
                let start = clock.now_us();
                let charged = inference_us(prompt, completion);
                clock.advance_us(charged);
                handle.emit(|| {
                    TraceEvent::span(
                        handle.session(),
                        start,
                        stage::LLM,
                        "call",
                        format!("prompt_tokens={prompt} completion_tokens={completion}"),
                        charged,
                    )
                });
            }));
    }

    /// Record the current memory size as a high-watermark gauge.
    fn emit_memory_gauge(&self) {
        self.obs.emit(|| {
            TraceEvent::gauge(
                self.obs.session(),
                self.now_us(),
                stage::MEMORY,
                "entries",
                self.memory.len() as u64,
            )
        });
    }

    /// Create an agent around an existing knowledge store — the
    /// restart path of a long-lived deployment (load `knowledge.json`,
    /// keep investigating).
    pub fn with_memory(
        role: RoleDefinition,
        env: &Environment,
        config: AgentConfig,
        seed: u64,
        memory: KnowledgeStore,
    ) -> Self {
        let mut agent = ResearchAgent::new(role, env, config, seed);
        agent.memory = memory;
        agent.llm.invalidate_grounding();
        agent
    }

    /// Agent Bob in the given environment with default config.
    pub fn bob(env: &Environment) -> Self {
        ResearchAgent::new(RoleDefinition::bob(), env, AgentConfig::default(), 0xB0B)
    }

    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    pub fn memory(&self) -> &KnowledgeStore {
        &self.memory
    }

    pub fn llm_stats(&self) -> LlmStats {
        self.llm.stats()
    }

    pub fn stage_stats(&self) -> StageStats {
        self.stages
    }

    fn now_us(&self) -> u64 {
        self.web.now_us()
    }

    /// Phase 1: pursue every role goal through the autonomous loop.
    pub fn train(&mut self) -> TrainingReport {
        self.train_until(u64::MAX)
    }

    /// Deadline-aware [`ResearchAgent::train`]: cooperative cancellation
    /// at goal granularity. The agent checks its virtual clock before
    /// each goal and stops once `deadline_us` (absolute virtual time)
    /// has passed, returning the partial report — compare
    /// `per_goal.len()` against `role.goals.len()` to detect
    /// truncation. A goal already in flight runs to completion (each is
    /// individually bounded by the Auto-GPT loop budget), so the
    /// overshoot past the deadline is bounded too.
    pub fn train_until(&mut self, deadline_us: u64) -> TrainingReport {
        let virtual_start = self.now_us();
        let mut per_goal = Vec::new();
        for goal in self.role.goals.clone() {
            if self.now_us() >= deadline_us {
                break;
            }
            per_goal.push(self.retrieve_goal(&goal));
        }
        TrainingReport {
            per_goal,
            memory_entries: self.memory.len(),
            llm: self.llm.stats(),
            virtual_elapsed_us: self.now_us() - virtual_start,
        }
    }

    /// Crash-safe [`ResearchAgent::train`]: a [`TrainingCheckpoint`] is
    /// written atomically after every completed goal, and a prior
    /// checkpoint at `ckpt_path` resumes the run — completed goals are
    /// skipped, their memory restored, and the virtual clock replayed
    /// to the checkpointed instant so the remaining goals observe
    /// exactly the state an uninterrupted run would have. A checkpoint
    /// that does not load, or whose memory fails
    /// [`KnowledgeStore::from_json`]'s check, is ignored and training
    /// starts fresh. The checkpoint is deleted once every goal has
    /// completed.
    ///
    /// [`TrainingCheckpoint`]: crate::checkpoint::TrainingCheckpoint
    pub fn train_with_checkpoint(
        &mut self,
        ckpt_path: &std::path::Path,
    ) -> Result<TrainingReport, ira_agentmem::store::StoreError> {
        use crate::checkpoint::TrainingCheckpoint;

        let virtual_start = self.now_us();
        let mut per_goal: Vec<GoalReport> = Vec::new();
        let mut completed: Vec<String> = Vec::new();

        if let Some(ckpt) = TrainingCheckpoint::load(ckpt_path) {
            if ckpt.role_name == self.role.name {
                if let Ok(memory) = KnowledgeStore::from_json(&ckpt.memory) {
                    self.memory = memory;
                    self.memory.set_session(self.obs.session());
                    self.llm.invalidate_grounding();
                    per_goal = ckpt.per_goal;
                    completed = ckpt.completed;
                    let now = self.now_us();
                    if ckpt.clock_us > now {
                        self.web.advance_us(ckpt.clock_us - now);
                    }
                }
            }
        }

        for goal in self.role.goals.clone() {
            if completed.iter().any(|done| done == &goal) {
                continue;
            }
            per_goal.push(self.retrieve_goal(&goal));
            completed.push(goal.clone());
            TrainingCheckpoint {
                role_name: self.role.name.clone(),
                completed: completed.clone(),
                per_goal: per_goal.clone(),
                memory: self.memory.to_json(),
                clock_us: self.now_us(),
            }
            .save(ckpt_path)?;
        }
        TrainingCheckpoint::remove(ckpt_path);

        Ok(TrainingReport {
            per_goal,
            memory_entries: self.memory.len(),
            llm: self.llm.stats(),
            virtual_elapsed_us: self.now_us() - virtual_start,
        })
    }

    fn retrieve_goal(&mut self, goal: &str) -> GoalReport {
        let virtual_start = self.now_us();
        // The whole goal is one causal scope: the loop's cycle/search/
        // fetch/memory points, the client's fetch spans, and the LLM
        // call spans all nest under it. (The handle is cloned to a
        // local so the open scope doesn't hold a borrow of `self`.)
        let obs = self.obs.clone();
        let scope = obs.scope(virtual_start, stage::CYCLE, "goal");
        let mut loop_ = AutoGpt::new(
            &*self.web,
            &*self.llm,
            &self.memory,
            self.config.crawl_links,
            Budget::standard(),
        );
        loop_.attach_observer_handle(self.obs.clone());
        let report = loop_.run_goal(goal);
        // The goal loop memorized new pages: retrieval for a repeated
        // question may now surface different chunks.
        self.llm.invalidate_grounding();
        self.stages.retrieval_virtual_us += self.now_us() - virtual_start;
        self.stages.retrieval_ops += 1;
        scope.finish(self.now_us(), || goal.to_string());
        self.emit_memory_gauge();
        report
    }

    /// The retrieval whose top `retrieval_k` entries the prompt loads
    /// for `question` (see [`ResearchAgent::knowledge_for`]). When the
    /// model names no gap, the question-only retrieval is the one
    /// loaded, and its texts come back with it.
    fn knowledge_query<'q>(&self, question: &'q str) -> KnowledgeQuery<'q> {
        let now = self.now_us();
        if !self.config.query_expansion {
            return KnowledgeQuery {
                query: question.into(),
                now,
                texts: None,
            };
        }
        let first = self
            .memory
            .retrieve_texts(question, self.config.retrieval_k, now);
        let gap_queries = self.llm.propose_searches(question, &first, 4);
        if gap_queries.is_empty() {
            return KnowledgeQuery {
                query: question.into(),
                now,
                texts: Some(first),
            };
        }
        KnowledgeQuery {
            query: format!("{question} {}", gap_queries.join(" ")).into(),
            now: self.now_us(),
            texts: None,
        }
    }

    /// The knowledge texts the agent would load for a question, in
    /// prompt order (most relevant last).
    ///
    /// With `query_expansion` enabled, the model first reads the
    /// question-retrieved context and names its knowledge gaps, and the
    /// gap queries' vocabulary joins the retrieval query. This bridges
    /// question/knowledge vocabulary mismatches (an answer about
    /// "susceptibility" may live in a page about "grid geomagnetic
    /// latitude").
    pub fn knowledge_for(&self, question: &str) -> Vec<String> {
        let KnowledgeQuery { query, now, texts } = self.knowledge_query(question);
        texts.unwrap_or_else(|| {
            self.memory
                .retrieve_texts(&query, self.config.retrieval_k, now)
        })
    }

    /// Answer a question from current memory (no self-learning).
    pub fn ask(&mut self, question: &str) -> Answer {
        let knowledge = self.knowledge_for(question);
        self.answer(question, &knowledge)
    }

    /// One answer call over `knowledge`, charged to the reasoning stage.
    fn answer(&mut self, question: &str, knowledge: &[String]) -> Answer {
        let virtual_start = self.now_us();
        let ans = self.llm.answer(question, knowledge);
        self.stages.reasoning_virtual_us += self.now_us() - virtual_start;
        self.stages.reasoning_ops += 1;
        ans
    }

    /// The paper's confidence probe.
    pub fn confidence(&mut self, question: &str) -> u8 {
        self.ask(question).confidence
    }

    /// Answer with citations: the knowledge entries (URL + source
    /// kind) loaded into the prompt for this answer, in prompt order —
    /// the per-answer form of §4.2's "verify the sources of the
    /// knowledge". The answer is [`ResearchAgent::ask`]'s, read from
    /// the same retrieval.
    pub fn ask_cited(&mut self, question: &str) -> (Answer, Vec<(String, String)>) {
        let KnowledgeQuery { query, now, .. } = self.knowledge_query(question);
        let entries = self.memory.retrieve(&query, self.config.retrieval_k, now);
        // `retrieve` picks most relevant first; the prompt loads them in
        // reverse, as `retrieve_texts` does.
        let (knowledge, citations): (Vec<String>, Vec<(String, String)>) = entries
            .into_iter()
            .rev()
            .map(|e| (e.content, (e.source_url, e.source_kind)))
            .unzip();
        (self.answer(question, &knowledge), citations)
    }

    /// Phase 2: knowledge testing + iterative self-learning on one
    /// question (§3 step 4). Searches proposed by the model are pursued
    /// one after another, memory grows, and the question is
    /// re-assessed, until the confidence threshold or round budget.
    pub fn self_learn(&mut self, question: &str) -> LearningTrajectory {
        // One causal scope for the whole test-and-learn loop, with a
        // child scope per learning round, so each verdict's LLM calls
        // and retrievals are attributable to the round that spent them.
        let obs = self.obs.clone();
        let learn_scope = obs.scope(self.now_us(), stage::CYCLE, "self_learn");
        let mut trajectory = LearningTrajectory::new(question, self.config.confidence_threshold);
        let mut answer = self.ask(question);
        trajectory.record(0, &answer, Vec::new(), 0);
        self.emit_verdict(0, &answer);

        let mut round = 1u32;
        while answer.confidence < self.config.confidence_threshold && round <= MAX_ROUNDS {
            let round_scope = obs.scope(self.now_us(), stage::CYCLE, "round");
            let knowledge = self.knowledge_for(question);
            let virtual_start = self.now_us();
            let queries: Vec<String> =
                self.llm
                    .propose_searches(question, &knowledge, SEARCHES_PER_ROUND);
            self.stages.reasoning_virtual_us += self.now_us() - virtual_start;
            self.stages.reasoning_ops += 1;
            if queries.is_empty() {
                break; // the model sees no gap it knows how to search for
            }
            // Repeated queries are fine: the retrieval loop skips pages
            // it already memorised, so a re-issued search pages deeper
            // into the ranking. Zero new knowledge means the corpus is
            // exhausted for these queries — stop.
            let memorized = self.pursue_all(question, &queries);
            answer = self.ask(question);
            trajectory.record(round, &answer, queries, memorized);
            self.emit_verdict(round, &answer);
            round_scope.finish(self.now_us(), || format!("round={round}"));
            round += 1;
            if memorized == 0 {
                break;
            }
        }
        learn_scope.finish(self.now_us(), || question.to_string());
        trajectory
    }

    /// Record one knowledge-test verdict on the trace: the round's
    /// confidence rides in `value`, the committed verdict (if any) in
    /// the detail.
    fn emit_verdict(&self, round: u32, answer: &Answer) {
        self.obs.emit(|| {
            let name = if answer.confidence >= self.config.confidence_threshold {
                "committed"
            } else {
                "unresolved"
            };
            let mut ev = TraceEvent::point(
                self.obs.session(),
                self.now_us(),
                stage::VERDICT,
                name,
                format!(
                    "round={round} confidence={} verdict={}",
                    answer.confidence,
                    answer.verdict.as_deref().unwrap_or("-")
                ),
            );
            ev.value = answer.confidence as u64;
            ev
        });
    }

    /// Pursue a batch of queries, one after another.
    fn pursue_all(&mut self, topic: &str, queries: &[String]) -> u32 {
        let virtual_start = self.now_us();
        let mut loop_ = AutoGpt::new(
            &*self.web,
            &*self.llm,
            &self.memory,
            self.config.crawl_links,
            Budget::standard(),
        );
        loop_.attach_observer_handle(self.obs.clone());
        let memorized: u32 = queries
            .iter()
            .map(|q| loop_.pursue_query(topic, q).memorized)
            .sum();
        self.llm.invalidate_grounding();
        self.stages.retrieval_virtual_us += self.now_us() - virtual_start;
        self.stages.retrieval_ops += queries.len() as u64;
        self.emit_memory_gauge();
        memorized
    }

    /// Reflection (the consolidation step of the generative-agents
    /// architecture the paper builds on): read everything in memory,
    /// synthesise higher-level insight entries, and memorise them in
    /// the same canonical sentence shapes the model can re-extract.
    /// Insights survive eviction better than the pages they summarise
    /// (high importance, small size). Returns the number of insights
    /// stored.
    pub fn reflect(&mut self) -> usize {
        use ira_simllm::extract::{Extraction, Fact};
        use std::collections::BTreeMap;

        let mut ex = Extraction::default();
        for entry in self.memory.entries() {
            ex.absorb(&entry.content, None);
        }

        let mut insights: Vec<String> = Vec::new();

        // Regional grid latitudes: average per region.
        let mut grid_lats: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for f in &ex.facts {
            if let Fact::RegionGridLatitude {
                region, degrees, ..
            } = f
            {
                grid_lats.entry(region.clone()).or_default().push(*degrees);
            }
        }
        for (region, lats) in grid_lats {
            if lats.len() >= 2 {
                let mean = lats.iter().sum::<f64>() / lats.len() as f64;
                insights.push(format!(
                    "Insight from {} grid reports: the typical {region} grid serves {region} \
                     and sits at about {mean:.0} degrees geomagnetic latitude.",
                    lats.len()
                ));
            }
        }

        // Highest-latitude cable per region pair.
        let mut best: BTreeMap<(String, String), (String, f64)> = BTreeMap::new();
        for f in ex.routes() {
            if let Fact::CableRoute {
                name,
                from_region,
                to_region,
                ..
            } = f
            {
                if let Some(apex) = ex.apex_of(name) {
                    let key = if from_region <= to_region {
                        (from_region.clone(), to_region.clone())
                    } else {
                        (to_region.clone(), from_region.clone())
                    };
                    let entry = best.entry(key).or_insert((name.clone(), apex));
                    if apex > entry.1 {
                        *entry = (name.clone(), apex);
                    }
                }
            }
        }
        for ((ra, rb), (name, apex)) in best {
            insights.push(format!(
                "Insight: among cables linking {ra} and {rb}, the {name} cable reaches a \
                 maximum geomagnetic latitude of {apex:.1} degrees, the highest of its route."
            ));
        }

        // Principles seen across sources, restated verbatim-extractably.
        if !ex.principles.is_empty() {
            let count = ex.principles.len();
            insights.push(format!(
                "Insight: {count} general principles recur across sources. Geomagnetically \
                 induced currents grow stronger at higher geomagnetic latitudes."
            ));
        }

        let now = self.now_us();
        let mut stored = 0;
        for (i, insight) in insights.iter().enumerate() {
            if self
                .memory
                .memorize(
                    "reflection",
                    insight,
                    &format!("reflection://self/{i}"),
                    "reflection",
                    now,
                    0.9,
                )
                .is_some()
            {
                stored += 1;
            }
        }
        if stored > 0 {
            self.llm.invalidate_grounding();
        }
        stored
    }

    /// Produce a storm response plan (§4.3), self-learning planning
    /// guidance first if the memory lacks it.
    pub fn respond_plan(&mut self) -> Answer {
        let question = "Plan a shutdown strategy for network operators facing an incoming CME.";
        let _ = self.self_learn(question);
        let knowledge = self.knowledge_for(question);
        self.llm.shutdown_strategy(&knowledge)
    }

    /// Save the agent's knowledge to `knowledge.json`.
    pub fn save_knowledge(
        &self,
        path: &std::path::Path,
    ) -> Result<(), ira_agentmem::store::StoreError> {
        self.memory.save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                           that connects Brazil to Europe or the one that connects the US to \
                           Europe?";

    fn trained_bob(env: &Environment) -> ResearchAgent {
        let mut bob = ResearchAgent::bob(env);
        bob.train();
        bob
    }

    #[test]
    fn training_fills_memory_from_all_goals() {
        let env = Environment::fixture();
        let mut bob = ResearchAgent::bob(&env);
        let report = bob.train();
        assert_eq!(report.per_goal.len(), 3);
        assert!(
            report.total_memorized() >= 5,
            "memorized {}",
            report.total_memorized()
        );
        assert!(report.memory_entries >= 5);
        assert!(report.virtual_elapsed_us > 0);
        assert!(report.llm.calls > 0);
    }

    #[test]
    fn agents_are_send() {
        // The whole point of the service-handle design: one session
        // (agent + its backends) can move to a worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<ResearchAgent>();
    }

    #[test]
    fn untrained_agent_is_unconfident() {
        let env = Environment::fixture();
        let mut bob = ResearchAgent::bob(&env);
        assert!(bob.confidence(CABLE_Q) <= 3);
    }

    #[test]
    fn inference_latency_config_governs_virtual_time() {
        // Every reasoning call is charged at least the GPT-4-class
        // request overhead to the virtual clock.
        let env = Environment::fixture();
        let mut bob = trained_bob(&env);
        let _ = bob.self_learn(CABLE_Q);
        let stages = bob.stage_stats();
        assert!(stages.reasoning_ops > 0);
        assert!(
            stages.reasoning_virtual_us >= stages.reasoning_ops * inference_us(0, 0),
            "{stages:?}"
        );
    }

    #[test]
    fn paper_e2_shape_cable_question() {
        // Trained Bob: low initial confidence, one self-learning round
        // lifts it to 8-9 with the US-Europe verdict (§4.2 result 1).
        let env = Environment::fixture();
        let mut bob = trained_bob(&env);
        let trajectory = bob.self_learn(CABLE_Q);
        let initial = trajectory.initial_confidence().unwrap();
        let final_ = trajectory.final_confidence().unwrap();
        assert!(
            initial < 7,
            "initial confidence {initial} should be below threshold"
        );
        assert!(final_ >= 8, "final confidence {final_} should reach 8-9");
        assert!(trajectory.reached_threshold);
        let last = trajectory.rounds.last().unwrap();
        let verdict = last.verdict.as_deref().expect("should commit");
        assert!(
            verdict.to_lowercase().contains("united states"),
            "verdict: {verdict}"
        );
    }

    #[test]
    fn paper_e3_shape_datacenter_question() {
        let env = Environment::fixture();
        let mut bob = trained_bob(&env);
        let q = "Whose datacenter is more vulnerable to a solar superstorm, Google's or \
                 Facebook's?";
        let trajectory = bob.self_learn(q);
        let initial = trajectory.initial_confidence().unwrap();
        let final_ = trajectory.final_confidence().unwrap();
        assert!(initial < 6, "initial {initial}");
        assert!(final_ > initial, "self-learning must improve confidence");
        let last = trajectory.rounds.last().unwrap();
        let verdict = last.verdict.as_deref().expect("should commit");
        assert!(verdict.contains("Facebook"), "verdict: {verdict}");
    }

    #[test]
    fn retrieval_improvements_fix_the_vocabulary_mismatch_miss() {
        // The US-vs-Asia question's vocabulary barely overlaps the
        // knowledge that answers it (grid geomagnetic latitudes).
        // Question-only top-k retrieval without a diversity penalty
        // never surfaces the grid page — the paper-shaped miss. The
        // default retrieval (gap-query expansion + MMR diversity)
        // resolves it.
        let q = "Is the United States or Asia more susceptible to Internet disruption from a \
                 solar superstorm?";
        let env = Environment::fixture();
        let mut naive_cfg = AgentConfig {
            query_expansion: false,
            ..AgentConfig::default()
        };
        naive_cfg.memory.weights.diversity = 0.0;
        let mut plain = ResearchAgent::new(RoleDefinition::bob(), &env, naive_cfg, 0xB0B);
        plain.train();
        let baseline = plain.self_learn(q);
        assert!(
            baseline.final_confidence().unwrap() < 7,
            "naive retrieval should leave the mismatch unresolved: {:?}",
            baseline.confidence_series()
        );

        let env2 = Environment::fixture();
        let mut fixed_agent = trained_bob(&env2);
        let fixed = fixed_agent.self_learn(q);
        assert!(
            fixed.final_confidence().unwrap() >= 8,
            "default retrieval should resolve it: {:?}",
            fixed.confidence_series()
        );
        let last = fixed.rounds.last().unwrap();
        let verdict = last.verdict.as_deref().unwrap_or("");
        assert!(verdict.contains("united states"), "verdict: {verdict}");
    }

    #[test]
    fn reflection_synthesises_extractable_insights() {
        use ira_simllm::extract::Extraction;
        let env = Environment::fixture();
        let mut bob = trained_bob(&env);
        let _ = bob.self_learn(CABLE_Q);
        let before = bob.memory().len();
        let stored = bob.reflect();
        assert!(
            stored >= 1,
            "training plus one investigation should yield insights"
        );
        assert_eq!(bob.memory().len(), before + stored);
        // The insights themselves must be machine-readable.
        let mut ex = Extraction::default();
        for e in bob.memory().entries() {
            if e.source_kind == "reflection" {
                ex.absorb(&e.content, None);
            }
        }
        assert!(
            !ex.is_empty(),
            "insights must re-extract as facts or principles"
        );
        // Reflecting twice does not duplicate insights (dedup).
        let again = bob.reflect();
        assert_eq!(again, 0, "identical insights must deduplicate, got {again}");
    }

    #[test]
    fn ask_cited_reports_the_grounding_sources() {
        let env = Environment::fixture();
        let mut bob = trained_bob(&env);
        let _ = bob.self_learn(CABLE_Q);
        let (answer, citations) = bob.ask_cited(CABLE_Q);
        assert!(answer.verdict.is_some());
        assert!(!citations.is_empty());
        assert!(citations.iter().all(|(url, _)| url.starts_with("sim://")));
        assert!(citations.len() <= bob.config().retrieval_k);
    }

    #[test]
    fn respond_plan_contains_the_papers_two_components() {
        let env = Environment::fixture();
        let mut bob = trained_bob(&env);
        let plan = bob.respond_plan();
        assert!(
            plan.text.contains("Predictive Shutdown"),
            "plan: {}",
            plan.text
        );
        assert!(plan.text.contains("Redundancy Utilization"));
    }

    #[test]
    fn interrupted_training_resumes_to_identical_knowledge() {
        use crate::checkpoint::TrainingCheckpoint;

        let ckpt = std::env::temp_dir().join("ira-core-resume-test.ckpt.json");
        TrainingCheckpoint::remove(&ckpt);

        // Uninterrupted reference run.
        let env1 = Environment::fixture();
        let mut full = ResearchAgent::bob(&env1);
        let report_full = full.train_with_checkpoint(&ckpt).unwrap();
        assert!(!ckpt.exists(), "checkpoint must be deleted after success");

        // Interrupted run: goal 1 completes, then the process "dies".
        // Reconstruct the on-disk state train_with_checkpoint leaves
        // behind after its first goal.
        let env2 = Environment::fixture();
        let mut partial_role = RoleDefinition::bob();
        let first_goal = partial_role.goals[0].clone();
        partial_role.goals.truncate(1);
        let mut partial = ResearchAgent::new(partial_role, &env2, AgentConfig::default(), 0xB0B);
        let partial_report = partial.train();
        TrainingCheckpoint {
            role_name: "Bob".into(),
            completed: vec![first_goal],
            per_goal: partial_report.per_goal.clone(),
            memory: partial.memory().to_json(),
            clock_us: env2.now_us(),
        }
        .save(&ckpt)
        .unwrap();

        // Restart: fresh process, fresh environment from the same
        // seeds, resume from the checkpoint.
        let env3 = Environment::fixture();
        let mut resumed = ResearchAgent::bob(&env3);
        let report_resumed = resumed.train_with_checkpoint(&ckpt).unwrap();
        assert!(!ckpt.exists(), "checkpoint must be deleted after success");

        // Knowledge must match the uninterrupted run exactly, modulo
        // the learned_at timestamps (the network's latency stream is
        // positioned differently after a restart).
        let key = |s: &ResearchAgent| -> Vec<(String, String, String, String)> {
            s.memory()
                .entries()
                .into_iter()
                .map(|e| (e.topic, e.content, e.source_url, e.source_kind))
                .collect()
        };
        assert_eq!(key(&full), key(&resumed), "resumed knowledge must match");
        assert_eq!(report_full.per_goal.len(), report_resumed.per_goal.len());
        assert_eq!(
            report_full.total_memorized(),
            report_resumed.total_memorized(),
            "per-goal reports must carry over the completed goal's counts"
        );
    }

    #[test]
    fn a_checkpoint_whose_memory_fails_the_load_check_starts_fresh() {
        use crate::checkpoint::TrainingCheckpoint;

        let ckpt = std::env::temp_dir().join("ira-core-invalid-memory.ckpt.json");
        TrainingCheckpoint::remove(&ckpt);
        let env1 = Environment::fixture();
        let mut fresh = ResearchAgent::bob(&env1);
        let report_fresh = fresh.train_with_checkpoint(&ckpt).unwrap();

        // A checkpoint that has every goal done, over a memory with
        // room for no entry.
        let memory = fresh
            .memory()
            .to_json()
            .replace("\"capacity\": 2000", "\"capacity\": 0");
        assert!(KnowledgeStore::from_json(&memory).is_err());
        TrainingCheckpoint {
            role_name: "Bob".into(),
            completed: RoleDefinition::bob().goals,
            per_goal: report_fresh.per_goal.clone(),
            memory,
            clock_us: env1.now_us(),
        }
        .save(&ckpt)
        .unwrap();

        let env2 = Environment::fixture();
        let mut resumed = ResearchAgent::bob(&env2);
        let report = resumed.train_with_checkpoint(&ckpt).unwrap();
        assert!(!ckpt.exists(), "checkpoint must be deleted after success");
        assert_eq!(report.virtual_elapsed_us, report_fresh.virtual_elapsed_us);
        assert_eq!(resumed.memory().to_json(), fresh.memory().to_json());
    }

    #[test]
    fn chaotic_environment_still_trains_with_partial_knowledge() {
        // Training spans ~10 virtual seconds; a 12-second horizon makes
        // the fault windows actually overlap the run.
        let world = ira_worldmodel::World::standard();
        let corpus = Arc::new(ira_webcorpus::Corpus::generate(
            &world,
            ira_webcorpus::CorpusConfig::default(),
        ));
        let env = Environment::from_parts(
            world,
            corpus,
            0xBEEF,
            Some(crate::env::FaultSpec {
                intensity: 0.25,
                horizon: ira_simnet::Duration::from_secs(12),
                seed: 7,
            }),
        );
        let mut bob = ResearchAgent::bob(&env);
        let report = bob.train();
        // Chaos must not abort training: the agent finishes all goals,
        // degrading around faulted hosts.
        assert_eq!(report.per_goal.len(), 3);
        assert!(
            report.total_memorized() >= 1,
            "some knowledge must survive 25% fault intensity: {report:?}"
        );
    }

    #[test]
    fn stage_stats_show_retrieval_dominating() {
        let env = Environment::fixture();
        let mut bob = trained_bob(&env);
        bob.self_learn(CABLE_Q);
        let stages = bob.stage_stats();
        assert!(stages.retrieval_ops > 0);
        assert!(stages.reasoning_ops > 0);
        assert!(
            stages.retrieval_virtual_us > 0,
            "web latency must be charged"
        );
        assert!(
            stages.reasoning_virtual_us > 0,
            "inference latency must be charged"
        );
        let share = stages.retrieval_share();
        assert!((0.0..1.0).contains(&share), "share {share}");
    }
}
