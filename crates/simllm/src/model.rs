//! The [`Llm`] facade: the single entry point agents use to "call the
//! model". Assembles prompts under the context window, runs extraction
//! and reasoning, accounts tokens, and exposes the typed helper calls
//! the agent architecture needs (answering with a confidence, search
//! proposal, planning). Every model in the process reads knowledge
//! chunks through one shared, bounded reading cache, so a page's token
//! count and extraction are computed once per process.

use crate::chat::Prompt;
use crate::extract::{Extraction, Principle};
use crate::intent::classify;
use crate::lexicon::{ops, WordHasher};
use crate::plangen::{self, ActionPlan};
use crate::reason::{self, Answer, MissingKnowledge};
use crate::textcache::{TextCache, TextValue};
use crate::token::{count_tokens, ContextWindow};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Model configuration.
#[derive(Debug, Clone, Copy)]
pub struct LlmConfig {
    pub context: ContextWindow,
    /// Seed for sampling (query phrasing variation).
    pub seed: u64,
    /// Sampling temperature in [0, 1]; 0 = always the canonical
    /// phrasing.
    pub temperature: f64,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            context: ContextWindow::gpt4(),
            seed: 0,
            temperature: 0.0,
        }
    }
}

/// Cumulative usage counters, the basis of the training-cost
/// experiment (E6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlmStats {
    pub calls: u64,
    pub prompt_tokens: u64,
    pub completion_tokens: u64,
}

/// Callback invoked after every model call with (prompt_tokens,
/// completion_tokens). The agent layer uses it to charge simulated
/// inference latency to the virtual clock, reproducing the fact that a
/// real agent's wall time is dominated by API calls.
pub type InferenceHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// A memoized grounded answer together with the inputs it answers and
/// the token charges it incurred when first computed. Replaying the
/// charges on a hit keeps [`LlmStats`] and the inference hook (and
/// hence the virtual clock) identical to recomputing the answer.
struct CachedAnswer {
    question: String,
    knowledge: Vec<String>,
    answer: Answer,
    prompt_tokens: usize,
    completion_tokens: usize,
}

/// Bytes of chunk text the process-wide [`ReadingCache`] holds at most.
const READING_BUDGET_BYTES: usize = 8 << 20;

/// Every model in the process reads a chunk text through this cache,
/// so sessions over the same webs read each page once.
static READINGS: ReadingCache = ReadingCache::new(READING_BUDGET_BYTES);

/// Readings keyed by exact chunk text (see [`TextCache`]).
type ReadingCache = TextCache<Reading>;

/// What reading one chunk text yields: its token count, counted when
/// the reading is made, and its extraction, absorbed at the chunk's
/// first kept use.
struct Reading {
    text: Arc<str>,
    tokens: usize,
    extraction: OnceLock<Extraction>,
}

impl TextValue for Reading {
    fn of_text(text: &Arc<str>) -> Reading {
        Reading {
            text: Arc::clone(text),
            tokens: count_tokens(text),
            extraction: OnceLock::new(),
        }
    }

    /// A reading counts its text only: its extraction is absorbed
    /// after the reading is held, so its size is not known then.
    fn held_bytes(&self) -> usize {
        0
    }
}

impl Reading {
    /// The chunk's extraction, and whether this call absorbed it.
    /// Concurrent first uses wait for one `absorb`.
    fn absorb_once(&self) -> (&Extraction, bool) {
        let mut absorbed = false;
        let ex = self.extraction.get_or_init(|| {
            absorbed = true;
            Extraction::from_text(&self.text, None)
        });
        (ex, absorbed)
    }

    /// The chunk's extraction, counted as an extract hit or miss.
    fn extraction(&self) -> &Extraction {
        let (ex, absorbed) = self.absorb_once();
        if absorbed {
            ops::extract_miss();
        } else {
            ops::extract_hit();
        }
        ex
    }
}

/// The answer-cache key: `(question, knowledge)` through `WordHasher`.
/// Slice and `str` hashing fold in lengths and terminators, so chunk
/// boundaries count.
fn answer_key(question: &str, knowledge: &[String]) -> u64 {
    let mut h = WordHasher::default();
    question.hash(&mut h);
    knowledge.hash(&mut h);
    h.finish()
}

/// The simulated language model.
pub struct Llm {
    config: LlmConfig,
    stats: Mutex<LlmStats>,
    rng: Mutex<ChaCha8Rng>,
    hook: Mutex<Option<InferenceHook>>,
    /// Memoized grounded answers of this model, keyed by the
    /// `WordHasher` hash of `(question, knowledge)`. Each entry keeps
    /// both inputs and a hit compares them in full, so a collision is a
    /// miss (whose insert replaces the entry), never another question's
    /// answer. Questions can come from outside the program (serve
    /// requests), so the map hashes its `u64` keys with the default
    /// hasher. Retrieval (which is recency-dependent) happens *outside*
    /// the model, so the question and the retrieved texts are
    /// everything an answer depends on.
    answers: Mutex<HashMap<u64, CachedAnswer>>,
}

impl Llm {
    pub fn new(config: LlmConfig) -> Self {
        Llm {
            stats: Mutex::new(LlmStats::default()),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(config.seed)),
            hook: Mutex::new(None),
            answers: Mutex::new(HashMap::new()),
            config,
        }
    }

    /// A GPT-4-shaped model with the given seed.
    pub fn gpt4(seed: u64) -> Self {
        Llm::new(LlmConfig {
            seed,
            ..LlmConfig::default()
        })
    }

    pub fn stats(&self) -> LlmStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Install the inference-latency hook (see [`InferenceHook`]).
    pub fn set_inference_hook(&self, hook: InferenceHook) {
        *self.hook.lock().expect("hook lock") = Some(hook);
    }

    fn charge(&self, prompt: usize, completion: usize) {
        {
            let mut s = self.stats.lock().expect("stats lock");
            s.calls += 1;
            s.prompt_tokens += prompt as u64;
            s.completion_tokens += completion as u64;
        }
        if let Some(hook) = self.hook.lock().expect("hook lock").clone() {
            hook(prompt, completion);
        }
    }

    /// Assemble the knowledge context that fits the window alongside
    /// the question, newest-first retention, from the process-wide
    /// readings. Returns the extraction and the prompt-token charge it
    /// incurred.
    fn grounded_extraction(&self, question: &str, knowledge: &[String]) -> (Extraction, usize) {
        let reserved = count_tokens(question) + 64;
        let readings = READINGS.read_all(knowledge);
        let (kept, _dropped, kept_tokens) =
            self.config.context.fit(&readings, reserved, |r| r.tokens);
        let mut ex = Extraction::default();
        for reading in kept {
            // Merging per-chunk extractions in kept order is
            // byte-identical to absorbing the chunks sequentially:
            // subject binding is local to each absorb call, fact dedup
            // preserves first-seen order, and principles are an ordered
            // set.
            ex.merge(reading.extraction());
        }
        let prompt_tokens = kept_tokens + reserved;
        self.charge(prompt_tokens, 0);
        (ex, prompt_tokens)
    }

    /// Answer a question grounded in the supplied knowledge snippets.
    ///
    /// Repeated calls with the same question and knowledge replay the
    /// memoized answer — and its exact token charges — instead of
    /// re-extracting and re-reasoning.
    pub fn answer(&self, question: &str, knowledge: &[String]) -> Answer {
        let key = answer_key(question, knowledge);
        let hit = self
            .answers
            .lock()
            .expect("answers lock")
            .get(&key)
            .filter(|hit| hit.question == question && hit.knowledge == knowledge)
            .map(|hit| (hit.answer.clone(), hit.prompt_tokens, hit.completion_tokens));
        if let Some((answer, prompt_tokens, completion_tokens)) = hit {
            ops::answer_hit();
            self.charge(prompt_tokens, 0);
            self.charge(0, completion_tokens);
            return answer;
        }
        ops::answer_miss();
        let intent = classify(question);
        let (ex, prompt_tokens) = self.grounded_extraction(question, knowledge);
        let ans = reason::answer(question, &intent, &ex);
        let completion_tokens = count_tokens(&ans.text);
        self.charge(0, completion_tokens);
        self.answers.lock().expect("answers lock").insert(
            key,
            CachedAnswer {
                question: question.to_string(),
                knowledge: knowledge.to_vec(),
                answer: ans.clone(),
                prompt_tokens,
                completion_tokens,
            },
        );
        ans
    }

    /// Drop memoized answers. The agent layer calls this whenever its
    /// knowledge store changes: retrieval may now surface different
    /// chunks for the same question, so cached answers keyed on the old
    /// retrieved texts must not be trusted blindly. (Readings are
    /// content-addressed and shared by every model; they stay valid.)
    ///
    /// Note the answer cache already matches the retrieved texts in
    /// full, so this is a belt-and-braces measure: it also bounds the
    /// map's growth across training epochs.
    pub fn invalidate_grounding(&self) {
        self.answers.lock().expect("answers lock").clear();
    }

    /// The paper's self-learning probe: "what will you search for to
    /// get more information on this question?". Returns up to `max`
    /// deduplicated queries.
    pub fn propose_searches(
        &self,
        question: &str,
        knowledge: &[String],
        max: usize,
    ) -> Vec<String> {
        let ans = self.answer(question, knowledge);
        let mut queries = Vec::new();
        for missing in &ans.missing {
            if queries.len() >= max {
                break;
            }
            let q = self.query_for(missing);
            if !queries.contains(&q) {
                queries.push(q);
            }
        }
        queries
    }

    /// Render one missing-knowledge item as a search query.
    pub fn query_for(&self, missing: &MissingKnowledge) -> String {
        let alt = self.config.temperature > 0.0 && self.rng.lock().expect("rng").gen::<f64>() < 0.5;
        match missing {
            MissingKnowledge::CableRoute(spec) => {
                if alt {
                    format!("submarine cable between {} and {} route", spec.a, spec.b)
                } else {
                    // Deliberately not "fiber optic …": the discriminating
                    // terms are the endpoints, and padding the query with
                    // generic vocabulary lets lexical luck outrank them.
                    format!(
                        "specific route of the submarine cable connecting {} to {}",
                        spec.a, spec.b
                    )
                }
            }
            MissingKnowledge::CableApex { cable } => {
                format!("{cable} submarine cable maximum geomagnetic latitude degrees")
            }
            MissingKnowledge::OperatorFootprint(op) => {
                if alt {
                    format!("{op} data center regions worldwide")
                } else {
                    format!("{op} global data center footprint major regions")
                }
            }
            MissingKnowledge::OperatorPresence(op) => {
                format!("{op} data centers locations Asia South America Europe")
            }
            MissingKnowledge::RegionLatitude(region) => {
                format!("power grid geomagnetic latitude {region}")
            }
            MissingKnowledge::Principle(p) => principle_query(*p).to_string(),
            MissingKnowledge::PlanningGuidance => {
                "solar storm response plan shutdown strategy network operators".to_string()
            }
            MissingKnowledge::IncidentInfo(incident) => {
                format!("{incident} internet outage cause impact")
            }
            MissingKnowledge::CableIncidentInfo { cable } => {
                crate::classterms::incident_query(reason::PHYSICAL_DAMAGE.label, cable)
            }
            MissingKnowledge::GridIncidentInfo { grid } => {
                crate::classterms::incident_query(reason::POWER_FAILURE.label, grid)
            }
            MissingKnowledge::RoutingIncidentInfo { service } => {
                crate::classterms::incident_query(reason::ROUTING.label, service)
            }
        }
    }

    /// Plan how to achieve a goal (the Auto-GPT planning phase).
    pub fn plan_goal(&self, goal: &str) -> ActionPlan {
        let plan = plangen::plan_goal(goal);
        self.charge(
            count_tokens(goal) + 32,
            plan.steps
                .iter()
                .map(|s| count_tokens(&s.description))
                .sum(),
        );
        plan
    }

    /// Chain-of-thought decomposition of a compound task.
    pub fn decompose(&self, task: &str) -> Vec<String> {
        let aspects = plangen::decompose(task);
        self.charge(
            count_tokens(task) + 16,
            aspects.iter().map(|a| count_tokens(a)).sum(),
        );
        aspects
    }

    /// Generate a storm response / shutdown strategy from knowledge.
    pub fn shutdown_strategy(&self, knowledge: &[String]) -> Answer {
        self.answer(
            "Plan a shutdown strategy for network operators facing an incoming CME.",
            knowledge,
        )
    }

    /// Generic chat completion: classify the last user message and
    /// answer it from the prompt's own context. This is the untyped
    /// interface Auto-GPT-style tools drive.
    pub fn complete(&self, prompt: &Prompt) -> String {
        let question = prompt.last_user().unwrap_or_default().to_string();
        let context = prompt.context_text();
        let intent = classify(&question);
        let mut ex = Extraction::default();
        ex.absorb(&context, None);
        let ans = reason::answer(&question, &intent, &ex);
        self.charge(prompt.token_count(), count_tokens(&ans.text));
        ans.text
    }
}

fn principle_query(p: Principle) -> &'static str {
    match p {
        Principle::LatitudeRisk => "geomagnetically induced currents higher latitudes effect",
        Principle::RepeaterWeakness => "submarine cable repeater vulnerable component fiber",
        Principle::DispersionResilience => "data center geographic dispersion resilience",
        Principle::LengthRisk => "long submarine cables repeaters failure risk",
        Principle::TerrestrialSafety => "terrestrial fiber links storm exposure",
        Principle::GridThreat => "geomagnetic storm power grid transformers",
        Principle::PartitionRisk => "internet continents partition cable failures",
        Principle::CableRepair => "submarine cable repair ship splice grapple",
        Principle::TransformerSaturation => {
            "extra-high-voltage transformer saturation GIC overheat"
        }
        Principle::BgpDnsWithdrawal => "bgp route withdrawal dns prefixes configuration error",
        Principle::PredictiveShutdown
        | Principle::RedundancyUtilization
        | Principle::PhasedShutdown
        | Principle::DataPreservation
        | Principle::GradualReboot => "solar storm response plan shutdown strategy operators",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;
    use std::sync::Barrier;

    const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                           that connects Brazil to Europe or the one that connects the US to \
                           Europe?";

    fn knowledge() -> Vec<String> {
        vec![
            "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes."
                .into(),
            "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, \
             linking South America and Europe. Along its route it reaches a maximum \
             geomagnetic latitude of 46.0 degrees."
                .into(),
            "The Grace Hopper submarine cable connects New York, United States to Bude, \
             United Kingdom, linking North America and Europe. Along its route it reaches a \
             maximum geomagnetic latitude of 63.0 degrees."
                .into(),
        ]
    }

    #[test]
    fn grounded_answer_through_the_facade() {
        let llm = Llm::gpt4(1);
        let ans = llm.answer(CABLE_Q, &knowledge());
        assert_eq!(ans.confidence, 9);
        assert!(ans.verdict.unwrap().contains("United States"));
    }

    #[test]
    fn confidence_probe_matches_answer() {
        let llm = Llm::gpt4(1);
        assert_eq!(llm.answer(CABLE_Q, &knowledge()).confidence, 9);
        assert_eq!(llm.answer(CABLE_Q, &[]).confidence, 2);
    }

    #[test]
    fn propose_searches_targets_missing_routes() {
        let llm = Llm::gpt4(1);
        let queries = llm.propose_searches(CABLE_Q, &[], 4);
        assert!(!queries.is_empty());
        assert!(
            queries
                .iter()
                .any(|q| q.contains("brazil") && q.contains("europe")),
            "queries: {queries:?}"
        );
        assert!(queries.iter().any(|q| q.contains("united states")));
    }

    #[test]
    fn scenario_questions_propose_class_searches() {
        let llm = Llm::gpt4(1);
        let cable = llm.propose_searches("What caused the Anjana submarine cable outage?", &[], 4);
        assert!(
            cable
                .iter()
                .any(|q| q.contains("anjana") && q.contains("landslide")),
            "cable queries: {cable:?}"
        );
        let grid = llm.propose_searches(
            "Which power grid is most exposed to geomagnetic storms?",
            &[],
            4,
        );
        assert!(
            grid.iter().any(|q| q.contains("gic") && q.contains("grid")),
            "grid queries: {grid:?}"
        );
        let routing = llm.propose_searches(
            "What took facebook.com offline in the routing incident?",
            &[],
            4,
        );
        assert!(
            routing
                .iter()
                .any(|q| q.contains("facebook.com") && q.contains("bgp")),
            "routing queries: {routing:?}"
        );
    }

    #[test]
    fn stats_accumulate_per_call() {
        let llm = Llm::gpt4(1);
        assert_eq!(llm.stats().calls, 0);
        llm.answer(CABLE_Q, &knowledge());
        let s = llm.stats();
        assert!(s.calls >= 1);
        assert!(s.prompt_tokens > 0);
        assert!(s.completion_tokens > 0);
    }

    #[test]
    fn oversized_knowledge_is_truncated_not_fatal() {
        let llm = Llm::new(LlmConfig {
            context: ContextWindow::new(256),
            ..LlmConfig::default()
        });
        let mut k = vec!["filler text that is irrelevant ".repeat(50); 20];
        k.extend(knowledge());
        // Newest-first retention keeps the real knowledge at the end.
        let ans = llm.answer(CABLE_Q, &k);
        assert_eq!(ans.confidence, 9);
    }

    #[test]
    fn complete_answers_from_prompt_context() {
        let llm = Llm::gpt4(1);
        let mut prompt = Prompt::new().with(Message::system(
            "You are Bob, an Internet researcher. Answer solely based on Bob's knowledge below.",
        ));
        for k in knowledge() {
            prompt.push(Message::system(k));
        }
        prompt.push(Message::user(CABLE_Q));
        let text = llm.complete(&prompt);
        assert!(text.contains("United States"), "got: {text}");
    }

    #[test]
    fn temperature_zero_is_deterministic() {
        let a = Llm::gpt4(7).propose_searches(CABLE_Q, &[], 4);
        let b = Llm::gpt4(7).propose_searches(CABLE_Q, &[], 4);
        assert_eq!(a, b);
    }

    #[test]
    fn plan_and_decompose_charge_tokens() {
        let llm = Llm::gpt4(1);
        let plan = llm.plan_goal("Understand solar superstorms and Coronal Mass Ejection");
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s.action, crate::plangen::StepAction::Search { .. })));
        let aspects = llm.decompose("optic fiber cables, power supply systems");
        assert_eq!(aspects.len(), 2);
        assert!(llm.stats().calls >= 2);
    }

    #[test]
    fn cache_distinguishes_questions_and_knowledge() {
        let llm = Llm::gpt4(1);
        let grounded = llm.answer(CABLE_Q, &knowledge());
        let ungrounded = llm.answer(CABLE_Q, &[]);
        assert_ne!(grounded.confidence, ungrounded.confidence);
        // Same inputs again must reproduce the first results exactly.
        assert_eq!(llm.answer(CABLE_Q, &knowledge()).text, grounded.text);
        assert_eq!(llm.answer(CABLE_Q, &[]).text, ungrounded.text);
    }

    #[test]
    fn answer_cache_collision_is_a_miss_not_a_wrong_answer() {
        let llm = Llm::gpt4(1);
        let grounded = llm.answer(CABLE_Q, &knowledge());
        // Plant the grounded answer under the key of the ungrounded
        // call, as a hash collision between the two would.
        {
            let mut answers = llm.answers.lock().unwrap();
            let planted = CachedAnswer {
                question: CABLE_Q.to_string(),
                knowledge: knowledge(),
                answer: grounded.clone(),
                prompt_tokens: 1,
                completion_tokens: 1,
            };
            answers.insert(answer_key(CABLE_Q, &[]), planted);
        }
        let before = llm.stats();
        let ungrounded = llm.answer(CABLE_Q, &[]);
        let fresh = Llm::gpt4(1);
        assert_eq!(ungrounded.text, fresh.answer(CABLE_Q, &[]).text);
        assert_ne!(ungrounded.text, grounded.text);
        // The charges are the recomputation's, not the planted ones.
        let after = llm.stats();
        assert_eq!(
            after.prompt_tokens - before.prompt_tokens,
            fresh.stats().prompt_tokens
        );
    }

    #[test]
    fn invalidate_grounding_recomputes_to_the_same_answer() {
        let llm = Llm::gpt4(1);
        let before = llm.answer(CABLE_Q, &knowledge());
        llm.invalidate_grounding();
        let after = llm.answer(CABLE_Q, &knowledge());
        assert_eq!(before.text, after.text);
        assert_eq!(before.confidence, after.confidence);
        // Inputs were unchanged, so even the recomputation charges the
        // same tokens: 3 answers x 2 charges.
        let third = llm.answer(CABLE_Q, &knowledge());
        assert_eq!(third.text, before.text);
        assert_eq!(llm.stats().calls, 6);
    }

    #[test]
    fn inference_hook_fires_identically_on_cache_hits() {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let llm = Llm::gpt4(1);
        let sink = Arc::clone(&fired);
        llm.set_inference_hook(Arc::new(move |p, c| {
            sink.lock().unwrap().push((p, c));
        }));
        llm.answer(CABLE_Q, &knowledge());
        llm.answer(CABLE_Q, &knowledge());
        let events = fired.lock().unwrap().clone();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], events[2], "prompt charge must replay");
        assert_eq!(events[1], events[3], "completion charge must replay");
    }

    #[test]
    fn shutdown_strategy_uses_planning_knowledge() {
        let llm = Llm::gpt4(1);
        let k = vec![
            "Upon warning of a coronal mass ejection, operators should preemptively shut \
             down the most vulnerable systems."
                .into(),
            "Traffic and operations should be redirected to redundant systems located in \
             safer, lower-latitude zones."
                .into(),
        ];
        let ans = llm.shutdown_strategy(&k);
        assert!(ans.text.contains("Predictive Shutdown"));
        assert!(ans.text.contains("Redundancy Utilization"));
    }

    fn held(cache: &ReadingCache) -> usize {
        let sum: usize = cache.entries().iter().map(|(k, _)| k.len()).sum();
        assert_eq!(sum, cache.held(), "held must be the sum of the held texts");
        sum
    }

    #[test]
    fn reading_cache_stays_within_budget_and_rereads_equal() {
        let texts = knowledge();
        let budget = texts[1].len() + texts[2].len();
        let cache = ReadingCache::new(budget);
        let first: Vec<_> = texts.iter().map(|t| cache.read(t)).collect();
        for reading in &first {
            reading.extraction();
        }
        assert!(held(&cache) <= budget);
        // Reading every text again cycles the map past its budget; each
        // re-read equals the first reading of its text.
        for _ in 0..3 {
            for (text, before) in texts.iter().zip(&first) {
                let again = cache.read(text);
                assert!(held(&cache) <= budget);
                assert_eq!(&*again.text, text.as_str());
                assert_eq!(again.tokens, count_tokens(text));
                assert_eq!(again.tokens, before.tokens);
                assert_eq!(again.extraction(), before.extraction());
                assert_eq!(
                    again.extraction(),
                    &Extraction::from_text(text, None),
                    "a reading's extraction is the text's own"
                );
            }
        }
        // A text larger than the whole budget is read but never held.
        let huge = "word ".repeat(budget);
        let reading = cache.read(&huge);
        assert_eq!(reading.tokens, count_tokens(&huge));
        assert!(held(&cache) <= budget);
        assert!(!cache.contains(&huge));
    }

    #[test]
    fn concurrent_first_reads_absorb_once() {
        const THREADS: usize = 8;
        let cache = ReadingCache::new(1 << 20);
        let text = knowledge().swap_remove(1);
        let start = Barrier::new(THREADS);
        let absorbed: Vec<bool> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let reading = cache.read(&text);
                        let (ex, absorbed) = reading.absorb_once();
                        assert_eq!(ex, &Extraction::from_text(&text, None));
                        absorbed
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(absorbed.iter().filter(|&&a| a).count(), 1, "{absorbed:?}");
        assert_eq!(cache.entries().len(), 1);
    }
}
