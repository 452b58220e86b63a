//! The executor: drives goals and single queries through the command
//! loop against the web services, memorising what it reads.
//!
//! Flow for a goal (mirroring the paper's §3.2 snippets):
//!
//! 1. Ask the model for an action plan (`PLAN:` with search steps).
//! 2. For each search step, issue `google`; if a step returns too few
//!    results, invoke chain-of-thought decomposition and retry with the
//!    sub-queries.
//! 3. `browse_website` the top results; `memorize` each fetched page
//!    into the knowledge store with importance decaying down the
//!    ranking.
//!
//! The loop speaks only the `ira-services` traits: any
//! [`WebServices`] (search + fetch + clock), any [`LanguageModel`],
//! any [`Memory`]. The canonical bindings are the simulation substrate
//! (`ira_simnet::Client` over the `ira-webcorpus` sites,
//! `ira_simllm::Llm`, `ira_agentmem::KnowledgeStore`), but nothing
//! here depends on those concrete types.
//!
//! Every command respects the [`Budget`]. Each step is a trace point
//! (`cycle.start`, `search.issued`, `fetch.page`, `memory.memorize`,
//! `memory.duplicate_dropped`, `breaker.rerouted`, `cycle.error`,
//! `cycle.goal_complete`) emitted through the loop's [`ObsHandle`];
//! with tracing off nothing is built.

use crate::budget::Budget;
use ira_obs::{stage, ObsHandle, TraceEvent};
use ira_services::{LanguageModel, Memory, SearchHit, ServiceError, StepAction, WebServices};
use serde::{Deserialize, Serialize};

/// Results requested per search.
const RESULTS_PER_SEARCH: usize = 8;
/// Of those, how many to fetch and memorise.
const FETCHES_PER_SEARCH: usize = 3;
/// At or below this many results, decompose the query (CoT) and retry.
const COT_THRESHOLD: usize = 1;

/// Summary of one goal run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GoalReport {
    pub goal: String,
    pub cycles: u32,
    pub searches: u32,
    pub fetches: u32,
    pub memorized: u32,
    pub duplicates: u32,
    pub errors: u32,
    /// Ranked sources skipped (or abandoned) because their host was
    /// unavailable (circuit breaker open); the agent rerouted to later
    /// results.
    #[serde(default)]
    pub source_unavailable: u32,
    /// Virtual time consumed, microseconds.
    pub elapsed_us: u64,
}

/// The autonomous agent loop, generic over its service backends.
pub struct AutoGpt<'a> {
    web: &'a dyn WebServices,
    llm: &'a dyn LanguageModel,
    memory: &'a dyn Memory,
    /// Crawler extension (§5 "Limitations of Auto-GPT"): follow up to
    /// this many "Related:" links per fetched page, one level deep.
    /// 0 disables crawling (the paper's baseline behaviour).
    crawl_links: usize,
    budget: Budget,
    obs: ObsHandle,
}

impl<'a> AutoGpt<'a> {
    pub fn new(
        web: &'a dyn WebServices,
        llm: &'a dyn LanguageModel,
        memory: &'a dyn Memory,
        crawl_links: usize,
        budget: Budget,
    ) -> Self {
        AutoGpt {
            web,
            llm,
            memory,
            crawl_links,
            budget,
            obs: ObsHandle::disabled(),
        }
    }

    /// Emit the loop's points through a shared [`ObsHandle`], joining
    /// the session's causal tree (points nest under the caller's open
    /// scopes).
    pub fn attach_observer_handle(&mut self, handle: ObsHandle) {
        self.obs = handle;
    }

    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    fn now_us(&self) -> u64 {
        self.web.now_us()
    }

    /// Emit one loop point at the current virtual time. `detail` only
    /// runs when tracing is on.
    fn point(&self, stage: &'static str, name: &'static str, detail: impl FnOnce() -> String) {
        self.obs
            .emit(|| TraceEvent::point(self.obs.session(), self.now_us(), stage, name, detail()));
    }

    /// Pursue a goal end to end. Budget exhaustion ends the run early
    /// but is not an error: the report says how far it got.
    pub fn run_goal(&mut self, goal: &str) -> GoalReport {
        let started = self.now_us();
        let mut report = GoalReport {
            goal: goal.to_string(),
            ..GoalReport::default()
        };

        let plan = self.llm.plan_goal(goal);
        for step in &plan.steps {
            let StepAction::Search { query } = &step.action else {
                continue; // analysis/memorize steps are folded into search handling
            };
            if self.budget.take_cycle().is_err() {
                break;
            }
            report.cycles += 1;
            self.point(stage::CYCLE, "start", || step.description.clone());
            self.search_and_absorb(goal, query, &mut report);
        }

        self.point(stage::CYCLE, "goal_complete", || goal.to_string());
        report.elapsed_us = self.now_us().saturating_sub(started);
        report
    }

    /// Pursue a single query (the self-learning path: one proposed
    /// search, absorb the results).
    pub fn pursue_query(&mut self, topic: &str, query: &str) -> GoalReport {
        let started = self.now_us();
        let mut report = GoalReport {
            goal: topic.to_string(),
            ..GoalReport::default()
        };
        if self.budget.take_cycle().is_ok() {
            report.cycles += 1;
            self.search_and_absorb(topic, query, &mut report);
        }
        report.elapsed_us = self.now_us().saturating_sub(started);
        report
    }

    /// Execute one search; on thin results, decompose and retry the
    /// sub-queries; fetch and memorise the top hits.
    fn search_and_absorb(&mut self, topic: &str, query: &str, report: &mut GoalReport) {
        let results = self.google(query, report);
        let results = if results.len() <= COT_THRESHOLD {
            // Chain-of-thought: break the step into subplans.
            let mut all = results;
            for sub in self.llm.decompose(query) {
                if sub == query {
                    continue;
                }
                all.extend(self.google(&sub, report));
            }
            all
        } else {
            results
        };

        let mut fetched = 0usize;
        for (rank, hit) in results.iter().enumerate() {
            if fetched >= FETCHES_PER_SEARCH {
                break;
            }
            // Never spend a fetch slot re-reading a memorised page: a
            // repeated query pages deeper into the ranking instead.
            if self.memory.has_url(&hit.url) {
                continue;
            }
            // Degrade around dead hosts: if this result's source is
            // unavailable (its breaker is open), reroute to the
            // next-ranked result without spending any fetch budget.
            if !self.web.source_available(&hit.url) {
                self.reroute(&hit.url, report);
                continue;
            }
            if self.budget.take_fetch().is_err() {
                return;
            }
            match self.web.fetch(&hit.url) {
                Ok(page) => {
                    fetched += 1;
                    report.fetches += 1;
                    self.point(stage::FETCH, "page", || hit.url.clone());
                    let importance = 1.0 / (1.0 + rank as f64);
                    self.absorb_page(topic, &hit.url, &page, importance, report);
                    // Crawler extension: follow related links one level.
                    for link in related_links(&page).into_iter().take(self.crawl_links) {
                        if self.memory.has_url(&link) {
                            continue;
                        }
                        if !self.web.source_available(&link) {
                            self.reroute(&link, report);
                            continue;
                        }
                        if self.budget.take_fetch().is_err() {
                            return;
                        }
                        match self.web.fetch(&link) {
                            Ok(linked_page) => {
                                report.fetches += 1;
                                self.point(stage::FETCH, "page", || link.clone());
                                self.absorb_page(
                                    topic,
                                    &link,
                                    &linked_page,
                                    importance * 0.5,
                                    report,
                                );
                            }
                            Err(err) => self.record_fetch_failure(&link, err, report),
                        }
                    }
                }
                Err(err) => self.record_fetch_failure(&hit.url, err, report),
            }
        }
    }

    /// Skip a source whose host is unavailable.
    fn reroute(&self, url: &str, report: &mut GoalReport) {
        report.source_unavailable += 1;
        self.point(stage::BREAKER, "rerouted", || url.to_string());
    }

    /// Count and trace a hard error.
    fn error(&self, err: ServiceError, report: &mut GoalReport) {
        report.errors += 1;
        self.point(stage::CYCLE, "error", || err.to_string());
    }

    /// Classify a fetch failure: an unavailable source means the agent
    /// reroutes, anything else is a hard error.
    fn record_fetch_failure(&self, url: &str, err: ServiceError, report: &mut GoalReport) {
        if err.is_source_unavailable() {
            self.reroute(url, report);
        } else {
            self.error(err, report);
        }
    }

    /// Issue one `google` command.
    fn google(&mut self, query: &str, report: &mut GoalReport) -> Vec<SearchHit> {
        if self.budget.take_search().is_err() {
            return Vec::new();
        }
        report.searches += 1;
        match self.web.search(query, RESULTS_PER_SEARCH) {
            Ok(hits) => {
                self.point(stage::SEARCH, "issued", || {
                    format!("{query} -> {} results", hits.len())
                });
                hits
            }
            Err(err) => {
                self.error(err, report);
                Vec::new()
            }
        }
    }

    /// Memorise one fetched page and trace the outcome.
    fn absorb_page(
        &self,
        topic: &str,
        url: &str,
        page: &str,
        importance: f64,
        report: &mut GoalReport,
    ) {
        let kind = source_kind_of(url);
        let stored = self
            .memory
            .memorize(topic, page, url, kind, self.now_us(), importance);
        let name = if stored {
            report.memorized += 1;
            "memorize"
        } else {
            report.duplicates += 1;
            "duplicate_dropped"
        };
        self.point(stage::MEMORY, name, || url.to_string());
    }
}

/// Extract the "Related: <url>" trailer links from a fetched page.
fn related_links(page: &str) -> Vec<String> {
    page.lines()
        .filter_map(|l| l.strip_prefix("Related: "))
        .map(|l| l.trim().to_string())
        .filter(|l| l.starts_with("sim://"))
        .collect()
}

/// The host part of a `sim://` URL, without pulling in a URL parser.
fn host_of(url: &str) -> Option<&str> {
    let rest = url.strip_prefix("sim://")?;
    let host = rest.split(['/', '?']).next().unwrap_or(rest);
    if host.is_empty() {
        None
    } else {
        Some(host)
    }
}

/// Infer the source category from a result URL's host.
fn source_kind_of(url: &str) -> &'static str {
    match host_of(url) {
        Some("encyclopedia.test") => "encyclopedia",
        Some("news.test") => "news",
        Some("blog.test") => "blog",
        Some("forum.test") => "forum",
        Some("micro.test") => "micropost",
        Some("papers.test") => "paper",
        _ => "web",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ira_agentmem::KnowledgeStore;
    use ira_obs::JsonlCollector;
    use ira_simllm::Llm;
    use ira_simnet::{Client, Network, NetworkConfig};
    use ira_webcorpus::{register_sites, Corpus, CorpusConfig};
    use ira_worldmodel::World;
    use std::sync::Arc;

    const SOLAR_GOAL: &str = "Understand solar superstorms and Coronal Mass Ejection, and \
                              principles of their formation and effects.";

    fn setup() -> (Client, Llm, KnowledgeStore) {
        let corpus = Arc::new(Corpus::generate(
            &World::standard(),
            CorpusConfig::default(),
        ));
        let mut net = Network::new(NetworkConfig::default(), 42);
        register_sites(&mut net, corpus);
        (
            Client::new(Arc::new(net)),
            Llm::gpt4(7),
            KnowledgeStore::with_defaults(),
        )
    }

    /// Route the loop's points into a fresh JSONL collector.
    fn trace(agent: &mut AutoGpt) -> Arc<JsonlCollector> {
        let sink = Arc::new(JsonlCollector::new());
        agent.attach_observer_handle(ObsHandle::new(sink.clone(), 0));
        sink
    }

    /// How many points named `key` (`stage.name`) the trace holds.
    fn count(sink: &JsonlCollector, key: &str) -> u32 {
        sink.events()
            .iter()
            .filter(|e| e.metric_key() == key)
            .count() as u32
    }

    #[test]
    fn goal_run_learns_something() {
        let (client, llm, memory) = setup();
        let mut agent = AutoGpt::new(&client, &llm, &memory, 0, Budget::standard());
        let sink = trace(&mut agent);
        let report = agent.run_goal(SOLAR_GOAL);
        assert!(report.searches >= 1, "report: {report:?}");
        assert!(report.memorized >= 1, "report: {report:?}");
        assert!(!memory.is_empty());
        assert!(report.elapsed_us > 0, "virtual time must pass");
        // The trace shows the Auto-GPT cycle from search to completion.
        assert!(count(&sink, "search.issued") >= 1);
        assert_eq!(count(&sink, "cycle.goal_complete"), 1);
    }

    #[test]
    fn pursue_query_absorbs_cable_knowledge() {
        let (client, llm, memory) = setup();
        let mut agent = AutoGpt::new(&client, &llm, &memory, 0, Budget::standard());
        let report = agent.pursue_query(
            "cable routes",
            "specific route of the fiber optic submarine cable connecting brazil to europe",
        );
        assert!(report.memorized >= 1);
        let texts = memory.retrieve_texts("brazil europe cable", 3, u64::MAX);
        assert!(
            texts
                .iter()
                .any(|t| t.contains("EllaLink") || t.contains("Atlantis")),
            "memory should hold the Brazil–Europe cable page"
        );
    }

    #[test]
    fn budget_zero_searches_learns_nothing() {
        let (client, llm, memory) = setup();
        let mut agent = AutoGpt::new(&client, &llm, &memory, 0, Budget::new(0, 10, 10));
        let report = agent.pursue_query("anything", "solar storms");
        assert_eq!(report.memorized, 0);
        assert!(memory.is_empty());
    }

    #[test]
    fn repeated_queries_page_deeper_instead_of_refetching() {
        let (client, llm, memory) = setup();
        let mut agent = AutoGpt::new(&client, &llm, &memory, 0, Budget::standard());
        let first = agent.pursue_query("t", "coronal mass ejection solar superstorm");
        let before: Vec<String> = memory
            .entries()
            .iter()
            .map(|e| e.source_url.clone())
            .collect();
        let second = agent.pursue_query("t", "coronal mass ejection solar superstorm");
        assert!(first.memorized >= 1);
        // The second pass must not spend fetches on pages already in
        // memory: every new fetch lands on a previously unseen URL.
        let after = memory.entries();
        let new_urls: Vec<&str> = after
            .iter()
            .map(|e| e.source_url.as_str())
            .filter(|u| !before.iter().any(|b| b == u))
            .collect();
        assert_eq!(
            new_urls.len(),
            second.fetches as usize,
            "second pass fetched known URLs: {second:?}"
        );
    }

    #[test]
    fn event_log_records_the_run() {
        let (client, llm, memory) = setup();
        let mut agent = AutoGpt::new(&client, &llm, &memory, 0, Budget::standard());
        let sink = trace(&mut agent);
        agent.pursue_query("t", "submarine cable repeater vulnerable component fiber");
        assert!(count(&sink, "search.issued") >= 1);
        assert!(count(&sink, "fetch.page") >= 1);
        assert!(count(&sink, "memory.memorize") >= 1);
        // A single query is not a goal: no goal completion point.
        assert_eq!(count(&sink, "cycle.goal_complete"), 0);
    }

    #[test]
    fn tracing_observes_the_run_without_changing_it() {
        // A page the goal memorises, so that a copy of it under another
        // URL makes the run fetch a page dedup drops.
        let page = {
            let (client, llm, memory) = setup();
            AutoGpt::new(&client, &llm, &memory, 1, Budget::standard()).run_goal(SOLAR_GOAL);
            memory.entries().swap_remove(0)
        };
        let run = |obs: ObsHandle| {
            let (client, llm, memory) = setup();
            let mirror = "sim://mirror.test/copy";
            memory.memorize(
                &page.topic,
                &page.content,
                mirror,
                "web",
                0,
                page.importance,
            );
            let mut agent = AutoGpt::new(&client, &llm, &memory, 1, Budget::standard());
            agent.attach_observer_handle(obs);
            (agent.run_goal(SOLAR_GOAL), memory.entries())
        };

        let untraced_obs = ObsHandle::disabled();
        let (untraced, untraced_store) = run(untraced_obs.clone());
        let sink = Arc::new(JsonlCollector::new());
        let (traced, traced_store) = run(ObsHandle::new(sink.clone(), 0));

        assert_eq!(traced, untraced);
        assert_eq!(traced_store, untraced_store);
        // Every emit through an enabled sink takes a span id first.
        assert_eq!(
            untraced_obs.context().alloc_id(),
            1,
            "the untraced run emitted points"
        );

        assert_eq!(count(&sink, "cycle.start"), traced.cycles);
        assert_eq!(count(&sink, "fetch.page"), traced.fetches);
        assert_eq!(count(&sink, "memory.memorize"), traced.memorized);
        assert_eq!(count(&sink, "memory.duplicate_dropped"), traced.duplicates);
        assert_eq!(count(&sink, "cycle.goal_complete"), 1);
        assert!(traced.duplicates >= 1, "{traced:?}");
        let events = sink.events();
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn related_links_parse_from_page_trailers() {
        let page =
            "Title\n\nBody text.\nRelated: sim://a.test/x\nRelated: sim://b.test/y\nnot a link";
        assert_eq!(
            related_links(page),
            vec!["sim://a.test/x".to_string(), "sim://b.test/y".to_string()]
        );
        assert!(related_links("no links here").is_empty());
    }

    #[test]
    fn crawler_broadens_what_one_search_learns() {
        let (client, llm, memory) = setup();
        let mut no_crawl = AutoGpt::new(&client, &llm, &memory, 0, Budget::standard());
        let base = no_crawl.pursue_query("t", "coronal mass ejection solar superstorm");

        let (client2, llm2, memory2) = setup();
        let mut crawl = AutoGpt::new(&client2, &llm2, &memory2, 2, Budget::standard());
        let crawled = crawl.pursue_query("t", "coronal mass ejection solar superstorm");
        assert!(
            crawled.fetches > base.fetches,
            "crawling must fetch more: {} vs {}",
            crawled.fetches,
            base.fetches
        );
        assert!(crawled.memorized >= base.memorized);
    }

    #[test]
    fn circuit_open_sources_are_rerouted_not_fatal() {
        use ira_simnet::{ClientConfig, Duration, FaultKind, FaultPlan, Instant};

        let corpus = Arc::new(Corpus::generate(
            &World::standard(),
            CorpusConfig::default(),
        ));
        let mut net = Network::new(NetworkConfig::default(), 42);
        register_sites(&mut net, corpus);
        let client = Client::with_config(Arc::new(net), ClientConfig::resilient());

        // Black out every content host for the whole run; only the
        // search engine stays reachable.
        let forever = Instant::EPOCH + Duration::from_secs(86_400);
        let mut plan = FaultPlan::new();
        for host in [
            "archive.test",
            "encyclopedia.test",
            "news.test",
            "blog.test",
            "forum.test",
            "micro.test",
            "papers.test",
        ] {
            plan = plan.with_window(host, Instant::EPOCH, forever, FaultKind::Blackout);
        }
        client.network().set_fault_plan(plan);

        let llm = Llm::gpt4(7);
        let memory = KnowledgeStore::with_defaults();
        let mut agent = AutoGpt::new(&client, &llm, &memory, 0, Budget::standard());
        let sink = trace(&mut agent);
        let report = agent.run_goal(SOLAR_GOAL);
        // The run must finish, not abort: dead hosts trip their
        // breakers, later hits on them are rerouted.
        assert!(
            report.errors >= 1,
            "the tripping fetches surface as errors: {report:?}"
        );
        assert!(
            report.source_unavailable >= 1,
            "later hits on dead hosts must be skipped at the breaker: {report:?}"
        );
        assert_eq!(
            count(&sink, "breaker.rerouted"),
            report.source_unavailable,
            "every reroute must be traced"
        );
        assert_eq!(count(&sink, "cycle.error"), report.errors);
        assert!(
            client.breaker_totals().opened >= 1,
            "at least one host breaker must have opened"
        );
    }

    #[test]
    fn corrupt_search_page_is_a_counted_error_not_fatal() {
        use ira_simnet::{Duration, FaultKind, FaultPlan, Instant};

        for truncate in [true, false] {
            let (client, llm, memory) = setup();
            // Damage only the opening search: the window closes before
            // its round trip ends.
            client
                .network()
                .set_fault_plan(FaultPlan::new().with_window(
                    "search.test",
                    Instant::EPOCH,
                    Instant::EPOCH + Duration::from_micros(1),
                    FaultKind::CorruptBody { truncate },
                ));
            let mut agent = AutoGpt::new(&client, &llm, &memory, 0, Budget::standard());
            let sink = trace(&mut agent);
            let report = agent.run_goal(SOLAR_GOAL);
            assert_eq!(client.network().fault_stats().corrupted_bodies, 1);
            assert!(report.errors >= 1, "truncate = {truncate}: {report:?}");
            assert_eq!(
                count(&sink, "cycle.error"),
                report.errors,
                "every error is traced"
            );
            assert_eq!(count(&sink, "breaker.rerouted"), report.source_unavailable);
            // The run goes on past the failed search and still learns.
            assert!(report.searches > 1 && report.memorized >= 1, "{report:?}");
        }
    }

    #[test]
    fn source_kind_inference() {
        assert_eq!(
            source_kind_of("sim://encyclopedia.test/wiki/x"),
            "encyclopedia"
        );
        assert_eq!(source_kind_of("sim://forum.test/thread/9"), "forum");
        assert_eq!(source_kind_of("not a url"), "web");
        assert_eq!(source_kind_of("sim://news.test?id=1"), "news");
    }
}
