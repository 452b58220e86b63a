//! Canonical implementations: the service traits bound to the
//! simulation substrate. One [`Llm`] is a [`LanguageModel`]; one
//! [`Client`] (over a network serving the `ira-webcorpus` sites) is a
//! [`SearchProvider`] + [`Fetcher`] + [`TimeSource`] — i.e. a full
//! [`WebServices`](crate::WebServices) — and one [`KnowledgeStore`] is
//! a [`Memory`].

use crate::error::ServiceError;
use crate::traits::{
    Fetcher, InferenceHook, LanguageModel, Memory, SearchHit, SearchProvider, TimeSource,
};
use ira_agentmem::KnowledgeStore;
use ira_simllm::{ActionPlan, Answer, Llm, LlmStats};
use ira_simnet::{Client, Duration, NetError, Url};
use ira_webcorpus::sites::{SearchResultPage, SEARCH_HOST};

impl LanguageModel for Llm {
    fn answer(&self, question: &str, knowledge: &[String]) -> Answer {
        Llm::answer(self, question, knowledge)
    }

    fn propose_searches(&self, question: &str, knowledge: &[String], max: usize) -> Vec<String> {
        Llm::propose_searches(self, question, knowledge, max)
    }

    fn plan_goal(&self, goal: &str) -> ActionPlan {
        Llm::plan_goal(self, goal)
    }

    fn decompose(&self, task: &str) -> Vec<String> {
        Llm::decompose(self, task)
    }

    fn shutdown_strategy(&self, knowledge: &[String]) -> Answer {
        Llm::shutdown_strategy(self, knowledge)
    }

    fn stats(&self) -> LlmStats {
        Llm::stats(self)
    }

    fn set_inference_hook(&self, hook: InferenceHook) {
        Llm::set_inference_hook(self, hook)
    }

    fn invalidate_grounding(&self) {
        Llm::invalidate_grounding(self)
    }
}

/// Classify a network failure at the service boundary: a fast-failed
/// circuit-open call means the *source* is unavailable (the agent
/// reroutes); everything else is transport, carrying the network
/// stack's own message.
fn map_net_err(err: NetError) -> ServiceError {
    match err {
        NetError::CircuitOpen { host, .. } => ServiceError::SourceUnavailable { host },
        other => ServiceError::Transport(other.to_string()),
    }
}

impl SearchProvider for Client {
    fn search(&self, query: &str, k: usize) -> Result<Vec<SearchHit>, ServiceError> {
        let url = Url::build(
            SEARCH_HOST,
            "/q",
            &[("query", query), ("k", &k.to_string())],
        );
        let body = self.get_text(&url.to_string()).map_err(map_net_err)?;
        let page: SearchResultPage =
            serde_json::from_str(&body).map_err(|e| ServiceError::Transport(e.to_string()))?;
        Ok(page
            .results
            .into_iter()
            .map(|r| SearchHit {
                url: r.url,
                title: r.title,
            })
            .collect())
    }
}

impl Fetcher for Client {
    fn fetch(&self, url: &str) -> Result<String, ServiceError> {
        self.get_text(url).map_err(map_net_err)
    }

    fn source_available(&self, url: &str) -> bool {
        match Url::parse(url) {
            Ok(parsed) => !self.breaker_would_fail_fast(parsed.host()),
            Err(_) => true,
        }
    }
}

impl TimeSource for Client {
    fn now_us(&self) -> u64 {
        self.network().clock().now().as_micros()
    }

    fn advance_us(&self, us: u64) {
        self.network().clock().advance(Duration::from_micros(us));
    }
}

impl Memory for KnowledgeStore {
    fn memorize(
        &self,
        topic: &str,
        content: &str,
        source_url: &str,
        source_kind: &str,
        learned_at: u64,
        importance: f64,
    ) -> bool {
        KnowledgeStore::memorize(
            self,
            topic,
            content,
            source_url,
            source_kind,
            learned_at,
            importance,
        )
        .is_some()
    }

    fn has_url(&self, url: &str) -> bool {
        KnowledgeStore::has_url(self, url)
    }

    fn retrieve_texts(&self, query: &str, k: usize, now: u64) -> Vec<String> {
        KnowledgeStore::retrieve_texts(self, query, k, now)
    }

    fn len(&self) -> usize {
        KnowledgeStore::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::WebServices;
    use ira_simnet::{Network, NetworkConfig};
    use ira_webcorpus::{register_sites, Corpus, CorpusConfig};
    use ira_worldmodel::World;
    use std::sync::Arc;

    fn client() -> Client {
        let corpus = Arc::new(Corpus::generate(
            &World::standard(),
            CorpusConfig::default(),
        ));
        let mut net = Network::new(NetworkConfig::default(), 42);
        register_sites(&mut net, corpus);
        Client::new(Arc::new(net))
    }

    #[test]
    fn client_searches_through_the_trait() {
        let c = client();
        let web: &dyn WebServices = &c;
        let hits = web
            .search("solar superstorm coronal mass ejection", 5)
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.len() <= 5);
        assert!(hits[0].url.starts_with("sim://"));
    }

    #[test]
    fn client_fetches_and_advances_time() {
        let c = client();
        let web: &dyn WebServices = &c;
        let hits = web.search("submarine cable", 3).unwrap();
        let before = web.now_us();
        let body = web.fetch(&hits[0].url).unwrap();
        assert!(!body.is_empty());
        assert!(web.now_us() > before, "network latency must be charged");
        web.advance_us(1_000);
        assert!(web.now_us() >= before + 1_000);
    }

    #[test]
    fn search_hits_match_the_direct_page() {
        // The trait path must be a lossless view of the search host's
        // JSON page: same URLs in the same order.
        let c = client();
        let query = "power grid geomagnetic latitude";
        let url = Url::build(SEARCH_HOST, "/q", &[("query", query), ("k", "8")]);
        let page: SearchResultPage =
            serde_json::from_str(&c.get_text(&url.to_string()).unwrap()).unwrap();
        let hits = SearchProvider::search(&c, query, 8).unwrap();
        let direct: Vec<&str> = page.results.iter().map(|r| r.url.as_str()).collect();
        let via_trait: Vec<&str> = hits.iter().map(|h| h.url.as_str()).collect();
        assert_eq!(direct, via_trait);
    }

    #[test]
    fn llm_is_a_language_model() {
        let llm = Llm::gpt4(7);
        let model: &dyn LanguageModel = &llm;
        let plan = model.plan_goal("Understand solar superstorms and Coronal Mass Ejection");
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s.action, crate::StepAction::Search { .. })));
        assert!(model.stats().calls >= 1);
    }

    #[test]
    fn knowledge_store_is_a_memory() {
        let store = KnowledgeStore::with_defaults();
        let mem: &dyn Memory = &store;
        assert!(mem.is_empty());
        assert!(mem.memorize(
            "t",
            "some fact about cables",
            "sim://a.test/1",
            "web",
            0,
            0.5
        ));
        assert!(!mem.memorize(
            "t",
            "some fact about cables",
            "sim://a.test/1",
            "web",
            1,
            0.5
        ));
        assert!(mem.has_url("sim://a.test/1"));
        assert_eq!(mem.len(), 1);
        assert!(!mem.retrieve_texts("cables", 3, 10).is_empty());
    }

    #[test]
    fn corrupt_search_pages_are_transport_errors() {
        use ira_simnet::{FaultKind, FaultPlan, Instant};

        // A cut or garbled page fails as transport (never as an
        // unavailable source) whatever its length, including an empty
        // result list. The message text is not checked: whether a cut
        // page fails as bad UTF-8 or as bad JSON depends on its layout.
        let searches = [
            ("xylophone quixotic", 8),
            ("submarine cable", 1),
            ("solar superstorm coronal mass ejection", 5),
            ("power grid geomagnetic latitude", 25),
        ];
        for truncate in [true, false] {
            // The search host damages every page it serves.
            let c = client();
            c.network().set_fault_plan(FaultPlan::new().with_window(
                SEARCH_HOST,
                Instant::EPOCH,
                Instant::EPOCH + Duration::from_secs(86_400),
                FaultKind::CorruptBody { truncate },
            ));
            for (query, k) in searches {
                let err = SearchProvider::search(&c, query, k).unwrap_err();
                assert!(
                    matches!(err, ServiceError::Transport(_)),
                    "truncate = {truncate}, {query:?}: {err:?}"
                );
            }
            let damaged = c.network().fault_stats().corrupted_bodies;
            assert_eq!(damaged, searches.len() as u64);
        }
    }

    #[test]
    fn unknown_host_is_transport_not_unavailable() {
        let c = client();
        let err = Fetcher::fetch(&c, "sim://nosuch.test/x").unwrap_err();
        assert!(!err.is_source_unavailable(), "got: {err:?}");
    }
}
