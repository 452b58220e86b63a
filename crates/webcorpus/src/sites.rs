//! Virtual hosts serving the corpus over `ira-simnet`.
//!
//! * `search.test` — the search engine front-end. `GET
//!   sim://search.test/q?query=...&k=10` returns a JSON
//!   [`SearchResultPage`]. Search is rate-limited like a real engine.
//! * one content host per [`SourceKind`] (`encyclopedia.test`,
//!   `news.test`, …) serving document bodies at their paths.

use crate::corpus::Corpus;
use crate::doc::SourceKind;
use ira_simnet::latency::LatencyModel;
use ira_simnet::ratelimit::TokenBucket;
use ira_simnet::server::{Host, HostConfig, HostCtx, Network, Request, Response};
use ira_simnet::Duration;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hostname of the search engine.
pub const SEARCH_HOST: &str = "search.test";

/// Default number of results per query when `k` is absent.
const DEFAULT_K: usize = 8;
/// Hard cap on results per query.
const MAX_K: usize = 25;

/// One search result as served to clients: the page's address and
/// title, all a client reads before deciding what to fetch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    pub url: String,
    pub title: String,
}

/// The JSON page returned by the search host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResultPage {
    pub query: String,
    pub results: Vec<SearchResult>,
}

struct SearchSite {
    corpus: Arc<Corpus>,
}

impl Host for SearchSite {
    fn handle(&self, req: &Request, ctx: &mut HostCtx<'_>) -> Response {
        if req.url.path() != "/q" {
            return Response::not_found();
        }
        let Some(query) = req.url.query_param("query") else {
            return Response::not_found();
        };
        let k = req
            .url
            .query_param("k")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_K)
            .min(MAX_K);

        // Charge index scan time proportional to corpus size — keeps
        // the "retrieval dominates" timing split realistic (exp. F1).
        ctx.charge(Duration::from_micros(5 * self.corpus.len() as u64));

        let results = self
            .corpus
            .search(query, k)
            .into_iter()
            .filter_map(|h| self.corpus.doc(h.doc))
            .map(|d| SearchResult {
                url: d.url().to_string(),
                title: d.title.clone(),
            })
            .collect();
        let page = SearchResultPage {
            query: query.to_string(),
            results,
        };
        Response::json(serde_json::to_string(&page).expect("search page serializes"))
    }
}

struct ContentSite {
    corpus: Arc<Corpus>,
    host: &'static str,
}

impl Host for ContentSite {
    fn handle(&self, req: &Request, ctx: &mut HostCtx<'_>) -> Response {
        match self.corpus.doc_by_host_path(self.host, req.url.path()) {
            Some(doc) => {
                // Larger pages take longer to render/transfer.
                ctx.charge(Duration::from_micros(doc.body.len() as u64 / 4));
                let mut page = format!("{}\n\n{}", doc.title, doc.body);
                for link in &doc.links {
                    page.push_str(&format!("\nRelated: {link}"));
                }
                Response::ok(page)
            }
            None => Response::not_found(),
        }
    }
}

/// Hostname of the permalink archive: `sim://archive.test/doc/<id>`
/// issues a permanent redirect to the document's canonical URL (the
/// moved-page case real crawlers must handle).
pub const ARCHIVE_HOST: &str = "archive.test";

struct ArchiveSite {
    corpus: Arc<Corpus>,
}

impl Host for ArchiveSite {
    fn handle(&self, req: &Request, _ctx: &mut HostCtx<'_>) -> Response {
        let mut segments = req.url.path_segments();
        match (
            segments.next(),
            segments.next().and_then(|s| s.parse::<u32>().ok()),
        ) {
            (Some("doc"), Some(id)) => match self.corpus.doc(id) {
                Some(doc) => Response::redirect(doc.url().to_string()),
                None => Response::not_found(),
            },
            _ => Response::not_found(),
        }
    }
}

/// Register the search engine and every content host on `net`.
pub fn register_sites(net: &mut Network, corpus: Arc<Corpus>) {
    net.register_with(
        SEARCH_HOST,
        Arc::new(SearchSite {
            corpus: Arc::clone(&corpus),
        }),
        HostConfig {
            latency: LatencyModel::fast(),
            // A realistic automated-client quota: burst of 30, then 5/s.
            rate_limit: TokenBucket::new(30, 5.0),
        },
    );
    net.register_with(
        ARCHIVE_HOST,
        Arc::new(ArchiveSite {
            corpus: Arc::clone(&corpus),
        }),
        HostConfig {
            latency: LatencyModel::fast(),
            rate_limit: TokenBucket::unlimited(),
        },
    );
    for kind in SourceKind::ALL {
        let latency = match kind {
            SourceKind::Encyclopedia | SourceKind::MicroPost => LatencyModel::fast(),
            SourceKind::Forum => LatencyModel::slow(),
            _ => LatencyModel::typical(),
        };
        net.register_with(
            kind.host(),
            Arc::new(ContentSite {
                corpus: Arc::clone(&corpus),
                host: kind.host(),
            }),
            HostConfig {
                latency,
                rate_limit: TokenBucket::unlimited(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use ira_simnet::{Client, NetworkConfig, Url};
    use ira_worldmodel::World;

    fn setup() -> (Client, Arc<Corpus>) {
        let corpus = Arc::new(Corpus::generate(
            &World::standard(),
            CorpusConfig::default(),
        ));
        let mut net = Network::new(NetworkConfig::default(), 77);
        register_sites(&mut net, Arc::clone(&corpus));
        (Client::new(Arc::new(net)), corpus)
    }

    #[test]
    fn search_returns_ranked_json() {
        let (client, corpus) = setup();
        let query = "submarine cable geomagnetic latitude";
        let url = Url::build(SEARCH_HOST, "/q", &[("query", query), ("k", "5")]);
        let body = client.get_text(&url.to_string()).unwrap();
        let page: SearchResultPage = serde_json::from_str(&body).unwrap();
        assert_eq!(page.query, query);
        let served: Vec<&str> = page.results.iter().map(|r| r.url.as_str()).collect();
        let ranked: Vec<String> = corpus
            .search(query, 5)
            .iter()
            .map(|h| corpus.doc(h.doc).unwrap().url().to_string())
            .collect();
        assert_eq!(ranked.len(), 5);
        assert_eq!(served, ranked);
    }

    #[test]
    fn search_result_urls_are_fetchable() {
        let (client, _) = setup();
        let url = Url::build(SEARCH_HOST, "/q", &[("query", "EllaLink cable Brazil")]);
        let body = client.get_text(&url.to_string()).unwrap();
        let page: SearchResultPage = serde_json::from_str(&body).unwrap();
        let first = &page.results[0];
        let content = client.get_text(&first.url).unwrap();
        assert!(content.contains("EllaLink"), "fetched: {content:.100}");
    }

    #[test]
    fn missing_query_is_not_found() {
        let (client, _) = setup();
        let url = Url::build(SEARCH_HOST, "/q", &[]);
        assert!(client.get_text(&url.to_string()).is_err());
    }

    #[test]
    fn unknown_document_path_is_not_found() {
        let (client, _) = setup();
        assert!(client
            .get_text("sim://encyclopedia.test/wiki/does-not-exist")
            .is_err());
    }

    #[test]
    fn k_is_capped() {
        let (client, _) = setup();
        let url = Url::build(SEARCH_HOST, "/q", &[("query", "cable"), ("k", "9999")]);
        let body = client.get_text(&url.to_string()).unwrap();
        let page: SearchResultPage = serde_json::from_str(&body).unwrap();
        assert!(page.results.len() <= MAX_K);
    }

    #[test]
    fn archive_permalinks_redirect_to_canonical_pages() {
        let (client, corpus) = setup();
        let doc = corpus.iter().next().unwrap();
        let via_archive = client
            .get_text(&format!("sim://archive.test/doc/{}", doc.id))
            .unwrap();
        assert!(
            via_archive.contains(&doc.title),
            "redirect should land on the page"
        );
        assert!(client.get_text("sim://archive.test/doc/999999").is_err());
        assert!(client.get_text("sim://archive.test/nonsense").is_err());
    }

    #[test]
    fn every_source_host_serves_its_documents() {
        let (client, corpus) = setup();
        for kind in SourceKind::ALL {
            if let Some(doc) = corpus.iter().find(|d| d.source == kind) {
                let content = client.get_text(&doc.url().to_string()).unwrap();
                assert!(content.contains(&doc.title), "host {} failed", kind.host());
            }
        }
    }
}
