//! The assembled corpus: fact-bearing documents plus distractors, with
//! a BM25 index and URL lookup.

use crate::distractors;
use crate::doc::{DocId, Document, SourceKind, Topic};
use crate::index::bm25::{SearchEngine, SearchHit};
use crate::index::opstats;
use crate::scenario_docs;
use crate::templates;
use ira_worldmodel::scenario::{self, ScenarioSpec, SOLAR_SUPERSTORM};
use ira_worldmodel::World;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Corpus generation knobs. The scenario name is interned against the
/// standard registry (a `&'static str`), which keeps this type `Copy`
/// and usable as a cache key; build one from a serializable
/// [`ScenarioSpec`] with [`CorpusConfig::for_spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorpusConfig {
    /// RNG seed for prose variation and distractor sampling.
    pub seed: u64,
    /// Number of distractor documents to interleave.
    pub distractor_count: usize,
    /// Registry name of the scenario whose event pages to emit after
    /// the base world corpus. The canonical `solar-superstorm` emits
    /// none (the base corpus is its web).
    pub scenario: &'static str,
}

impl CorpusConfig {
    /// Resolve a [`ScenarioSpec`] into corpus knobs, interning the
    /// scenario name. `None` if the spec names no registered scenario.
    pub fn for_spec(spec: &ScenarioSpec) -> Option<Self> {
        Some(CorpusConfig {
            seed: spec.seed,
            distractor_count: spec.distractors,
            scenario: scenario::static_name(&spec.scenario)?,
        })
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xC0FFEE,
            distractor_count: 150,
            scenario: SOLAR_SUPERSTORM,
        }
    }
}

/// The synthetic web corpus.
pub struct Corpus {
    docs: Vec<Document>,
    engine: SearchEngine,
    by_url: HashMap<String, DocId>,
    /// `host -> path -> id` index behind [`Corpus::doc_by_host_path`].
    /// First occurrence wins, matching what a linear scan in document
    /// order returns for (hypothetical) duplicate addresses.
    by_host_path: HashMap<&'static str, HashMap<String, DocId>>,
}

impl Corpus {
    /// Generate the corpus for a scenario spec: the base world corpus,
    /// the scenario's event pages, then the distractors. Errors if the
    /// spec names no registered scenario.
    pub fn for_scenario(world: &World, spec: &ScenarioSpec) -> Result<Self, String> {
        let config = CorpusConfig::for_spec(spec)
            .ok_or_else(|| format!("unknown scenario `{}`", spec.scenario))?;
        Ok(Self::generate(world, config))
    }

    /// Generate the corpus for `world`: base fact documents, then the
    /// configured scenario's event pages, then distractors. Event pages
    /// consume no RNG state, so the canonical (event-free) scenario is
    /// byte-identical to the pre-scenario generator.
    pub fn generate(world: &World, config: CorpusConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut docs = templates::generate(world, &mut rng, 0);
        let sc = scenario::lookup(config.scenario)
            .unwrap_or_else(|| panic!("unknown scenario `{}`", config.scenario));
        docs.extend(scenario_docs::render(&sc.docs(world), docs.len() as DocId));
        let first_distractor = docs.len() as DocId;
        docs.extend(distractors::generate(
            config.distractor_count,
            &mut rng,
            first_distractor,
        ));
        link_related(&mut docs);

        let engine = SearchEngine::build(docs.iter());
        let by_url = docs.iter().map(|d| (d.url().to_string(), d.id)).collect();
        let mut by_host_path: HashMap<&'static str, HashMap<String, DocId>> = HashMap::new();
        for d in &docs {
            by_host_path
                .entry(d.source.host())
                .or_default()
                .entry(d.path.clone())
                .or_insert(d.id);
        }
        Corpus {
            docs,
            engine,
            by_url,
            by_host_path,
        }
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    pub fn doc(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id as usize)
    }

    pub fn doc_by_url(&self, url: &str) -> Option<&Document> {
        self.by_url.get(url).and_then(|&id| self.doc(id))
    }

    /// Fetch a document by host + path (what a virtual host sees).
    /// Served from the `(host, path)` index built at construction; a
    /// lookup charges one probe to the op counters.
    pub fn doc_by_host_path(&self, host: &str, path: &str) -> Option<&Document> {
        opstats::lookup_call();
        // Nested maps let both levels look up by `&str`, so a lookup
        // allocates nothing.
        self.by_host_path
            .get(host)
            .and_then(|paths| paths.get(path))
            .and_then(|&id| self.doc(id))
    }

    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.docs.iter()
    }

    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        self.engine.search(query, k)
    }

    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// Number of documents per topic, for corpus statistics.
    pub fn topic_counts(&self) -> Vec<(Topic, usize)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<Topic, usize> = BTreeMap::new();
        for d in &self.docs {
            *counts.entry(d.topic).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Number of documents per source kind.
    pub fn source_counts(&self) -> Vec<(SourceKind, usize)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<SourceKind, usize> = BTreeMap::new();
        for d in &self.docs {
            *counts.entry(d.source).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

/// Give every fact-bearing document "Related" links to the next
/// documents of the same topic (cyclically), the hypertext the crawler
/// extension follows.
///
/// Link-count contract, explicit and tested: each document gets
/// `min(2, n - 1)` distinct links for a topic of `n` documents — the
/// 1- and 2-step cyclic successors, which are distinct from each other
/// and from the document itself whenever they exist. So a 2-document
/// topic yields exactly 1 mutual link per document (the only other
/// document — never a self-link), 3 or more yield 2, singletons none.
/// (The old implementation got the same counts, but only by a silent
/// `j != i` skip plus an adjacent-only `dedup()` that never fired.)
fn link_related(docs: &mut [Document]) {
    use std::collections::BTreeMap;
    let mut by_topic: BTreeMap<Topic, Vec<usize>> = BTreeMap::new();
    for (i, d) in docs.iter().enumerate() {
        if d.topic != Topic::Distractor {
            by_topic.entry(d.topic).or_default().push(i);
        }
    }
    for indices in by_topic.values() {
        let n = indices.len();
        if n < 2 {
            continue;
        }
        let fanout = 2.min(n - 1);
        for (pos, &i) in indices.iter().enumerate() {
            docs[i].links = (1..=fanout)
                .map(|step| docs[indices[(pos + step) % n]].url().to_string())
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::generate(&World::standard(), CorpusConfig::default())
    }

    #[test]
    fn corpus_contains_facts_and_distractors() {
        let c = corpus();
        assert!(c.len() > 200, "corpus size {}", c.len());
        let topics = c.topic_counts();
        let distractors = topics
            .iter()
            .find(|(t, _)| *t == Topic::Distractor)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert_eq!(distractors, 150);
    }

    #[test]
    fn url_lookup_round_trips() {
        let c = corpus();
        let doc = c.iter().next().unwrap();
        let found = c.doc_by_url(&doc.url().to_string()).unwrap();
        assert_eq!(found.id, doc.id);
    }

    #[test]
    fn host_path_lookup_works() {
        let c = corpus();
        let doc = c
            .iter()
            .find(|d| d.source == SourceKind::Encyclopedia)
            .unwrap();
        let found = c.doc_by_host_path(doc.source.host(), &doc.path).unwrap();
        assert_eq!(found.id, doc.id);
    }

    #[test]
    fn search_surfaces_cable_article_over_distractors() {
        let c = corpus();
        let hits = c.search("fiber optic cable route Brazil Europe geomagnetic", 5);
        assert!(!hits.is_empty());
        let top = c.doc(hits[0].doc).unwrap();
        assert_ne!(top.topic, Topic::Distractor, "top hit was {}", top.title);
    }

    #[test]
    fn search_for_distractor_topic_finds_distractor() {
        let c = corpus();
        let hits = c.search("sourdough starter dough", 3);
        assert!(!hits.is_empty());
        assert_eq!(c.doc(hits[0].doc).unwrap().topic, Topic::Distractor);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&World::standard(), CorpusConfig::default());
        let b = Corpus::generate(&World::standard(), CorpusConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.body, y.body);
        }
    }

    #[test]
    fn host_path_index_agrees_with_legacy_scan_on_full_corpus() {
        // The indexed lookup must be observationally identical to the
        // O(N) first-match scan it replaced, for every document and for
        // misses.
        let c = corpus();
        let scan = |host: &str, path: &str| {
            c.iter()
                .find(|d| d.source.host() == host && d.path == path)
                .map(|d| d.id)
        };
        for doc in c.iter() {
            let host = doc.source.host();
            let indexed = c.doc_by_host_path(host, &doc.path).map(|d| d.id);
            assert_eq!(
                indexed,
                scan(host, &doc.path),
                "disagree on {host}{}",
                doc.path
            );
            // And both resolve to this document's address.
            assert_eq!(indexed, Some(doc.id));
        }
        assert!(c.doc_by_host_path("encyclopedia.test", "/nope").is_none());
        assert!(scan("encyclopedia.test", "/nope").is_none());
    }

    #[test]
    fn lookup_ops_reflect_index_vs_scan_cost() {
        use crate::index::opstats;
        let c = corpus();
        let before = opstats::snapshot();
        let doc = c.iter().last().unwrap();
        c.doc_by_host_path(doc.source.host(), &doc.path).unwrap();
        let after_index = opstats::snapshot().since(&before);
        // Parallel tests may also count; deltas are lower bounds. The
        // index charges one probe per lookup, even for the last document.
        assert!(after_index.lookup_calls >= 1);
    }

    fn topic_docs(n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| Document {
                id: i as DocId,
                source: SourceKind::Encyclopedia,
                path: format!("/wiki/cable-{i}"),
                title: format!("Cable {i}"),
                body: "A submarine cable.".into(),
                topic: Topic::SubmarineCables,
                links: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn two_doc_topic_gets_one_mutual_link_each() {
        let mut docs = topic_docs(2);
        link_related(&mut docs);
        assert_eq!(docs[0].links, vec![docs[1].url().to_string()]);
        assert_eq!(docs[1].links, vec![docs[0].url().to_string()]);
    }

    #[test]
    fn three_doc_topic_gets_two_distinct_links_each() {
        let mut docs = topic_docs(3);
        link_related(&mut docs);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(d.links.len(), 2, "doc {i}: {:?}", d.links);
            assert!(!d.links.contains(&d.url().to_string()), "self-link on {i}");
            let mut unique = d.links.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), 2, "duplicate links on {i}");
        }
        // Cyclic successors: doc 0 links to 1 then 2.
        assert_eq!(
            docs[0].links,
            vec![docs[1].url().to_string(), docs[2].url().to_string()]
        );
    }

    #[test]
    fn singleton_and_distractor_docs_get_no_links() {
        let mut docs = topic_docs(1);
        docs.push(Document {
            id: 1,
            source: SourceKind::Blog,
            path: "/post/sourdough".into(),
            title: "Sourdough".into(),
            body: "Starter dough tips.".into(),
            topic: Topic::Distractor,
            links: Vec::new(),
        });
        docs.push(Document {
            id: 2,
            source: SourceKind::Blog,
            path: "/post/crumb".into(),
            title: "Crumb".into(),
            body: "Crumb structure.".into(),
            topic: Topic::Distractor,
            links: Vec::new(),
        });
        link_related(&mut docs);
        for d in &docs {
            assert!(d.links.is_empty(), "{} should be linkless", d.title);
        }
    }

    #[test]
    fn distractor_scaling_works() {
        let c = Corpus::generate(
            &World::standard(),
            CorpusConfig {
                seed: 1,
                distractor_count: 10,
                ..CorpusConfig::default()
            },
        );
        let d = Corpus::generate(
            &World::standard(),
            CorpusConfig {
                seed: 1,
                distractor_count: 400,
                ..CorpusConfig::default()
            },
        );
        assert_eq!(d.len() - c.len(), 390);
    }

    #[test]
    fn for_spec_interns_known_scenarios_and_rejects_unknown() {
        let spec = ScenarioSpec::named("cable-cut")
            .with_seed(9)
            .with_distractors(3);
        let config = CorpusConfig::for_spec(&spec).unwrap();
        assert_eq!(config.seed, 9);
        assert_eq!(config.distractor_count, 3);
        assert_eq!(config.scenario, "cable-cut");
        assert!(CorpusConfig::for_spec(&ScenarioSpec::named("nope")).is_none());
        assert!(Corpus::for_scenario(&World::standard(), &ScenarioSpec::named("nope")).is_err());
    }

    /// The golden byte-identity bar: the canonical scenario through the
    /// spec path reproduces the legacy generator exactly — same ids,
    /// paths, titles, bodies, topics, and links for every document.
    #[test]
    fn solar_scenario_corpus_is_byte_identical_to_legacy() {
        let world = World::standard();
        let legacy = Corpus::generate(&world, CorpusConfig::default());
        let spec = Corpus::for_scenario(&world, &ScenarioSpec::default()).unwrap();
        assert_eq!(legacy.len(), spec.len());
        for (a, b) in legacy.iter().zip(spec.iter()) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn scenario_corpora_append_events_between_facts_and_distractors() {
        let world = World::standard();
        let base = Corpus::for_scenario(&world, &ScenarioSpec::default()).unwrap();
        for name in ["cable-cut", "regional-grid-failure", "route-leak"] {
            let c = Corpus::for_scenario(&world, &ScenarioSpec::named(name)).unwrap();
            let events: Vec<_> = c
                .iter()
                .filter(|d| d.topic == Topic::ScenarioEvent)
                .collect();
            assert!(!events.is_empty(), "{name} emits no events");
            assert_eq!(c.len(), base.len() + events.len(), "{name} count");
            // Events sit exactly between the fact block and the
            // distractor block, ids dense.
            let first_event = events[0].id;
            let base_facts = base.iter().filter(|d| d.topic != Topic::Distractor).count();
            assert_eq!(first_event as usize, base_facts, "{name} placement");
            // And the base fact block is untouched.
            for (a, b) in base.iter().zip(c.iter()).take(base_facts) {
                assert_eq!(a.body, b.body, "{name} perturbed doc {}", a.id);
            }
        }
    }

    /// Every rationale term an event-emitting scenario's quiz relies on
    /// appears somewhere in that scenario's corpus — the corpus-level
    /// half of the ground-truth self-consistency contract. (The solar
    /// scenario's terms are phrased against agent *answers* and are
    /// covered by the end-to-end consistency suite instead.)
    #[test]
    fn scenario_rationale_terms_are_grounded_in_the_corpus() {
        let world = World::standard();
        for name in ["cable-cut", "regional-grid-failure", "route-leak"] {
            let c = Corpus::for_scenario(&world, &ScenarioSpec::named(name)).unwrap();
            let mut pool = String::new();
            for d in c.iter() {
                pool.push_str(&d.full_text().to_lowercase());
                pool.push('\n');
            }
            let sc = ira_worldmodel::scenario::lookup(name).unwrap();
            for conclusion in sc.conclusions(&world) {
                for term in &conclusion.rationale_terms {
                    assert!(
                        pool.contains(&term.to_lowercase()),
                        "{name}/{}: term `{term}` not in corpus",
                        conclusion.id
                    );
                }
            }
        }
    }

    #[test]
    fn scenario_event_pages_are_searchable_and_linked() {
        let world = World::standard();
        let c = Corpus::for_scenario(&world, &ScenarioSpec::named("cable-cut")).unwrap();
        let target = ira_worldmodel::scenario::CableCut::target(&world);
        let hits = c.search(&format!("{} severed landslide", target.name), 5);
        assert!(!hits.is_empty());
        let top = c.doc(hits[0].doc).unwrap();
        assert_eq!(top.topic, Topic::ScenarioEvent, "top hit was {}", top.title);
        // Scenario pages cross-link like any other topic group.
        assert!(!top.links.is_empty());
    }
}
