//! Ranking equivalence: the dense-id BM25 engine against a reference
//! copy of the string-keyed engine it replaced.
//!
//! The reference keys postings by `String`, keeps document lengths and
//! query scores in `HashMap`s and fully sorts every query's hits. Both
//! engines must return the same hits in the same order with bit-equal
//! scores, and the same document frequencies, on random corpora and on
//! the four default scenario webs. The streaming tokenizer the engine
//! indexes with must yield exactly the terms of `tokenize`.

use ira_webcorpus::doc::{DocId, Document, SourceKind, Topic};
use ira_webcorpus::index::bm25::{SearchEngine, SearchHit};
use ira_webcorpus::index::tokenize::{for_each_term, tokenize};
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::scenario::{self, ScenarioRegistry};
use ira_worldmodel::World;
use proptest::prelude::*;
use std::collections::HashMap;

const K1: f64 = 1.2;
const B: f64 = 0.75;

struct Posting {
    doc: DocId,
    term_freq: u32,
}

/// The string-keyed BM25 engine, kept verbatim in behaviour.
struct ReferenceEngine {
    postings: HashMap<String, Vec<Posting>>,
    doc_len: HashMap<DocId, u32>,
    avg_doc_len: f64,
    doc_count: usize,
}

impl ReferenceEngine {
    fn build<'a>(docs: impl IntoIterator<Item = &'a Document>) -> Self {
        let mut postings: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut doc_len = HashMap::new();
        let mut total_len = 0u64;
        for doc in docs {
            let tokens = tokenize(&doc.full_text());
            total_len += tokens.len() as u64;
            doc_len.insert(doc.id, tokens.len() as u32);
            let mut counts: HashMap<String, u32> = HashMap::new();
            for t in tokens {
                *counts.entry(t).or_insert(0) += 1;
            }
            for (term, term_freq) in counts {
                postings.entry(term).or_default().push(Posting {
                    doc: doc.id,
                    term_freq,
                });
            }
        }
        let doc_count = doc_len.len();
        let avg_doc_len = if doc_count == 0 {
            0.0
        } else {
            total_len as f64 / doc_count as f64
        };
        let mut engine = ReferenceEngine {
            postings,
            doc_len,
            avg_doc_len,
            doc_count,
        };
        for list in engine.postings.values_mut() {
            list.sort_by_key(|p| p.doc);
        }
        engine
    }

    fn document_frequency(&self, term: &str) -> usize {
        tokenize(term)
            .first()
            .and_then(|t| self.postings.get(t))
            .map_or(0, Vec::len)
    }

    fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        if k == 0 || self.doc_count == 0 {
            return Vec::new();
        }
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        let n = self.doc_count as f64;
        for term in tokenize(query) {
            let Some(list) = self.postings.get(&term) else {
                continue;
            };
            let df = list.len() as f64;
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for p in list {
                let len = self.doc_len[&p.doc] as f64;
                let tf = p.term_freq as f64;
                let norm = tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * len / self.avg_doc_len));
                *scores.entry(p.doc).or_insert(0.0) += idf * norm;
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit { doc, score })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits.truncate(k);
        hits
    }
}

/// Hits as (doc, score bits): equality means same order, same bits.
fn bits(hits: &[SearchHit]) -> Vec<(DocId, u64)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

/// Words that exercise the tokenizer and stemmer: suffix edge cases
/// (`ies`, `ing`, `ed`, `ly`, `s`, stems of exactly 3 chars and
/// shorter), non-ASCII and case-changing words, stopwords, numbers and
/// single characters.
#[rustfmt::skip]
const WORDS: &[&str] = &[
    "cable", "cables", "cabled", "cabling", "ties", "lies", "flies", "spies", "series", "babies",
    "cities", "tying", "ping", "sing", "bring", "linking", "links", "fixed", "bed", "red", "bus",
    "gas", "thus", "ably", "fly", "only", "ies", "ing", "eds", "sly", "luleå", "résumé",
    "RÉSUMÉS", "straße", "İstanbul", "ΣΟΦΊΑ", "naïvely", "Grace", "HOPPER", "the", "and", "of",
    "is", "1859", "1760s", "a", "x", "7", "solar", "storm", "storms", "geomagnetic", "latitude",
    "latitudes",
];

/// Separators between words: token boundaries of several kinds.
const SEPARATORS: &[&str] = &[" ", " ", " ", ", ", "\n", "-", ". ", "'"];

/// Up to `max_words` words drawn from the first `vocab` of [`WORDS`].
fn text(rng: &mut TestRng, max_words: u64, vocab: usize) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(max_words + 1) {
        s.push_str(WORDS[rng.below(vocab as u64) as usize]);
        s.push_str(SEPARATORS[rng.below(SEPARATORS.len() as u64) as usize]);
    }
    s
}

/// A random corpus and queries over the first `vocab` of [`WORDS`]; a
/// small `vocab` makes tie-heavy corpora.
struct Case {
    vocab: usize,
}

impl Strategy for Case {
    type Value = (Vec<Document>, Vec<String>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        // Unique ids, sparse and shuffled, so build order is not id order.
        let n = rng.below(30) as usize;
        let mut ids: Vec<DocId> = Vec::with_capacity(n);
        let mut next = 0;
        for _ in 0..n {
            next += 1 + rng.below(3) as DocId;
            ids.push(next);
        }
        for i in (1..n).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let docs = ids
            .into_iter()
            .map(|id| Document {
                id,
                source: SourceKind::Blog,
                path: format!("/p/{id}"),
                title: text(rng, 4, self.vocab),
                body: text(rng, 40, self.vocab),
                topic: Topic::Distractor,
                links: Vec::new(),
            })
            .collect();
        // Queries repeat their first word half the time.
        let queries = (0..1 + rng.below(5))
            .map(|_| {
                let q = text(rng, 6, self.vocab);
                match q.split(' ').next() {
                    Some(first) if rng.below(2) == 0 => format!("{q} {first}"),
                    _ => q,
                }
            })
            .collect();
        (docs, queries)
    }
}

fn check_corpus(docs: &[Document], queries: &[String]) -> Result<(), TestCaseError> {
    let engine = SearchEngine::build(docs);
    let reference = ReferenceEngine::build(docs);
    prop_assert_eq!(engine.doc_count(), reference.doc_count);
    for q in queries {
        let hits = reference.search(q, usize::MAX).len();
        for k in [0, 1, hits.saturating_sub(1), hits, hits + 3] {
            prop_assert_eq!(
                bits(&engine.search(q, k)),
                bits(&reference.search(q, k)),
                "query {:?}, k = {}",
                q,
                k
            );
        }
    }
    for word in WORDS
        .iter()
        .copied()
        .chain(queries.iter().map(String::as_str))
    {
        prop_assert_eq!(
            engine.document_frequency(word),
            reference.document_frequency(word),
            "document_frequency({:?})",
            word
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn random_corpora_rank_identically((docs, queries) in Case { vocab: WORDS.len() }) {
        check_corpus(&docs, &queries)?;
    }

    #[test]
    fn tie_heavy_corpora_rank_identically((docs, queries) in Case { vocab: 6 }) {
        check_corpus(&docs, &queries)?;
    }

    #[test]
    fn streaming_tokenizer_yields_tokenize_terms(
        words in 0u64..1_000_000,
        noise in "\\PC{0,120}",
    ) {
        // One buffer across calls, left dirty by the previous text.
        let mut buf = String::from("leftover");
        let worded = text(&mut TestRng::new(words), 30, WORDS.len());
        for t in [worded.as_str(), noise.as_str(), "", "Ünïcode-İstanbul ties"] {
            let mut streamed = Vec::new();
            for_each_term(t, &mut buf, |term| streamed.push(term.to_owned()));
            prop_assert_eq!(streamed, tokenize(t), "text {:?}", t);
        }
    }
}

#[test]
fn scenario_webs_rank_identically() {
    let world = World::standard();
    for name in ScenarioRegistry::standard().names() {
        let corpus = Corpus::generate(
            &world,
            CorpusConfig {
                scenario: name,
                ..CorpusConfig::default()
            },
        );
        let reference = ReferenceEngine::build(corpus.iter());
        let engine = corpus.engine();
        assert_eq!(engine.doc_count(), reference.doc_count);
        let questions = scenario::lookup(name)
            .expect("registered scenario")
            .conclusions(&world)
            .into_iter()
            .map(|c| c.question);
        let titles = corpus.iter().map(|d| d.title.clone());
        for q in questions.chain(titles) {
            assert_eq!(
                bits(&engine.search(&q, 25)),
                bits(&reference.search(&q, 25)),
                "{name}: query {q:?}"
            );
        }
    }
}

#[test]
fn one_engine_serves_concurrent_searches() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<SearchEngine>();

    let corpus = Corpus::generate(&World::standard(), CorpusConfig::default());
    let queries: Vec<String> = corpus.iter().map(|d| d.title.clone()).collect();
    let serial: Vec<_> = queries
        .iter()
        .map(|q| bits(&corpus.search(q, 25)))
        .collect();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (corpus, queries, serial, barrier) = (&corpus, &queries, &serial, &barrier);
            s.spawn(move || {
                barrier.wait();
                // Each thread walks the queries from a different start.
                for i in (0..queries.len()).map(|i| (i + t * 37) % queries.len()) {
                    assert_eq!(bits(&corpus.search(&queries[i], 25)), serial[i]);
                }
            });
        }
    });
}
