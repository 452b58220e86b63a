//! BM25 inverted index.
//!
//! Okapi BM25 with the standard parameters (k1 = 1.2, b = 0.75). The
//! index is immutable after build and fully thread-safe, so the
//! self-learning loop can fan searches out across threads.

use super::tokenize::tokenize;
use crate::doc::{DocId, Document};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// BM25 term-frequency saturation parameter.
const K1: f64 = 1.2;
/// BM25 length-normalization parameter.
const B: f64 = 0.75;

/// One ranked search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    pub doc: DocId,
    pub score: f64,
}

#[derive(Debug, Clone)]
struct Posting {
    doc: DocId,
    term_freq: u32,
}

/// The search engine: inverted index over a document set.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    postings: HashMap<String, Vec<Posting>>,
    doc_len: HashMap<DocId, u32>,
    avg_doc_len: f64,
    doc_count: usize,
}

impl SearchEngine {
    /// Build the index over `docs` (title + body are indexed).
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a Document>) -> Self {
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
        // Deterministic posting order (build iterates a HashMap).
        let mut engine = SearchEngine {
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

    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Number of documents containing `term` (post-stemming).
    pub fn document_frequency(&self, term: &str) -> usize {
        let toks = tokenize(term);
        toks.first()
            .and_then(|t| self.postings.get(t))
            .map_or(0, Vec::len)
    }

    /// Rank documents for a free-text query, best first, at most `k`.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
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
            // BM25 idf with the +1 smoothing that keeps it positive.
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
        // Stable order: score desc, then doc id asc for ties.
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{SourceKind, Topic};

    fn doc(id: DocId, title: &str, body: &str) -> Document {
        Document {
            id,
            source: SourceKind::Encyclopedia,
            path: format!("/wiki/{id}"),
            title: title.into(),
            body: body.into(),
            topic: Topic::SubmarineCables,
            links: Vec::new(),
        }
    }

    fn small_corpus() -> Vec<Document> {
        vec![
            doc(0, "EllaLink", "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, linking South America and Europe."),
            doc(1, "Grace Hopper", "The Grace Hopper submarine cable connects New York, United States to Bude, United Kingdom across the North Atlantic."),
            doc(2, "Solar storms", "A solar superstorm ejects magnetized plasma. Geomagnetically induced currents grow stronger at higher geomagnetic latitudes."),
            doc(3, "Pasta recipes", "Cook the spaghetti cable-thick and drain. Add plenty of olive oil and basil."),
            doc(4, "Data centers", "Google operates data centers in seven major regions across the world, including Asia and South America."),
        ]
    }

    #[test]
    fn relevant_doc_ranks_first() {
        let engine = SearchEngine::build(&small_corpus());
        let hits = engine.search("fiber optic cable Brazil Europe", 5);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].doc, 0, "EllaLink doc should rank first: {hits:?}");
    }

    #[test]
    fn query_about_storms_finds_physics_doc() {
        let engine = SearchEngine::build(&small_corpus());
        let hits = engine.search("geomagnetic latitude induced currents", 3);
        assert_eq!(hits[0].doc, 2);
    }

    #[test]
    fn distractor_with_shared_keyword_ranks_below_topic_doc() {
        let engine = SearchEngine::build(&small_corpus());
        let hits = engine.search("submarine cable", 5);
        let pasta_rank = hits.iter().position(|h| h.doc == 3);
        let ella_rank = hits.iter().position(|h| h.doc == 0).unwrap();
        if let Some(p) = pasta_rank {
            assert!(ella_rank < p);
        }
    }

    #[test]
    fn k_limits_results() {
        let engine = SearchEngine::build(&small_corpus());
        assert!(engine.search("cable", 1).len() <= 1);
        assert!(engine.search("cable", 0).is_empty());
    }

    #[test]
    fn unknown_terms_return_empty() {
        let engine = SearchEngine::build(&small_corpus());
        assert!(engine.search("xylophone quixotic", 5).is_empty());
    }

    #[test]
    fn scores_are_descending_and_ties_broken_by_id() {
        let engine = SearchEngine::build(&small_corpus());
        let hits = engine.search("cable connects submarine", 10);
        for w in hits.windows(2) {
            assert!(w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc));
        }
    }

    #[test]
    fn empty_index_is_harmless() {
        let engine = SearchEngine::build(std::iter::empty());
        assert_eq!(engine.doc_count(), 0);
        assert!(engine.search("anything", 5).is_empty());
    }

    #[test]
    fn document_frequency_counts_docs_not_occurrences() {
        let engine = SearchEngine::build(&small_corpus());
        assert_eq!(engine.document_frequency("cable"), 3); // docs 0, 1, 3
        assert_eq!(engine.document_frequency("cables"), 3); // stemmed same
        assert_eq!(engine.document_frequency("nonexistentterm"), 0);
    }

    #[test]
    fn search_is_deterministic() {
        let engine = SearchEngine::build(&small_corpus());
        let a = engine.search("submarine cable europe", 5);
        let b = engine.search("submarine cable europe", 5);
        assert_eq!(a, b);
    }
}
