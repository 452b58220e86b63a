//! BM25 inverted index.
//!
//! Okapi BM25 with the standard parameters (k1 = 1.2, b = 0.75). The
//! index is immutable after build and fully thread-safe, so the
//! self-learning loop can fan searches out across threads.
//!
//! Terms are interned to dense `u32` ids at build time, so postings and
//! per-document data are plain vectors. A query accumulates scores in a
//! per-thread dense buffer and keeps the top `k` by selection, not by a
//! full sort.

use super::tokenize::for_each_term;
use crate::doc::{DocId, Document};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Ordering;
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

/// The ranking order: score descending, then doc id ascending.
fn rank_order(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc))
}

#[derive(Debug, Clone)]
struct Posting {
    doc: DocId,
    term_freq: u32,
}

/// The search engine: inverted index over a document set.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    /// Term -> dense term id.
    term_ids: HashMap<String, u32>,
    /// Postings by term id, in build order of the documents.
    postings: Vec<Vec<Posting>>,
    /// BM25's length term `K1 * (1 - B + B * len / avg_len)` by doc id:
    /// a function of the document alone, so it is computed once here,
    /// by the same expression a query would evaluate.
    len_norm: Vec<f64>,
    doc_count: usize,
}

/// A query's working memory: `scores` is all zeros between queries,
/// `touched` lists the doc ids a query gave a score, and `term_buf`
/// holds the query term being tokenized.
#[derive(Default)]
struct Accumulator {
    scores: Vec<f64>,
    touched: Vec<DocId>,
    term_buf: String,
}

thread_local! {
    /// One accumulator per thread, shared by every engine the thread
    /// queries, so concurrent searches on one engine never contend.
    static ACCUMULATOR: RefCell<Accumulator> = RefCell::default();
}

impl SearchEngine {
    /// Build the index over `docs` (title + body are indexed). Doc ids
    /// must be unique; per-document storage is sized by the largest id.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a Document>) -> Self {
        let mut term_ids: HashMap<String, u32> = HashMap::new();
        let mut postings: Vec<Vec<Posting>> = Vec::new();
        let mut doc_len: Vec<u32> = Vec::new();
        let mut doc_count = 0usize;
        let mut total_len = 0u64;
        // Per-document term counts by term id, and the ids to flush.
        let mut counts: Vec<u32> = Vec::new();
        let mut doc_terms: Vec<u32> = Vec::new();
        let mut buf = String::new();

        for doc in docs {
            let mut len = 0u32;
            let mut add = |term: &str| {
                let id = match term_ids.get(term) {
                    Some(&id) => id,
                    None => {
                        let id = postings.len() as u32;
                        term_ids.insert(term.to_owned(), id);
                        postings.push(Vec::new());
                        counts.push(0);
                        id
                    }
                };
                let count = &mut counts[id as usize];
                if *count == 0 {
                    doc_terms.push(id);
                }
                *count += 1;
                len += 1;
            };
            // Title and body tokenize as `full_text()` would: the line
            // break between them is a token boundary.
            for_each_term(&doc.title, &mut buf, &mut add);
            for_each_term(&doc.body, &mut buf, &mut add);

            for id in doc_terms.drain(..) {
                let term_freq = std::mem::take(&mut counts[id as usize]);
                postings[id as usize].push(Posting {
                    doc: doc.id,
                    term_freq,
                });
            }
            let slot = doc.id as usize;
            if slot >= doc_len.len() {
                doc_len.resize(slot + 1, 0);
            }
            doc_len[slot] = len;
            total_len += u64::from(len);
            doc_count += 1;
        }

        let avg_doc_len = if doc_count == 0 {
            0.0
        } else {
            total_len as f64 / doc_count as f64
        };
        let len_norm = doc_len
            .iter()
            .map(|&len| K1 * (1.0 - B + B * len as f64 / avg_doc_len))
            .collect();
        SearchEngine {
            term_ids,
            postings,
            len_norm,
            doc_count,
        }
    }

    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// The postings of `term` (already stemmed), if it is indexed.
    fn postings_of(&self, term: &str) -> Option<&[Posting]> {
        self.term_ids
            .get(term)
            .map(|&id| self.postings[id as usize].as_slice())
    }

    /// Number of documents containing `term` (post-stemming).
    pub fn document_frequency(&self, term: &str) -> usize {
        let mut df = None;
        for_each_term(term, &mut String::new(), |t| {
            df.get_or_insert_with(|| self.postings_of(t).map_or(0, <[Posting]>::len));
        });
        df.unwrap_or(0)
    }

    /// Rank documents for a free-text query, best first, at most `k`.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        if k == 0 || self.doc_count == 0 {
            return Vec::new();
        }
        ACCUMULATOR.with(|acc| {
            let Accumulator {
                scores,
                touched,
                term_buf,
            } = &mut *acc.borrow_mut();
            if scores.len() < self.len_norm.len() {
                scores.resize(self.len_norm.len(), 0.0);
            }
            let n = self.doc_count as f64;
            // Terms add in query order, repeats included, so each score
            // is the same f64 sum a per-query map would hold.
            for_each_term(query, term_buf, |term| {
                let Some(list) = self.postings_of(term) else {
                    return;
                };
                let df = list.len() as f64;
                // BM25 idf with the +1 smoothing that keeps it positive.
                let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                for p in list {
                    let tf = p.term_freq as f64;
                    let norm = tf * (K1 + 1.0) / (tf + self.len_norm[p.doc as usize]);
                    let score = &mut scores[p.doc as usize];
                    // Every contribution is > 0, so 0.0 means untouched.
                    if *score == 0.0 {
                        touched.push(p.doc);
                    }
                    *score += idf * norm;
                }
            });

            let mut hits: Vec<SearchHit> = touched
                .drain(..)
                .map(|doc| SearchHit {
                    doc,
                    score: std::mem::take(&mut scores[doc as usize]),
                })
                .collect();
            if hits.len() > k {
                hits.select_nth_unstable_by(k - 1, rank_order);
                hits.truncate(k);
            }
            // Doc ids are unique, so the order is total and an unstable
            // sort is deterministic.
            hits.sort_unstable_by(rank_order);
            hits
        })
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
