//! Property-based tests for the simulated LLM: total functions over
//! arbitrary text, bounded confidence, calibration monotonicity,
//! memoized grounding that matches a fresh derivation (one model, and
//! several models sharing the process-wide readings across threads),
//! and token counting and context fitting against their plain
//! definitions.

use ira_simllm::extract::Extraction;
use ira_simllm::intent::classify;
use ira_simllm::token::{count_tokens, ContextWindow};
use ira_simllm::{plangen, reason, Llm};
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::scenario::ScenarioRegistry;
use ira_worldmodel::World;
use proptest::prelude::*;
use std::sync::LazyLock;

/// Questions of every reasoning class, so one model's caches see
/// chunks shared across questions.
const GROUNDING_QUESTIONS: &[&str] = &[
    "Which is more vulnerable to solar activity? The fiber optic cable that connects Brazil \
     to Europe or the one that connects the US to Europe?",
    "Which power grid is most exposed to geomagnetic storms?",
    "What caused the Anjana submarine cable outage?",
    "What took facebook.com offline in the routing incident?",
];

/// Knowledge chunks the grounding lists draw from: facts each question
/// can use, and two chunks of ~3,000 tokens so a list of a few
/// overflows the 8k window.
fn grounding_pool() -> Vec<String> {
    vec![
        "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes.".into(),
        "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, linking \
         South America and Europe. Along its route it reaches a maximum geomagnetic latitude \
         of 46.0 degrees."
            .into(),
        "The Grace Hopper submarine cable connects New York, United States to Bude, United \
         Kingdom, linking North America and Europe. Along its route it reaches a maximum \
         geomagnetic latitude of 63.0 degrees."
            .into(),
        "The Hydro-Québec power grid collapsed when geomagnetically induced currents \
         saturated its extra-high-voltage transformers. Hydro-Québec has the highest GIC \
         exposure of any major grid."
            .into(),
        "The Anjana submarine cable was severed by an undersea landslide.".into(),
        "A configuration error withdrew the BGP routes for Facebook's DNS prefixes. Only 0 \
         percent of edge networks could reach facebook.com during the incident."
            .into(),
        "gic exposure ".repeat(1_000),
        "repeaters latitude ".repeat(1_000),
    ]
}

/// Every page of the four default scenario webs, as the agent
/// memorizes it.
static DEFAULT_PAGES: LazyLock<Vec<String>> = LazyLock::new(|| {
    let world = World::standard();
    ScenarioRegistry::standard()
        .names()
        .into_iter()
        .flat_map(|scenario| {
            let config = CorpusConfig {
                scenario,
                ..CorpusConfig::default()
            };
            let corpus = Corpus::generate(&world, config);
            corpus.iter().map(|doc| doc.full_text()).collect::<Vec<_>>()
        })
        .collect()
});

/// What [`Llm::answer`] must return and charge for `question` over
/// `knowledge`, derived without any cache: absorb the chunks the
/// window keeps, in order, and reason over the result.
fn fresh_answer(question: &str, knowledge: &[String]) -> (String, u64, u64) {
    let reserved = count_tokens(question) + 64;
    let (kept, _, _) = ContextWindow::gpt4().fit(knowledge, reserved, |c| count_tokens(c));
    let mut ex = Extraction::default();
    for chunk in kept {
        ex.absorb(chunk, None);
    }
    let ans = reason::answer(question, &classify(question), &ex);
    let prompt = kept.iter().map(|c| count_tokens(c)).sum::<usize>() + reserved;
    let completion = count_tokens(&ans.text);
    (format!("{ans:?}"), prompt as u64, completion as u64)
}

/// The definition `count_tokens` implements: one token per
/// `split_whitespace` word plus one per 8 bytes of its length.
fn reference_count(text: &str) -> usize {
    text.split_whitespace().map(|w| 1 + w.len() / 8).sum()
}

/// `fit` as a plain newest-first walk: keep chunks from the back while
/// their counted cost fits the budget. Returns (kept, dropped).
fn reference_fit(window: ContextWindow, chunks: &[String], reserved: usize) -> (usize, usize) {
    let budget = window.max_tokens.saturating_sub(reserved);
    let mut used = 0;
    let mut kept = 0;
    for chunk in chunks.iter().rev() {
        used += reference_count(chunk);
        if used > budget {
            break;
        }
        kept += 1;
    }
    (kept, chunks.len() - kept)
}

/// Characters for token-count strings: the six ASCII whitespace bytes
/// (`\x0B` included), ASCII separators that are *not* whitespace,
/// Unicode spaces (NEL, NBSP, ogham, em, line separator, ideographic),
/// a zero-width no-break space (not whitespace), and word characters
/// of one to four UTF-8 bytes.
fn unicode_pool() -> Vec<char> {
    let mut pool = ascii_pool();
    pool.extend([
        '\u{0085}', '\u{00A0}', '\u{1680}', '\u{2003}', '\u{2028}', '\u{3000}', '\u{FEFF}', 'é',
        'λ', '中', '😀',
    ]);
    pool
}

fn ascii_pool() -> Vec<char> {
    vec![
        ' ', '\t', '\n', '\x0B', '\x0C', '\r', '\x1C', '\x1F', '\0', 'a', 'b', 'Z', '7', '.', '-',
    ]
}

fn text_from(pool: Vec<char>, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(pool), len)
        .prop_map(|chars| chars.into_iter().collect::<String>())
}

proptest! {
    #[test]
    fn count_tokens_matches_split_whitespace_on_unicode(text in text_from(unicode_pool(), 0..200)) {
        prop_assert_eq!(count_tokens(&text), reference_count(&text));
    }

    #[test]
    fn count_tokens_matches_split_whitespace_on_ascii(text in text_from(ascii_pool(), 0..400)) {
        prop_assert!(text.is_ascii());
        prop_assert_eq!(count_tokens(&text), reference_count(&text));
    }

    #[test]
    fn fit_total_is_the_kept_chunks_token_sum(
        chunks in prop::collection::vec(
            // Half the chunks ASCII, so both counting paths run.
            (0u8..2, text_from(ascii_pool(), 0..120), text_from(unicode_pool(), 0..120))
                .prop_map(|(pick, ascii, unicode)| if pick == 0 { ascii } else { unicode }),
            0..12,
        ),
        max_tokens in 64usize..200,
        reserved in 0usize..220,
    ) {
        let window = ContextWindow::new(max_tokens);
        let (kept, dropped, tokens) = window.fit(&chunks, reserved, |c| count_tokens(c));
        prop_assert_eq!((kept.len(), dropped), reference_fit(window, &chunks, reserved));
        prop_assert_eq!(kept, &chunks[dropped..]);
        prop_assert_eq!(tokens, kept.iter().map(|c| reference_count(c)).sum::<usize>());
    }

    #[test]
    fn extraction_never_panics(text in "\\PC{0,1000}") {
        let _ = Extraction::from_text(&text, None);
    }

    #[test]
    fn classify_never_panics(q in "\\PC{0,300}") {
        let _ = classify(&q);
    }

    #[test]
    fn plan_generation_is_total_and_closes(goal in "\\PC{0,200}") {
        let plan = plangen::plan_goal(&goal);
        // Plans always end with analysis + memorize steps.
        prop_assert!(plan.steps.len() >= 2);
    }

    #[test]
    fn confidence_is_always_in_range(
        question in "\\PC{0,200}",
        knowledge in prop::collection::vec("\\PC{0,200}", 0..6),
    ) {
        let llm = Llm::gpt4(0);
        let ans = llm.answer(&question, &knowledge);
        prop_assert!(ans.confidence <= 10);
        prop_assert!((0.0..=1.0).contains(&ans.coverage));
        prop_assert!(!ans.text.is_empty());
    }

    #[test]
    fn adding_knowledge_never_lowers_cable_confidence(
        extra in prop::collection::vec("[a-z ]{10,80}", 0..4),
    ) {
        // Irrelevant extra snippets must not reduce confidence: the
        // evidence slots only accumulate.
        const Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                         that connects Brazil to Europe or the one that connects the US to \
                         Europe?";
        let relevant = vec![
            "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes."
                .to_string(),
        ];
        let llm = Llm::gpt4(0);
        let base = llm.answer(Q, &relevant).confidence;
        let mut more = extra;
        more.extend(relevant);
        let with_noise = llm.answer(Q, &more).confidence;
        prop_assert!(with_noise >= base, "noise lowered confidence {base} -> {with_noise}");
    }

    #[test]
    fn extraction_merge_is_idempotent(text in "[ -~]{0,500}") {
        let a = Extraction::from_text(&text, None);
        let mut b = a.clone();
        b.merge(&a);
        prop_assert_eq!(a.facts.len(), b.facts.len());
        prop_assert_eq!(a.principles.len(), b.principles.len());
    }

    #[test]
    fn memoized_grounding_matches_a_fresh_derivation(
        calls in prop::collection::vec(
            (0..GROUNDING_QUESTIONS.len(), prop::collection::vec(0usize..64, 0..10)),
            1..6,
        ),
        noise in prop::collection::vec("[ -~]{0,120}", 0..3),
    ) {
        // One model answers every call twice: the first call of a
        // (question, knowledge) pair misses the answer cache, the second
        // hits it, and chunks repeat within and across lists. Both must
        // return the fresh answer and charge exactly its tokens.
        let mut pool = grounding_pool();
        pool.extend(noise);
        let llm = Llm::gpt4(0);
        for (q, picks) in calls {
            let question = GROUNDING_QUESTIONS[q];
            let knowledge: Vec<String> =
                picks.iter().map(|i| pool[i % pool.len()].clone()).collect();
            let (expected, prompt, completion) = fresh_answer(question, &knowledge);
            for _ in 0..2 {
                let before = llm.stats();
                let got = llm.answer(question, &knowledge);
                let after = llm.stats();
                prop_assert_eq!(format!("{got:?}"), expected.clone());
                prop_assert_eq!(after.calls, before.calls + 2);
                prop_assert_eq!(after.prompt_tokens, before.prompt_tokens + prompt);
                prop_assert_eq!(
                    after.completion_tokens,
                    before.completion_tokens + completion
                );
            }
        }
    }

    #[test]
    fn shared_readings_match_a_fresh_derivation_across_threads(
        sessions in prop::collection::vec(
            prop::collection::vec(
                (0..GROUNDING_QUESTIONS.len(), prop::collection::vec(0usize..1 << 20, 0..130)),
                1..4,
            ),
            2..5,
        ),
    ) {
        // One model per thread, all reading through the process-wide
        // cache at once, over random subsets and orders of real pages
        // (up to 130 of ~70 tokens each, so some lists overflow the 8k
        // window). Each call runs twice, missing and then hitting the
        // model's answer cache; both must equal the fresh derivation
        // and charge exactly its tokens.
        let pages = &*DEFAULT_PAGES;
        let failures: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = sessions
                .iter()
                .enumerate()
                .map(|(seed, calls)| {
                    scope.spawn(move || {
                        let llm = Llm::gpt4(seed as u64);
                        let mut failures = Vec::new();
                        for (q, picks) in calls {
                            let question = GROUNDING_QUESTIONS[*q];
                            let knowledge: Vec<String> =
                                picks.iter().map(|i| pages[i % pages.len()].clone()).collect();
                            let (expected, prompt, completion) = fresh_answer(question, &knowledge);
                            for pass in 0..2 {
                                let before = llm.stats();
                                let got = format!("{:?}", llm.answer(question, &knowledge));
                                let after = llm.stats();
                                let delta = (
                                    after.calls - before.calls,
                                    after.prompt_tokens - before.prompt_tokens,
                                    after.completion_tokens - before.completion_tokens,
                                );
                                if got != expected || delta != (2, prompt, completion) {
                                    failures.push(format!(
                                        "model {seed} pass {pass} {question:?} over {} pages: \
                                         got {got} charging {delta:?}, want {expected} \
                                         charging {:?}",
                                        knowledge.len(),
                                        (2, prompt, completion)
                                    ));
                                }
                            }
                        }
                        failures
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        prop_assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn proposed_searches_are_unique_and_bounded(max in 0usize..8) {
        const Q: &str = "Whose datacenter is more vulnerable to a solar superstorm, Google's \
                         or Facebook's?";
        let llm = Llm::gpt4(0);
        let queries = llm.propose_searches(Q, &[], max);
        prop_assert!(queries.len() <= max);
        let mut dedup = queries.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), queries.len(), "duplicate queries proposed");
    }
}
