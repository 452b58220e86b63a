//! X3 — multi-model committees (extension; §5 "Learning and
//! interacting with multiple LLMs").
//!
//! Several independently seeded agents — each with its own view of the
//! web — investigate the quiz; answers are aggregated by plurality
//! vote. Reported per question: the committee verdict, cross-member
//! agreement, and mean confidence, against the single-agent answer.
//! The interesting rows are the ones where members diverge: agreement
//! below 1.0 flags exactly the questions a single agent is least
//! reliable on.
//!
//! Committee members are independent end-to-end runs, so `--threads N`
//! evaluates them on worker threads ([`Committee::evaluate_member`])
//! and aggregates in member order — the same report, faster.

use ira::core::ensemble::{aggregate, MEMBERS};
use ira::core::Committee;
use ira::evalkit::report::{banner, table};
use ira::prelude::*;
use ira_bench::{print_timing, threads_from_args};

fn main() {
    let threads = threads_from_args();
    print!(
        "{}",
        banner(
            "X3",
            "committee of independently trained agents",
            "(extension) plurality voting across models; disagreement marks unreliable \
             answers"
        )
    );

    let start = std::time::Instant::now();
    let engine = Engine::new();
    let mut session = engine.spawn_session(SessionConfig::bob());
    let quiz = QuizBank::from_world(session.world());
    let questions: Vec<&str> = quiz.iter().map(|i| i.question.as_str()).collect();

    // Single-agent reference.
    session.agent.train();
    let single: Vec<(Option<String>, u8)> = questions
        .iter()
        .map(|q| {
            let _ = session.agent.self_learn(q);
            let a = session.agent.ask(q);
            (a.verdict, a.confidence)
        })
        .collect();

    let committee = Committee::new(RoleDefinition::bob());
    let per_member = sweep((0..MEMBERS).collect(), threads, |_, m| {
        committee.evaluate_member(m, &questions)
    });
    let answers: Vec<_> = questions
        .iter()
        .enumerate()
        .map(|(qi, q)| aggregate(q, per_member.iter().map(|ms| ms[qi].clone()).collect()))
        .collect();

    let rows: Vec<Vec<String>> = quiz
        .iter()
        .zip(&answers)
        .zip(&single)
        .map(|((item, committee_ans), (single_verdict, single_conf))| {
            vec![
                item.id.clone(),
                single_verdict.clone().unwrap_or_else(|| "(hedge)".into()),
                single_conf.to_string(),
                committee_ans
                    .verdict
                    .clone()
                    .unwrap_or_else(|| "(hedge)".into()),
                format!("{:.2}", committee_ans.agreement),
                format!("{:.1}", committee_ans.mean_confidence),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "question",
                "single verdict",
                "conf",
                "committee verdict",
                "agree",
                "mean-conf"
            ],
            &rows
        )
    );

    let contested: Vec<&str> = quiz
        .iter()
        .zip(&answers)
        .filter(|(_, a)| a.agreement < 1.0)
        .map(|(item, _)| item.id.as_str())
        .collect();
    println!(
        "contested questions (agreement < 1.0): {}",
        if contested.is_empty() {
            "none".into()
        } else {
            contested.join(", ")
        }
    );
    print_timing(threads, start.elapsed(), engine.corpus_builds());
}
