//! Multi-model committees (§5 "Learning and interacting with multiple
//! LLMs": "varying and contrasting the LLMs will gain insights into
//! further parameter tuning and performance improvements").
//!
//! A [`Committee`] trains several independent agents — each with its
//! own seed *and its own view of the web* (different corpus prose
//! seeds), so their training trajectories genuinely diverge — then
//! aggregates their answers: majority verdict, mean confidence, and an
//! agreement score that quantifies cross-model consensus.

use crate::agent::ResearchAgent;
use crate::config::AgentConfig;
use crate::env::Environment;
use crate::role::RoleDefinition;
use ira_webcorpus::CorpusConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Member agents in a committee.
pub const MEMBERS: usize = 3;

/// Member *i* uses `BASE_SEED + i` for its model and its corpus view.
const BASE_SEED: u64 = 0x77;

/// One member's take on a question.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemberAnswer {
    pub member: usize,
    pub verdict: Option<String>,
    pub confidence: u8,
}

/// The committee's aggregated answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommitteeAnswer {
    pub question: String,
    pub members: Vec<MemberAnswer>,
    /// Majority verdict (plurality over committed members), if any
    /// member committed at all.
    pub verdict: Option<String>,
    /// Mean member confidence.
    pub mean_confidence: f64,
    /// Share of members agreeing with the majority verdict (0 when no
    /// member committed).
    pub agreement: f64,
}

/// A committee of [`MEMBERS`] independently trained agents.
pub struct Committee {
    role: RoleDefinition,
}

impl Committee {
    pub fn new(role: RoleDefinition) -> Self {
        Committee { role }
    }

    /// Train member `m` in its own environment and self-learn every
    /// question. Members are independent — callers may run them on
    /// separate threads (the committee itself is `Sync`) and aggregate
    /// with [`aggregate`].
    pub fn evaluate_member(&self, m: usize, questions: &[&str]) -> Vec<MemberAnswer> {
        let seed = BASE_SEED + m as u64;
        let world = ira_worldmodel::World::standard();
        let corpus = std::sync::Arc::new(ira_webcorpus::Corpus::generate(
            &world,
            CorpusConfig {
                seed,
                distractor_count: 150,
                ..CorpusConfig::default()
            },
        ));
        let env = Environment::from_parts(world, corpus, seed ^ 0xBEEF, None);
        let mut agent = ResearchAgent::new(self.role.clone(), &env, AgentConfig::default(), seed);
        agent.train();
        let mut answers = Vec::with_capacity(questions.len());
        for q in questions {
            let _ = agent.self_learn(q);
            let ans = agent.ask(q);
            answers.push(MemberAnswer {
                member: m,
                verdict: ans.verdict,
                confidence: ans.confidence,
            });
        }
        answers
    }

    /// Investigate a set of questions: every member trains in its own
    /// environment and self-learns each question; answers are
    /// aggregated per question.
    pub fn investigate(&self, questions: &[&str]) -> Vec<CommitteeAnswer> {
        // Collect every member's answers first (member-major order so
        // each trains exactly once).
        let per_member: Vec<Vec<MemberAnswer>> = (0..MEMBERS)
            .map(|m| self.evaluate_member(m, questions))
            .collect();

        questions
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let members: Vec<MemberAnswer> =
                    per_member.iter().map(|ms| ms[qi].clone()).collect();
                aggregate(q, members)
            })
            .collect()
    }
}

/// Aggregate one question's member answers: plurality verdict over
/// case-normalised committed verdicts, mean confidence, agreement
/// share.
pub fn aggregate(question: &str, members: Vec<MemberAnswer>) -> CommitteeAnswer {
    let mean_confidence =
        members.iter().map(|m| m.confidence as f64).sum::<f64>() / members.len() as f64;

    // Plurality vote over normalized verdicts of committed members.
    let mut votes: BTreeMap<String, (usize, String)> = BTreeMap::new();
    for m in &members {
        if let Some(v) = &m.verdict {
            let key = v.to_lowercase();
            let entry = votes.entry(key).or_insert((0, v.clone()));
            entry.0 += 1;
        }
    }
    let winner = votes.values().max_by_key(|(count, _)| *count).cloned();
    let (verdict, agreement) = match winner {
        Some((count, text)) => (Some(text), count as f64 / members.len() as f64),
        None => (None, 0.0),
    };

    CommitteeAnswer {
        question: question.to_string(),
        members,
        verdict,
        mean_confidence,
        agreement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(m: usize, verdict: Option<&str>, confidence: u8) -> MemberAnswer {
        MemberAnswer {
            member: m,
            verdict: verdict.map(str::to_owned),
            confidence,
        }
    }

    #[test]
    fn aggregate_takes_the_plurality() {
        let ans = aggregate(
            "q",
            vec![
                member(0, Some("the US cable"), 9),
                member(1, Some("the US cable"), 8),
                member(2, Some("the Brazil cable"), 7),
            ],
        );
        assert_eq!(ans.verdict.as_deref(), Some("the US cable"));
        assert!((ans.agreement - 2.0 / 3.0).abs() < 1e-9);
        assert!((ans.mean_confidence - 8.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_with_no_commitments_hedges() {
        let ans = aggregate("q", vec![member(0, None, 2), member(1, None, 3)]);
        assert!(ans.verdict.is_none());
        assert_eq!(ans.agreement, 0.0);
    }

    #[test]
    fn verdict_vote_is_case_insensitive() {
        let ans = aggregate(
            "q",
            vec![
                member(0, Some("The US Cable"), 9),
                member(1, Some("the us cable"), 9),
                member(2, Some("something else"), 9),
            ],
        );
        assert!(ans.verdict.unwrap().to_lowercase().contains("us cable"));
        assert!((ans.agreement - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn committee_of_three_agrees_on_the_flagship_question() {
        let committee = Committee::new(RoleDefinition::bob());
        let answers = committee.investigate(&[
            "Which is more vulnerable to solar activity? The fiber optic cable that connects \
             Brazil to Europe or the one that connects the US to Europe?",
        ]);
        assert_eq!(answers.len(), 1);
        let a = &answers[0];
        assert!(
            a.verdict.as_deref().unwrap_or("").contains("United States"),
            "committee verdict: {:?}",
            a.verdict
        );
        assert!(a.agreement >= 2.0 / 3.0, "agreement {}", a.agreement);
        assert!(a.mean_confidence >= 7.0);
    }
}
