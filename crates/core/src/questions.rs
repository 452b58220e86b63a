//! Research-question generation (§5 "Generating high-quality research
//! questions": "train an agent explicitly to generate research
//! questions … Once the agent begins to pose questions without
//! retrieving ready-made answers from existing studies, the viability
//! and novelty of these questions can be reassessed").
//!
//! The generator mines the agent's own knowledge memory for entities
//! and proposes the comparison/causal questions its intents can
//! express. Each candidate is then *appraised against the agent
//! itself*: questions the agent can already answer at high confidence
//! are "settled" (low novelty — the literature it read answers them);
//! questions it answers at low confidence despite having studied the
//! area are research opportunities (high novelty).

use crate::agent::ResearchAgent;
use ira_simllm::extract::{Extraction, Fact};
use serde::{Deserialize, Serialize};

/// A generated research question with its appraisal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResearchQuestion {
    pub question: String,
    /// The agent's confidence answering it from current knowledge.
    pub confidence: u8,
    /// Novelty score in 0–10: `10 - confidence` — high when the agent's
    /// corpus reading does not settle the question.
    pub novelty: u8,
}

/// Mine the agent's memory and propose ranked research questions
/// (most novel first). `max` caps the output.
pub fn generate(agent: &mut ResearchAgent, max: usize) -> Vec<ResearchQuestion> {
    // Read everything the agent knows.
    let mut ex = Extraction::default();
    for entry in agent.memory().entries() {
        ex.absorb(&entry.content, None);
    }

    let mut candidates = candidate_questions(&ex);
    candidates.sort();
    candidates.dedup();

    let mut out: Vec<ResearchQuestion> = candidates
        .into_iter()
        .map(|question| {
            let confidence = agent.confidence(&question);
            ResearchQuestion {
                question,
                confidence,
                novelty: 10u8.saturating_sub(confidence),
            }
        })
        .collect();
    out.sort_by(|a, b| b.novelty.cmp(&a.novelty).then(a.question.cmp(&b.question)));
    out.truncate(max);
    out
}

/// Enumerate the questions expressible over the extracted knowledge.
fn candidate_questions(ex: &Extraction) -> Vec<String> {
    let mut questions = Vec::new();

    // Cable-route comparisons: every pair of distinct country pairs
    // (two cables may share one), each pair once.
    let mut routes: Vec<(String, String)> = ex
        .routes()
        .filter_map(|f| match f {
            Fact::CableRoute {
                from_country,
                to_country,
                ..
            } => Some((from_country.clone(), to_country.clone())),
            _ => None,
        })
        .collect();
    routes.sort();
    routes.dedup();
    for (i, a) in routes.iter().enumerate() {
        for b in routes.iter().skip(i + 1) {
            questions.push(format!(
                "Which is more vulnerable to solar activity? The fiber optic cable that \
                 connects {} to {} or the one that connects {} to {}?",
                a.0, a.1, b.0, b.1
            ));
        }
    }

    // Operator comparisons: every pair of operators with any fleet fact.
    let mut operators: Vec<String> = ex
        .facts
        .iter()
        .filter_map(|f| match f {
            Fact::RegionCoverage { operator, .. }
            | Fact::LowLatShare { operator, .. }
            | Fact::DcPresence { operator, .. } => Some(operator.clone()),
            _ => None,
        })
        .collect();
    operators.sort();
    operators.dedup();
    for (i, a) in operators.iter().enumerate() {
        for b in operators.iter().skip(i + 1) {
            questions.push(format!(
                "Whose datacenter is more vulnerable to a solar superstorm, {a}'s or {b}'s?"
            ));
        }
    }

    // Region comparisons from grid latitudes.
    let mut regions: Vec<String> = ex
        .facts
        .iter()
        .filter_map(|f| match f {
            Fact::RegionGridLatitude { region, .. } => Some(region.clone()),
            _ => None,
        })
        .collect();
    regions.sort();
    regions.dedup();
    for (i, a) in regions.iter().enumerate() {
        for b in regions.iter().skip(i + 1) {
            questions.push(format!(
                "Is {a} or {b} more susceptible to Internet disruption from a solar \
                 superstorm?"
            ));
        }
    }

    // Incident follow-ups.
    for f in &ex.facts {
        if let Fact::IncidentCause { incident, .. } = f {
            questions.push(format!(
                "What was the impact of the {incident} on the Internet?"
            ));
        }
    }

    questions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;

    #[test]
    fn candidates_cover_the_knowledge_shapes() {
        let ex = Extraction::from_text(
            "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, \
             linking South America and Europe. The Grace Hopper submarine cable connects New \
             York, United States to Bude, United Kingdom, linking North America and Europe. \
             Google operates data centers in 6 of the world's 7 major regions. Facebook \
             operates data centers in 3 of the world's 7 major regions. The 2021 Facebook \
             outage was caused by a faulty BGP configuration change that withdrew the routes \
             to its own DNS servers.",
            None,
        );
        let qs = candidate_questions(&ex);
        assert!(qs
            .iter()
            .any(|q| q.contains("Brazil") && q.contains("United States")));
        assert!(qs
            .iter()
            .any(|q| q.contains("Facebook's") || q.contains("Google's")));
        assert!(qs
            .iter()
            .any(|q| q.contains("impact of the 2021 Facebook outage")));
    }

    #[test]
    fn no_pair_of_cable_routes_is_compared_twice() {
        // Two cables connect Brazil to Portugal, one before and one
        // after the United States–United Kingdom cable: read as three
        // routes, they once gave the one comparison in both orders.
        let ex = Extraction::from_text(
            "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, \
             linking South America and Europe. The Grace Hopper submarine cable connects New \
             York, United States to Bude, United Kingdom, linking North America and Europe. \
             The Atlantis-2 submarine cable connects Fortaleza, Brazil to Lisbon, Portugal, \
             linking South America and Europe.",
            None,
        );
        assert_eq!(ex.routes().count(), 3);
        // Each question's two routes, in either order.
        let questions = candidate_questions(&ex);
        let pairs: Vec<Vec<&str>> = questions
            .iter()
            .map(|q| {
                let mut routes: Vec<&str> = q
                    .split("connects ")
                    .skip(1)
                    .map(|r| r.split(" or ").next().unwrap().trim_end_matches('?'))
                    .collect();
                routes.sort();
                routes
            })
            .collect();
        assert_eq!(
            pairs,
            [["Brazil to Portugal", "United States to United Kingdom"]]
        );
    }

    #[test]
    fn generated_questions_are_ranked_by_novelty() {
        let env = Environment::fixture();
        let mut bob = ResearchAgent::bob(&env);
        bob.train();
        // Settle one question so the appraisal has contrast.
        let _ = bob.self_learn(
            "Which is more vulnerable to solar activity? The fiber optic cable that connects \
             Brazil to Europe or the one that connects the US to Europe?",
        );
        let questions = generate(&mut bob, 12);
        assert!(
            !questions.is_empty(),
            "a trained agent should pose questions"
        );
        for w in questions.windows(2) {
            assert!(
                w[0].novelty >= w[1].novelty,
                "ranking must be novelty-descending"
            );
        }
        for q in &questions {
            assert_eq!(q.novelty, 10u8.saturating_sub(q.confidence));
        }
    }

    #[test]
    fn empty_memory_generates_nothing() {
        let env = Environment::fixture();
        let mut bob = ResearchAgent::bob(&env);
        assert!(generate(&mut bob, 10).is_empty());
    }
}
