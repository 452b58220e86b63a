//! The quiz bank: one question per expert conclusion (§4.1 "we select
//! all the key conclusions in the SIGCOMM paper and generate quiz
//! questions").

use ira_worldmodel::incidents::{derive_incident_conclusions, IncidentCatalog};
use ira_worldmodel::scenario::{Scenario, ScenarioConclusion, SolarSuperstorm};
use ira_worldmodel::World;
use serde::{Deserialize, Serialize};

/// One quiz question with its expected answer and matching hints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuizItem {
    /// Stable label, e.g. "BrazilEuropeCableSafer" or
    /// "FacebookOutage2021".
    pub id: String,
    /// The expert statement being tested.
    pub statement: String,
    /// The question posed to the agent.
    pub question: String,
    /// Canonical expected answer.
    pub expected_answer: String,
    /// Terms indicating the agent reasoned from the right facts.
    pub rationale_terms: Vec<String>,
    /// Terms whose presence in a *verdict* marks the wrong side of a
    /// comparison (e.g. "brazil" when the answer should be the US
    /// cable). Empty for non-comparison questions.
    pub wrong_terms: Vec<String>,
}

/// The full quiz.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuizBank {
    items: Vec<QuizItem>,
}

impl QuizBank {
    /// Build the solar-superstorm quiz for a world.
    pub fn from_world(world: &World) -> Self {
        Self::for_scenario(world, &SolarSuperstorm)
    }

    /// Build the quiz from scenario conclusions (which carry their own
    /// wrong-term hints).
    pub fn from_scenario_conclusions(conclusions: &[ScenarioConclusion]) -> Self {
        let items = conclusions
            .iter()
            .map(|c| QuizItem {
                id: c.id.clone(),
                statement: c.statement.clone(),
                question: c.question.clone(),
                expected_answer: c.expected_answer.clone(),
                rationale_terms: c.rationale_terms.clone(),
                wrong_terms: c.wrong_terms.clone(),
            })
            .collect();
        QuizBank { items }
    }

    /// Build the quiz a scenario defines over `world`.
    pub fn for_scenario(world: &World, scenario: &dyn Scenario) -> Self {
        Self::from_scenario_conclusions(&scenario.conclusions(world))
    }

    /// Build the incident quiz (the second investigation domain) from
    /// an incident catalog.
    pub fn incidents(catalog: &IncidentCatalog) -> Self {
        let items = derive_incident_conclusions(catalog)
            .into_iter()
            .map(|c| QuizItem {
                id: format!("{:?}", c.id),
                statement: c.statement,
                question: c.question,
                expected_answer: c.expected_answer,
                rationale_terms: c.rationale_terms,
                wrong_terms: Vec::new(),
            })
            .collect();
        QuizBank { items }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &QuizItem> {
        self.items.iter()
    }

    pub fn get(&self, id: &str) -> Option<&QuizItem> {
        self.items.iter().find(|i| i.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ira_worldmodel::conclusions::ConclusionId;

    #[test]
    fn quiz_has_eight_items() {
        let quiz = QuizBank::from_world(&World::standard());
        assert_eq!(quiz.len(), 8);
        for id in ConclusionId::ALL {
            assert!(quiz.get(&format!("{id:?}")).is_some());
        }
    }

    #[test]
    fn comparison_items_carry_wrong_terms() {
        let quiz = QuizBank::from_world(&World::standard());
        assert!(!quiz
            .get("BrazilEuropeCableSafer")
            .unwrap()
            .wrong_terms
            .is_empty());
        assert!(quiz
            .get("RepeatersAreWeakPoint")
            .unwrap()
            .wrong_terms
            .is_empty());
    }

    #[test]
    fn incident_quiz_builds_from_the_catalog() {
        let quiz = QuizBank::incidents(&IncidentCatalog::standard());
        assert_eq!(quiz.len(), 4);
        let fb = quiz.get("FacebookOutage2021").unwrap();
        assert!(fb.question.contains("caused"));
        assert!(fb.expected_answer.contains("BGP"));
    }

    #[test]
    fn scenario_quizzes_cover_every_registered_scenario() {
        use ira_worldmodel::scenario::{lookup, ScenarioRegistry};
        let world = World::standard();
        for name in ScenarioRegistry::standard().names() {
            let quiz = QuizBank::for_scenario(&world, lookup(name).unwrap().as_ref());
            assert!(quiz.len() >= 4, "{name} quiz too small");
            for item in quiz.iter() {
                assert!(!item.question.is_empty());
                assert!(!item.expected_answer.is_empty());
            }
        }
    }

    #[test]
    fn questions_are_distinct() {
        let quiz = QuizBank::from_world(&World::standard());
        let mut questions: Vec<_> = quiz.iter().map(|i| i.question.clone()).collect();
        questions.sort();
        questions.dedup();
        assert_eq!(questions.len(), 8);
    }
}
