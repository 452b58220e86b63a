//! Goal planning and chain-of-thought decomposition.
//!
//! Given a role goal ("Understand solar superstorms and Coronal Mass
//! Ejection…"), the model produces an Auto-GPT-style action plan:
//! search steps with concrete queries, an analysis step, and a
//! memorisation step — mirroring the PLAN block the paper shows. The
//! chain-of-thought decomposition splits a compound goal into aspect
//! phrases, each of which becomes a search query.

use serde::{Deserialize, Serialize};

/// What a plan step does when executed by the agent loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepAction {
    /// Issue a web search for `query`.
    Search { query: String },
    /// Fetch and read the top results of the previous search.
    BrowseResults,
    /// Save what was learned into knowledge memory.
    Memorize,
}

/// One step of an action plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    pub description: String,
    pub action: StepAction,
}

/// A full plan for one goal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionPlan {
    pub goal: String,
    /// The Auto-GPT "THOUGHTS" line accompanying the plan.
    pub thoughts: String,
    pub steps: Vec<PlanStep>,
}

/// Words that carry no search signal when building queries from goals.
const GOAL_STOPWORDS: &[&str] = &[
    "a",
    "an",
    "and",
    "are",
    "as",
    "been",
    "but",
    "by",
    "current",
    "etc",
    "for",
    "from",
    "gain",
    "global",
    "have",
    "how",
    "in",
    "into",
    "is",
    "it",
    "its",
    "knowledge",
    "large",
    "learn",
    "my",
    "of",
    "on",
    "or",
    "past",
    "principles",
    "scale",
    "several",
    "such",
    "that",
    "the",
    "their",
    "them",
    "these",
    "this",
    "to",
    "understand",
    "understanding",
    "up",
    "via",
    "well",
    "what",
    "which",
    "with",
];

fn is_goal_stopword(w: &str) -> bool {
    GOAL_STOPWORDS.contains(&w)
}

/// Chain-of-thought decomposition: split a compound goal into aspect
/// phrases along clause boundaries.
pub fn decompose(goal: &str) -> Vec<String> {
    let mut aspects = Vec::new();
    for clause in goal.split([',', ';']) {
        // "such as X, Y" enumerations become their own aspects upstream
        // of the comma split; strip the connective here.
        let clause = clause.trim();
        let clause = clause.strip_prefix("and ").unwrap_or(clause);
        let clause = clause.strip_prefix("such as ").unwrap_or(clause);
        if clause.is_empty() {
            continue;
        }
        let keywords = keywords_of(clause);
        if keywords.split_whitespace().count() >= 1 {
            aspects.push(keywords);
        }
    }
    aspects.dedup();
    aspects
}

/// Extract the content words of a clause, preserving order.
fn keywords_of(clause: &str) -> String {
    clause
        .split_whitespace()
        .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric() && c != '-'))
        .filter(|w| w.len() > 1 && !is_goal_stopword(&w.to_lowercase()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Build the action plan for a goal.
pub fn plan_goal(goal: &str) -> ActionPlan {
    let aspects = decompose(goal);
    let mut steps = Vec::new();
    for aspect in &aspects {
        steps.push(PlanStep {
            description: format!("Use the 'google' command to search for information on {aspect}."),
            action: StepAction::Search {
                query: aspect.clone(),
            },
        });
    }
    steps.push(PlanStep {
        description: "Analyze the search results and gather relevant information.".into(),
        action: StepAction::BrowseResults,
    });
    steps.push(PlanStep {
        description: "Save important information to memory for future reference.".into(),
        action: StepAction::Memorize,
    });

    ActionPlan {
        goal: goal.to_string(),
        thoughts: format!(
            "I need to gather information on {}. I will start by using the 'google' command \
             to search for relevant information.",
            aspects
                .first()
                .cloned()
                .unwrap_or_else(|| "the topic".into())
        ),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOAL_1: &str = "Understand solar superstorms and Coronal Mass Ejection, and \
                          principles of their formation and effects.";
    const GOAL_3: &str = "Learn the current global large-scale network infrastructure \
                          equipment such as optic fiber cables, power supply systems, etc.";

    #[test]
    fn decompose_splits_compound_goals() {
        let aspects = decompose(GOAL_1);
        assert!(aspects.len() >= 2, "got {aspects:?}");
        assert!(aspects[0].contains("solar superstorms"));
        assert!(aspects[0].contains("Coronal Mass Ejection"));
    }

    #[test]
    fn decompose_handles_such_as_enumerations() {
        let aspects = decompose(GOAL_3);
        assert!(
            aspects.iter().any(|a| a.contains("optic fiber cables")),
            "got {aspects:?}"
        );
        assert!(aspects.iter().any(|a| a.contains("power supply systems")));
    }

    #[test]
    fn keywords_drop_scaffolding_words() {
        let kw = keywords_of("Understand the principles of their formation and effects");
        assert!(!kw.to_lowercase().contains("understand"));
        assert!(!kw.contains("the"));
        assert!(kw.contains("formation"));
    }

    fn search_count(plan: &ActionPlan) -> usize {
        plan.steps
            .iter()
            .filter(|s| matches!(s.action, StepAction::Search { .. }))
            .count()
    }

    #[test]
    fn plan_has_searches_then_analysis_then_memorize() {
        let plan = plan_goal(GOAL_1);
        assert!(search_count(&plan) >= 2);
        let n = plan.steps.len();
        assert_eq!(plan.steps[n - 2].action, StepAction::BrowseResults);
        assert_eq!(plan.steps[n - 1].action, StepAction::Memorize);
        assert!(plan.thoughts.contains("google"));
    }

    #[test]
    fn plan_for_vacuous_goal_still_closes() {
        let plan = plan_goal("and the of");
        assert_eq!(search_count(&plan), 0);
        assert_eq!(plan.steps.len(), 2);
    }

    #[test]
    fn decompose_is_idempotent_on_simple_phrases() {
        let aspects = decompose("submarine cable routes");
        assert_eq!(aspects, vec!["submarine cable routes".to_string()]);
    }
}
