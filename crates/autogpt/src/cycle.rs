//! The per-iteration record: THOUGHTS / REASONING / PLAN / CRITICISM /
//! COMMAND, rendered the way Auto-GPT prints them (and the way the
//! paper's snippets show agent Bob thinking).

use crate::command::Command;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One loop iteration's full record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentCycle {
    pub thoughts: String,
    pub reasoning: String,
    pub plan: Vec<String>,
    pub criticism: String,
    pub command: Command,
}

impl AgentCycle {
    pub fn new(thoughts: impl Into<String>, command: Command) -> Self {
        AgentCycle {
            thoughts: thoughts.into(),
            reasoning: String::new(),
            plan: Vec::new(),
            criticism: String::new(),
            command,
        }
    }

    pub fn with_reasoning(mut self, reasoning: impl Into<String>) -> Self {
        self.reasoning = reasoning.into();
        self
    }

    pub fn with_plan(mut self, plan: Vec<String>) -> Self {
        self.plan = plan;
        self
    }
}

impl fmt::Display for AgentCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "THOUGHTS: {}", self.thoughts)?;
        if !self.reasoning.is_empty() {
            writeln!(f, "REASONING: {}", self.reasoning)?;
        }
        if !self.plan.is_empty() {
            writeln!(f, "PLAN:")?;
            for step in &self.plan {
                writeln!(f, "- {step}")?;
            }
        }
        if !self.criticism.is_empty() {
            writeln!(f, "CRITICISM: {}", self.criticism)?;
        }
        write!(f, "NEXT ACTION: {}", self.command)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_like_autogpt_output() {
        let cycle = AgentCycle::new(
            "I need to gather information on solar superstorms.",
            Command::Google {
                query: "solar superstorms".into(),
            },
        )
        .with_plan(vec![
            "Use the 'google' command to search for information.".into(),
            "Analyze the search results.".into(),
        ]);
        let text = cycle.to_string();
        assert!(text.starts_with("THOUGHTS: I need to gather"));
        assert!(text.contains("PLAN:\n- Use the 'google' command"));
        assert!(text.ends_with("NEXT ACTION: google(query=\"solar superstorms\")"));
    }

    #[test]
    fn empty_sections_are_omitted() {
        let cycle = AgentCycle::new(
            "t",
            Command::TaskComplete {
                reason: "done".into(),
            },
        );
        let text = cycle.to_string();
        assert!(!text.contains("REASONING"));
        assert!(!text.contains("PLAN"));
        assert!(!text.contains("CRITICISM"));
    }
}
