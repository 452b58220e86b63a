//! Chat message and prompt types, mirroring the ChatML-style interface
//! of the real model.

use crate::token::count_tokens;
use serde::{Deserialize, Serialize};

/// Speaker role of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    System,
    User,
    Assistant,
}

/// One chat message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    pub role: Role,
    pub content: String,
}

impl Message {
    pub fn system(content: impl Into<String>) -> Self {
        Message {
            role: Role::System,
            content: content.into(),
        }
    }
    pub fn user(content: impl Into<String>) -> Self {
        Message {
            role: Role::User,
            content: content.into(),
        }
    }
}

/// A full prompt: ordered messages.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Prompt {
    pub messages: Vec<Message>,
}

impl Prompt {
    pub fn new() -> Self {
        Prompt::default()
    }

    pub fn with(mut self, msg: Message) -> Self {
        self.messages.push(msg);
        self
    }

    pub fn push(&mut self, msg: Message) {
        self.messages.push(msg);
    }

    /// Total prompt tokens.
    pub fn token_count(&self) -> usize {
        self.messages
            .iter()
            .map(|m| count_tokens(&m.content) + 4)
            .sum()
    }

    /// All user/system text concatenated — the model's working context.
    pub fn context_text(&self) -> String {
        self.messages
            .iter()
            .filter(|m| m.role != Role::Assistant)
            .map(|m| m.content.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The last user message, which carries the actual question.
    pub fn last_user(&self) -> Option<&str> {
        self.messages
            .iter()
            .rev()
            .find(|m| m.role == Role::User)
            .map(|m| m.content.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model turn; the simulated model reads prompts and never
    /// writes one.
    fn assistant(content: &str) -> Message {
        Message {
            role: Role::Assistant,
            content: content.into(),
        }
    }

    #[test]
    fn builders_set_roles() {
        assert_eq!(Message::system("x").role, Role::System);
        assert_eq!(Message::user("x").role, Role::User);
    }

    #[test]
    fn prompt_accumulates_and_counts() {
        let p = Prompt::new()
            .with(Message::system("You are a helpful researcher."))
            .with(Message::user("What is a CME?"));
        assert_eq!(p.messages.len(), 2);
        assert!(p.token_count() > 8);
    }

    #[test]
    fn last_user_finds_the_question() {
        let p = Prompt::new()
            .with(Message::user("first"))
            .with(assistant("reply"))
            .with(Message::user("second"));
        assert_eq!(p.last_user(), Some("second"));
    }

    #[test]
    fn context_text_excludes_assistant_turns() {
        let p = Prompt::new()
            .with(Message::system("sys"))
            .with(assistant("hidden"))
            .with(Message::user("query"));
        let ctx = p.context_text();
        assert!(ctx.contains("sys") && ctx.contains("query"));
        assert!(!ctx.contains("hidden"));
    }

    #[test]
    fn empty_prompt_has_no_user() {
        assert_eq!(Prompt::new().last_user(), None);
    }
}
