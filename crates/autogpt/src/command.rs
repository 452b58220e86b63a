//! The command vocabulary of the autonomous loop.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A command the agent can issue — the same verbs Auto-GPT exposes to
/// the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Search the web.
    Google { query: String },
    /// Fetch a page.
    BrowseWebsite { url: String },
    /// Save text to knowledge memory.
    Memorize { topic: String, url: String },
    /// Declare the current goal achieved.
    TaskComplete { reason: String },
}

impl Command {
    /// The Auto-GPT command name.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Google { .. } => "google",
            Command::BrowseWebsite { .. } => "browse_website",
            Command::Memorize { .. } => "memorize",
            Command::TaskComplete { .. } => "task_complete",
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Google { query } => write!(f, "google(query={query:?})"),
            Command::BrowseWebsite { url } => write!(f, "browse_website(url={url})"),
            Command::Memorize { topic, url } => write!(f, "memorize(topic={topic:?}, url={url})"),
            Command::TaskComplete { reason } => write!(f, "task_complete(reason={reason:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_autogpt_verbs() {
        assert_eq!(Command::Google { query: "x".into() }.name(), "google");
        assert_eq!(
            Command::BrowseWebsite {
                url: "sim://a.test/".into()
            }
            .name(),
            "browse_website"
        );
    }

    #[test]
    fn display_is_compact_and_informative() {
        let c = Command::Google {
            query: "solar storms".into(),
        };
        assert_eq!(c.to_string(), "google(query=\"solar storms\")");
    }

    #[test]
    fn serde_round_trip() {
        let c = Command::Memorize {
            topic: "t".into(),
            url: "sim://a.test/x".into(),
        };
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<Command>(&json).unwrap(), c);
    }
}
