//! The knowledge entry record.

use serde::{Deserialize, Serialize};

/// One memorised piece of knowledge, with full provenance.
///
/// Provenance matters: §4.2 of the paper "carefully monitor\[s\] how Bob
/// draws conclusions … to verify the sources of the knowledge"; the
/// evaluation harness replays that audit over these fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeEntry {
    /// Stable id within the store.
    pub id: u64,
    /// The query or goal that led to this knowledge.
    pub topic: String,
    /// The memorised text (usually a fetched page).
    pub content: String,
    /// Where it came from.
    pub source_url: String,
    /// Source category ("encyclopedia", "news", "forum", …).
    pub source_kind: String,
    /// Virtual time (µs) at memorisation.
    pub learned_at: u64,
    /// Importance in [0, 1], set by the memoriser (e.g. rank in search
    /// results).
    pub importance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> KnowledgeEntry {
        KnowledgeEntry {
            id: 1,
            topic: "solar superstorms".into(),
            content: "CMEs drive geomagnetic storms.".into(),
            source_url: "sim://encyclopedia.test/wiki/coronal-mass-ejection".into(),
            source_kind: "encyclopedia".into(),
            learned_at: 123,
            importance: 0.8,
        }
    }

    #[test]
    fn serde_round_trip() {
        let e = entry();
        let json = serde_json::to_string(&e).unwrap();
        let back: KnowledgeEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn a_stored_embedding_is_ignored() {
        // Files written before the field was dropped carry each entry's
        // embedding; it loads as if absent (the store re-embeds).
        let json = r#"{"id":1,"topic":"solar superstorms","content":"CMEs drive geomagnetic storms.",
                       "source_url":"sim://encyclopedia.test/wiki/coronal-mass-ejection",
                       "source_kind":"encyclopedia","learned_at":123,"importance":0.8,
                       "embedding":[10.0,1e39,-3.5]}"#;
        let e: KnowledgeEntry = serde_json::from_str(json).unwrap();
        assert_eq!(e, entry());
        assert!(!serde_json::to_string(&e).unwrap().contains("embedding"));
    }
}
