//! Provenance records: where a claim came from.
//!
//! The plexus rule — *all knowledge carries provenance* — applied to
//! the claim graph: every node lists one [`SourceRef`] per document
//! that mentioned it (stored once per document, in the graph's record
//! table), so corroboration can be weighed per **source host** (ten
//! pages from one adversary host count once) and audits can walk from
//! any claim back to the fetches that produced it.

use serde::{Deserialize, Serialize};

/// One document's contribution to a claim node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SourceRef {
    /// Source host (`encyclopedia.test`, `adversary.test`, …).
    pub host: String,
    /// Document path on that host.
    pub path: String,
    /// Virtual time (µs) the document was fetched/memorised.
    pub fetched_at_us: u64,
    /// The session that absorbed it (0 outside multi-session runs).
    pub session: u32,
    /// The knowledge-store entry the claim was read from.
    pub entry_id: u64,
}

/// Split a knowledge-entry URL into `(host, path)`.
///
/// Understands the `scheme://host/path` shape every simulated source
/// uses (`sim://`, `reflection://`); anything else becomes a host-only
/// reference so provenance is never silently dropped.
pub fn split_url(url: &str) -> (String, String) {
    let rest = match url.find("://") {
        Some(i) => &url[i + 3..],
        None => url,
    };
    match rest.find('/') {
        Some(i) => (rest[..i].to_string(), rest[i..].to_string()),
        None => (rest.to_string(), "/".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_simulated_urls() {
        assert_eq!(
            split_url("sim://cables.test/wiki/ellalink"),
            ("cables.test".to_string(), "/wiki/ellalink".to_string())
        );
        assert_eq!(
            split_url("reflection://self/2"),
            ("self".to_string(), "/2".to_string())
        );
    }

    #[test]
    fn schemeless_and_pathless_urls_degrade_gracefully() {
        assert_eq!(
            split_url("host.test/p/q"),
            ("host.test".to_string(), "/p/q".to_string())
        );
        assert_eq!(
            split_url("sim://bare.test"),
            ("bare.test".to_string(), "/".to_string())
        );
        assert_eq!(split_url(""), ("".to_string(), "/".to_string()));
    }
}
