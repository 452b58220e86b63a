//! Document model for the synthetic web.

use ira_simnet::Url;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable document identifier within a corpus.
pub type DocId = u32;

/// Where a document "lives" — which kind of site publishes it. Each
/// kind maps to one simnet virtual host (see [`crate::sites`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SourceKind {
    /// Encyclopedia-style reference articles.
    Encyclopedia,
    /// News coverage with datelines.
    News,
    /// Industry and engineering blogs.
    Blog,
    /// Forum threads (the Reddit stand-in).
    Forum,
    /// Short social posts (the Twitter stand-in).
    MicroPost,
    /// Academic paper abstracts.
    PaperAbstract,
}

impl SourceKind {
    pub const ALL: [SourceKind; 6] = [
        SourceKind::Encyclopedia,
        SourceKind::News,
        SourceKind::Blog,
        SourceKind::Forum,
        SourceKind::MicroPost,
        SourceKind::PaperAbstract,
    ];

    /// The simnet hostname serving this kind of document.
    pub fn host(&self) -> &'static str {
        match self {
            SourceKind::Encyclopedia => "encyclopedia.test",
            SourceKind::News => "news.test",
            SourceKind::Blog => "blog.test",
            SourceKind::Forum => "forum.test",
            SourceKind::MicroPost => "micro.test",
            SourceKind::PaperAbstract => "papers.test",
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            SourceKind::Encyclopedia => "encyclopedia",
            SourceKind::News => "news",
            SourceKind::Blog => "blog",
            SourceKind::Forum => "forum",
            SourceKind::MicroPost => "micropost",
            SourceKind::PaperAbstract => "paper",
        }
    }
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Coarse topic tags, used for corpus statistics and the provenance
/// audit (experiment "source verification" in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Topic {
    SolarPhysics,
    StormHistory,
    SubmarineCables,
    DataCenters,
    PowerGrids,
    InternetInfrastructure,
    ResponsePlanning,
    Incidents,
    /// Incident-specific pages emitted by a scenario (see
    /// `ira_worldmodel::scenario`); empty for the canonical
    /// solar-superstorm corpus.
    ScenarioEvent,
    Distractor,
}

impl Topic {
    pub fn label(&self) -> &'static str {
        match self {
            Topic::SolarPhysics => "solar-physics",
            Topic::StormHistory => "storm-history",
            Topic::SubmarineCables => "submarine-cables",
            Topic::DataCenters => "data-centers",
            Topic::PowerGrids => "power-grids",
            Topic::InternetInfrastructure => "internet-infrastructure",
            Topic::ResponsePlanning => "response-planning",
            Topic::Incidents => "incidents",
            Topic::ScenarioEvent => "scenario-event",
            Topic::Distractor => "distractor",
        }
    }
}

/// One document of the synthetic web.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    pub id: DocId,
    pub source: SourceKind,
    /// URL path under the source host, e.g. `/wiki/ellalink`.
    pub path: String,
    pub title: String,
    pub body: String,
    pub topic: Topic,
    /// Related-page URLs rendered as a "Related:" trailer, which the
    /// crawler extension can follow.
    #[serde(default)]
    pub links: Vec<String>,
}

impl Document {
    /// The document's full URL on the simulated web.
    pub fn url(&self) -> Url {
        Url::build(self.source.host(), &self.path, &[])
    }

    /// Title + body, the searchable text.
    pub fn full_text(&self) -> String {
        format!("{}\n{}", self.title, self.body)
    }
}

/// Turn a free-form title into a URL slug.
pub fn slugify(title: &str) -> String {
    let mut slug = String::with_capacity(title.len());
    let mut last_dash = true; // suppress leading dash
    for ch in title.chars() {
        if ch.is_ascii_alphanumeric() {
            slug.push(ch.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            slug.push('-');
            last_dash = true;
        }
    }
    while slug.ends_with('-') {
        slug.pop();
    }
    slug
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document {
            id: 7,
            source: SourceKind::Encyclopedia,
            path: "/wiki/ellalink".into(),
            title: "EllaLink".into(),
            body: "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal.\nIt entered service in 2021.".into(),
            topic: Topic::SubmarineCables,
            links: Vec::new(),
        }
    }

    #[test]
    fn url_combines_host_and_path() {
        assert_eq!(
            doc().url().to_string(),
            "sim://encyclopedia.test/wiki/ellalink"
        );
    }

    #[test]
    fn slugify_basic() {
        assert_eq!(slugify("EllaLink"), "ellalink");
        assert_eq!(slugify("Grace Hopper (cable)"), "grace-hopper-cable");
        assert_eq!(slugify("  -- weird -- title --  "), "weird-title");
        assert_eq!(slugify("Havfrue (AEC-2)"), "havfrue-aec-2");
    }

    #[test]
    fn source_hosts_are_distinct() {
        let mut hosts: Vec<_> = SourceKind::ALL.iter().map(|s| s.host()).collect();
        hosts.sort();
        hosts.dedup();
        assert_eq!(hosts.len(), SourceKind::ALL.len());
    }

    #[test]
    fn full_text_includes_title() {
        assert!(doc().full_text().contains("EllaLink"));
        assert!(doc().full_text().contains("2021"));
    }
}
