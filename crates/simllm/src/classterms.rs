//! Per-scenario-class search vocabulary.
//!
//! The self-learning loop turns scenario-class [`MissingKnowledge`]
//! items into search queries. Instead of hard-coding one query string
//! per intent, the query vocabulary lives here in per-class term
//! tables — one table per registered scenario-class label (mirroring
//! `ScenarioClass::label()` in `ira-worldmodel`; `ira-evalkit` pins
//! the correspondence). Queries drawn from a class's table carry the
//! lexicon its scenarios' event documents actually publish, which is
//! what lets BM25 retrieval surface those documents ahead of
//! distractors.
//!
//! [`MissingKnowledge`]: crate::reason::MissingKnowledge

/// One vocabulary table per scenario class. Labels mirror
/// `ScenarioClass::label()` in `ira-worldmodel`; word order is query
/// order.
const TABLES: &[(&str, &[&str])] = &[
    (
        "geomagnetic",
        &[
            "solar",
            "superstorm",
            "geomagnetic",
            "storm",
            "cable",
            "repeaters",
            "latitude",
            "grid",
        ],
    ),
    (
        "physical-damage",
        &[
            "submarine",
            "cable",
            "severed",
            "landslide",
            "repair",
            "ship",
            "splice",
            "rerouted",
            "parallel",
            "transatlantic",
            "repeaters",
            "spans",
        ],
    ),
    (
        "power-failure",
        &[
            "power",
            "grid",
            "collapse",
            "geomagnetically",
            "induced",
            "currents",
            "transformers",
            "gic",
            "exposure",
            "latitude",
            "negligible",
        ],
    ),
    (
        "routing",
        &[
            "bgp",
            "routes",
            "withdrawn",
            "dns",
            "prefixes",
            "nameservers",
            "availability",
            "edge",
            "networks",
            "re-announced",
        ],
    ),
];

/// The vocabulary for a class label, in query order.
pub fn vocabulary(label: &str) -> Option<&'static [&'static str]> {
    TABLES
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, words)| *words)
}

/// Render a search query for a class, optionally anchored on a named
/// entity (cable, grid, or service).
pub fn incident_query(label: &str, entity: &str) -> String {
    let vocab = vocabulary(label).unwrap_or_default().join(" ");
    if entity.is_empty() {
        vocab
    } else {
        format!("{entity} {vocab}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_resolves_its_own_vocabulary() {
        for (label, words) in TABLES {
            assert!(!words.is_empty(), "{label} table empty");
            assert_eq!(vocabulary(label), Some(*words), "{label}");
        }
    }

    #[test]
    fn registered_scenario_classes_all_have_tables() {
        // Labels must mirror ScenarioClass::label() in ira-worldmodel;
        // the evalkit integration suite pins the live correspondence.
        for expected in ["geomagnetic", "physical-damage", "power-failure", "routing"] {
            assert!(
                vocabulary(expected).is_some(),
                "missing table for {expected}"
            );
        }
    }

    #[test]
    fn queries_carry_entity_and_class_vocabulary() {
        let q = incident_query("physical-damage", "anjana");
        assert!(q.starts_with("anjana "), "{q}");
        assert!(q.contains("severed") && q.contains("landslide"), "{q}");
        let generic = incident_query("routing", "");
        assert!(generic.starts_with("bgp"), "{generic}");
        assert!(!generic.starts_with(' '));
    }

    #[test]
    fn unknown_class_yields_empty_query() {
        assert_eq!(incident_query("volcanic", ""), "");
        assert!(vocabulary("volcanic").is_none());
    }
}
