//! Golden test for the scenario-class answers (physical-damage,
//! power-failure, routing).
//!
//! Every class question kind is answered against every subset of the
//! evidence it can use, crossed with three entity slots: one naming the
//! facts' entity, an empty one, and one naming some other entity. Each
//! case's `Answer` is serialized with `serde_json` and its `fingerprint64`
//! compared with `class_answers.golden`, one `label fingerprint` line per
//! case, so text, verdict, confidence, coverage bits, missing items,
//! principles, fact counts and reasoning steps are all pinned.
//!
//! On a mismatch the test prints each differing case with its new
//! `Answer` JSON, then the full replacement golden text. Replace the
//! golden file with that text only after a deliberate answer change.

use ira_simllm::extract::{Extraction, Fact, Principle};
use ira_simllm::intent::{CableQuestion, GridQuestion, Intent, RoutingQuestion};
use ira_simllm::{fingerprint64, reason};

const GOLDEN: &str = include_str!("class_answers.golden");

/// One piece of evidence a case may put in context.
enum Evidence {
    Fact(Fact),
    Principle(Principle),
}

/// A named alternative for one evidence dimension; `None` leaves it out.
type Choice = (&'static str, Option<Evidence>);

/// Every combination of one choice per dimension, as
/// (label, extraction) pairs.
fn subsets(dims: Vec<Vec<Choice>>) -> Vec<(String, Extraction)> {
    let mut out = vec![(String::new(), Extraction::default())];
    for dim in dims {
        let mut next = Vec::new();
        for (label, ex) in &out {
            for (name, ev) in &dim {
                let mut ex = ex.clone();
                match ev {
                    Some(Evidence::Fact(f)) => ex.facts.push(f.clone()),
                    Some(Evidence::Principle(p)) => {
                        ex.principles.insert(*p);
                    }
                    None => {}
                }
                let label = match (label.is_empty(), name.is_empty()) {
                    (_, true) => label.clone(),
                    (true, false) => name.to_string(),
                    (false, false) => format!("{label}+{name}"),
                };
                next.push((label, ex));
            }
        }
        out = next;
    }
    for (label, _) in &mut out {
        if label.is_empty() {
            *label = "none".into();
        }
    }
    out
}

/// A dimension that is either absent or holds `ev`.
fn optional(name: &'static str, ev: Evidence) -> Vec<Choice> {
    vec![("", None), (name, Some(ev))]
}

fn cable_evidence() -> Vec<Vec<Choice>> {
    vec![
        optional(
            "cut",
            Evidence::Fact(Fact::CableCut {
                cable: "Anjana".into(),
                cause: "a dragging ship anchor".into(),
            }),
        ),
        optional(
            "survivors",
            Evidence::Fact(Fact::CorridorSurvivors { count: 7 }),
        ),
        optional(
            "length",
            Evidence::Fact(Fact::LengthKm {
                entity: "Anjana".into(),
                km: 6_605.4,
            }),
        ),
        optional(
            "repeaters",
            Evidence::Fact(Fact::RepeaterCount {
                entity: "Anjana".into(),
                count: 83,
            }),
        ),
        optional("repair", Evidence::Principle(Principle::CableRepair)),
    ]
}

fn grid_evidence() -> Vec<Vec<Choice>> {
    vec![
        optional(
            "collapse",
            Evidence::Fact(Fact::GridCollapse {
                grid: "Hydro-Quebec".into(),
                cause: "transformers tripped offline".into(),
            }),
        ),
        vec![
            ("", None),
            (
                "most-same",
                Some(Evidence::Fact(Fact::GridMostExposed {
                    grid: "Hydro-Quebec".into(),
                })),
            ),
            (
                "most-other",
                Some(Evidence::Fact(Fact::GridMostExposed {
                    grid: "Nordic".into(),
                })),
            ),
        ],
        optional(
            "lowlat",
            Evidence::Fact(Fact::GridLowLatitude {
                grid: "Hydro-Quebec".into(),
            }),
        ),
        optional(
            "saturation",
            Evidence::Principle(Principle::TransformerSaturation),
        ),
    ]
}

fn routing_evidence() -> Vec<Vec<Choice>> {
    vec![
        optional(
            "during",
            Evidence::Fact(Fact::EdgeAvailability {
                during: true,
                percent: 12.6,
            }),
        ),
        optional(
            "restored",
            Evidence::Fact(Fact::EdgeAvailability {
                during: false,
                percent: 99.5,
            }),
        ),
        optional("content", Evidence::Fact(Fact::ContentPrefixesAnnounced)),
        optional(
            "withdrawal",
            Evidence::Principle(Principle::BgpDnsWithdrawal),
        ),
    ]
}

/// The three entity slots: the facts' entity (questions are lowercased
/// before classification), none, and an unrelated entity.
fn slots(entity: &'static str, other: &'static str) -> [(&'static str, &'static str); 3] {
    [("entity", entity), ("empty", ""), ("other", other)]
}

/// `intent` with its entity slot set to `slot`, and the name of its
/// question kind.
fn with_slot(mut intent: Intent, slot: &str) -> (String, Intent) {
    let (kind, entity) = match &mut intent {
        Intent::CableIncident { kind, cable } => (format!("{kind:?}"), cable),
        Intent::GridIncident { kind, grid } => (format!("{kind:?}"), grid),
        Intent::RoutingIncident { kind, service } => (format!("{kind:?}"), service),
        _ => unreachable!("only class intents are enumerated"),
    };
    *entity = slot.to_string();
    (kind, intent)
}

/// Every (label, intent, extraction) case, in golden-file order.
fn cases() -> Vec<(String, Intent, Extraction)> {
    use CableQuestion as C;
    use GridQuestion as G;
    use RoutingQuestion as R;
    let cable = [
        C::Cause,
        C::CorridorRedundancy,
        C::RepeatersLost,
        C::RepairMethod,
        C::Length,
    ]
    .map(|kind| Intent::CableIncident {
        kind,
        cable: String::new(),
    });
    let grid = [
        G::Cause,
        G::MostExposed,
        G::LowLatitudeRisk,
        G::FailingComponent,
    ]
    .map(|kind| Intent::GridIncident {
        kind,
        grid: String::new(),
    });
    let routing = [
        R::Cause,
        R::AvailabilityDuring,
        R::ContentPrefixes,
        R::Recovery,
    ]
    .map(|kind| Intent::RoutingIncident {
        kind,
        service: String::new(),
    });
    let classes = [
        (
            "cable",
            cable.to_vec(),
            cable_evidence(),
            slots("anjana", "dunant"),
        ),
        (
            "grid",
            grid.to_vec(),
            grid_evidence(),
            slots("hydro-quebec", "ercot"),
        ),
        (
            "routing",
            routing.to_vec(),
            routing_evidence(),
            slots("facebook.com", "example.org"),
        ),
    ];

    let mut out = Vec::new();
    for (class, intents, evidence, slots) in classes {
        let contexts = subsets(evidence);
        for intent in &intents {
            for (slot_label, slot) in slots {
                let (kind, intent) = with_slot(intent.clone(), slot);
                for (ctx, ex) in &contexts {
                    out.push((
                        format!("{class}/{kind}/{slot_label}/{ctx}"),
                        intent.clone(),
                        ex.clone(),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn class_answers_match_the_golden_fingerprints() {
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();

    let mut fresh = String::new();
    let mut diffs = Vec::new();
    let cases = cases();
    assert_eq!(
        cases.len(),
        960,
        "5·32·3 cable + 4·24·3 grid + 4·16·3 routing"
    );
    for (i, (label, intent, ex)) in cases.iter().enumerate() {
        let ans = reason::answer("", intent, ex);
        let json = serde_json::to_string(&ans).expect("answers serialize");
        let fp = format!("{:016x}", fingerprint64(&json));
        fresh.push_str(&format!("{label} {fp}\n"));
        if golden.get(i) != Some(&(label.as_str(), fp.as_str())) {
            diffs.push(format!("{label}\n  {json}"));
        }
    }

    if !diffs.is_empty() || golden.len() != cases.len() {
        panic!(
            "{} of {} class answers differ from the golden file ({} golden lines):\n{}\n\n\
             replacement class_answers.golden:\n{fresh}",
            diffs.len(),
            cases.len(),
            golden.len(),
            diffs.join("\n")
        );
    }
}
