//! ISSUE 9 integration contract: the sim-LLM's reasoning rules cover
//! every registered scenario class, not just the solar lexicon.
//!
//! Four bars, each pinned cross-crate so neither side can drift alone:
//!
//! 1. **Classification** — every registered scenario's quiz questions
//!    classify to the expected [`Intent`] variant (table keyed by
//!    conclusion id), and the solar questions classify exactly as they
//!    did before the scenario-class rules existed (isolation).
//! 2. **Learning** — every registered scenario's quiz drives at least
//!    one self-learning round and one search, and lands at least one
//!    consistent answer (the pre-fix defect was 0/0/0 for three of
//!    four scenarios).
//! 3. **Places** — every landing country and power grid named by the
//!    scenarios' corpora round-trips through
//!    `intent::normalize_place`/`place_region` to a real region name.
//! 4. **Class tables** — every [`ScenarioClass`] label has a search
//!    vocabulary table in `ira_simllm::classterms`, and each
//!    event-emitting scenario's documents actually contain words from
//!    its class's table (so proposed searches can rank the event docs).

use ira_engine::{Engine, SessionConfig};
use ira_evalkit::runner::evaluate_scenario;
use ira_simllm::classterms::vocabulary;
use ira_simllm::intent::{self, CableQuestion, GridQuestion, Intent, RoutingQuestion};
use ira_worldmodel::scenario::{lookup, ScenarioClass, ScenarioRegistry, ScenarioSpec};
use ira_worldmodel::{Region, World};

/// Expected intent shape per conclusion id, across all four registered
/// scenarios. Solar ids map to the pre-existing solar intents — pinning
/// them here is the cross-scenario isolation guarantee.
fn expected_intent(id: &str, intent: &Intent) -> bool {
    match id {
        // Solar (ids are the Debug form of ConclusionId).
        "BrazilEuropeCableSafer" => {
            matches!(intent, Intent::CompareCableVulnerability { .. })
        }
        "GoogleBetterSpread" => matches!(intent, Intent::CompareOperatorVulnerability { .. }),
        "HigherLatitudeHigherRisk" => matches!(intent, Intent::LatitudeDependence),
        "RepeatersAreWeakPoint" => matches!(intent, Intent::WeakComponent),
        "SubmarineOverTerrestrial" => matches!(intent, Intent::SubmarineVsTerrestrial),
        "UsMoreSusceptibleThanAsia" => {
            matches!(intent, Intent::CompareRegionSusceptibility { .. })
        }
        "LongerCablesHigherRisk" => matches!(intent, Intent::LengthEffect),
        "InterContinentalPartition" => matches!(intent, Intent::PartitionImpact),
        // Cable cut (physical-damage).
        "CableCutCause" => matches!(
            intent,
            Intent::CableIncident {
                kind: CableQuestion::Cause,
                ..
            }
        ),
        "CableCutCorridorRedundancy" => matches!(
            intent,
            Intent::CableIncident {
                kind: CableQuestion::CorridorRedundancy,
                ..
            }
        ),
        "CableCutRepeatersLost" => matches!(
            intent,
            Intent::CableIncident {
                kind: CableQuestion::RepeatersLost,
                ..
            }
        ),
        "CableCutRepairMethod" => matches!(
            intent,
            Intent::CableIncident {
                kind: CableQuestion::RepairMethod,
                ..
            }
        ),
        "CableCutLength" => matches!(
            intent,
            Intent::CableIncident {
                kind: CableQuestion::Length,
                ..
            }
        ),
        // Regional grid failure (power-failure).
        "GridFailureCause" => matches!(
            intent,
            Intent::GridIncident {
                kind: GridQuestion::Cause,
                ..
            }
        ),
        "GridFailureMostExposed" => matches!(
            intent,
            Intent::GridIncident {
                kind: GridQuestion::MostExposed,
                ..
            }
        ),
        "GridFailureLowLatitudeImmune" => matches!(
            intent,
            Intent::GridIncident {
                kind: GridQuestion::LowLatitudeRisk,
                ..
            }
        ),
        "GridFailureTransformers" => matches!(
            intent,
            Intent::GridIncident {
                kind: GridQuestion::FailingComponent,
                ..
            }
        ),
        // Route leak (routing).
        "RouteLeakCause" => matches!(
            intent,
            Intent::RoutingIncident {
                kind: RoutingQuestion::Cause,
                ..
            }
        ),
        "RouteLeakAvailability" => matches!(
            intent,
            Intent::RoutingIncident {
                kind: RoutingQuestion::AvailabilityDuring,
                ..
            }
        ),
        "RouteLeakContentStillAnnounced" => matches!(
            intent,
            Intent::RoutingIncident {
                kind: RoutingQuestion::ContentPrefixes,
                ..
            }
        ),
        "RouteLeakRecovery" => matches!(
            intent,
            Intent::RoutingIncident {
                kind: RoutingQuestion::Recovery,
                ..
            }
        ),
        other => panic!("no expected intent registered for conclusion id {other}"),
    }
}

/// Bar 1: table-driven classification over every registered scenario's
/// quiz, with the solar rows doubling as the isolation test — if a new
/// scenario-class rule ever captured a solar question, its row here
/// would stop matching its pre-existing solar intent.
#[test]
fn every_scenario_quiz_question_classifies_to_its_intent() {
    let world = World::standard();
    let mut checked = 0;
    for name in ScenarioRegistry::standard().names() {
        let scenario = lookup(name).expect("registered scenario");
        for c in scenario.conclusions(&world) {
            let intent = intent::classify(&c.question);
            assert!(
                expected_intent(&c.id, &intent),
                "{name}/{}: question {:?} classified as {intent:?}",
                c.id,
                c.question
            );
            assert!(
                !matches!(intent, Intent::Unknown),
                "{name}/{}: fell through to Unknown (the pre-fix no-learning path)",
                c.id
            );
            checked += 1;
        }
    }
    assert!(checked >= 21, "expected all four quizzes, saw {checked}");
}

/// Bar 2: the pre-fix defect pinned as a regression test — every
/// registered scenario's quiz must drive at least one learning round
/// and one search, and score at least one consistent answer.
#[test]
fn every_scenario_quiz_learns_searches_and_scores() {
    let engine = Engine::new();
    for name in ScenarioRegistry::standard().names() {
        let spec = ScenarioSpec::named(name);
        let mut session =
            engine.spawn_session(SessionConfig::for_scenario(&spec).expect("registered scenario"));
        session.agent.train();
        let scenario = lookup(name).expect("registered scenario");
        let world = session.env.world.clone();
        let run = evaluate_scenario(&mut session.agent, scenario.as_ref(), &world);
        assert!(
            run.total_learning_rounds() >= 1,
            "{name}: no learning rounds (pre-fix defect)"
        );
        assert!(
            run.total_searches() >= 1,
            "{name}: no searches (pre-fix defect)"
        );
        assert!(
            run.consistency.consistent_count() >= 1,
            "{name}: nothing consistent ({}/{})",
            run.consistency.consistent_count(),
            run.consistency.total()
        );
    }
}

/// Bar 3: every place a registered scenario's corpus can name — cable
/// landing countries and power grids, plus the region names themselves
/// — resolves through the place tables to a real region.
#[test]
fn scenario_places_round_trip_through_the_region_tables() {
    let world = World::standard();
    let region_names: Vec<&str> = Region::ALL.iter().map(|r| r.name()).collect();

    for cable in world.cables.iter() {
        for country in [&cable.from.country, &cable.to.country] {
            let place = intent::normalize_place(country);
            let region = intent::place_region(&place).unwrap_or_else(|| {
                panic!(
                    "landing country {country:?} (from {}) has no region",
                    cable.name
                )
            });
            assert!(
                region_names.contains(&region),
                "{country} mapped to unknown region {region}"
            );
        }
    }
    for grid in world.grids.iter() {
        let place = intent::normalize_place(&grid.name);
        let region = intent::place_region(&place)
            .unwrap_or_else(|| panic!("grid {:?} has no region", grid.name));
        assert_eq!(
            region,
            grid.region.name(),
            "grid {} mapped to the wrong region",
            grid.name
        );
    }
    for region in Region::ALL {
        let place = intent::normalize_place(region.name());
        assert_eq!(intent::place_region(&place), Some(region.name()));
    }
}

/// Bar 4: classterms tables exist for every scenario class, and each
/// event-emitting scenario's documents carry words from its class's
/// vocabulary, so the queries `propose_searches` builds from those
/// tables can actually rank the scenario's event pages.
#[test]
fn class_term_tables_cover_every_scenario_class_and_ground_its_docs() {
    for class in ScenarioClass::ALL {
        assert!(
            vocabulary(class.label()).is_some(),
            "no classterms table for {:?} ({})",
            class,
            class.label()
        );
    }

    let world = World::standard();
    for name in ScenarioRegistry::standard().names() {
        let scenario = lookup(name).expect("registered scenario");
        let docs = scenario.docs(&world);
        if docs.events.is_empty() {
            continue; // solar: the base corpus is its web
        }
        let label = scenario.class().label();
        let text = docs
            .events
            .iter()
            .flat_map(|d| d.sentences.iter())
            .cloned()
            .collect::<Vec<_>>()
            .join(" ")
            .to_lowercase();
        let covered = vocabulary(label)
            .expect("table exists")
            .iter()
            .filter(|w| text.contains(*w))
            .count();
        assert!(
            covered >= 4,
            "{name}: only {covered} {label} vocabulary words appear in its event docs"
        );
    }
}
