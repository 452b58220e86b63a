//! The reasoning engine: evidence slots, verdicts, calibrated
//! confidence, and missing-knowledge reporting.
//!
//! Every intent defines a set of weighted *evidence slots*. The engine
//! checks which slots the in-context extraction fills, computes a
//! coverage score in [0, 1], and maps it to the 0–10 confidence scale
//! the paper's agent self-reports:
//!
//! ```text
//! confidence = floor(2 + 7 · coverage)
//! ```
//!
//! so an empty context scores 2, general principles alone land near the
//! paper's observed pre-learning confidence of 3, and a fully grounded
//! answer reaches 9 — matching the 8–9 the paper reports after one
//! round of self-learning. Unfilled slots become [`MissingKnowledge`]
//! items, which the self-learning loop turns into search queries.
//!
//! The scenario-class questions (physical-damage, power-failure,
//! routing) share one engine, `class_incident`, over a static rule
//! table: per class, its label and one `Rule` per question kind. A rule
//! names a *lead* (an entity fact, a principle or a flag fact) and an
//! ordered list of corroborating items. With the lead in context the
//! engine commits to the rule's verdict; without it, it requests the
//! class's incident knowledge and hedges. The engine walks each rule in
//! table order, and that order is part of the answer: coverage is a
//! running `f64` sum (`0.7 + 0.2 + 0.1` and `0.7 + 0.1 + 0.2` differ in
//! the last bit), and missing items, principles and reasoning steps are
//! ordered vectors.

use crate::extract::{Extraction, ExtractionIndex, Fact, Principle};
use crate::intent::{Intent, RouteSpec};
use crate::prior;
use serde::{Deserialize, Serialize};

/// Knowledge the model knows it lacks for the current question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MissingKnowledge {
    /// Nothing memorised about a named incident.
    IncidentInfo(String),
    /// No cable matching this route is known.
    CableRoute(RouteSpec),
    /// A cable is known by name but its latitude profile is not.
    CableApex { cable: String },
    /// An operator's aggregate footprint numbers are unknown.
    OperatorFootprint(String),
    /// An operator's site list is unknown.
    OperatorPresence(String),
    /// No grid latitude data for a region.
    RegionLatitude(String),
    /// A causal principle is missing.
    Principle(Principle),
    /// No response-planning guidance in context.
    PlanningGuidance,
    /// Nothing memorised about a named cable-damage incident
    /// (scenario class `physical-damage`).
    CableIncidentInfo { cable: String },
    /// Nothing memorised about a power-grid collapse or the GIC
    /// exposure ranking (scenario class `power-failure`).
    GridIncidentInfo { grid: String },
    /// Nothing memorised about a routing incident affecting a service
    /// (scenario class `routing`).
    RoutingIncidentInfo { service: String },
}

/// The model's answer to a question.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Answer {
    /// Natural-language answer text.
    pub text: String,
    /// The committed choice for comparison questions; `None` when the
    /// model hedges.
    pub verdict: Option<String>,
    /// Self-reported confidence, 0–10.
    pub confidence: u8,
    /// Raw evidence coverage in [0, 1].
    pub coverage: f64,
    /// What the model would need to answer better.
    pub missing: Vec<MissingKnowledge>,
    /// Principles that grounded the answer.
    pub principles_used: Vec<Principle>,
    /// Number of entity facts consulted.
    pub facts_used: usize,
    /// The visible reasoning steps taken (chain of thought), in order.
    #[serde(default)]
    pub reasoning: Vec<String>,
}

impl Answer {
    fn confidence_from(coverage: f64) -> u8 {
        (2.0 + 7.0 * coverage.clamp(0.0, 1.0)).floor() as u8
    }
}

/// Accumulates weighted evidence slots.
struct Slots {
    coverage: f64,
    missing: Vec<MissingKnowledge>,
    principles: Vec<Principle>,
    facts: usize,
    steps: Vec<String>,
}

impl Slots {
    fn new() -> Self {
        Slots {
            coverage: 0.0,
            missing: Vec::new(),
            principles: Vec::new(),
            facts: 0,
            steps: Vec::new(),
        }
    }

    fn principle(&mut self, ex: &Extraction, p: Principle, weight: f64) -> bool {
        if ex.principles.contains(&p) {
            self.coverage += weight;
            self.principles.push(p);
            self.step(format!("recalled the {p:?} principle from context"));
            true
        } else {
            self.missing.push(MissingKnowledge::Principle(p));
            self.step(format!("could not find the {p:?} principle in context"));
            false
        }
    }

    fn filled(&mut self, weight: f64, facts: usize) {
        self.coverage += weight;
        self.facts += facts;
    }

    fn missing(&mut self, item: MissingKnowledge) {
        self.missing.push(item);
    }

    /// Record a visible reasoning step.
    fn step(&mut self, text: String) {
        self.steps.push(text);
    }
}

/// Answer `question` (already classified as `intent`) from `ex`.
///
/// The extraction is indexed once up front ([`ExtractionIndex`]) so
/// every keyed lookup below — operator coverage, region latitudes,
/// route endpoints, incident names — is a hash probe over interned
/// terms instead of a re-lowercasing scan of the fact list.
pub fn answer(question: &str, intent: &Intent, ex: &Extraction) -> Answer {
    let idx = ExtractionIndex::build(ex);
    match intent {
        Intent::CompareCableVulnerability { route_a, route_b } => {
            compare_cables(&idx, route_a, route_b)
        }
        Intent::CompareOperatorVulnerability { op_a, op_b } => compare_operators(&idx, op_a, op_b),
        Intent::LatitudeDependence => latitude_dependence(&idx),
        Intent::WeakComponent => weak_component(&idx),
        Intent::SubmarineVsTerrestrial => submarine_vs_terrestrial(&idx),
        Intent::CompareRegionSusceptibility { region_a, region_b } => {
            compare_regions(&idx, region_a, region_b)
        }
        Intent::LengthEffect => length_effect(&idx),
        Intent::PartitionImpact => partition_impact(&idx),
        Intent::ShutdownPlan => shutdown_plan(&idx),
        Intent::IncidentCause { incident } => incident_cause(&idx, incident),
        Intent::IncidentImpact { incident } => incident_impact(&idx, incident),
        Intent::CableIncident { kind, cable } => {
            class_incident(ex, &PHYSICAL_DAMAGE, *kind as usize, cable)
        }
        Intent::GridIncident { kind, grid } => {
            class_incident(ex, &POWER_FAILURE, *kind as usize, grid)
        }
        Intent::RoutingIncident { kind, service } => {
            class_incident(ex, &ROUTING, *kind as usize, service)
        }
        Intent::Unknown => prior::unknown_answer(question),
    }
}

fn finish(slots: Slots, text: String, verdict: Option<String>) -> Answer {
    // An answer that cannot commit is not a confident answer, whatever
    // partial evidence accumulated: cap hedges below any sensible
    // confidence threshold so the self-learning loop keeps digging.
    let raw = if verdict.is_none() {
        slots.coverage.min(0.5)
    } else {
        slots.coverage
    };
    let coverage = raw.clamp(0.0, 1.0);
    Answer {
        text,
        verdict,
        confidence: Answer::confidence_from(coverage),
        coverage,
        missing: slots.missing,
        principles_used: slots.principles,
        facts_used: slots.facts,
        reasoning: slots.steps,
    }
}

fn compare_cables(idx: &ExtractionIndex<'_>, spec_a: &RouteSpec, spec_b: &RouteSpec) -> Answer {
    let mut slots = Slots::new();
    let has_principle = slots.principle(idx.ex(), Principle::LatitudeRisk, 0.15);

    let mut sides: Vec<(Option<(String, f64)>, &RouteSpec)> = Vec::new();
    for spec in [spec_a, spec_b] {
        let cables = idx.routes_matching(&spec.a, &spec.b);
        if cables.is_empty() {
            slots.missing(MissingKnowledge::CableRoute(spec.clone()));
            slots.step(format!(
                "no known cable matches the {} route",
                spec.display()
            ));
            sides.push((None, spec));
            continue;
        }
        slots.step(format!(
            "matched {} candidate cable(s) for the {} route: {}",
            cables.len(),
            spec.display(),
            cables.join(", ")
        ));
        slots.filled(0.125, cables.len());
        // Risk along a route is dominated by its highest-latitude cable.
        let best = cables
            .iter()
            .filter_map(|name| idx.apex_of(name).map(|deg| (name.to_string(), deg)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some(pair) => {
                // Conflicting sources (possible poisoning or stale data)
                // earn a confidence discount: the model still answers
                // from the median value but flags reduced certainty.
                if idx.apex_conflict(&pair.0, 15.0) {
                    slots.step(format!(
                        "sources disagree on {}'s latitude; using the median with reduced \
                         certainty",
                        pair.0
                    ));
                    slots.filled(0.15, 1);
                } else {
                    slots.step(format!(
                        "{} peaks at {:.1} degrees geomagnetic latitude",
                        pair.0, pair.1
                    ));
                    slots.filled(0.30, 1);
                }
                sides.push((Some(pair), spec));
            }
            None => {
                for name in cables.iter().take(2) {
                    slots.missing(MissingKnowledge::CableApex {
                        cable: name.to_string(),
                    });
                }
                sides.push((None, spec));
            }
        }
    }

    let (a, b) = (&sides[0], &sides[1]);
    match (&a.0, &b.0, has_principle) {
        (Some((name_a, deg_a)), Some((name_b, deg_b)), true) => {
            let ((hi_name, hi_deg, hi_spec), (lo_name, lo_deg, lo_spec)) = if deg_a >= deg_b {
                ((name_a, deg_a, a.1), (name_b, deg_b, b.1))
            } else {
                ((name_b, deg_b, b.1), (name_a, deg_a, a.1))
            };
            let verdict = format!("the cable connecting {}", hi_spec.display());
            let text = format!(
                "The cable connecting {} is more vulnerable. Solar activity has a more \
                 significant impact at higher geomagnetic latitudes, and the {} route reaches \
                 about {:.0} degrees geomagnetic latitude, while the {} route (connecting {}) \
                 reaches only about {:.0} degrees.",
                hi_spec.display(),
                hi_name,
                hi_deg,
                lo_name,
                lo_spec.display(),
                lo_deg
            );
            finish(slots, text, Some(verdict))
        }
        _ => {
            let text = prior::cable_hedge(spec_a, spec_b, has_principle);
            finish(slots, text, None)
        }
    }
}

fn compare_operators(idx: &ExtractionIndex<'_>, op_a: &str, op_b: &str) -> Answer {
    let mut slots = Slots::new();
    let has_principle = slots.principle(idx.ex(), Principle::DispersionResilience, 0.15);

    let mut profiles = Vec::new();
    for op in [op_a, op_b] {
        let coverage = idx.coverage_of(op);
        let lowlat = idx.low_lat_share_of(op);
        let presences = idx.presence_count(op);
        if coverage.is_some() {
            slots.filled(0.15, 1);
        } else {
            slots.missing(MissingKnowledge::OperatorFootprint(op.to_string()));
        }
        if lowlat.is_some() {
            slots.filled(0.10, 1);
        }
        if presences >= 3 {
            slots.filled(0.175, presences);
        } else {
            slots.missing(MissingKnowledge::OperatorPresence(op.to_string()));
        }
        profiles.push((op.to_string(), coverage, lowlat, presences));
    }

    let (pa, pb) = (&profiles[0], &profiles[1]);
    match (pa.1, pb.1, has_principle) {
        (Some(cov_a), Some(cov_b), true) => {
            // Fewer regions covered (tie-broken by low-latitude share)
            // means more storm exposure.
            let a_more_vulnerable = match cov_a.cmp(&cov_b) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => pa.2.unwrap_or(0.0) < pb.2.unwrap_or(0.0),
            };
            let (loser, winner) = if a_more_vulnerable {
                (pa, pb)
            } else {
                (pb, pa)
            };
            let regions_note = if winner.3 >= 3 {
                " including regions less likely to be affected, such as Asia and South America,"
            } else {
                ""
            };
            let text = format!(
                "By looking at the geographical spread of data centers, {}'s are more globally \
                 dispersed, covering {} major regions{} while {} covers {}. A dispersed \
                 footprint provides more resilience against regional events, so {}'s data \
                 centers are more vulnerable to a solar superstorm.",
                cap(&winner.0),
                winner.1.unwrap_or(0),
                regions_note,
                cap(&loser.0),
                loser.1.unwrap_or(0),
                cap(&loser.0),
            );
            let verdict = format!("{}'s data centers are more vulnerable", cap(&loser.0));
            finish(slots, text, Some(verdict))
        }
        _ => {
            let text = prior::operator_hedge(op_a, op_b, has_principle);
            finish(slots, text, None)
        }
    }
}

fn latitude_dependence(idx: &ExtractionIndex<'_>) -> Answer {
    let ex = idx.ex();
    let mut slots = Slots::new();
    let has = slots.principle(ex, Principle::LatitudeRisk, 0.6);
    slots.principle(ex, Principle::GridThreat, 0.2);
    let example = ex.facts.iter().find_map(|f| match f {
        Fact::MaxGeomagLatitude { entity, degrees } => Some(format!(
            "For example, the {entity} route reaches about {degrees:.0} degrees geomagnetic \
                 latitude, placing it in the zone of strongest induced currents."
        )),
        Fact::RegionGridLatitude { grid, degrees, .. } => Some(format!(
            "For example, the {grid} operates at about {degrees:.0} degrees geomagnetic \
                 latitude, inside the higher-risk band."
        )),
        _ => None,
    });
    if example.is_some() {
        slots.filled(0.2, 1);
    }
    if has {
        let text = format!(
            "Yes — the risk increases sharply at higher latitudes. Geomagnetically induced \
             currents grow stronger at higher geomagnetic latitudes, concentrating damage in \
             the auroral zones while equatorial infrastructure is largely spared. {}",
            example.unwrap_or_default()
        );
        finish(
            slots,
            text.trim_end().to_string(),
            Some("risk increases at higher latitudes".into()),
        )
    } else {
        finish(
            slots,
            prior::generic_hedge("the latitude dependence of storm risk"),
            None,
        )
    }
}

fn weak_component(idx: &ExtractionIndex<'_>) -> Answer {
    let ex = idx.ex();
    let mut slots = Slots::new();
    let has = slots.principle(ex, Principle::RepeaterWeakness, 0.7);
    slots.principle(ex, Principle::TerrestrialSafety, 0.15);
    if ex
        .facts
        .iter()
        .any(|f| matches!(f, Fact::RepeaterCount { .. }))
    {
        slots.filled(0.15, 1);
    }
    if has {
        let text = "The powered repeaters. The optical fiber itself is unaffected by \
                    geomagnetically induced currents; it is the powered repeaters spaced along \
                    the cable — and the power feed that drives them — that are vulnerable, and \
                    a single repeater failure can take the whole span out of service."
            .to_string();
        finish(slots, text, Some("the powered repeaters".into()))
    } else {
        finish(
            slots,
            prior::generic_hedge("submarine cable failure modes"),
            None,
        )
    }
}

fn submarine_vs_terrestrial(idx: &ExtractionIndex<'_>) -> Answer {
    let ex = idx.ex();
    let mut slots = Slots::new();
    let has = slots.principle(ex, Principle::TerrestrialSafety, 0.5);
    slots.principle(ex, Principle::RepeaterWeakness, 0.3);
    slots.principle(ex, Principle::LengthRisk, 0.2);
    if has {
        let text = "Submarine cables are more at risk. Terrestrial fiber links are short and \
                    unrepeated, so a storm can only reach them indirectly through the power \
                    grid, while long submarine cables depend on many powered repeaters exposed \
                    to induced currents along the whole route."
            .to_string();
        finish(slots, text, Some("submarine cables".into()))
    } else {
        finish(
            slots,
            prior::generic_hedge("submarine versus terrestrial exposure"),
            None,
        )
    }
}

fn compare_regions(idx: &ExtractionIndex<'_>, region_a: &str, region_b: &str) -> Answer {
    let mut slots = Slots::new();
    let has_principle = slots.principle(idx.ex(), Principle::LatitudeRisk, 0.2);

    let mut lats = Vec::new();
    for region in [region_a, region_b] {
        match idx.region_latitude(region) {
            Some(lat) => {
                slots.filled(0.3, 1);
                lats.push(Some(lat));
            }
            None => {
                slots.missing(MissingKnowledge::RegionLatitude(region.to_string()));
                lats.push(None);
            }
        }
    }
    // Supporting color: any low-latitude Asian grid mention.
    let singapore = idx.has_singapore_grid();
    if singapore {
        slots.filled(0.2, 1);
    }

    match (lats[0], lats[1], has_principle) {
        (Some(lat_a), Some(lat_b), true) => {
            let (hi, hi_lat, lo, lo_lat) = if lat_a >= lat_b {
                (region_a, lat_a, region_b, lat_b)
            } else {
                (region_b, lat_b, region_a, lat_a)
            };
            let hi_display = if hi == "North America" {
                "The United States"
            } else {
                hi
            };
            let sing_note = if singapore {
                " Asian hubs such as Singapore lie near the geomagnetic equator."
            } else {
                ""
            };
            let text = format!(
                "{hi_display} is more susceptible. Its grids and infrastructure sit at roughly \
                 {hi_lat:.0} degrees geomagnetic latitude, well inside the band of strong \
                 induced currents, while {lo} averages only about {lo_lat:.0} degrees, closer \
                 to the equator.{sing_note}"
            );
            finish(
                slots,
                text,
                Some(format!("{hi_display} is more susceptible").to_lowercase()),
            )
        }
        _ => finish(
            slots,
            prior::generic_hedge("regional susceptibility differences"),
            None,
        ),
    }
}

fn length_effect(idx: &ExtractionIndex<'_>) -> Answer {
    let ex = idx.ex();
    let mut slots = Slots::new();
    let has = slots.principle(ex, Principle::LengthRisk, 0.6);
    if ex
        .facts
        .iter()
        .any(|f| matches!(f, Fact::RepeaterCount { .. }))
    {
        slots.filled(0.2, 1);
    }
    if ex.facts.iter().any(|f| matches!(f, Fact::LengthKm { .. })) {
        slots.filled(0.2, 1);
    }
    if has {
        let text = "Yes — longer cables are more vulnerable. Length matters because longer \
                    cables contain more powered repeaters, and each repeater is a potential \
                    failure point under induced currents, so the risk accumulates with every \
                    additional span."
            .to_string();
        finish(
            slots,
            text,
            Some("yes, longer cables are more vulnerable".into()),
        )
    } else {
        finish(
            slots,
            prior::generic_hedge("the effect of cable length"),
            None,
        )
    }
}

fn partition_impact(idx: &ExtractionIndex<'_>) -> Answer {
    let ex = idx.ex();
    let mut slots = Slots::new();
    let has = slots.principle(ex, Principle::PartitionRisk, 0.5);
    slots.principle(ex, Principle::GridThreat, 0.15);
    slots.principle(ex, Principle::TerrestrialSafety, 0.15);
    let routes_known = ex.routes().count();
    if routes_known >= 3 {
        slots.filled(0.2, routes_known);
    }
    if has {
        let text = "A Carrington-class storm could sever many transoceanic cables at once — \
                    especially the dense bundle of high-latitude North Atlantic crossings — \
                    partitioning entire continents from each other even as regional networks, \
                    built on short terrestrial fiber, keep running."
            .to_string();
        finish(
            slots,
            text,
            Some("intercontinental links fail while regional networks survive".into()),
        )
    } else {
        finish(
            slots,
            prior::generic_hedge("large-scale connectivity impact"),
            None,
        )
    }
}

fn shutdown_plan(idx: &ExtractionIndex<'_>) -> Answer {
    let ex = idx.ex();
    let mut slots = Slots::new();
    let components: [(Principle, &str, &str); 5] = [
        (
            Principle::PredictiveShutdown,
            "Predictive Shutdown",
            "Upon receiving information about a CME, start with shutting down the systems \
             that are most vulnerable, particularly those located at higher latitudes and \
             those that lack shielding or redundancy.",
        ),
        (
            Principle::RedundancyUtilization,
            "Redundancy Utilization",
            "Redirect traffic and operations to redundant systems that are in safer zones, \
             scaling them up in anticipation of the additional load.",
        ),
        (
            Principle::PhasedShutdown,
            "Phased Shutdown",
            "Implement a phased shutdown approach, sequenced by the vulnerability of each \
             system and the services it supports.",
        ),
        (
            Principle::DataPreservation,
            "Data Preservation",
            "Ensure that critical data is preserved and backed up before the shutdown.",
        ),
        (
            Principle::GradualReboot,
            "Gradual Reboot",
            "After the CME impact, restore systems through a phased, gradual reboot, checking \
             for damage before returning each to normal operation.",
        ),
    ];

    let mut lines = Vec::new();
    for (p, title, detail) in &components {
        if slots.principle(ex, *p, 0.2) {
            lines.push(format!("- {title}: {detail}"));
        }
    }

    if lines.is_empty() {
        slots.missing(MissingKnowledge::PlanningGuidance);
        return finish(slots, prior::generic_hedge("a storm response plan"), None);
    }
    let mut text = format!("Suggesting the following strategy:\n{}", lines.join("\n"));

    // "Particularly those located at higher latitudes": when the
    // context carries concrete latitude facts, turn the principle into
    // a ranked shutdown order.
    let mut assets: Vec<(String, f64)> = ex
        .facts
        .iter()
        .filter_map(|f| match f {
            Fact::MaxGeomagLatitude { entity, degrees } => Some((entity.clone(), *degrees)),
            _ => None,
        })
        .collect();
    assets.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    assets.dedup_by(|a, b| a.0 == b.0);
    if !assets.is_empty() {
        slots.step(format!(
            "ranked {} known assets by geomagnetic latitude for shutdown order",
            assets.len()
        ));
        text.push_str("\nShutdown priority from known latitude data:");
        for (i, (name, deg)) in assets.iter().take(5).enumerate() {
            text.push_str(&format!("\n  {}. {name} ({deg:.1} degrees)", i + 1));
        }
    }
    finish(
        slots,
        text,
        Some("staged shutdown and redundancy plan".into()),
    )
}

fn incident_cause(idx: &ExtractionIndex<'_>, needle: &str) -> Answer {
    let mut slots = Slots::new();
    let facts = idx.incident_facts(needle);
    let cause = facts.iter().find_map(|f| match f {
        Fact::IncidentCause { incident, cause } => Some((incident.clone(), cause.clone())),
        _ => None,
    });
    let effect = facts.iter().find_map(|f| match f {
        Fact::IncidentEffect { effect, .. } => Some(effect.clone()),
        _ => None,
    });
    match cause {
        Some((incident, cause)) => {
            slots.filled(0.7, 1);
            let mut text = format!("The {incident} was caused by {cause}.");
            match &effect {
                Some(effect) => {
                    slots.filled(0.2, 1);
                    text.push_str(&format!(" The main effect on the Internet was {effect}."));
                }
                None => slots.missing(MissingKnowledge::IncidentInfo(needle.to_string())),
            }
            if facts.len() > 2 {
                slots.filled(0.1, facts.len() - 2);
            }
            finish(slots, text, Some(cause))
        }
        None => {
            slots.missing(MissingKnowledge::IncidentInfo(needle.to_string()));
            finish(
                slots,
                prior::generic_hedge(&format!("the cause of the {needle}")),
                None,
            )
        }
    }
}

fn incident_impact(idx: &ExtractionIndex<'_>, needle: &str) -> Answer {
    let mut slots = Slots::new();
    let facts = idx.incident_facts(needle);
    if facts.is_empty() {
        slots.missing(MissingKnowledge::IncidentInfo(needle.to_string()));
        return finish(
            slots,
            prior::generic_hedge(&format!("the impact of the {needle}")),
            None,
        );
    }

    let cables = facts.iter().find_map(|f| match f {
        Fact::IncidentCablesCut { count, .. } => Some(*count),
        _ => None,
    });
    let traffic = facts.iter().find_map(|f| match f {
        Fact::IncidentTraffic { percent, .. } => Some(*percent),
        _ => None,
    });
    let duration = facts.iter().find_map(|f| match f {
        Fact::IncidentDuration { hours, .. } => Some(*hours),
        _ => None,
    });
    let effect = facts.iter().find_map(|f| match f {
        Fact::IncidentEffect { effect, .. } => Some(effect.clone()),
        _ => None,
    });

    let mut sentences: Vec<String> = Vec::new();
    let verdict;
    if let Some(count) = cables {
        slots.filled(0.6, 1);
        let weeks = duration.map(|h| (h / 168.0).round() as u32);
        let lead = match weeks {
            Some(w) => {
                slots.filled(0.2, 1);
                format!(
                    "It severed {count} submarine cables; repairs took about {w} weeks before \
                     capacity fully returned."
                )
            }
            None => format!("It severed {count} submarine cables."),
        };
        verdict = lead.clone();
        sentences.push(lead);
    } else if let Some(percent) = traffic {
        slots.filled(0.6, 1);
        let lead = format!(
            "Global Internet traffic grew by about {percent:.0} percent, yet the Internet \
             absorbed the surge without systemic collapse."
        );
        verdict = lead.clone();
        sentences.push(lead);
    } else if let Some(hours) = duration {
        slots.filled(0.6, 1);
        let lead = format!("Services were disrupted for about {hours:.0} hours.");
        verdict = lead.clone();
        sentences.push(lead);
    } else {
        slots.missing(MissingKnowledge::IncidentInfo(needle.to_string()));
        let text = match effect {
            Some(effect) => format!("The main effect on the Internet was {effect}."),
            None => prior::generic_hedge(&format!("the impact of the {needle}")),
        };
        return finish(slots, text, None);
    }
    if let Some(effect) = effect {
        slots.filled(0.2, 1);
        sentences.push(format!("The main effect on the Internet was {effect}."));
    }
    finish(slots, sentences.join(" "), Some(verdict))
}

/// Does a fact's entity name match a question slot? Slots are
/// lowercase (questions are lowercased before classification) and may
/// be empty when the question names no entity; facts keep original
/// case. Same bidirectional-containment rule as incident matching.
fn entity_matches(fact_entity: &str, slot: &str) -> bool {
    if slot.is_empty() {
        return true;
    }
    let e = fact_entity.to_lowercase();
    e.contains(slot) || slot.contains(e.as_str())
}

/// Whether two extracted grid names denote the same grid.
fn same_grid(a: &str, b: &str) -> bool {
    entity_matches(a, &b.to_lowercase())
}

/// One scenario class: its label, the knowledge its hedges request,
/// and one [`Rule`] per question kind, indexed by the kind's
/// discriminant (`CableQuestion`, `GridQuestion`, `RoutingQuestion`).
pub(crate) struct ClassRules {
    pub(crate) label: &'static str,
    need: fn(&str) -> MissingKnowledge,
    rules: &'static [Rule],
}

/// How one question kind is answered. Templates take `{name}` and
/// `{value}` from their own evidence (see [`find`]); the hedge topic's
/// `{name}` is the question's entity.
struct Rule {
    lead: Evidence,
    weight: f64,
    /// Reasoning step for a fact lead; a principle records its own.
    recalled: &'static str,
    text: &'static str,
    verdict: &'static str,
    /// Corroborating evidence, consulted in order after the lead.
    then: &'static [Item],
    hedge: &'static str,
}

/// Corroborating evidence. Present, it adds `weight` and appends
/// `text` and `verdict`; absent and `needed`, it requests the class's
/// incident knowledge.
struct Item {
    evidence: Evidence,
    weight: f64,
    text: &'static str,
    verdict: &'static str,
    needed: bool,
}

/// Evidence a rule can consult; [`find`] shows what each binds.
#[derive(Clone, Copy)]
enum Evidence {
    /// Looked up through [`Slots::principle`], which records its own
    /// step or missing item.
    Principle(Principle),
    CableCut,
    Survivors,
    Length,
    Repeaters,
    RepeatersOrLength,
    GridCollapse,
    MostExposed,
    LowLatitude,
    LeadMostExposed,
    LeadCollapsed,
    EdgeDuring,
    EdgeRestored,
    ContentPrefixes,
}

/// What evidence binds into templates: `{name}` and `{value}`.
type Found = (String, String);

const fn needed(evidence: Evidence, weight: f64, text: &'static str) -> Item {
    Item {
        evidence,
        weight,
        text,
        verdict: "",
        needed: true,
    }
}

const fn optional(evidence: Evidence, weight: f64, text: &'static str) -> Item {
    Item {
        needed: false,
        ..needed(evidence, weight, text)
    }
}

const fn principle(p: Principle, weight: f64) -> Item {
    optional(Evidence::Principle(p), weight, "")
}

pub(crate) static PHYSICAL_DAMAGE: ClassRules = ClassRules {
    label: "physical-damage",
    need: |cable| MissingKnowledge::CableIncidentInfo {
        cable: cable.to_string(),
    },
    rules: &[
        // CableQuestion::Cause
        Rule {
            lead: Evidence::CableCut,
            weight: 0.7,
            recalled: "recalled what severed the {name}",
            text: "The {name} cable was severed by {value}.",
            verdict: "the {name} cable was severed by {value}",
            then: &[
                needed(
                    Evidence::Survivors,
                    0.2,
                    " Traffic rerouted onto {value} parallel transatlantic cable systems.",
                ),
                principle(Principle::CableRepair, 0.1),
            ],
            hedge: "the cause of the {name} cable outage",
        },
        // CableQuestion::CorridorRedundancy
        Rule {
            lead: Evidence::Survivors,
            weight: 0.7,
            recalled: "recalled the corridor's parallel cable systems",
            text: "Yes — traffic rerouted onto {value} parallel transatlantic cable systems, so \
                   North America and Europe stayed connected.",
            verdict: "yes — traffic rerouted onto {value} parallel transatlantic cable systems",
            then: &[
                needed(
                    Evidence::CableCut,
                    0.2,
                    " The {name} itself was severed by {value}.",
                ),
                optional(Evidence::RepeatersOrLength, 0.1, ""),
            ],
            hedge: "corridor redundancy after the {name} cut",
        },
        // CableQuestion::RepeatersLost
        Rule {
            lead: Evidence::Repeaters,
            weight: 0.7,
            recalled: "recalled the {name}'s repeater count",
            text: "About {value} optical repeaters went dark when the {name} failed.",
            verdict: "about {value} repeaters",
            then: &[
                needed(Evidence::Length, 0.2, " The system spans about {value} km."),
                optional(Evidence::CableCut, 0.1, ""),
            ],
            hedge: "the {name} repeater count",
        },
        // CableQuestion::RepairMethod
        Rule {
            lead: Evidence::Principle(Principle::CableRepair),
            weight: 0.75,
            recalled: "",
            text: "A cable repair ship grapples the damaged section and splices in a new span; \
                   until the splice completes, the cable remains dark end to end.",
            verdict: "a cable repair ship grapples the damaged section and splices in a new span",
            then: &[optional(
                Evidence::CableCut,
                0.15,
                " That is how the severed {name} will be restored.",
            )],
            hedge: "submarine cable repair procedure",
        },
        // CableQuestion::Length
        Rule {
            lead: Evidence::Length,
            weight: 0.7,
            recalled: "recalled the {name}'s span",
            text: "The {name} system spans about {value} km.",
            verdict: "about {value} km",
            then: &[
                needed(
                    Evidence::Repeaters,
                    0.15,
                    " It is powered through about {value} optical repeaters.",
                ),
                optional(Evidence::CableCut, 0.15, ""),
            ],
            hedge: "the {name} cable length",
        },
    ],
};

pub(crate) static POWER_FAILURE: ClassRules = ClassRules {
    label: "power-failure",
    need: |grid| MissingKnowledge::GridIncidentInfo {
        grid: grid.to_string(),
    },
    rules: &[
        // GridQuestion::Cause
        Rule {
            lead: Evidence::GridCollapse,
            weight: 0.7,
            recalled: "recalled what collapsed the {name} grid",
            text: "The {name} power grid collapsed when {value} during a severe geomagnetic \
                   storm.",
            verdict: "the {name} power grid collapsed when {value} during a severe geomagnetic \
                      storm",
            then: &[
                principle(Principle::TransformerSaturation, 0.2),
                optional(
                    Evidence::LeadMostExposed,
                    0.1,
                    " {name} has the highest GIC exposure of any major grid.",
                ),
            ],
            hedge: "the cause of the {name} grid collapse",
        },
        // GridQuestion::MostExposed
        Rule {
            lead: Evidence::MostExposed,
            weight: 0.7,
            recalled: "recalled the GIC exposure ranking: {name} leads",
            text: "{name} has the highest GIC exposure of any major grid.",
            verdict: "{name}",
            then: &[
                optional(
                    Evidence::LeadCollapsed,
                    0.2,
                    " Its storm-driven collapse bore the ranking out.",
                ),
                optional(
                    Evidence::LowLatitude,
                    0.1,
                    " Grids at low geomagnetic latitude, such as {name}, show negligible \
                     exposure.",
                ),
            ],
            hedge: "the grid GIC exposure ranking",
        },
        // GridQuestion::LowLatitudeRisk
        Rule {
            lead: Evidence::LowLatitude,
            weight: 0.7,
            recalled: "recalled that {name} sits at low geomagnetic latitude",
            text: "No — grids at low geomagnetic latitude such as {name} face negligible GIC \
                   exposure.",
            verdict: "no — grids at low geomagnetic latitude such as {name} face negligible GIC \
                      exposure",
            then: &[
                needed(
                    Evidence::MostExposed,
                    0.2,
                    " The exposure ranking is led by {name}, at high geomagnetic latitude.",
                ),
                optional(Evidence::GridCollapse, 0.1, ""),
            ],
            hedge: "low-latitude grid exposure",
        },
        // GridQuestion::FailingComponent
        Rule {
            lead: Evidence::Principle(Principle::TransformerSaturation),
            weight: 0.75,
            recalled: "",
            text: "Extra-high-voltage transformers saturate and overheat under sustained \
                   geomagnetically induced currents.",
            verdict: "extra-high-voltage transformers saturate and overheat",
            then: &[optional(
                Evidence::GridCollapse,
                0.2,
                " That failure mode is what collapsed the {name} grid.",
            )],
            hedge: "grid failure modes under geomagnetic storms",
        },
    ],
};

pub(crate) static ROUTING: ClassRules = ClassRules {
    label: "routing",
    need: |service| MissingKnowledge::RoutingIncidentInfo {
        service: service.to_string(),
    },
    rules: &[
        // RoutingQuestion::Cause
        Rule {
            lead: Evidence::Principle(Principle::BgpDnsWithdrawal),
            weight: 0.7,
            recalled: "",
            text: "A configuration error withdrew the BGP routes for the service's DNS prefixes.",
            verdict: "a configuration error withdrew the BGP routes for the DNS prefixes",
            then: &[
                Item {
                    verdict: ", so the nameservers became unreachable",
                    ..needed(
                        Evidence::ContentPrefixes,
                        0.2,
                        " The content prefixes stayed announced, but with the nameservers \
                         unreachable no client could resolve the service.",
                    )
                },
                optional(
                    Evidence::EdgeDuring,
                    0.1,
                    " Only {value} percent of edge networks could reach it during the incident.",
                ),
            ],
            hedge: "what took {name} offline",
        },
        // RoutingQuestion::AvailabilityDuring
        Rule {
            lead: Evidence::EdgeDuring,
            weight: 0.7,
            recalled: "recalled edge-network reachability during the withdrawal",
            text: "About {value} percent of edge networks could reach the service during the \
                   route withdrawal.",
            verdict: "about {value} percent of edge networks",
            then: &[
                needed(
                    Evidence::EdgeRestored,
                    0.2,
                    " Availability returned to {value} percent after re-announcement.",
                ),
                optional(Evidence::ContentPrefixes, 0.1, ""),
            ],
            hedge: "edge availability during the withdrawal",
        },
        // RoutingQuestion::ContentPrefixes
        Rule {
            lead: Evidence::ContentPrefixes,
            weight: 0.7,
            recalled: "recalled that only the DNS prefixes were withdrawn",
            text: "No — the content prefixes stayed announced; only the nameservers became \
                   unreachable, so no client could resolve the service.",
            verdict: "no — the content prefixes stayed announced; only the nameservers became \
                      unreachable",
            then: &[
                principle(Principle::BgpDnsWithdrawal, 0.2),
                optional(
                    Evidence::EdgeDuring,
                    0.1,
                    " Reachability by name fell to {value} percent regardless.",
                ),
            ],
            hedge: "the withdrawal's prefix scope",
        },
        // RoutingQuestion::Recovery
        Rule {
            lead: Evidence::EdgeRestored,
            weight: 0.7,
            recalled: "recalled availability after re-announcement",
            text: "Yes — availability was restored to {value} percent once the prefixes were \
                   re-announced.",
            verdict: "yes — availability was restored to {value} percent once the prefixes were \
                      re-announced",
            then: &[
                needed(
                    Evidence::EdgeDuring,
                    0.2,
                    " During the withdrawal only {value} percent of edge networks could reach \
                     the service.",
                ),
                principle(Principle::BgpDnsWithdrawal, 0.1),
            ],
            hedge: "availability after re-announcement",
        },
    ],
};

/// Answer a scenario-class question of kind `class.rules[kind]` about
/// `subject`, the question's entity slot (lowercase, possibly empty).
fn class_incident(ex: &Extraction, class: &ClassRules, kind: usize, subject: &str) -> Answer {
    let rule = &class.rules[kind];
    let recall = |slots: &mut Slots, evidence, weight, lead: &Found| match evidence {
        Evidence::Principle(p) => slots.principle(ex, p, weight).then(Found::default),
        _ => find(ex, evidence, subject, lead).inspect(|_| slots.filled(weight, 1)),
    };
    let mut slots = Slots::new();
    let Some(lead) = recall(&mut slots, rule.lead, rule.weight, &Found::default()) else {
        slots.missing((class.need)(subject));
        let topic = render(rule.hedge, &(subject.to_string(), String::new()));
        return finish(slots, prior::scenario_hedge(class.label, &topic), None);
    };
    if !rule.recalled.is_empty() {
        slots.step(render(rule.recalled, &lead));
    }
    let mut text = render(rule.text, &lead);
    let mut verdict = render(rule.verdict, &lead);
    for item in rule.then {
        match recall(&mut slots, item.evidence, item.weight, &lead) {
            Some(found) => {
                text.push_str(&render(item.text, &found));
                verdict.push_str(item.verdict);
            }
            None if item.needed => slots.missing((class.need)(subject)),
            None => {}
        }
    }
    finish(slots, text, Some(verdict))
}

/// The first fact that is `evidence` about `subject`, as
/// (`{name}`, `{value}`). The `Lead*` kinds relate a fact to the lead
/// and bind the lead itself.
fn find(ex: &Extraction, evidence: Evidence, subject: &str, lead: &Found) -> Option<Found> {
    use Evidence::*;
    let about = |entity: &str| entity_matches(entity, subject);
    ex.facts.iter().find_map(|f| match (evidence, f) {
        (CableCut, Fact::CableCut { cable, cause }) if about(cable) => {
            Some((cable.clone(), cause.clone()))
        }
        (Survivors, Fact::CorridorSurvivors { count }) => Some((String::new(), count.to_string())),
        (Length, Fact::LengthKm { entity, km }) if about(entity) => {
            Some((entity.clone(), format!("{km:.0}")))
        }
        (Repeaters, Fact::RepeaterCount { entity, count }) if about(entity) => {
            Some((entity.clone(), count.to_string()))
        }
        (RepeatersOrLength, Fact::RepeaterCount { entity, .. } | Fact::LengthKm { entity, .. })
        | (LowLatitude, Fact::GridLowLatitude { grid: entity })
            if about(entity) =>
        {
            Some((entity.clone(), String::new()))
        }
        (GridCollapse, Fact::GridCollapse { grid, cause }) if about(grid) => {
            Some((grid.clone(), cause.clone()))
        }
        // The exposure ranking answers for any grid.
        (MostExposed, Fact::GridMostExposed { grid }) => Some((grid.clone(), String::new())),
        (LeadMostExposed, Fact::GridMostExposed { grid }) if same_grid(grid, &lead.0) => {
            Some(lead.clone())
        }
        (LeadCollapsed, Fact::GridCollapse { grid, .. })
            if about(grid) && same_grid(grid, &lead.0) =>
        {
            Some(lead.clone())
        }
        (EdgeDuring | EdgeRestored, Fact::EdgeAvailability { during, percent })
            if *during == matches!(evidence, EdgeDuring) =>
        {
            Some((String::new(), format!("{percent:.0}")))
        }
        (ContentPrefixes, Fact::ContentPrefixesAnnounced) => Some(Found::default()),
        _ => None,
    })
}

/// Fill `{name}` and `{value}` in one pass, so bound text is never
/// read as a placeholder.
fn render(template: &str, (name, value): &Found) -> String {
    let mut pieces = template.split('{');
    let mut out = pieces.next().unwrap_or_default().to_string();
    for piece in pieces {
        let (bound, rest) = match piece.split_once('}') {
            Some(("name", rest)) => (name.as_str(), rest),
            Some(("value", rest)) => (value.as_str(), rest),
            _ => ("{", piece),
        };
        out.push_str(bound);
        out.push_str(rest);
    }
    out
}

fn cap(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::classify;

    const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                           that connects Brazil to Europe or the one that connects the US to \
                           Europe?";

    fn full_cable_context() -> Extraction {
        Extraction::from_text(
            "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes. \
             The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, \
             linking South America and Europe. Along its route it reaches a maximum \
             geomagnetic latitude of 46.0 degrees. \
             The Grace Hopper submarine cable connects New York, United States to Bude, United \
             Kingdom, linking North America and Europe. Along its route it reaches a maximum \
             geomagnetic latitude of 63.0 degrees.",
            None,
        )
    }

    #[test]
    fn ungrounded_cable_answer_hedges_at_low_confidence() {
        let intent = classify(CABLE_Q);
        let ans = answer(CABLE_Q, &intent, &Extraction::default());
        assert!(ans.verdict.is_none());
        assert_eq!(ans.confidence, 2);
        assert!(!ans.missing.is_empty());
    }

    #[test]
    fn principle_only_matches_paper_pre_learning_confidence() {
        let intent = classify(CABLE_Q);
        let ex = Extraction::from_text(
            "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes.",
            None,
        );
        let ans = answer(CABLE_Q, &intent, &ex);
        assert_eq!(ans.confidence, 3, "paper reports confidence 3 pre-learning");
        assert!(ans.verdict.is_none());
        assert!(ans
            .missing
            .iter()
            .any(|m| matches!(m, MissingKnowledge::CableRoute(_))));
    }

    #[test]
    fn grounded_cable_answer_commits_with_high_confidence() {
        let intent = classify(CABLE_Q);
        let ans = answer(CABLE_Q, &intent, &full_cable_context());
        assert_eq!(ans.confidence, 9, "paper reports 8-9 post-learning");
        let verdict = ans.verdict.expect("should commit");
        assert!(verdict.contains("United States"), "verdict: {verdict}");
        assert!(ans.text.contains("higher geomagnetic latitude"));
        assert!(ans.text.contains("63"));
    }

    #[test]
    fn missing_apex_requests_it_by_cable_name() {
        let intent = classify(CABLE_Q);
        let ex = Extraction::from_text(
            "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes. \
             The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, \
             linking South America and Europe.",
            None,
        );
        let ans = answer(CABLE_Q, &intent, &ex);
        assert!(ans.verdict.is_none());
        assert!(ans
            .missing
            .iter()
            .any(|m| matches!(m, MissingKnowledge::CableApex { cable } if cable == "EllaLink")));
        assert!(
            (3..=6).contains(&ans.confidence),
            "partial knowledge: {}",
            ans.confidence
        );
    }

    const DC_Q: &str = "Whose datacenter is more vulnerable to a solar superstorm, Google's or \
                        Facebook's?";

    #[test]
    fn operator_comparison_with_footprints_matches_paper_shape() {
        let intent = classify(DC_Q);
        let ex = Extraction::from_text(
            "A geographically dispersed data center footprint improves resilience against \
             regional disasters. Google operates data centers in 7 of the world's 7 major \
             regions. About 26 percent of Google's data center sites sit at low geomagnetic \
             latitudes. Facebook operates data centers in 3 of the world's 7 major regions. \
             About 5 percent of Facebook's data center sites sit at low geomagnetic latitudes.",
            None,
        );
        let ans = answer(DC_Q, &intent, &ex);
        let verdict = ans.verdict.expect("commits");
        assert!(verdict.contains("Facebook"), "verdict: {verdict}");
        assert!(ans.text.contains("spread") || ans.text.contains("dispersed"));
        // Overview-only grounding: the paper reports ~6 here.
        assert!((5..=7).contains(&ans.confidence), "got {}", ans.confidence);
    }

    #[test]
    fn operator_comparison_ungrounded_hedges() {
        let intent = classify(DC_Q);
        let ans = answer(DC_Q, &intent, &Extraction::default());
        assert!(ans.verdict.is_none());
        assert!(ans.confidence <= 3);
    }

    #[test]
    fn latitude_question_grounded() {
        let q = "Does the risk a solar superstorm poses to Internet infrastructure depend on \
                 latitude, and if so, how?";
        let ex = Extraction::from_text(
            "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes. \
             An extreme geomagnetic storm can induce damaging currents in long power lines, \
             threatening grid transformers.",
            None,
        );
        let ans = answer(q, &classify(q), &ex);
        assert!(ans.verdict.is_some());
        assert!(ans.confidence >= 7);
        assert!(ans.text.to_lowercase().contains("auroral"));
    }

    #[test]
    fn weak_component_answer_names_repeaters() {
        let q = "Which component of a submarine cable system is most at risk during a \
                 geomagnetic storm?";
        let ex = Extraction::from_text(
            "The powered repeaters are the most vulnerable component of a submarine cable, \
             while the optical fiber itself is unaffected by induced currents.",
            None,
        );
        let ans = answer(q, &classify(q), &ex);
        assert_eq!(ans.verdict.as_deref(), Some("the powered repeaters"));
        assert!(ans.text.contains("fiber"));
    }

    #[test]
    fn region_comparison_uses_grid_latitudes() {
        let q = "Is the United States or Asia more susceptible to Internet disruption from a \
                 solar superstorm?";
        let ex = Extraction::from_text(
            "Geomagnetically induced currents grow stronger at higher geomagnetic latitudes. \
             The US Eastern Interconnection serves North America and sits at about 50 degrees \
             geomagnetic latitude. The Singapore Grid serves Asia and sits at about 8 degrees \
             geomagnetic latitude.",
            None,
        );
        let ans = answer(q, &classify(q), &ex);
        let verdict = ans.verdict.expect("commits");
        assert!(verdict.contains("united states"), "verdict {verdict}");
        assert!(ans.text.contains("Singapore"));
        assert!(ans.confidence >= 8);
    }

    #[test]
    fn shutdown_plan_lists_found_components() {
        let q = "Plan a shutdown strategy for operators facing an incoming CME.";
        let ex = Extraction::from_text(
            "Upon warning of a coronal mass ejection, operators should preemptively shut down \
             the most vulnerable systems, especially those at higher latitudes. Traffic and \
             operations should be redirected to redundant systems located in safer, \
             lower-latitude zones.",
            None,
        );
        let ans = answer(q, &classify(q), &ex);
        assert!(ans.text.contains("Predictive Shutdown"));
        assert!(ans.text.contains("Redundancy Utilization"));
        assert!(!ans.text.contains("Gradual Reboot"));
        assert_eq!(ans.principles_used.len(), 2);
    }

    #[test]
    fn shutdown_plan_with_all_guidance_is_complete() {
        let q = "Plan a shutdown strategy for operators facing an incoming CME.";
        let ex = Extraction::from_text(
            "Upon warning of a coronal mass ejection, operators should preemptively shut down \
             the most vulnerable systems. Traffic should be redirected to redundant systems in \
             safer zones. A phased shutdown sequence, ordered by vulnerability, reduces \
             damage. Critical data should be backed up and preserved before the storm's \
             impact. After the storm passes, systems should be rebooted gradually.",
            None,
        );
        let ans = answer(q, &classify(q), &ex);
        for title in [
            "Predictive Shutdown",
            "Redundancy Utilization",
            "Phased Shutdown",
            "Data Preservation",
            "Gradual Reboot",
        ] {
            assert!(ans.text.contains(title), "missing {title}");
        }
        assert_eq!(ans.confidence, 9);
    }

    #[test]
    fn incident_cause_grounded_and_ungrounded() {
        let q = "What caused the 2021 Facebook outage?";
        let intent = classify(q);
        let hedge = answer(q, &intent, &Extraction::default());
        assert!(hedge.verdict.is_none());
        assert!(hedge
            .missing
            .iter()
            .any(|m| matches!(m, MissingKnowledge::IncidentInfo(_))));

        let ex = Extraction::from_text(
            "The 2021 Facebook outage was caused by a faulty BGP configuration change that \
             withdrew the routes to its own DNS servers. The main effect on the Internet was \
             that every service became unreachable at once.",
            None,
        );
        let ans = answer(q, &intent, &ex);
        assert!(ans.verdict.unwrap().contains("BGP"));
        assert!(ans.confidence >= 8);
    }

    #[test]
    fn incident_impact_prefers_concrete_numbers() {
        let q = "What was the impact of the 2006 Hengchun earthquake on the Internet?";
        let intent = classify(q);
        let ex = Extraction::from_text(
            "The 2006 Hengchun earthquake was caused by a magnitude 7.0 earthquake off the \
             coast of Taiwan. Service was disrupted for about 1176 hours. The 2006 Hengchun \
             earthquake severed 8 submarine cables.",
            None,
        );
        let ans = answer(q, &intent, &ex);
        let text = ans.text;
        assert!(text.contains("severed 8 submarine cables"), "text: {text}");
        assert!(
            text.contains("7 weeks"),
            "duration should be converted: {text}"
        );
        assert!(ans.confidence >= 7);
    }

    #[test]
    fn reasoning_chain_is_visible_and_ordered() {
        let intent = classify(CABLE_Q);
        let ans = answer(CABLE_Q, &intent, &full_cable_context());
        assert!(!ans.reasoning.is_empty());
        let chain = ans.reasoning.join(" | ");
        assert!(chain.contains("LatitudeRisk"), "principle step: {chain}");
        assert!(chain.contains("candidate cable"), "candidate step: {chain}");
        assert!(chain.contains("geomagnetic latitude"), "apex step: {chain}");
        // Hedged answers explain what was missing.
        let hedge = answer(CABLE_Q, &intent, &Extraction::default());
        assert!(hedge
            .reasoning
            .iter()
            .any(|s| s.contains("no known cable matches")));
    }

    #[test]
    fn shutdown_plan_ranks_assets_when_latitudes_are_known() {
        let q = "Plan a shutdown strategy for operators facing an incoming CME.";
        let ex = Extraction::from_text(
            "Upon warning of a coronal mass ejection, operators should preemptively shut \
             down the most vulnerable systems. \
             The FARICE-1 cable reaches a maximum geomagnetic latitude of 70.1 degrees. \
             The EllaLink cable reaches a maximum geomagnetic latitude of 46.0 degrees. \
             The Grace Hopper cable reaches a maximum geomagnetic latitude of 63.0 degrees.",
            None,
        );
        let ans = answer(q, &classify(q), &ex);
        let text = &ans.text;
        assert!(text.contains("Shutdown priority"), "{text}");
        let farice = text.find("FARICE-1").expect("FARICE listed");
        let grace = text.find("Grace Hopper").expect("Grace listed");
        let ella = text.find("EllaLink").expect("EllaLink listed");
        assert!(
            farice < grace && grace < ella,
            "must be ordered by latitude: {text}"
        );
    }

    fn cable_scenario_context() -> Extraction {
        Extraction::from_text(
            "The Anjana cable was severed by a subsea landslide on the continental slope. \
             Traffic rerouted onto 14 parallel transatlantic cable systems within minutes. \
             The Anjana system spans about 7675 km. \
             The break took about 109 optical repeaters out of service. \
             A cable repair ship grapples the damaged section and splices in a new span.",
            None,
        )
    }

    #[test]
    fn cable_incident_grounded_commits_ungrounded_requests_info() {
        let q = "What caused the Anjana submarine cable outage?";
        let intent = classify(q);
        let ans = answer(q, &intent, &cable_scenario_context());
        let verdict = ans.verdict.expect("commits");
        assert!(verdict.contains("landslide"), "verdict: {verdict}");
        assert!(ans.confidence >= 7, "got {}", ans.confidence);

        let hedge = answer(q, &intent, &Extraction::default());
        assert!(hedge.verdict.is_none());
        assert_eq!(hedge.confidence, 2);
        assert!(hedge.missing.iter().any(
            |m| matches!(m, MissingKnowledge::CableIncidentInfo { cable } if cable == "anjana")
        ));
    }

    #[test]
    fn cable_incident_answers_every_question_kind_from_one_context() {
        let ex = cable_scenario_context();
        for (q, expect) in [
            (
                "Did North America and Europe stay connected after the Anjana was cut?",
                "14 parallel",
            ),
            (
                "How many optical repeaters went dark when the Anjana failed?",
                "about 109 repeaters",
            ),
            (
                "How is a severed submarine cable repaired?",
                "repair ship grapples",
            ),
            ("How long is the Anjana cable?", "about 7675 km"),
        ] {
            let ans = answer(q, &classify(q), &ex);
            let verdict = ans.verdict.unwrap_or_else(|| panic!("hedged on {q}"));
            assert!(verdict.contains(expect), "{q} -> {verdict}");
            assert!(ans.confidence >= 7, "{q} -> {}", ans.confidence);
        }
    }

    #[test]
    fn grid_incident_grounded_commits_ungrounded_requests_info() {
        let ex = Extraction::from_text(
            "The Hydro-Québec power grid collapsed when geomagnetically induced currents \
             saturated its extra-high-voltage transformers. \
             Extra-high-voltage transformers saturate and overheat under sustained GIC. \
             Hydro-Québec has the highest GIC exposure of any major grid. \
             Grids at low geomagnetic latitude, such as Singapore Grid, show negligible \
             exposure.",
            None,
        );
        let q = "Which power grid is most exposed to geomagnetic storms?";
        let ans = answer(q, &classify(q), &ex);
        assert_eq!(ans.verdict.as_deref(), Some("Hydro-Québec"));
        assert!(ans.confidence >= 8, "got {}", ans.confidence);

        let q2 = "What caused the Hydro-Québec power grid collapse?";
        let ans2 = answer(q2, &classify(q2), &ex);
        let verdict = ans2.verdict.expect("commits");
        assert!(verdict.contains("geomagnetically induced currents"));
        assert!(ans2.confidence >= 7);

        let q3 = "Are equatorial power grids like Singapore Grid at similar geomagnetic risk?";
        let ans3 = answer(q3, &classify(q3), &ex);
        assert!(ans3.verdict.expect("commits").starts_with("no — "));

        let hedge = answer(q2, &classify(q2), &Extraction::default());
        assert!(hedge.verdict.is_none());
        assert!(hedge
            .missing
            .iter()
            .any(|m| matches!(m, MissingKnowledge::GridIncidentInfo { .. })));
    }

    #[test]
    fn grid_answers_only_link_facts_about_the_same_grid() {
        // One grid collapsed, another leads the exposure ranking: no
        // answer may attribute the ranking to the collapsed grid or the
        // collapse to the ranked one.
        let ex = Extraction::from_text(
            "The Alpha power grid collapsed when geomagnetically induced currents saturated \
             its extra-high-voltage transformers. \
             Beta Grid has the highest GIC exposure of any major grid.",
            None,
        );
        let q = "What caused the Alpha power grid collapse?";
        let cause = answer(q, &classify(q), &ex);
        assert!(cause.verdict.expect("commits").contains("Alpha"));
        assert!(
            !cause.text.contains("highest GIC exposure"),
            "{}",
            cause.text
        );

        let q = "Which power grid is most exposed to geomagnetic storms?";
        let most = answer(q, &classify(q), &ex);
        assert_eq!(most.verdict.as_deref(), Some("Beta Grid"));
        assert!(!most.text.contains("collapse"), "{}", most.text);

        // The same facts about one grid still link, with the weight.
        let linked = Extraction::from_text(
            "The Alpha power grid collapsed when geomagnetically induced currents saturated \
             its extra-high-voltage transformers. \
             Alpha has the highest GIC exposure of any major grid.",
            None,
        );
        let cause_linked = answer(
            "What caused the Alpha power grid collapse?",
            &classify("What caused the Alpha power grid collapse?"),
            &linked,
        );
        assert!(cause_linked
            .text
            .contains("Alpha has the highest GIC exposure"));
        assert!(cause_linked.confidence > cause.confidence);
        let most_linked = answer(q, &classify(q), &linked);
        assert!(most_linked.text.contains("bore the ranking out"));
        assert!(most_linked.confidence > most.confidence);
    }

    #[test]
    fn routing_incident_grounded_commits_ungrounded_requests_info() {
        let ex = Extraction::from_text(
            "A configuration error withdrew the BGP routes for Facebook's DNS prefixes. \
             Only 0 percent of edge networks could reach facebook.com during the incident. \
             The content prefixes stayed announced, but with the nameservers unreachable no \
             client could resolve the service. \
             Availability was restored to 100 percent once the prefixes were re-announced.",
            None,
        );
        for (q, expect) in [
            (
                "What took facebook.com offline in the routing incident?",
                "configuration error withdrew the BGP routes",
            ),
            (
                "What fraction of edge networks could reach facebook.com during the route \
                 withdrawal?",
                "about 0 percent of edge networks",
            ),
            (
                "Were the content prefixes also withdrawn during the outage?",
                "no — the content prefixes stayed announced",
            ),
            (
                "Did availability recover once the routes were re-announced?",
                "yes — availability was restored to 100 percent",
            ),
        ] {
            let ans = answer(q, &classify(q), &ex);
            let verdict = ans.verdict.unwrap_or_else(|| panic!("hedged on {q}"));
            assert!(verdict.contains(expect), "{q} -> {verdict}");
            assert!(ans.confidence >= 7, "{q} -> {}", ans.confidence);
        }
        let q = "What took facebook.com offline in the routing incident?";
        let hedge = answer(q, &classify(q), &Extraction::default());
        assert!(hedge.verdict.is_none());
        assert!(hedge.missing.iter().any(
            |m| matches!(m, MissingKnowledge::RoutingIncidentInfo { service } if service == "facebook.com")
        ));
    }

    #[test]
    fn confidence_mapping_endpoints() {
        assert_eq!(Answer::confidence_from(0.0), 2);
        assert_eq!(Answer::confidence_from(1.0), 9);
        assert_eq!(Answer::confidence_from(2.0), 9); // clamped
    }
}
