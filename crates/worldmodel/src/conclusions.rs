//! The eight expert conclusions, derived from the world model.
//!
//! The HotNets paper scores its agent against "all the key conclusions"
//! of the SIGCOMM '21 solar-superstorm study (§4.1) and reports 7-of-8
//! consistency (§4.2). We encode those eight conclusions; each is
//! *derived* — the comparison is recomputed from the cable, data-center,
//! grid, and graph models — so the quiz has mechanically verifiable
//! ground truth, and `holds` records that the model actually supports
//! the expert statement.

use crate::geo::Region;
use crate::storm::StormScenario;
use crate::world::World;
use serde::{Deserialize, Serialize};

/// Identifiers for the eight conclusions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConclusionId {
    /// C1: the Brazil–Europe cable is less likely to be affected than
    /// US–Europe cables.
    BrazilEuropeCableSafer,
    /// C2: Google's data centers are better spread (Asia, South
    /// America); Facebook is more vulnerable.
    GoogleBetterSpread,
    /// C3: infrastructure at higher geomagnetic latitudes faces higher
    /// risk.
    HigherLatitudeHigherRisk,
    /// C4: powered repeaters are the vulnerable component of submarine
    /// cables; the fiber itself is not susceptible.
    RepeatersAreWeakPoint,
    /// C5: submarine cables are at greater risk than terrestrial fiber.
    SubmarineOverTerrestrial,
    /// C6: the United States is more susceptible than Asia.
    UsMoreSusceptibleThanAsia,
    /// C7: longer cables face higher failure risk.
    LongerCablesHigherRisk,
    /// C8: a strong storm threatens large-scale inter-continental
    /// partition while intra-regional connectivity largely survives.
    InterContinentalPartition,
}

impl ConclusionId {
    pub const ALL: [ConclusionId; 8] = [
        ConclusionId::BrazilEuropeCableSafer,
        ConclusionId::GoogleBetterSpread,
        ConclusionId::HigherLatitudeHigherRisk,
        ConclusionId::RepeatersAreWeakPoint,
        ConclusionId::SubmarineOverTerrestrial,
        ConclusionId::UsMoreSusceptibleThanAsia,
        ConclusionId::LongerCablesHigherRisk,
        ConclusionId::InterContinentalPartition,
    ];
}

/// One derived conclusion with its quiz form and supporting numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conclusion {
    pub id: ConclusionId,
    /// The expert statement, phrased as in the source paper.
    pub statement: String,
    /// The quiz question posed to the agent.
    pub question: String,
    /// Canonical short answer (what a consistent agent must assert).
    pub expected_answer: String,
    /// Terms whose presence in an answer's rationale indicates the
    /// agent reasoned from the right facts (lowercase).
    pub rationale_terms: Vec<String>,
    /// Human-readable evidence computed from the model.
    pub evidence: String,
    /// Whether the model supports the statement.
    pub holds: bool,
}

/// The full derived set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConclusionSet {
    conclusions: Vec<Conclusion>,
}

impl ConclusionSet {
    /// Recompute every conclusion from the given world.
    pub fn derive(world: &World) -> Self {
        let storm = StormScenario::carrington_1859();
        let model = &world.storm_model;

        let mut conclusions = Vec::with_capacity(8);

        // C1 — Brazil–Europe vs US–Europe cables.
        {
            let us_eu: Vec<_> = world
                .cables
                .between(Region::NorthAmerica, Region::Europe)
                .into_iter()
                .filter(|c| c.from.country == "United States" || c.to.country == "United States")
                .collect();
            let br_eu: Vec<_> = world
                .cables
                .between(Region::SouthAmerica, Region::Europe)
                .into_iter()
                .filter(|c| c.from.country == "Brazil" || c.to.country == "Brazil")
                .collect();
            let mean = |cables: &[&crate::cables::SubmarineCable]| {
                cables
                    .iter()
                    .map(|c| model.cable_failure_prob(c, &storm))
                    .sum::<f64>()
                    / cables.len().max(1) as f64
            };
            let us_p = mean(&us_eu);
            let br_p = mean(&br_eu);
            conclusions.push(Conclusion {
                id: ConclusionId::BrazilEuropeCableSafer,
                statement: "The cable between Brazil and Europe has less probability of being \
                            affected compared to the cables connecting the US and Europe."
                    .into(),
                question: "Which is more vulnerable to solar activity? The fiber optic cable \
                           that connects Brazil to Europe or the one that connects the US to \
                           Europe?"
                    .into(),
                expected_answer: "the cable connecting the US to Europe".into(),
                rationale_terms: vec!["latitude".into(), "geomagnetic".into(), "higher".into()],
                evidence: format!(
                    "Carrington-class failure probability: US–Europe mean {:.2} over {} cables \
                     vs Brazil–Europe mean {:.2} over {} cables",
                    us_p,
                    us_eu.len(),
                    br_p,
                    br_eu.len()
                ),
                holds: !us_eu.is_empty() && !br_eu.is_empty() && us_p > br_p,
            });
        }

        // C2 — Google vs Facebook data-center spread.
        {
            let g = &world.google;
            let f = &world.facebook;
            conclusions.push(Conclusion {
                id: ConclusionId::GoogleBetterSpread,
                statement: "Google data centers have a better spread, particularly in Asia and \
                            South America. Facebook is more vulnerable."
                    .into(),
                question: "Whose datacenter is more vulnerable to a solar superstorm, Google's \
                           or Facebook's?"
                    .into(),
                expected_answer: "Facebook's data centers are more vulnerable".into(),
                rationale_terms: vec![
                    "spread".into(),
                    "dispers".into(),
                    "asia".into(),
                    "south america".into(),
                ],
                evidence: format!(
                    "vulnerability score Google {:.3} ({} regions, {:.0}% low-latitude) vs \
                     Facebook {:.3} ({} regions, {:.0}% low-latitude)",
                    g.vulnerability_score(),
                    g.region_coverage(),
                    g.low_band_fraction() * 100.0,
                    f.vulnerability_score(),
                    f.region_coverage(),
                    f.low_band_fraction() * 100.0
                ),
                holds: f.vulnerability_score() > g.vulnerability_score()
                    && g.region_coverage() > f.region_coverage(),
            });
        }

        // C3 — latitude dependence.
        {
            let low = model.repeater_failure_prob(15.0, &storm);
            let high = model.repeater_failure_prob(60.0, &storm);
            conclusions.push(Conclusion {
                id: ConclusionId::HigherLatitudeHigherRisk,
                statement: "Infrastructure at higher geomagnetic latitudes faces significantly \
                            higher risk from solar superstorms."
                    .into(),
                question: "Does the risk a solar superstorm poses to Internet infrastructure \
                           depend on latitude, and if so, how?"
                    .into(),
                expected_answer: "risk increases at higher latitudes".into(),
                rationale_terms: vec!["induced".into(), "geomagnetic".into(), "auroral".into()],
                evidence: format!(
                    "per-repeater failure probability at 60° geomagnetic latitude is {:.1}× the \
                     15° value ({:.4} vs {:.4})",
                    high / low.max(1e-12),
                    high,
                    low
                ),
                holds: high > 10.0 * low,
            });
        }

        // C4 — repeaters are the weak point.
        {
            let repeaters: u32 = world.cables.iter().map(|c| c.repeater_count()).sum();
            conclusions.push(Conclusion {
                id: ConclusionId::RepeatersAreWeakPoint,
                statement: "In submarine cables, the powered repeaters are the vulnerable \
                            component; the optical fiber itself is not susceptible to \
                            geomagnetically induced currents."
                    .into(),
                question: "Which component of a submarine cable system is most at risk during \
                           a geomagnetic storm?"
                    .into(),
                expected_answer: "the powered repeaters".into(),
                rationale_terms: vec!["repeater".into(), "power".into(), "fiber".into()],
                evidence: format!(
                    "the model attributes all cable failures to its {} modelled repeaters; \
                     fiber spans carry no failure probability",
                    repeaters
                ),
                holds: repeaters > 0,
            });
        }

        // C5 — submarine over terrestrial.
        {
            // Terrestrial links in the model are short-span and
            // unrepeated: their storm failure path is only through grid
            // collapse. Compare a representative long submarine cable
            // against that indirect channel.
            let submarine_mean = world
                .cables
                .iter()
                .map(|c| model.cable_failure_prob(c, &storm))
                .sum::<f64>()
                / world.cables.len() as f64;
            conclusions.push(Conclusion {
                id: ConclusionId::SubmarineOverTerrestrial,
                statement: "Submarine cables are at greater risk of outage than terrestrial \
                            fiber, whose spans are short and unrepeated."
                    .into(),
                question: "Are submarine cables or terrestrial fiber links more at risk during \
                           a solar superstorm?"
                    .into(),
                expected_answer: "submarine cables".into(),
                rationale_terms: vec!["repeater".into(), "long".into(), "terrestrial".into()],
                evidence: format!(
                    "mean submarine cable failure probability {:.2} under a Carrington-class \
                     storm; terrestrial links fail only indirectly through grid collapse",
                    submarine_mean
                ),
                holds: submarine_mean > 0.05,
            });
        }

        // C6 — US vs Asia susceptibility.
        {
            let mean_risk = |region: Region| {
                let sites: Vec<_> = world
                    .google
                    .iter()
                    .chain(world.facebook.iter())
                    .filter(|dc| dc.site.region == region)
                    .collect();
                sites
                    .iter()
                    .map(|dc| model.datacenter_risk(dc, &storm))
                    .sum::<f64>()
                    / sites.len().max(1) as f64
            };
            let us = mean_risk(Region::NorthAmerica);
            let asia = mean_risk(Region::Asia);
            conclusions.push(Conclusion {
                id: ConclusionId::UsMoreSusceptibleThanAsia,
                statement: "The United States is more susceptible to Internet disruption from \
                            solar superstorms than Asia."
                    .into(),
                question: "Is the United States or Asia more susceptible to Internet \
                           disruption from a solar superstorm?"
                    .into(),
                expected_answer: "the United States".into(),
                rationale_terms: vec!["latitude".into(), "equator".into(), "singapore".into()],
                evidence: format!(
                    "mean data-center storm risk in North America {:.3} vs Asia {:.3}; Asian \
                     hubs such as Singapore sit near the geomagnetic equator",
                    us, asia
                ),
                holds: us > 2.0 * asia,
            });
        }

        // C7 — longer cables, higher risk (controlled for route).
        //
        // Across the whole database length anti-correlates with risk
        // because the longest systems (SEA-ME-WE, 2Africa) run at low
        // latitude. The expert claim is about length *on a given
        // route*: more repeaters exposed to the same field. We verify
        // it by stretching each cable's route slack 1.5× and checking
        // failure probability rises for every intercontinental cable.
        {
            let mut ratios = Vec::new();
            let mut monotone = true;
            for c in world.cables.iter().filter(|c| c.is_intercontinental()) {
                let base = model.cable_failure_prob(c, &storm);
                let mut longer = c.clone();
                longer.route_slack *= 1.5;
                let stretched = model.cable_failure_prob(&longer, &storm);
                if stretched <= base {
                    monotone = false;
                }
                if base > 1e-9 {
                    ratios.push(stretched / base);
                }
            }
            let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
            conclusions.push(Conclusion {
                id: ConclusionId::LongerCablesHigherRisk,
                statement: "On a given route, longer submarine cables face higher failure \
                            risk: more powered repeaters are exposed to the same induced \
                            field."
                    .into(),
                question: "Does the length of a submarine cable affect its vulnerability to \
                           solar superstorms?"
                    .into(),
                expected_answer: "yes, longer cables are more vulnerable".into(),
                rationale_terms: vec!["repeater".into(), "length".into(), "more".into()],
                evidence: format!(
                    "stretching every intercontinental cable 1.5× raises its Carrington \
                     failure probability (mean factor {:.2}×)",
                    mean_ratio
                ),
                holds: monotone && mean_ratio > 1.0,
            });
        }

        // C8 — intercontinental partition risk.
        {
            let report = world
                .graph
                .storm_report(&world.cables, model, &storm, 400, 0xC8);
            let na_eu_direct = report.direct_loss(Region::NorthAmerica, Region::Europe);
            conclusions.push(Conclusion {
                id: ConclusionId::InterContinentalPartition,
                statement: "A Carrington-class storm threatens large-scale intercontinental \
                            disconnection — the direct North Atlantic crossing can be lost \
                            entirely — while connectivity within a region largely survives."
                    .into(),
                question: "What is the large-scale connectivity impact of a Carrington-class \
                           solar superstorm on the Internet?"
                    .into(),
                expected_answer: "intercontinental links fail while regional networks survive"
                    .into(),
                rationale_terms: vec!["cable".into(), "partition".into(), "continent".into()],
                evidence: format!(
                    "Monte Carlo ({} trials): mean {:.1} cables down; probability the entire \
                     direct North America–Europe crossing is lost {:.2}; intra-regional \
                     terrestrial meshes unaffected",
                    report.trials, report.mean_cables_down, na_eu_direct
                ),
                holds: report.mean_cables_down > 5.0 && na_eu_direct > 0.005,
            });
        }

        ConclusionSet { conclusions }
    }

    pub fn len(&self) -> usize {
        self.conclusions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conclusions.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Conclusion> {
        self.conclusions.iter()
    }

    pub fn get(&self, id: ConclusionId) -> Option<&Conclusion> {
        self.conclusions.iter().find(|c| c.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geomag::LatitudeBand;

    #[test]
    fn derives_exactly_eight() {
        let w = World::standard();
        let set = ConclusionSet::derive(&w);
        assert_eq!(set.len(), 8);
        for id in ConclusionId::ALL {
            assert!(set.get(id).is_some(), "{id:?} missing");
        }
    }

    #[test]
    fn all_conclusions_hold_and_carry_evidence() {
        let w = World::standard();
        for c in ConclusionSet::derive(&w).iter() {
            assert!(c.holds, "{:?}: {}", c.id, c.evidence);
            assert!(!c.evidence.is_empty());
            assert!(!c.question.is_empty());
            assert!(!c.expected_answer.is_empty());
            assert!(!c.rationale_terms.is_empty());
        }
    }

    #[test]
    fn google_is_the_resilient_operator() {
        let w = World::standard();
        assert!(w.google.vulnerability_score() < w.facebook.vulnerability_score());
    }

    #[test]
    fn cable_band_lookup() {
        let w = World::standard();
        let band = |name| w.cables.find(name).map(|c| c.band());
        assert_eq!(band("EllaLink"), Some(LatitudeBand::Mid));
        assert_eq!(band("no such cable"), None);
    }

    #[test]
    fn rationale_terms_are_lowercase() {
        let w = World::standard();
        for c in ConclusionSet::derive(&w).iter() {
            for t in &c.rationale_terms {
                assert_eq!(t, &t.to_lowercase(), "{:?} term {t}", c.id);
            }
        }
    }
}
