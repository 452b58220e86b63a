//! First-class incident scenarios.
//!
//! The HotNets '23 vision is an agent that investigates *arbitrary*
//! Internet incidents, not one hard-wired case study. This module makes
//! scenarios enumerable: a [`Scenario`] computes its ground-truth
//! [`ScenarioConclusion`]s *and* emits the matching corpus slice
//! ([`ScenarioDocs`]) from the same world-model facts, so the quiz and
//! the synthetic web can never drift apart. A serializable
//! [`ScenarioSpec`] names a scenario in the [`ScenarioRegistry`] plus
//! the corpus knobs, and is the single currency the assembly surface
//! (`ira-webcorpus`, `ira-core`, `ira-engine`, `ira-serve`) flows
//! through.
//!
//! Four scenarios ship in the standard registry:
//!
//! * [`SolarSuperstorm`] — the canonical path. Its conclusions are the
//!   derived [`ConclusionSet`](crate::ConclusionSet) and its corpus slice is empty (the base
//!   world corpus *is* the solar-superstorm web), so environments built
//!   through the spec are byte-identical to the legacy path.
//! * [`CableCut`] — a subsea landslide severs the most repeater-heavy
//!   transatlantic cable; ground truth derives from the cable database
//!   and great-circle geometry.
//! * [`RegionalGridFailure`] — geomagnetically induced currents collapse
//!   the most exposed power grid; ground truth derives from the GIC
//!   exposure model.
//! * [`RouteLeak`] — a configuration error withdraws a content
//!   provider's DNS prefixes; ground truth derives from the valley-free
//!   BGP model.

use crate::bgp::RoutingSystem;
use crate::cables::SubmarineCable;
use crate::conclusions::{Conclusion, ConclusionId};
use crate::geo::Region;
use crate::power::PowerGrid;
use crate::storm::StormScenario;
use crate::world::World;
use serde::{Deserialize, Serialize};

/// Coarse incident family, for registry listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioClass {
    /// Space-weather driven (GIC, repeater failures).
    Geomagnetic,
    /// Physical infrastructure damage (cable cuts, anchor drags).
    PhysicalDamage,
    /// Power-grid collapse.
    PowerFailure,
    /// Control-plane incidents (BGP withdrawals, route leaks).
    Routing,
}

impl ScenarioClass {
    /// Every scenario class, in declaration order. The sim-LLM's
    /// per-class search-term tables (`ira-simllm::classterms`) must
    /// cover each of these labels; the evalkit integration suite pins
    /// the correspondence.
    pub const ALL: [ScenarioClass; 4] = [
        ScenarioClass::Geomagnetic,
        ScenarioClass::PhysicalDamage,
        ScenarioClass::PowerFailure,
        ScenarioClass::Routing,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            ScenarioClass::Geomagnetic => "geomagnetic",
            ScenarioClass::PhysicalDamage => "physical-damage",
            ScenarioClass::PowerFailure => "power-failure",
            ScenarioClass::Routing => "routing",
        }
    }
}

fn default_scenario_name() -> String {
    SOLAR_SUPERSTORM.to_string()
}

fn default_corpus_seed() -> u64 {
    0xC0FFEE
}

fn default_distractors() -> usize {
    150
}

/// Serializable scenario descriptor: which registered scenario to
/// build, plus the corpus knobs. This is what requests, benches, and
/// the CLI carry; resolve it against a [`ScenarioRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Registry name, e.g. `solar-superstorm` or `cable-cut`.
    #[serde(default = "default_scenario_name")]
    pub scenario: String,
    /// Corpus prose/distractor RNG seed.
    #[serde(default = "default_corpus_seed")]
    pub seed: u64,
    /// Number of distractor documents.
    #[serde(default = "default_distractors")]
    pub distractors: usize,
}

impl ScenarioSpec {
    /// Spec for a named scenario with the canonical corpus knobs.
    pub fn named(scenario: &str) -> Self {
        ScenarioSpec {
            scenario: scenario.to_string(),
            seed: default_corpus_seed(),
            distractors: default_distractors(),
        }
    }

    /// The canonical solar-superstorm spec (the legacy default).
    pub fn solar_superstorm() -> Self {
        Self::named(SOLAR_SUPERSTORM)
    }
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self::solar_superstorm()
    }
}

/// One ground-truth conclusion of a scenario, in quiz form. The solar
/// scenario derives these from [`ConclusionSet`](crate::ConclusionSet); other scenarios
/// derive them from their slice of the world model. `wrong_terms`
/// carries the losing side of comparison questions (empty otherwise).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConclusion {
    /// Stable label, e.g. `CableCutCause`.
    pub id: String,
    /// The expert statement being tested.
    pub statement: String,
    /// The question posed to the agent.
    pub question: String,
    /// Canonical expected answer.
    pub expected_answer: String,
    /// Terms indicating the agent reasoned from the right facts.
    pub rationale_terms: Vec<String>,
    /// Terms marking the wrong side of a comparison.
    pub wrong_terms: Vec<String>,
    /// Human-readable evidence computed from the model.
    pub evidence: String,
    /// Whether the model supports the statement.
    pub holds: bool,
}

/// Which kind of site publishes a scenario document. Mirrors the
/// corpus source kinds without depending on `ira-webcorpus` (which
/// sits *above* this crate); the corpus layer maps each channel onto
/// its virtual host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DocChannel {
    Encyclopedia,
    News,
    Blog,
    Forum,
    MicroPost,
    PaperAbstract,
}

/// One scenario-specific document as structured facts; the corpus
/// layer renders it into a page.
#[derive(Debug, Clone)]
pub struct ScenarioDoc {
    pub channel: DocChannel,
    pub title: String,
    /// Canonical fact sentences, joined into the body in order.
    pub sentences: Vec<String>,
}

impl ScenarioDoc {
    fn new(channel: DocChannel, title: &str, sentences: Vec<String>) -> Self {
        ScenarioDoc {
            channel,
            title: title.to_string(),
            sentences,
        }
    }
}

/// The scenario's corpus slice. Every scenario shares the base world
/// corpus (the infrastructure web is common background); `events` are
/// the incident-specific pages appended to it. The solar scenario has
/// no events — the base corpus already *is* its web — which is what
/// keeps the canonical path byte-identical.
#[derive(Debug, Clone, Default)]
pub struct ScenarioDocs {
    pub events: Vec<ScenarioDoc>,
}

impl ScenarioDocs {
    /// Total characters of event text (titles + sentences), for
    /// registry listings.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }
}

/// An enumerable incident scenario: ground truth and corpus slice
/// derived from the same world-model facts.
///
/// Contract: everything `conclusions` asserts must be computable from
/// `world`, and every rationale term must be grounded in the corpus the
/// scenario emits (its `docs` events, or the base world corpus for
/// scenarios without events). [`Scenario::self_check`] verifies the
/// mechanical half of that contract.
pub trait Scenario: Send + Sync {
    /// Stable registry name (kebab-case).
    fn name(&self) -> &'static str;
    /// Incident family.
    fn class(&self) -> ScenarioClass;
    /// One-line description for listings.
    fn description(&self) -> &'static str;
    /// Ground-truth conclusions derived from the world.
    fn conclusions(&self, world: &World) -> Vec<ScenarioConclusion>;
    /// The scenario's corpus slice derived from the same facts.
    fn docs(&self, world: &World) -> ScenarioDocs;

    /// Quiz ground-truth self-consistency: every conclusion must hold
    /// in the model, carry a complete quiz form with a unique id, and —
    /// when the scenario emits event documents — have every rationale
    /// term grounded in that emitted text, so the quiz never asks for
    /// something the corpus does not say.
    fn self_check(&self, world: &World) -> Result<(), String> {
        let conclusions = self.conclusions(world);
        if conclusions.is_empty() {
            return Err(format!("scenario `{}` has no conclusions", self.name()));
        }
        let mut ids: Vec<&str> = conclusions.iter().map(|c| c.id.as_str()).collect();
        ids.sort();
        ids.dedup();
        if ids.len() != conclusions.len() {
            return Err(format!(
                "scenario `{}` has duplicate conclusion ids",
                self.name()
            ));
        }
        let docs = self.docs(world);
        let mut pool = String::new();
        for d in &docs.events {
            pool.push_str(&d.title.to_lowercase());
            pool.push('\n');
            for s in &d.sentences {
                pool.push_str(&s.to_lowercase());
                pool.push('\n');
            }
        }
        for c in &conclusions {
            if !c.holds {
                return Err(format!("conclusion `{}` does not hold in the model", c.id));
            }
            if c.question.is_empty() || c.expected_answer.is_empty() || c.rationale_terms.is_empty()
            {
                return Err(format!("conclusion `{}` has an incomplete quiz form", c.id));
            }
            if !docs.events.is_empty() {
                for term in &c.rationale_terms {
                    if !pool.contains(&term.to_lowercase()) {
                        return Err(format!(
                            "conclusion `{}` rationale term `{term}` is not grounded \
                             in the scenario's emitted documents",
                            c.id
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Registry name of the canonical scenario.
pub const SOLAR_SUPERSTORM: &str = "solar-superstorm";
/// Registry name of the transatlantic cable-cut scenario.
pub const CABLE_CUT: &str = "cable-cut";
/// Registry name of the GIC grid-collapse scenario.
pub const REGIONAL_GRID_FAILURE: &str = "regional-grid-failure";
/// Registry name of the BGP route-withdrawal scenario.
pub const ROUTE_LEAK: &str = "route-leak";

/// Named constructors for every known scenario, in stable (listing)
/// order.
pub struct ScenarioRegistry {
    entries: Vec<(&'static str, ScenarioCtor)>,
}

/// Constructor for a registered scenario.
type ScenarioCtor = fn() -> Box<dyn Scenario>;

impl ScenarioRegistry {
    /// The standard registry: the canonical scenario first, then the
    /// rest in alphabetical order.
    pub fn standard() -> Self {
        ScenarioRegistry {
            entries: vec![
                (SOLAR_SUPERSTORM, || Box::new(SolarSuperstorm)),
                (CABLE_CUT, || Box::new(CableCut)),
                (REGIONAL_GRID_FAILURE, || Box::new(RegionalGridFailure)),
                (ROUTE_LEAK, || Box::new(RouteLeak)),
            ],
        }
    }

    /// Registered names, in listing order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Construct the named scenario.
    pub fn get(&self, name: &str) -> Option<Box<dyn Scenario>> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ctor)| ctor())
    }

    /// The interned (static) spelling of `name`, usable as a cache key.
    pub fn static_name(&self, name: &str) -> Option<&'static str> {
        self.entries.iter().map(|(n, _)| *n).find(|n| *n == name)
    }
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

/// Construct a scenario by name from the standard registry.
pub fn lookup(name: &str) -> Option<Box<dyn Scenario>> {
    ScenarioRegistry::standard().get(name)
}

/// Intern a scenario name against the standard registry.
pub fn static_name(name: &str) -> Option<&'static str> {
    ScenarioRegistry::standard().static_name(name)
}

// ---------------------------------------------------------------------
// Solar superstorm — the canonical path, ported.
// ---------------------------------------------------------------------

/// The canonical scenario: a Carrington-class geomagnetic storm. Its
/// conclusions are exactly the derived [`ConclusionSet`](crate::ConclusionSet) and it emits
/// no event documents (the base world corpus is its web), so the spec
/// path reproduces the legacy construction byte for byte.
pub struct SolarSuperstorm;

/// The losing side of each comparison question, ported verbatim from
/// the legacy quiz bank so the spec path scores identically.
fn solar_wrong_terms(id: ConclusionId) -> Vec<String> {
    match id {
        ConclusionId::BrazilEuropeCableSafer => vec!["brazil".into()],
        ConclusionId::GoogleBetterSpread => vec!["google's data centers are more".into()],
        ConclusionId::UsMoreSusceptibleThanAsia => vec!["asia is more".into()],
        _ => Vec::new(),
    }
}

/// Convert one derived conclusion into the generic scenario form.
pub fn conclusion_to_scenario(c: &Conclusion) -> ScenarioConclusion {
    ScenarioConclusion {
        id: format!("{:?}", c.id),
        statement: c.statement.clone(),
        question: c.question.clone(),
        expected_answer: c.expected_answer.clone(),
        rationale_terms: c.rationale_terms.clone(),
        wrong_terms: solar_wrong_terms(c.id),
        evidence: c.evidence.clone(),
        holds: c.holds,
    }
}

impl Scenario for SolarSuperstorm {
    fn name(&self) -> &'static str {
        SOLAR_SUPERSTORM
    }

    fn class(&self) -> ScenarioClass {
        ScenarioClass::Geomagnetic
    }

    fn description(&self) -> &'static str {
        "Carrington-class geomagnetic storm threatening repeaters, grids, and data centers"
    }

    fn conclusions(&self, world: &World) -> Vec<ScenarioConclusion> {
        world
            .conclusions()
            .iter()
            .map(conclusion_to_scenario)
            .collect()
    }

    fn docs(&self, _world: &World) -> ScenarioDocs {
        ScenarioDocs::default()
    }
}

// ---------------------------------------------------------------------
// Cable cut.
// ---------------------------------------------------------------------

/// A subsea landslide severs the most repeater-heavy transatlantic
/// cable. Target choice, repeater count, span length, and corridor
/// redundancy all derive from the cable database.
pub struct CableCut;

impl CableCut {
    /// The severed cable: the North-America–Europe system with the most
    /// repeaters (longest exposure), ties broken by name for
    /// determinism.
    pub fn target(world: &World) -> &SubmarineCable {
        world
            .cables
            .between(Region::NorthAmerica, Region::Europe)
            .into_iter()
            .max_by(|a, b| {
                a.repeater_count()
                    .cmp(&b.repeater_count())
                    .then_with(|| a.name.cmp(&b.name))
            })
            .expect("standard world has transatlantic cables")
    }

    /// Parallel systems still serving the corridor after the cut.
    fn survivors(world: &World) -> usize {
        world
            .cables
            .between(Region::NorthAmerica, Region::Europe)
            .len()
            .saturating_sub(1)
    }
}

impl Scenario for CableCut {
    fn name(&self) -> &'static str {
        CABLE_CUT
    }

    fn class(&self) -> ScenarioClass {
        ScenarioClass::PhysicalDamage
    }

    fn description(&self) -> &'static str {
        "Subsea landslide severs the most repeater-heavy transatlantic cable"
    }

    fn conclusions(&self, world: &World) -> Vec<ScenarioConclusion> {
        let cable = Self::target(world);
        let survivors = Self::survivors(world);
        let repeaters = cable.repeater_count();
        let length = cable.length_km().round() as u64;
        vec![
            ScenarioConclusion {
                id: "CableCutCause".into(),
                statement: format!(
                    "The {} outage was caused by a subsea landslide that severed the cable.",
                    cable.name
                ),
                question: format!("What caused the {} submarine cable outage?", cable.name),
                expected_answer: "a subsea landslide severed the cable on the continental slope"
                    .into(),
                rationale_terms: vec!["landslide".into(), "severed".into()],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "{} ({} km, RFS {}) is the severed system.",
                    cable.name, length, cable.rfs_year
                ),
                holds: true,
            },
            ScenarioConclusion {
                id: "CableCutCorridorRedundancy".into(),
                statement: format!(
                    "The transatlantic corridor survived the loss of the {}.",
                    cable.name
                ),
                question: format!(
                    "Did North America and Europe stay connected after the {} was cut?",
                    cable.name
                ),
                expected_answer: format!(
                    "yes — traffic rerouted onto {survivors} parallel transatlantic cable systems"
                ),
                rationale_terms: vec!["parallel".into(), "rerouted".into()],
                wrong_terms: vec!["partition".into()],
                evidence: format!(
                    "{survivors} other North-America–Europe systems remain in the database."
                ),
                holds: survivors >= 1,
            },
            ScenarioConclusion {
                id: "CableCutRepeatersLost".into(),
                statement: format!(
                    "The break took about {repeaters} optical repeaters out of service."
                ),
                question: format!(
                    "How many optical repeaters went dark when the {} failed?",
                    cable.name
                ),
                expected_answer: format!("about {repeaters} repeaters"),
                rationale_terms: vec!["repeaters".into()],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "{} km at one repeater per ~70 km gives {repeaters} repeaters.",
                    length
                ),
                holds: repeaters > 0,
            },
            ScenarioConclusion {
                id: "CableCutRepairMethod".into(),
                statement: "A severed submarine cable is repaired at sea by a cable repair ship."
                    .into(),
                question: "How is a severed submarine cable repaired?".into(),
                expected_answer:
                    "a cable repair ship grapples the damaged section and splices in a new span"
                        .into(),
                rationale_terms: vec!["repair ship".into(), "splice".into()],
                wrong_terms: Vec::new(),
                evidence: "Repair doctrine is scenario ground truth (physical-damage class)."
                    .into(),
                holds: true,
            },
            ScenarioConclusion {
                id: "CableCutLength".into(),
                statement: format!("The {} system spans about {length} km.", cable.name),
                question: format!("How long is the {} cable?", cable.name),
                expected_answer: format!("about {length} km"),
                rationale_terms: vec![format!("{length} km")],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "Great-circle length with route slack {:.2}.",
                    cable.route_slack
                ),
                holds: length > 0,
            },
        ]
    }

    fn docs(&self, world: &World) -> ScenarioDocs {
        let cable = Self::target(world);
        let survivors = Self::survivors(world);
        let repeaters = cable.repeater_count();
        let length = cable.length_km().round() as u64;
        let from = &cable.from;
        let to = &cable.to;
        ScenarioDocs {
            events: vec![
                ScenarioDoc::new(
                    DocChannel::News,
                    &format!("{} Cable Severed in Subsea Landslide", cable.name),
                    vec![
                        format!(
                            "The {} cable was severed by a subsea landslide on the \
                             continental slope.",
                            cable.name
                        ),
                        format!(
                            "The system links {}, {} to {}, {}.",
                            from.name, from.country, to.name, to.country
                        ),
                        format!(
                            "Traffic rerouted onto {survivors} parallel transatlantic cable \
                             systems within minutes."
                        ),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::Encyclopedia,
                    &format!("{} Cable Disruption", cable.name),
                    vec![
                        format!("The {} system spans about {length} km.", cable.name),
                        format!(
                            "The break took about {repeaters} optical repeaters out of service."
                        ),
                        format!(
                            "Because {survivors} parallel systems serve the corridor, North \
                             America and Europe stayed connected.",
                        ),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::Blog,
                    "Anatomy of a Subsea Cable Repair",
                    vec![
                        "A cable repair ship grapples the damaged section and splices in a new \
                         span."
                            .into(),
                        "Splice operations typically take one to two weeks of ship time.".into(),
                        format!(
                            "Until the splice completes, the {} remains dark end to end.",
                            cable.name
                        ),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::Forum,
                    &format!("Why did the {} go dark?", cable.name),
                    vec![
                        format!(
                            "Operators confirmed a landslide severed the {} — not a storm, \
                             not an anchor drag.",
                            cable.name
                        ),
                        "Latency between the endpoints jumped as traffic rerouted onto parallel \
                         systems."
                            .into(),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::MicroPost,
                    &format!("{} outage thread", cable.name),
                    vec![format!(
                        "The {} is down — landslide on the slope, repair ship en route.",
                        cable.name
                    )],
                ),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// Regional grid failure.
// ---------------------------------------------------------------------

/// Geomagnetically induced currents collapse the most exposed power
/// grid during a Québec-1989-class storm. Target, runner-up, and the
/// low-latitude contrast all derive from the GIC exposure model.
pub struct RegionalGridFailure;

impl RegionalGridFailure {
    /// Grids ranked by GIC exposure, most exposed first; ties broken by
    /// name for determinism.
    pub fn ranked(world: &World) -> Vec<&PowerGrid> {
        let mut grids: Vec<&PowerGrid> = world.grids.iter().collect();
        grids.sort_by(|a, b| {
            b.exposure()
                .partial_cmp(&a.exposure())
                .expect("exposures are finite")
                .then_with(|| a.name.cmp(&b.name))
        });
        grids
    }
}

impl Scenario for RegionalGridFailure {
    fn name(&self) -> &'static str {
        REGIONAL_GRID_FAILURE
    }

    fn class(&self) -> ScenarioClass {
        ScenarioClass::PowerFailure
    }

    fn description(&self) -> &'static str {
        "Geomagnetically induced currents collapse the most exposed power grid"
    }

    fn conclusions(&self, world: &World) -> Vec<ScenarioConclusion> {
        let ranked = Self::ranked(world);
        let target = ranked.first().expect("standard world has grids");
        let runner_up = ranked.get(1).expect("standard world has several grids");
        let least = ranked.last().expect("standard world has grids");
        let storm = StormScenario::railroad_1921();
        let collapse = world.storm_model.grid_collapse_prob(target, &storm);
        vec![
            ScenarioConclusion {
                id: "GridFailureCause".into(),
                statement: format!(
                    "The {} grid collapsed because geomagnetically induced currents saturated \
                     its transformers.",
                    target.name
                ),
                question: format!("What caused the {} power grid collapse?", target.name),
                expected_answer:
                    "geomagnetically induced currents from a severe geomagnetic storm saturated \
                     its extra-high-voltage transformers"
                        .into(),
                rationale_terms: vec![
                    "geomagnetically induced currents".into(),
                    "transformers".into(),
                ],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "Collapse probability {collapse:.2} for {} under the {} storm.",
                    target.name, storm.name
                ),
                holds: collapse > 0.5,
            },
            ScenarioConclusion {
                id: "GridFailureMostExposed".into(),
                statement: format!(
                    "{} is the power grid most exposed to geomagnetic storms.",
                    target.name
                ),
                question: "Which power grid is most exposed to geomagnetic storms?".into(),
                expected_answer: target.name.clone(),
                rationale_terms: vec![target.name.to_lowercase(), "exposure".into()],
                wrong_terms: vec![runner_up.name.to_lowercase()],
                evidence: format!(
                    "Exposure {:.3} ({}) vs {:.3} ({}).",
                    target.exposure(),
                    target.name,
                    runner_up.exposure(),
                    runner_up.name
                ),
                holds: target.exposure() > runner_up.exposure(),
            },
            ScenarioConclusion {
                id: "GridFailureLowLatitudeImmune".into(),
                statement: format!(
                    "Low geomagnetic latitude grids such as {} face negligible GIC risk.",
                    least.name
                ),
                question: format!(
                    "Are equatorial power grids like {} at similar geomagnetic risk?",
                    least.name
                ),
                expected_answer: format!(
                    "no — grids at low geomagnetic latitude such as {} face negligible GIC \
                     exposure",
                    least.name
                ),
                rationale_terms: vec!["low geomagnetic latitude".into(), "negligible".into()],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "Exposure {:.4} ({}) vs {:.3} ({}).",
                    least.exposure(),
                    least.name,
                    target.exposure(),
                    target.name
                ),
                holds: least.exposure() < 0.05 * target.exposure(),
            },
            ScenarioConclusion {
                id: "GridFailureTransformers".into(),
                statement: "Extra-high-voltage transformers are the component that fails in a \
                            GIC-driven grid collapse."
                    .into(),
                question: "Which grid component fails during a severe geomagnetic storm?".into(),
                expected_answer: "extra-high-voltage transformers saturate and overheat".into(),
                rationale_terms: vec!["transformers".into(), "saturate".into()],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "Ground factor {:.1} and line factor {:.1} drive {}'s exposure.",
                    target.ground_factor, target.line_factor, target.name
                ),
                holds: true,
            },
        ]
    }

    fn docs(&self, world: &World) -> ScenarioDocs {
        let ranked = Self::ranked(world);
        let target = ranked.first().expect("standard world has grids");
        let least = ranked.last().expect("standard world has grids");
        let storm = StormScenario::railroad_1921();
        ScenarioDocs {
            events: vec![
                ScenarioDoc::new(
                    DocChannel::News,
                    &format!("{} Grid Collapses During Geomagnetic Storm", target.name),
                    vec![
                        format!(
                            "The {} power grid collapsed when geomagnetically induced currents \
                             saturated its extra-high-voltage transformers.",
                            target.name
                        ),
                        format!(
                            "The storm measured {:.0} nT, comparable to the {} event.",
                            storm.dst_nt, storm.name
                        ),
                        format!(
                            "Data centers in the region fell back to diesel generation while \
                             the {} grid restarted.",
                            target.name
                        ),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::Encyclopedia,
                    "Geomagnetically Induced Currents in Power Grids",
                    vec![
                        "Geomagnetically induced currents flow through long transmission lines \
                         and transformer ground connections."
                            .into(),
                        "Extra-high-voltage transformers saturate and overheat under sustained \
                         GIC."
                            .into(),
                        format!(
                            "{} has the highest GIC exposure of any major grid.",
                            target.name
                        ),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::PaperAbstract,
                    "Ranking Power Grid Exposure to Geomagnetic Storms",
                    vec![
                        format!(
                            "We rank grids by GIC exposure and find {} most exposed.",
                            target.name
                        ),
                        format!(
                            "Grids at low geomagnetic latitude, such as {}, show negligible \
                             exposure.",
                            least.name
                        ),
                        "Exposure scales with geomagnetic latitude, ground resistivity, and \
                         line length."
                            .into(),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::Forum,
                    &format!("Blackout in the {} region — storm related?", target.name),
                    vec![
                        format!(
                            "Confirmed: the {} collapse was storm-driven, not a cyber incident.",
                            target.name
                        ),
                        "Transformer saturation tripped protective relays within ninety \
                         seconds."
                            .into(),
                    ],
                ),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// Route leak.
// ---------------------------------------------------------------------

/// A configuration error withdraws Facebook's DNS prefixes (the 2021
/// outage pattern). Availability numbers derive from the valley-free
/// BGP model's replay.
pub struct RouteLeak;

impl RouteLeak {
    /// (before, during, after) availability fractions from the replay.
    pub fn replay() -> (f64, f64, f64) {
        RoutingSystem::standard().facebook_outage_replay()
    }
}

impl Scenario for RouteLeak {
    fn name(&self) -> &'static str {
        ROUTE_LEAK
    }

    fn class(&self) -> ScenarioClass {
        ScenarioClass::Routing
    }

    fn description(&self) -> &'static str {
        "Configuration error withdraws a content provider's DNS prefixes"
    }

    fn conclusions(&self, _world: &World) -> Vec<ScenarioConclusion> {
        let (before, during, after) = Self::replay();
        let pct = |v: f64| (v * 100.0).round() as u64;
        vec![
            ScenarioConclusion {
                id: "RouteLeakCause".into(),
                statement: "A configuration error withdrew the BGP routes for the DNS prefixes, \
                            taking the service offline."
                    .into(),
                question: "What took facebook.com offline in the routing incident?".into(),
                expected_answer: "a configuration error withdrew the BGP routes for its DNS \
                                  prefixes, so its nameservers became unreachable"
                    .into(),
                rationale_terms: vec!["withdrew".into(), "dns".into()],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "Withdrawing the two DNS prefixes drops availability from {} to {} percent.",
                    pct(before),
                    pct(during)
                ),
                holds: during < before,
            },
            ScenarioConclusion {
                id: "RouteLeakAvailability".into(),
                statement: format!(
                    "During the withdrawal, {} percent of edge networks could reach the service.",
                    pct(during)
                ),
                question: "What fraction of edge networks could reach facebook.com during the \
                           route withdrawal?"
                    .into(),
                expected_answer: format!("about {} percent of edge networks", pct(during)),
                rationale_terms: vec![format!("{} percent", pct(during))],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "Edge-AS availability: before {:.2}, during {:.2}, after {:.2}.",
                    before, during, after
                ),
                holds: during < 0.5,
            },
            ScenarioConclusion {
                id: "RouteLeakContentStillAnnounced".into(),
                statement: "Only the DNS prefixes were withdrawn; the content prefixes stayed \
                            announced but unreachable by name."
                    .into(),
                question: "Were the content prefixes also withdrawn during the outage?".into(),
                expected_answer: "no — the content prefixes stayed announced; only the \
                                  nameservers became unreachable"
                    .into(),
                rationale_terms: vec!["content prefixes".into(), "nameservers".into()],
                wrong_terms: Vec::new(),
                evidence: "The replay withdraws 129.134.30.0/24 and 129.134.31.0/24 only.".into(),
                holds: true,
            },
            ScenarioConclusion {
                id: "RouteLeakRecovery".into(),
                statement: format!(
                    "Re-announcing the prefixes restored availability to {} percent.",
                    pct(after)
                ),
                question: "Did availability recover once the routes were re-announced?".into(),
                expected_answer: format!(
                    "yes — availability was restored to {} percent once the prefixes were \
                     re-announced",
                    pct(after)
                ),
                rationale_terms: vec!["re-announced".into(), "restored".into()],
                wrong_terms: Vec::new(),
                evidence: format!(
                    "Availability after restore equals the pre-incident {:.2}.",
                    before
                ),
                holds: (after - before).abs() < f64::EPSILON,
            },
        ]
    }

    fn docs(&self, _world: &World) -> ScenarioDocs {
        let (before, during, after) = Self::replay();
        let pct = |v: f64| (v * 100.0).round() as u64;
        ScenarioDocs {
            events: vec![
                ScenarioDoc::new(
                    DocChannel::News,
                    "Facebook Unreachable After BGP Withdrawal",
                    vec![
                        "A configuration error withdrew the BGP routes for Facebook's DNS \
                         prefixes."
                            .into(),
                        format!(
                            "Only {} percent of edge networks could reach facebook.com during \
                             the incident.",
                            pct(during)
                        ),
                        "The content prefixes stayed announced, but with the nameservers \
                         unreachable no client could resolve the service."
                            .into(),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::Blog,
                    "DNS as a Single Point of Failure",
                    vec![
                        "When authoritative nameservers sit on withdrawn prefixes, reachable \
                         content becomes unreachable by name."
                            .into(),
                        format!(
                            "Availability was restored to {} percent once the prefixes were \
                             re-announced.",
                            pct(after)
                        ),
                    ],
                ),
                ScenarioDoc::new(
                    DocChannel::MicroPost,
                    "BGP withdrawal live thread",
                    vec![format!(
                        "facebook.com availability: {} percent → {} percent → {} percent as \
                         routes were withdrawn and re-announced.",
                        pct(before),
                        pct(during),
                        pct(after)
                    )],
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::standard()
    }

    #[test]
    fn registry_lists_four_scenarios_with_unique_names() {
        let reg = ScenarioRegistry::standard();
        let names = reg.names();
        assert_eq!(names.len(), 4);
        assert_eq!(names[0], SOLAR_SUPERSTORM, "canonical scenario lists first");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert_eq!(reg.get(name).unwrap().name(), name);
            assert_eq!(reg.static_name(name), Some(name));
        }
        assert!(reg.get("no-such-scenario").is_none());
        assert!(reg.static_name("no-such-scenario").is_none());
    }

    #[test]
    fn spec_serde_round_trips_and_defaults_fill_in() {
        let spec = ScenarioSpec {
            seed: 7,
            distractors: 10,
            ..ScenarioSpec::named(CABLE_CUT)
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Missing fields take the canonical defaults.
        let default: ScenarioSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(default, ScenarioSpec::default());
        assert_eq!(default.scenario, SOLAR_SUPERSTORM);
        assert_eq!(default.seed, 0xC0FFEE);
        assert_eq!(default.distractors, 150);
    }

    #[test]
    fn solar_conclusions_match_the_derived_set() {
        let w = world();
        let ported = SolarSuperstorm.conclusions(&w);
        let legacy = w.conclusions();
        assert_eq!(ported.len(), 8);
        for (p, l) in ported.iter().zip(legacy.iter()) {
            assert_eq!(p.id, format!("{:?}", l.id));
            assert_eq!(p.statement, l.statement);
            assert_eq!(p.question, l.question);
            assert_eq!(p.expected_answer, l.expected_answer);
            assert_eq!(p.rationale_terms, l.rationale_terms);
            assert_eq!(p.evidence, l.evidence);
            assert_eq!(p.holds, l.holds);
        }
    }

    #[test]
    fn solar_emits_no_event_docs() {
        assert!(SolarSuperstorm.docs(&world()).events.is_empty());
    }

    #[test]
    fn every_scenario_passes_its_self_check() {
        let w = world();
        for name in ScenarioRegistry::standard().names() {
            let sc = lookup(name).unwrap();
            sc.self_check(&w).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn cable_cut_target_is_deterministic_and_transatlantic() {
        let w = world();
        let a = CableCut::target(&w).name.clone();
        let b = CableCut::target(&w).name.clone();
        assert_eq!(a, b);
        let cable = CableCut::target(&w);
        assert!(cable.connects(Region::NorthAmerica, Region::Europe));
        let cs = CableCut.conclusions(&w);
        assert!(cs.iter().all(|c| c.holds));
        assert!(cs.iter().any(|c| c.question.contains(&cable.name)));
    }

    #[test]
    fn grid_failure_targets_the_most_exposed_grid() {
        let w = world();
        let ranked = RegionalGridFailure::ranked(&w);
        assert!(ranked.len() >= 3);
        assert!(ranked[0].exposure() > ranked[1].exposure());
        let cs = RegionalGridFailure.conclusions(&w);
        let most = cs
            .iter()
            .find(|c| c.id == "GridFailureMostExposed")
            .unwrap();
        assert_eq!(most.expected_answer, ranked[0].name);
        assert_eq!(most.wrong_terms, vec![ranked[1].name.to_lowercase()]);
    }

    #[test]
    fn route_leak_numbers_match_the_bgp_replay() {
        let (before, during, after) = RouteLeak::replay();
        assert!(before > during);
        assert_eq!(before, after);
        let cs = RouteLeak.conclusions(&world());
        let avail = cs.iter().find(|c| c.id == "RouteLeakAvailability").unwrap();
        let pct = (during * 100.0).round() as u64;
        assert!(avail.expected_answer.contains(&format!("{pct} percent")));
    }

    #[test]
    fn scenario_classes_and_descriptions_are_stable() {
        let reg = ScenarioRegistry::standard();
        let classes: Vec<&str> = reg
            .names()
            .iter()
            .map(|n| reg.get(n).unwrap().class().label())
            .collect();
        assert_eq!(
            classes,
            vec!["geomagnetic", "physical-damage", "power-failure", "routing"]
        );
        for name in reg.names() {
            assert!(!reg.get(name).unwrap().description().is_empty());
        }
    }
}
