//! The fact-extraction layer — the model's "reading comprehension".
//!
//! Real LLMs absorb facts from prose in context; this module gives the
//! simulated model the same ability over the prose the synthetic web
//! actually publishes (the *fact sentence contract*, documented in
//! `ira-webcorpus::templates`). Extraction is per-sentence, with a
//! running subject so anaphora like "The system spans…" binds to the
//! entity the passage is about.
//!
//! Extraction is intentionally tolerant of surrounding text — facts are
//! found anywhere within a sentence — but strict about the fact shapes
//! themselves, so distractor text never produces phantom facts.

use crate::lexicon::{ops, Interner, Term};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// A general causal principle the model can pick up from explainer
/// text. These carry the "why" of an answer; entity facts carry the
/// "which".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Principle {
    /// Induced currents grow with geomagnetic latitude.
    LatitudeRisk,
    /// Repeaters, not fiber, are the vulnerable cable component.
    RepeaterWeakness,
    /// Dispersed data-center footprints are more resilient.
    DispersionResilience,
    /// Longer cables accumulate more repeater risk.
    LengthRisk,
    /// Terrestrial fiber is short/unrepeated and safer.
    TerrestrialSafety,
    /// Storms threaten power grids through long lines.
    GridThreat,
    /// Enough cable failures partition continents.
    PartitionRisk,
    /// Planning: shut vulnerable systems down preemptively.
    PredictiveShutdown,
    /// Planning: redirect to redundant, safer systems.
    RedundancyUtilization,
    /// Planning: shut down in phases ordered by vulnerability.
    PhasedShutdown,
    /// Planning: back critical data up pre-impact.
    DataPreservation,
    /// Planning: reboot gradually after impact.
    GradualReboot,
    /// Severed cables are repaired by ship-borne grapple-and-splice.
    CableRepair,
    /// EHV transformers saturate and overheat under sustained GIC.
    TransformerSaturation,
    /// Withdrawing the prefixes under authoritative nameservers takes
    /// a service offline by name.
    BgpDnsWithdrawal,
}

impl Principle {
    /// The distinctive key-phrase marking each principle in text.
    fn marker(&self) -> &'static str {
        match self {
            Principle::LatitudeRisk => "grow stronger at higher geomagnetic latitudes",
            Principle::RepeaterWeakness => "most vulnerable component",
            Principle::DispersionResilience => "dispersed data center footprint",
            Principle::LengthRisk => "more repeaters and therefore accumulate",
            Principle::TerrestrialSafety => "short and unrepeated",
            Principle::GridThreat => "damaging currents in long power lines",
            Principle::PartitionRisk => "partitioned from the internet",
            Principle::PredictiveShutdown => "preemptively shut down",
            Principle::RedundancyUtilization => "redirected to redundant systems",
            Principle::PhasedShutdown => "phased shutdown sequence",
            Principle::DataPreservation => "backed up and preserved before",
            Principle::GradualReboot => "rebooted gradually",
            Principle::CableRepair => "repair ship grapples the damaged section",
            Principle::TransformerSaturation => "transformers saturate and overheat",
            Principle::BgpDnsWithdrawal => "withdrew the bgp routes for",
        }
    }

    pub const ALL: [Principle; 15] = [
        Principle::LatitudeRisk,
        Principle::RepeaterWeakness,
        Principle::DispersionResilience,
        Principle::LengthRisk,
        Principle::TerrestrialSafety,
        Principle::GridThreat,
        Principle::PartitionRisk,
        Principle::PredictiveShutdown,
        Principle::RedundancyUtilization,
        Principle::PhasedShutdown,
        Principle::DataPreservation,
        Principle::GradualReboot,
        Principle::CableRepair,
        Principle::TransformerSaturation,
        Principle::BgpDnsWithdrawal,
    ];
}

/// A structured fact extracted from context text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fact {
    /// "{name} submarine cable connects {cityA}, {countryA} to {cityB},
    /// {countryB}, linking {regionA} and {regionB}."
    CableRoute {
        name: String,
        from_city: String,
        from_country: String,
        to_city: String,
        to_country: String,
        from_region: String,
        to_region: String,
    },
    /// Maximum |geomagnetic latitude| along an entity's route.
    MaxGeomagLatitude { entity: String, degrees: f64 },
    /// Cable length in km.
    LengthKm { entity: String, km: f64 },
    /// Number of powered repeaters.
    RepeaterCount { entity: String, count: u32 },
    /// Operator's region coverage count.
    RegionCoverage { operator: String, regions: u32 },
    /// Share of operator's sites at low geomagnetic latitude, percent.
    LowLatShare { operator: String, percent: f64 },
    /// Operator runs a data center at a site.
    DcPresence {
        operator: String,
        city: String,
        country: String,
        region: String,
    },
    /// Historic storm intensity.
    StormDst {
        name: String,
        year: Option<u16>,
        dst: f64,
    },
    /// A regional grid's geomagnetic latitude.
    RegionGridLatitude {
        grid: String,
        region: String,
        degrees: f64,
    },
    /// "The {year} {name} was caused by {cause}."
    IncidentCause { incident: String, cause: String },
    /// "The main effect on the Internet was {effect}." (subject-bound)
    IncidentEffect { incident: String, effect: String },
    /// "Service was disrupted for about {h} hours." (subject-bound)
    IncidentDuration { incident: String, hours: f64 },
    /// "The {year} {name} severed {n} submarine cables."
    IncidentCablesCut { incident: String, count: u32 },
    /// "During the {year} {name}, global Internet traffic grew by
    /// about {p} percent."
    IncidentTraffic { incident: String, percent: f64 },
    /// "The {cable} cable was severed by {cause}."
    CableCut { cable: String, cause: String },
    /// "Traffic rerouted onto {n} parallel transatlantic cable
    /// systems…" / "Because {n} parallel systems serve the corridor…"
    CorridorSurvivors { count: u32 },
    /// "The {grid} power grid collapsed when {cause}."
    GridCollapse { grid: String, cause: String },
    /// "{grid} has the highest GIC exposure of any major grid." /
    /// "…and find {grid} most exposed."
    GridMostExposed { grid: String },
    /// "Grids at low geomagnetic latitude, such as {grid}, show
    /// negligible exposure."
    GridLowLatitude { grid: String },
    /// "Only {p} percent of edge networks could reach…" (`during`) /
    /// "…restored to {p} percent…" (`!during`).
    EdgeAvailability { during: bool, percent: f64 },
    /// "The content prefixes stayed announced…"
    ContentPrefixesAnnounced,
}

/// Everything read out of a body of context text.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Extraction {
    pub facts: Vec<Fact>,
    pub principles: BTreeSet<Principle>,
}

impl Extraction {
    /// Read `text`, optionally knowing up front what entity the passage
    /// is about (e.g. a page title).
    pub fn from_text(text: &str, subject_hint: Option<&str>) -> Self {
        let mut ex = Extraction::default();
        ex.absorb(text, subject_hint);
        ex
    }

    /// Read more text into this extraction.
    pub fn absorb(&mut self, text: &str, subject_hint: Option<&str>) {
        ops::absorb_call();
        ops::tokenize_chars(text.len());
        let lower = text.to_lowercase();
        for p in Principle::ALL {
            if lower.contains(p.marker()) {
                self.principles.insert(p);
            }
        }

        let open = Gates::of(text);
        let mut subject: Option<String> = subject_hint.map(str::to_owned);
        for sentence in split_sentences(text) {
            if open.route {
                if let Some(fact) = parse_route(sentence) {
                    if let Fact::CableRoute { name, .. } = &fact {
                        subject = Some(name.clone());
                    }
                    self.push(fact);
                }
            }
            if open.apex {
                if let Some(deg) = parse_apex(sentence) {
                    let entity = apex_entity(sentence).or_else(|| subject.clone());
                    if let Some(entity) = entity {
                        self.push(Fact::MaxGeomagLatitude {
                            entity,
                            degrees: deg,
                        });
                    }
                }
            }
            if open.spans {
                if let Some(km) = parse_after_number(sentence, SPANS_PREFIX, " kilometres") {
                    if let Some(entity) = subject.clone() {
                        self.push(Fact::LengthKm { entity, km });
                    }
                }
            }
            if open.powered {
                if let Some(n) = parse_after_number(sentence, POWERED_PREFIX, " optical repeaters")
                {
                    if let Some(entity) = subject.clone() {
                        self.push(Fact::RepeaterCount {
                            entity,
                            count: n as u32,
                        });
                    }
                }
            }
            if open.coverage {
                if let Some(fact) = parse_coverage(sentence) {
                    self.push(fact);
                }
            }
            if open.low_lat_share {
                if let Some(fact) = parse_low_lat_share(sentence) {
                    self.push(fact);
                }
            }
            if open.presence {
                if let Some(fact) = parse_presence(sentence) {
                    self.push(fact);
                }
            }
            if open.storm {
                if let Some(fact) = parse_storm(sentence) {
                    self.push(fact);
                }
            }
            if open.grid {
                if let Some(fact) = parse_grid(sentence) {
                    self.push(fact);
                }
            }
            if open.cause {
                if let Some(fact) = parse_incident_cause(sentence) {
                    if let Fact::IncidentCause { incident, .. } = &fact {
                        subject = Some(incident.clone());
                    }
                    self.push(fact);
                }
            }
            if open.effect {
                if let Some(effect) = parse_after_marker(sentence, EFFECT_MARKER) {
                    if let Some(incident) = subject.clone() {
                        self.push(Fact::IncidentEffect { incident, effect });
                    }
                }
            }
            if open.duration {
                if let Some(hours) = parse_after_number(sentence, DURATION_PREFIX, " hours") {
                    if let Some(incident) = subject.clone() {
                        self.push(Fact::IncidentDuration { incident, hours });
                    }
                }
            }
            if open.cables_cut {
                if let Some(fact) = parse_cables_cut(sentence) {
                    self.push(fact);
                }
            }
            if open.traffic {
                if let Some(fact) = parse_incident_traffic(sentence) {
                    self.push(fact);
                }
            }
            if open.cable_cut {
                if let Some(fact) = parse_cable_cut(sentence) {
                    if let Fact::CableCut { cable, .. } = &fact {
                        subject = Some(cable.clone());
                    }
                    self.push(fact);
                }
            }
            if open.cable_span {
                if let Some(fact) = parse_cable_span(sentence) {
                    if let Fact::LengthKm { entity, .. } = &fact {
                        subject = Some(entity.clone());
                    }
                    self.push(fact);
                }
            }
            if open.break_took {
                if let Some(n) =
                    parse_after_number(sentence, BREAK_TOOK_PREFIX, " optical repeaters")
                {
                    if let Some(entity) = subject.clone() {
                        self.push(Fact::RepeaterCount {
                            entity,
                            count: n as u32,
                        });
                    }
                }
            }
            if open.corridor {
                for (prefix, suffix) in CORRIDOR_FORMS {
                    if let Some(n) = parse_after_number(sentence, prefix, suffix) {
                        self.push(Fact::CorridorSurvivors { count: n as u32 });
                    }
                }
            }
            if open.grid_collapse {
                if let Some(fact) = parse_grid_collapse(sentence) {
                    self.push(fact);
                }
            }
            if open.most_exposed {
                if let Some(fact) = parse_grid_most_exposed(sentence) {
                    self.push(fact);
                }
            }
            if open.grid_low_latitude {
                if let Some(fact) = parse_grid_low_latitude(sentence) {
                    self.push(fact);
                }
            }
            if open.edge_during {
                if let Some(p) = parse_after_number(sentence, EDGE_DURING_PREFIX, EDGE_DURING_TAIL)
                {
                    self.push(Fact::EdgeAvailability {
                        during: true,
                        percent: p,
                    });
                }
            }
            if open.restored
                && sentence.contains(RESTORED_PREFIX)
                && sentence.contains(REANNOUNCED_MARKER)
            {
                if let Some(p) = parse_after_number(sentence, RESTORED_PREFIX, " percent") {
                    self.push(Fact::EdgeAvailability {
                        during: false,
                        percent: p,
                    });
                }
            }
            if open.content_prefixes && sentence.contains(CONTENT_PREFIXES_MARKER) {
                self.push(Fact::ContentPrefixesAnnounced);
            }
        }
    }

    /// Merge another extraction into this one, deduplicating. A fact
    /// is cloned only when it is new.
    pub fn merge(&mut self, other: &Extraction) {
        for f in &other.facts {
            if !self.facts.contains(f) {
                self.facts.push(f.clone());
            }
        }
        self.principles.extend(other.principles.iter().copied());
    }

    fn push(&mut self, fact: Fact) {
        if !self.facts.contains(&fact) {
            self.facts.push(fact);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.facts.is_empty() && self.principles.is_empty()
    }

    /// All cable-route facts.
    pub fn routes(&self) -> impl Iterator<Item = &Fact> {
        self.facts
            .iter()
            .filter(|f| matches!(f, Fact::CableRoute { .. }))
    }

    /// Max geomagnetic latitude recorded for `entity`, if any.
    /// All distinct apex values recorded for `entity`.
    pub fn apex_values(&self, entity: &str) -> Vec<f64> {
        self.facts
            .iter()
            .filter_map(|f| match f {
                Fact::MaxGeomagLatitude { entity: e, degrees } if e == entity => Some(*degrees),
                _ => None,
            })
            .collect()
    }

    /// The apex value the model believes, robust to adversarial
    /// context: the *median* of the distinct values it has read. A
    /// single poisoned source cannot drag the estimate past the
    /// midpoint, and with two honest corroborating sources it cannot
    /// move it at all (§5 "the knowledge memory file can be hacked
    /// with adversarial data").
    pub fn apex_of(&self, entity: &str) -> Option<f64> {
        let mut values = self.apex_values(entity);
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        Some(if n % 2 == 1 {
            values[n / 2]
        } else {
            (values[n / 2 - 1] + values[n / 2]) / 2.0
        })
    }

    /// Whether sources disagree materially about an entity's apex
    /// (spread above `tolerance` degrees).
    pub fn apex_conflict(&self, entity: &str, tolerance: f64) -> bool {
        let values = self.apex_values(entity);
        match (
            values.iter().copied().reduce(f64::min),
            values.iter().copied().reduce(f64::max),
        ) {
            (Some(lo), Some(hi)) => hi - lo > tolerance,
            _ => false,
        }
    }

    /// Region coverage for an operator (case-insensitive).
    pub fn coverage_of(&self, operator: &str) -> Option<u32> {
        let op = operator.to_lowercase();
        self.facts.iter().find_map(|f| match f {
            Fact::RegionCoverage {
                operator: o,
                regions,
            } if o.to_lowercase() == op => Some(*regions),
            _ => None,
        })
    }

    /// Low-latitude share for an operator (percent).
    pub fn low_lat_share_of(&self, operator: &str) -> Option<f64> {
        let op = operator.to_lowercase();
        self.facts.iter().find_map(|f| match f {
            Fact::LowLatShare {
                operator: o,
                percent,
            } if o.to_lowercase() == op => Some(*percent),
            _ => None,
        })
    }

    /// Data-center presence facts for an operator.
    pub fn presences_of(&self, operator: &str) -> Vec<&Fact> {
        let op = operator.to_lowercase();
        self.facts
            .iter()
            .filter(|f| matches!(f, Fact::DcPresence { operator: o, .. } if o.to_lowercase() == op))
            .collect()
    }

    /// Mean |grid geomagnetic latitude| for a region, if known.
    pub fn region_latitude(&self, region: &str) -> Option<f64> {
        let wanted = region.to_lowercase();
        let values: Vec<f64> = self
            .facts
            .iter()
            .filter_map(|f| match f {
                Fact::RegionGridLatitude {
                    region: r, degrees, ..
                } if r.to_lowercase() == wanted => Some(*degrees),
                _ => None,
            })
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }
}

/// One route endpoint with its normalization precomputed: the
/// lowercase forms a question descriptor is compared against, plus the
/// original-case region for [`place_region`] equality.
///
/// [`place_region`]: crate::intent::place_region
struct SideKey<'e> {
    city: String,
    country: String,
    region: String,
    region_orig: &'e str,
}

impl SideKey<'_> {
    /// Does descriptor `d` (normalized lowercase) match this endpoint?
    /// Byte-for-byte the same predicate the reasoning engine used to
    /// recompute per call.
    fn matches(&self, d: &str) -> bool {
        d == self.country
            || d == self.region
            || d == self.city
            || crate::intent::place_region(d) == Some(self.region_orig)
    }
}

/// A cable-route fact with both endpoints pre-normalized.
struct RouteKey<'e> {
    name: &'e str,
    sides: [SideKey<'e>; 2],
}

/// A precomputed, interned lookup index over one [`Extraction`].
///
/// The reasoning engine consults the same handful of keyed views on
/// every call — operator coverage, operator low-latitude share,
/// presence counts, region grid latitudes, entity apex values, route
/// endpoints, incident names. The plain [`Extraction`] accessors
/// re-lowercase every fact per lookup; this index normalizes and
/// interns each key **once** at build time (u32 [`Term`] symbols from
/// a deterministic insertion-ordered [`Interner`]), so lookups are a
/// single hash probe and endpoint matching compares precomputed
/// strings.
///
/// The index is a pure derived view: building it never changes what
/// any accessor returns relative to the scan-based equivalents (the
/// unit tests pin this), which is what keeps answers byte-identical.
pub struct ExtractionIndex<'e> {
    ex: &'e Extraction,
    interner: Interner,
    coverage: HashMap<Term, u32>,
    lowlat: HashMap<Term, f64>,
    presence_counts: HashMap<Term, usize>,
    region_lat: HashMap<Term, (f64, usize)>,
    apex: HashMap<Term, Vec<f64>>,
    routes: Vec<RouteKey<'e>>,
    /// `(fact index, lowercased incident name)` for every
    /// incident-tagged fact, in fact order.
    incidents: Vec<(usize, String)>,
    singapore_grid: bool,
}

impl<'e> ExtractionIndex<'e> {
    /// Build the index in one pass over the facts.
    pub fn build(ex: &'e Extraction) -> Self {
        let mut idx = ExtractionIndex {
            ex,
            interner: Interner::new(),
            coverage: HashMap::new(),
            lowlat: HashMap::new(),
            presence_counts: HashMap::new(),
            region_lat: HashMap::new(),
            apex: HashMap::new(),
            routes: Vec::new(),
            incidents: Vec::new(),
            singapore_grid: false,
        };
        for (i, fact) in ex.facts.iter().enumerate() {
            match fact {
                Fact::RegionCoverage { operator, regions } => {
                    ops::tokenize_chars(operator.len());
                    let t = idx.interner.intern(&operator.to_lowercase());
                    // First occurrence wins, like the scan's `find_map`.
                    idx.coverage.entry(t).or_insert(*regions);
                }
                Fact::LowLatShare { operator, percent } => {
                    ops::tokenize_chars(operator.len());
                    let t = idx.interner.intern(&operator.to_lowercase());
                    idx.lowlat.entry(t).or_insert(*percent);
                }
                Fact::DcPresence { operator, .. } => {
                    ops::tokenize_chars(operator.len());
                    let t = idx.interner.intern(&operator.to_lowercase());
                    *idx.presence_counts.entry(t).or_insert(0) += 1;
                }
                Fact::RegionGridLatitude {
                    grid,
                    region,
                    degrees,
                } => {
                    ops::tokenize_chars(region.len() + grid.len());
                    let t = idx.interner.intern(&region.to_lowercase());
                    let slot = idx.region_lat.entry(t).or_insert((0.0, 0));
                    slot.0 += *degrees;
                    slot.1 += 1;
                    if grid.to_lowercase().contains("singapore") {
                        idx.singapore_grid = true;
                    }
                }
                Fact::MaxGeomagLatitude { entity, degrees } => {
                    let t = idx.interner.intern(entity);
                    idx.apex.entry(t).or_default().push(*degrees);
                }
                Fact::CableRoute {
                    name,
                    from_city,
                    from_country,
                    to_city,
                    to_country,
                    from_region,
                    to_region,
                } => {
                    ops::tokenize_chars(
                        from_city.len()
                            + from_country.len()
                            + from_region.len()
                            + to_city.len()
                            + to_country.len()
                            + to_region.len(),
                    );
                    idx.routes.push(RouteKey {
                        name,
                        sides: [
                            SideKey {
                                city: from_city.to_lowercase(),
                                country: from_country.to_lowercase(),
                                region: from_region.to_lowercase(),
                                region_orig: from_region,
                            },
                            SideKey {
                                city: to_city.to_lowercase(),
                                country: to_country.to_lowercase(),
                                region: to_region.to_lowercase(),
                                region_orig: to_region,
                            },
                        ],
                    });
                }
                Fact::IncidentCause { incident, .. }
                | Fact::IncidentEffect { incident, .. }
                | Fact::IncidentDuration { incident, .. }
                | Fact::IncidentCablesCut { incident, .. }
                | Fact::IncidentTraffic { incident, .. } => {
                    ops::tokenize_chars(incident.len());
                    idx.incidents.push((i, incident.to_lowercase()));
                }
                Fact::LengthKm { .. }
                | Fact::RepeaterCount { .. }
                | Fact::StormDst { .. }
                | Fact::CableCut { .. }
                | Fact::CorridorSurvivors { .. }
                | Fact::GridCollapse { .. }
                | Fact::GridMostExposed { .. }
                | Fact::GridLowLatitude { .. }
                | Fact::EdgeAvailability { .. }
                | Fact::ContentPrefixesAnnounced => {}
            }
        }
        idx
    }

    /// The extraction this index derives from (for raw fact scans that
    /// never normalized strings in the first place).
    pub fn ex(&self) -> &'e Extraction {
        self.ex
    }

    /// Region coverage for an operator (case-insensitive, first fact
    /// wins).
    pub fn coverage_of(&self, operator: &str) -> Option<u32> {
        let t = self.interner.get(&operator.to_lowercase())?;
        self.coverage.get(&t).copied()
    }

    /// Low-latitude share for an operator (percent).
    pub fn low_lat_share_of(&self, operator: &str) -> Option<f64> {
        let t = self.interner.get(&operator.to_lowercase())?;
        self.lowlat.get(&t).copied()
    }

    /// Number of data-center presence facts for an operator.
    pub fn presence_count(&self, operator: &str) -> usize {
        self.interner
            .get(&operator.to_lowercase())
            .and_then(|t| self.presence_counts.get(&t).copied())
            .unwrap_or(0)
    }

    /// Mean |grid geomagnetic latitude| for a region, if known.
    pub fn region_latitude(&self, region: &str) -> Option<f64> {
        let t = self.interner.get(&region.to_lowercase())?;
        self.region_lat.get(&t).map(|(sum, n)| sum / *n as f64)
    }

    /// Median apex latitude for an entity (same robust-median rule as
    /// [`Extraction::apex_of`]).
    pub fn apex_of(&self, entity: &str) -> Option<f64> {
        let t = self.interner.get(entity)?;
        let stored = self.apex.get(&t)?;
        let mut values = stored.clone();
        values.sort_by(f64::total_cmp);
        let n = values.len();
        Some(if n % 2 == 1 {
            values[n / 2]
        } else {
            (values[n / 2 - 1] + values[n / 2]) / 2.0
        })
    }

    /// Whether sources disagree materially about an entity's apex.
    pub fn apex_conflict(&self, entity: &str, tolerance: f64) -> bool {
        let Some(values) = self.interner.get(entity).and_then(|t| self.apex.get(&t)) else {
            return false;
        };
        match (
            values.iter().copied().reduce(f64::min),
            values.iter().copied().reduce(f64::max),
        ) {
            (Some(lo), Some(hi)) => hi - lo > tolerance,
            _ => false,
        }
    }

    /// Names of cables whose route matches `(a, b)` in either
    /// direction, in fact order. Descriptors must be normalized
    /// lowercase (the [`crate::intent::RouteSpec`] form).
    pub fn routes_matching(&self, a: &str, b: &str) -> Vec<&'e str> {
        self.routes
            .iter()
            .filter_map(|r| {
                let fwd = r.sides[0].matches(a) && r.sides[1].matches(b);
                let rev = r.sides[0].matches(b) && r.sides[1].matches(a);
                (fwd || rev).then_some(r.name)
            })
            .collect()
    }

    /// Every incident-tagged fact matching `needle` (containment
    /// either way, case-insensitive), in fact order.
    pub fn incident_facts(&self, needle: &str) -> Vec<&'e Fact> {
        ops::tokenize_chars(needle.len());
        let needle = needle.to_lowercase();
        self.incidents
            .iter()
            .filter(|(_, inc)| inc.contains(&needle) || needle.contains(inc.as_str()))
            .map(|(i, _)| &self.ex.facts[*i])
            .collect()
    }

    /// Whether any grid fact mentions Singapore (supporting color for
    /// region comparisons).
    pub fn has_singapore_grid(&self) -> bool {
        self.singapore_grid
    }
}

// Markers of the fact forms `Extraction::absorb` parses inline (the
// parser functions below keep theirs beside them).
const SPANS_PREFIX: &str = "spans approximately ";
const POWERED_PREFIX: &str = "powered through roughly ";
const EFFECT_MARKER: &str = "The main effect on the Internet was ";
const DURATION_PREFIX: &str = "disrupted for about ";
const BREAK_TOOK_PREFIX: &str = "break took about ";
/// The two corridor-survivor forms, `(prefix, suffix)`.
const CORRIDOR_FORMS: [(&str, &str); 2] = [
    ("rerouted onto ", " parallel"),
    ("Because ", " parallel systems"),
];
const EDGE_DURING_PREFIX: &str = "Only ";
const EDGE_DURING_TAIL: &str = " percent of edge networks";
const RESTORED_PREFIX: &str = "restored to ";
const REANNOUNCED_MARKER: &str = "re-announced";
const CONTENT_PREFIXES_MARKER: &str = "content prefixes stayed announced";

/// Which fact parsers can fire on one text. Each parser's first step
/// finds its marker in the sentence, and every sentence is a slice of
/// the text, so a parser whose marker the whole text lacks returns
/// `None` on every sentence; `absorb` skips it. A gate is one
/// `contains` per text instead of one `find` per sentence.
struct Gates {
    route: bool,
    apex: bool,
    spans: bool,
    powered: bool,
    coverage: bool,
    low_lat_share: bool,
    presence: bool,
    storm: bool,
    grid: bool,
    cause: bool,
    effect: bool,
    duration: bool,
    cables_cut: bool,
    traffic: bool,
    cable_cut: bool,
    cable_span: bool,
    break_took: bool,
    corridor: bool,
    grid_collapse: bool,
    most_exposed: bool,
    grid_low_latitude: bool,
    edge_during: bool,
    restored: bool,
    content_prefixes: bool,
}

impl Gates {
    fn of(text: &str) -> Gates {
        let has = |marker: &str| text.contains(marker);
        Gates {
            route: has(ROUTE_MARKER),
            apex: has(APEX_MARKER),
            spans: has(SPANS_PREFIX),
            powered: has(POWERED_PREFIX),
            coverage: has(COVERAGE_MARKER),
            low_lat_share: has(LOW_LAT_SHARE_TAIL),
            presence: has(PRESENCE_MARKER),
            storm: has(STORM_MARKER),
            grid: has(GRID_SERVES) && has(GRID_SITS),
            cause: has(CAUSE_MARKER),
            effect: has(EFFECT_MARKER),
            duration: has(DURATION_PREFIX),
            cables_cut: has(CABLES_CUT_MARKER),
            traffic: has(TRAFFIC_HEAD) && has(TRAFFIC_MARKER),
            cable_cut: has(CABLE_CUT_MARKER),
            cable_span: has(CABLE_SPAN_MARKER),
            break_took: has(BREAK_TOOK_PREFIX),
            corridor: CORRIDOR_FORMS.iter().any(|(prefix, _)| has(prefix)),
            grid_collapse: has(GRID_COLLAPSE_MARKER),
            most_exposed: has(MOST_EXPOSED_HIGHEST) || has(MOST_EXPOSED_FIND),
            grid_low_latitude: has(GRID_LOW_LAT_MARKER),
            edge_during: has(EDGE_DURING_PREFIX),
            restored: has(RESTORED_PREFIX) && has(REANNOUNCED_MARKER),
            content_prefixes: has(CONTENT_PREFIXES_MARKER),
        }
    }
}

/// Split text into sentences, avoiding splits after short capitalised
/// abbreviations ("St. Ghislain").
pub fn split_sentences(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'.' || bytes[i] == b'\n' || bytes[i] == b'?' || bytes[i] == b'!' {
            let is_break = if bytes[i] == b'.' {
                let next_ws = bytes.get(i + 1).is_none_or(|b| b.is_ascii_whitespace());
                let prev_word_len = text[start..i]
                    .rsplit(|c: char| c.is_whitespace())
                    .next()
                    .map_or(0, str::len);
                next_ws && prev_word_len > 2
            } else {
                true
            };
            if is_break {
                let s = text[start..=i.min(text.len() - 1)].trim();
                if !s.is_empty() {
                    out.push(s);
                }
                start = i + 1;
            }
        }
        i += 1;
    }
    let tail = text[start.min(text.len())..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

/// Parse a leading f64 (optionally signed) from `s`.
fn leading_number(s: &str) -> Option<f64> {
    let s = s.trim_start();
    let end = s
        .char_indices()
        .take_while(|(i, c)| c.is_ascii_digit() || *c == '.' || (*i == 0 && *c == '-'))
        .map(|(i, c)| i + c.len_utf8())
        .last()?;
    s[..end].trim_end_matches('.').parse().ok()
}

/// Find `prefix`…number…`suffix` in a sentence; return the number.
fn parse_after_number(sentence: &str, prefix: &str, suffix: &str) -> Option<f64> {
    let idx = sentence.find(prefix)?;
    let rest = &sentence[idx + prefix.len()..];
    let n = leading_number(rest)?;
    // Require the suffix to follow the number closely.
    let after_num = &rest[rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len())..];
    after_num
        .starts_with(suffix.trim_start())
        .then_some(n)
        .or_else(|| rest.contains(suffix).then_some(n))
}

const ROUTE_MARKER: &str = " submarine cable connects ";

fn parse_route(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(ROUTE_MARKER)?;
    let mut name = sentence[..idx].trim();
    name = name.strip_prefix("The ").unwrap_or(name);
    // Guard against prose like "...systems. The submarine cable connects…"
    if name.is_empty() || name.len() > 60 {
        return None;
    }
    let rest = &sentence[idx + ROUTE_MARKER.len()..];
    let (from_part, rest) = rest.split_once(" to ")?;
    let (to_part, regions) = rest.split_once(", linking ")?;
    let (from_city, from_country) = from_part.split_once(", ")?;
    let (to_city, to_country) = to_part.split_once(", ")?;
    let regions = regions.trim_end_matches('.');
    let (from_region, to_region) = regions.split_once(" and ")?;
    Some(Fact::CableRoute {
        name: name.to_string(),
        from_city: from_city.trim().to_string(),
        from_country: from_country.trim().to_string(),
        to_city: to_city.trim().to_string(),
        to_country: to_country.trim().to_string(),
        from_region: from_region.trim().to_string(),
        to_region: to_region.trim().to_string(),
    })
}

const APEX_MARKER: &str = "maximum geomagnetic latitude of ";

fn parse_apex(sentence: &str) -> Option<f64> {
    let idx = sentence.find(APEX_MARKER)?;
    let rest = &sentence[idx + APEX_MARKER.len()..];
    let deg = leading_number(rest)?;
    rest.contains("degrees").then_some(deg)
}

/// "The {name} cable reaches a maximum geomagnetic latitude…" — the
/// short social-post form carries its own entity.
fn apex_entity(sentence: &str) -> Option<String> {
    let idx = sentence.find(" cable reaches a maximum geomagnetic latitude")?;
    let head = &sentence[..idx];
    let name_start = head.rfind("The ")?;
    let name = head[name_start + 4..].trim();
    (!name.is_empty()).then(|| name.to_string())
}

const COVERAGE_MARKER: &str = " operates data centers in ";

fn parse_coverage(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(COVERAGE_MARKER)?;
    let operator = last_word_span(&sentence[..idx])?;
    let rest = &sentence[idx + COVERAGE_MARKER.len()..];
    let regions = leading_number(rest)? as u32;
    rest.contains("major regions")
        .then_some(Fact::RegionCoverage { operator, regions })
}

const LOW_LAT_SHARE_TAIL: &str = "'s data center sites sit at low geomagnetic latitudes";

fn parse_low_lat_share(sentence: &str) -> Option<Fact> {
    const MARKER: &str = " percent of ";
    let tail_idx = sentence.find(LOW_LAT_SHARE_TAIL)?;
    let idx = sentence[..tail_idx].find(MARKER)?;
    let operator = sentence[idx + MARKER.len()..tail_idx].trim().to_string();
    let head = &sentence[..idx];
    let num_start = head.rfind(' ').map(|i| i + 1).unwrap_or(0);
    let percent = leading_number(&head[num_start..])?;
    Some(Fact::LowLatShare { operator, percent })
}

const PRESENCE_MARKER: &str = " operates a data center in ";

fn parse_presence(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(PRESENCE_MARKER)?;
    let operator = last_word_span(&sentence[..idx])?;
    let rest = sentence[idx + PRESENCE_MARKER.len()..].trim_end_matches('.');
    let (site, region) = rest.rsplit_once(", in ")?;
    let (city, country) = site.rsplit_once(", ")?;
    Some(Fact::DcPresence {
        operator,
        city: city.trim().to_string(),
        country: country.trim().to_string(),
        region: region.trim().to_string(),
    })
}

const STORM_MARKER: &str = " reached an estimated Dst of ";

fn parse_storm(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(STORM_MARKER)?;
    let head = sentence[..idx].trim();
    let head = head.strip_prefix("The ").unwrap_or(head);
    let (year, name) = match head.split_once(' ') {
        Some((y, rest)) if y.len() == 4 && y.chars().all(|c| c.is_ascii_digit()) => {
            (y.parse().ok(), rest.to_string())
        }
        _ => (None, head.to_string()),
    };
    let rest = &sentence[idx + STORM_MARKER.len()..];
    let dst = leading_number(rest)?;
    rest.contains("nanotesla")
        .then_some(Fact::StormDst { name, year, dst })
}

const GRID_SERVES: &str = " serves ";
const GRID_SITS: &str = " and sits at about ";

fn parse_grid(sentence: &str) -> Option<Fact> {
    let serves_idx = sentence.find(GRID_SERVES)?;
    let sits_idx = sentence.find(GRID_SITS)?;
    if sits_idx <= serves_idx {
        return None;
    }
    let grid = sentence[..serves_idx]
        .trim()
        .strip_prefix("The ")
        .unwrap_or(&sentence[..serves_idx])
        .to_string();
    let region = sentence[serves_idx + GRID_SERVES.len()..sits_idx]
        .trim()
        .to_string();
    let rest = &sentence[sits_idx + GRID_SITS.len()..];
    let degrees = leading_number(rest)?;
    rest.contains("degrees geomagnetic latitude")
        .then_some(Fact::RegionGridLatitude {
            grid,
            region,
            degrees,
        })
}

const CAUSE_MARKER: &str = " was caused by ";

fn parse_incident_cause(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(CAUSE_MARKER)?;
    let head = sentence[..idx].trim();
    let head = head.strip_prefix("The ").unwrap_or(head);
    // Require the "{year} {name}" shape so prose like "the outage was
    // caused by" without a named subject is ignored.
    let (year, _) = head.split_once(' ')?;
    if !(year.len() == 4 && year.chars().all(|c| c.is_ascii_digit())) {
        return None;
    }
    let cause = sentence[idx + CAUSE_MARKER.len()..]
        .trim_end_matches('.')
        .trim();
    (!cause.is_empty()).then(|| Fact::IncidentCause {
        incident: head.to_string(),
        cause: cause.to_string(),
    })
}

/// Text following a marker up to the sentence end.
fn parse_after_marker(sentence: &str, marker: &str) -> Option<String> {
    let idx = sentence.find(marker)?;
    let rest = sentence[idx + marker.len()..].trim_end_matches('.').trim();
    (!rest.is_empty()).then(|| rest.to_string())
}

const CABLES_CUT_MARKER: &str = " severed ";

fn parse_cables_cut(sentence: &str) -> Option<Fact> {
    const TAIL: &str = " submarine cables";
    let idx = sentence.find(CABLES_CUT_MARKER)?;
    let head = sentence[..idx].trim();
    let head = head.strip_prefix("The ").unwrap_or(head);
    let rest = &sentence[idx + CABLES_CUT_MARKER.len()..];
    let count = leading_number(rest)? as u32;
    rest.contains(TAIL.trim_start())
        .then(|| Fact::IncidentCablesCut {
            incident: head.to_string(),
            count,
        })
}

const TRAFFIC_HEAD: &str = "During the ";
const TRAFFIC_MARKER: &str = "global Internet traffic grew by about ";

fn parse_incident_traffic(sentence: &str) -> Option<Fact> {
    let head_idx = sentence.find(TRAFFIC_HEAD)?;
    let marker_idx = sentence.find(TRAFFIC_MARKER)?;
    if marker_idx <= head_idx {
        return None;
    }
    let incident = sentence[head_idx + TRAFFIC_HEAD.len()..marker_idx]
        .trim_end_matches(|c: char| c == ',' || c.is_whitespace())
        .to_string();
    let rest = &sentence[marker_idx + TRAFFIC_MARKER.len()..];
    let percent = leading_number(rest)?;
    rest.contains("percent")
        .then_some(Fact::IncidentTraffic { incident, percent })
}

const CABLE_CUT_MARKER: &str = " cable was severed by ";

/// "The {cable} cable was severed by {cause}."
fn parse_cable_cut(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(CABLE_CUT_MARKER)?;
    let head = sentence[..idx].trim();
    let cable = head.strip_prefix("The ").unwrap_or(head);
    if cable.is_empty() || cable.len() > 60 {
        return None;
    }
    let cause = sentence[idx + CABLE_CUT_MARKER.len()..]
        .trim_end_matches('.')
        .trim();
    (!cause.is_empty()).then(|| Fact::CableCut {
        cable: cable.to_string(),
        cause: cause.to_string(),
    })
}

const CABLE_SPAN_MARKER: &str = " system spans about ";

/// "The {cable} system spans about {n} km." — the scenario-doc length
/// form carries its own entity (unlike the solar "spans approximately
/// … kilometres" form, which binds to the running subject).
fn parse_cable_span(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(CABLE_SPAN_MARKER)?;
    let head = sentence[..idx].trim();
    let entity = head.strip_prefix("The ").unwrap_or(head);
    if entity.is_empty() || entity.len() > 60 {
        return None;
    }
    let rest = &sentence[idx + CABLE_SPAN_MARKER.len()..];
    let km = leading_number(rest)?;
    rest.contains(" km").then(|| Fact::LengthKm {
        entity: entity.to_string(),
        km,
    })
}

const GRID_COLLAPSE_MARKER: &str = " power grid collapsed when ";

/// "The {grid} power grid collapsed when {cause}."
fn parse_grid_collapse(sentence: &str) -> Option<Fact> {
    let idx = sentence.find(GRID_COLLAPSE_MARKER)?;
    let head = sentence[..idx].trim();
    let grid = head.strip_prefix("The ").unwrap_or(head);
    if grid.is_empty() || grid.len() > 60 {
        return None;
    }
    let cause = sentence[idx + GRID_COLLAPSE_MARKER.len()..]
        .trim_end_matches('.')
        .trim();
    (!cause.is_empty()).then(|| Fact::GridCollapse {
        grid: grid.to_string(),
        cause: cause.to_string(),
    })
}

const MOST_EXPOSED_HIGHEST: &str = " has the highest GIC exposure";
const MOST_EXPOSED_FIND: &str = "and find ";

/// "{grid} has the highest GIC exposure of any major grid." /
/// "We rank grids by GIC exposure and find {grid} most exposed."
fn parse_grid_most_exposed(sentence: &str) -> Option<Fact> {
    if let Some(idx) = sentence.find(MOST_EXPOSED_HIGHEST) {
        let head = sentence[..idx].trim();
        let grid = head.strip_prefix("The ").unwrap_or(head);
        if !grid.is_empty() && grid.len() <= 60 {
            return Some(Fact::GridMostExposed {
                grid: grid.to_string(),
            });
        }
    }
    const TAIL: &str = " most exposed";
    let idx = sentence.find(MOST_EXPOSED_FIND)?;
    let rest = &sentence[idx + MOST_EXPOSED_FIND.len()..];
    let end = rest.find(TAIL)?;
    let grid = rest[..end].trim();
    (!grid.is_empty() && grid.len() <= 60).then(|| Fact::GridMostExposed {
        grid: grid.to_string(),
    })
}

const GRID_LOW_LAT_MARKER: &str = "low geomagnetic latitude";

/// "Grids at low geomagnetic latitude, such as {grid}, show
/// negligible exposure."
fn parse_grid_low_latitude(sentence: &str) -> Option<Fact> {
    if !sentence.contains(GRID_LOW_LAT_MARKER) {
        return None;
    }
    const FIND: &str = "such as ";
    let idx = sentence.find(FIND)?;
    let rest = &sentence[idx + FIND.len()..];
    let end = rest.find(", show negligible")?;
    let grid = rest[..end].trim();
    (!grid.is_empty() && grid.len() <= 60).then(|| Fact::GridLowLatitude {
        grid: grid.to_string(),
    })
}

/// The word(s) immediately before a marker — operator names are one
/// word ("Google", "Facebook"), so take the trailing word.
fn last_word_span(head: &str) -> Option<String> {
    let w = head.trim_end().rsplit(|c: char| c.is_whitespace()).next()?;
    let w = w.trim_matches(|c: char| !c.is_alphanumeric());
    (!w.is_empty()).then(|| w.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUTE: &str = "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, \
                         Portugal, linking South America and Europe.";

    #[test]
    fn route_parses_fully() {
        let ex = Extraction::from_text(ROUTE, None);
        assert_eq!(ex.facts.len(), 1);
        match &ex.facts[0] {
            Fact::CableRoute {
                name,
                from_country,
                to_country,
                from_region,
                to_region,
                ..
            } => {
                assert_eq!(name, "EllaLink");
                assert_eq!(from_country, "Brazil");
                assert_eq!(to_country, "Portugal");
                assert_eq!(from_region, "South America");
                assert_eq!(to_region, "Europe");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subject_binds_following_facts() {
        let text = format!(
            "{ROUTE} The system spans approximately 6134 kilometres. Along its route it \
             reaches a maximum geomagnetic latitude of 46.3 degrees. The cable is powered \
             through roughly 87 optical repeaters."
        );
        let ex = Extraction::from_text(&text, None);
        assert_eq!(ex.apex_of("EllaLink"), Some(46.3));
        assert!(ex.facts.contains(&Fact::LengthKm {
            entity: "EllaLink".into(),
            km: 6134.0
        }));
        assert!(ex.facts.contains(&Fact::RepeaterCount {
            entity: "EllaLink".into(),
            count: 87
        }));
    }

    #[test]
    fn subject_hint_binds_when_no_route_sentence() {
        let text = "Along its route it reaches a maximum geomagnetic latitude of 63.0 degrees.";
        let ex = Extraction::from_text(text, Some("Grace Hopper"));
        assert_eq!(ex.apex_of("Grace Hopper"), Some(63.0));
        // Without a hint the fact is dropped rather than misattributed.
        let ex = Extraction::from_text(text, None);
        assert!(ex.facts.is_empty());
    }

    #[test]
    fn social_apex_form_carries_its_own_entity() {
        let text = "TIL: The MAREA cable reaches a maximum geomagnetic latitude of 55.2 degrees.";
        let ex = Extraction::from_text(text, None);
        assert_eq!(ex.apex_of("MAREA"), Some(55.2));
    }

    #[test]
    fn fleet_facts_parse() {
        let text = "Google operates data centers in 7 of the world's 7 major regions. About 26 \
                    percent of Google's data center sites sit at low geomagnetic latitudes.";
        let ex = Extraction::from_text(text, None);
        assert_eq!(ex.coverage_of("google"), Some(7));
        assert_eq!(ex.low_lat_share_of("Google"), Some(26.0));
    }

    #[test]
    fn presence_parses_with_abbreviated_city() {
        let text = "Google operates a data center in St. Ghislain, Belgium, in Europe.";
        let ex = Extraction::from_text(text, None);
        assert_eq!(ex.presences_of("google").len(), 1);
        match ex.presences_of("google")[0] {
            Fact::DcPresence {
                city,
                country,
                region,
                ..
            } => {
                assert_eq!(city, "St. Ghislain");
                assert_eq!(country, "Belgium");
                assert_eq!(region, "Europe");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn storm_dst_parses() {
        let text = "The 1859 Carrington event reached an estimated Dst of -1760 nanotesla.";
        let ex = Extraction::from_text(text, None);
        assert_eq!(
            ex.facts[0],
            Fact::StormDst {
                name: "Carrington event".into(),
                year: Some(1859),
                dst: -1760.0
            }
        );
    }

    #[test]
    fn grid_latitude_parses() {
        let text = "The Singapore Grid serves Asia and sits at about 8 degrees geomagnetic \
                    latitude.";
        let ex = Extraction::from_text(text, None);
        assert_eq!(ex.region_latitude("Asia"), Some(8.0));
    }

    #[test]
    fn region_latitude_averages_multiple_grids() {
        let text = "The US Eastern Interconnection serves North America and sits at about 50 \
                    degrees geomagnetic latitude. The ERCOT serves North America and sits at \
                    about 40 degrees geomagnetic latitude.";
        let ex = Extraction::from_text(text, None);
        assert_eq!(ex.region_latitude("North America"), Some(45.0));
    }

    #[test]
    fn principles_detected_case_insensitively() {
        let text = "Geomagnetically induced currents grow stronger at higher geomagnetic \
                    latitudes. Terrestrial fiber links are short and unrepeated, leaving them \
                    far less exposed than submarine cables.";
        let ex = Extraction::from_text(text, None);
        assert!(ex.principles.contains(&Principle::LatitudeRisk));
        assert!(ex.principles.contains(&Principle::TerrestrialSafety));
        assert!(!ex.principles.contains(&Principle::GridThreat));
    }

    #[test]
    fn distractor_text_yields_nothing() {
        let text = "The storm dropped five centimetres of rain in an hour. Streaming services \
                    continue to erode the cable subscriber base. Rooftop solar output peaks \
                    around noon local time.";
        let ex = Extraction::from_text(text, None);
        assert!(ex.is_empty(), "got {ex:?}");
    }

    #[test]
    fn merge_deduplicates() {
        let a = Extraction::from_text(ROUTE, None);
        let mut b = Extraction::from_text(ROUTE, None);
        b.merge(&a);
        assert_eq!(b.facts.len(), 1);
    }

    #[test]
    fn sentence_splitter_respects_abbreviations() {
        let s = split_sentences(
            "Google operates a data center in St. Ghislain, Belgium, in Europe. Next sentence.",
        );
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("St. Ghislain"));
    }

    #[test]
    fn sentence_splitter_handles_decimals() {
        let s = split_sentences("It reaches 46.3 degrees. Second.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("46.3"));
    }

    const INCIDENT_TEXT: &str = "The 2021 Facebook outage was caused by a faulty BGP \
        configuration change that withdrew the routes to its own DNS servers. The main \
        effect on the Internet was that every service became unreachable at once. Service \
        was disrupted for about 7 hours.";

    #[test]
    fn incident_cause_effect_and_duration_parse_with_subject_binding() {
        let ex = Extraction::from_text(INCIDENT_TEXT, None);
        assert!(ex.facts.iter().any(|f| matches!(
            f,
            Fact::IncidentCause { incident, cause }
                if incident == "2021 Facebook outage" && cause.contains("BGP")
        )));
        assert!(ex.facts.iter().any(|f| matches!(
            f,
            Fact::IncidentEffect { incident, effect }
                if incident == "2021 Facebook outage" && effect.contains("unreachable")
        )));
        assert!(ex.facts.iter().any(|f| matches!(
            f,
            Fact::IncidentDuration { incident, hours }
                if incident == "2021 Facebook outage" && *hours == 7.0
        )));
    }

    #[test]
    fn cables_cut_and_traffic_parse() {
        let text = "The 2006 Hengchun earthquake severed 8 submarine cables. During the 2020 \
                    COVID-19 lockdown surge, global Internet traffic grew by about 20 percent.";
        let ex = Extraction::from_text(text, None);
        assert!(ex.facts.contains(&Fact::IncidentCablesCut {
            incident: "2006 Hengchun earthquake".into(),
            count: 8
        }));
        assert!(ex.facts.contains(&Fact::IncidentTraffic {
            incident: "2020 COVID-19 lockdown surge".into(),
            percent: 20.0
        }));
    }

    #[test]
    fn cause_without_year_shape_is_ignored() {
        let ex = Extraction::from_text("The outage was caused by a squirrel.", None);
        assert!(ex.facts.is_empty());
    }

    #[test]
    fn apex_of_is_the_median_of_distinct_values() {
        let text = "The EllaLink cable reaches a maximum geomagnetic latitude of 46.0 degrees. \
                    The EllaLink cable reaches a maximum geomagnetic latitude of 75.0 degrees. \
                    The EllaLink cable reaches a maximum geomagnetic latitude of 46.2 degrees.";
        let ex = Extraction::from_text(text, None);
        assert_eq!(ex.apex_values("EllaLink").len(), 3);
        assert_eq!(
            ex.apex_of("EllaLink"),
            Some(46.2),
            "median resists one outlier"
        );
    }

    #[test]
    fn apex_conflict_detects_disagreeing_sources() {
        let honest = Extraction::from_text(
            "The MAREA cable reaches a maximum geomagnetic latitude of 55.0 degrees. \
             The MAREA cable reaches a maximum geomagnetic latitude of 55.4 degrees.",
            None,
        );
        assert!(!honest.apex_conflict("MAREA", 15.0));
        let poisoned = Extraction::from_text(
            "The MAREA cable reaches a maximum geomagnetic latitude of 55.0 degrees. \
             The MAREA cable reaches a maximum geomagnetic latitude of 80.0 degrees.",
            None,
        );
        assert!(poisoned.apex_conflict("MAREA", 15.0));
        assert!(!poisoned.apex_conflict("unknown entity", 15.0));
    }

    #[test]
    fn cable_cut_doc_sentences_parse() {
        let text = "The Anjana cable was severed by a subsea landslide on the continental \
                    slope. Traffic rerouted onto 14 parallel transatlantic cable systems \
                    within minutes. The Anjana system spans about 7675 km. The break took \
                    about 109 optical repeaters out of service. Because 14 parallel systems \
                    serve the corridor, North America and Europe stayed connected. A cable \
                    repair ship grapples the damaged section and splices in a new span.";
        let ex = Extraction::from_text(text, None);
        assert!(ex.facts.contains(&Fact::CableCut {
            cable: "Anjana".into(),
            cause: "a subsea landslide on the continental slope".into()
        }));
        assert!(ex.facts.contains(&Fact::CorridorSurvivors { count: 14 }));
        assert!(ex.facts.contains(&Fact::LengthKm {
            entity: "Anjana".into(),
            km: 7675.0
        }));
        assert!(
            ex.facts.contains(&Fact::RepeaterCount {
                entity: "Anjana".into(),
                count: 109
            }),
            "span sentence must bind the subject for the repeater count: {ex:?}"
        );
        assert!(ex.principles.contains(&Principle::CableRepair));
    }

    #[test]
    fn grid_failure_doc_sentences_parse() {
        let text = "The Hydro-Québec power grid collapsed when geomagnetically induced \
                    currents saturated its extra-high-voltage transformers. Extra-high-voltage \
                    transformers saturate and overheat under sustained GIC. Hydro-Québec has \
                    the highest GIC exposure of any major grid. We rank grids by GIC exposure \
                    and find Hydro-Québec most exposed. Grids at low geomagnetic latitude, \
                    such as Singapore Grid, show negligible exposure.";
        let ex = Extraction::from_text(text, None);
        assert!(ex.facts.contains(&Fact::GridCollapse {
            grid: "Hydro-Québec".into(),
            cause: "geomagnetically induced currents saturated its extra-high-voltage \
                    transformers"
                .into()
        }));
        assert!(ex.facts.contains(&Fact::GridMostExposed {
            grid: "Hydro-Québec".into()
        }));
        assert!(ex.facts.contains(&Fact::GridLowLatitude {
            grid: "Singapore Grid".into()
        }));
        assert!(ex.principles.contains(&Principle::TransformerSaturation));
    }

    #[test]
    fn route_leak_doc_sentences_parse() {
        let text = "A configuration error withdrew the BGP routes for Facebook's DNS \
                    prefixes. Only 0 percent of edge networks could reach facebook.com during \
                    the incident. The content prefixes stayed announced, but with the \
                    nameservers unreachable no client could resolve the service. Availability \
                    was restored to 100 percent once the prefixes were re-announced.";
        let ex = Extraction::from_text(text, None);
        assert!(ex.principles.contains(&Principle::BgpDnsWithdrawal));
        assert!(ex.facts.contains(&Fact::EdgeAvailability {
            during: true,
            percent: 0.0
        }));
        assert!(ex.facts.contains(&Fact::EdgeAvailability {
            during: false,
            percent: 100.0
        }));
        assert!(ex.facts.contains(&Fact::ContentPrefixesAnnounced));
    }

    #[test]
    fn scenario_parsers_ignore_solar_and_distractor_prose() {
        // Sentences the solar corpus actually publishes must not grow
        // any of the scenario-class facts.
        let text = "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, \
                    Portugal, linking South America and Europe. The 2006 Hengchun earthquake \
                    severed 8 submarine cables. The storm dropped five centimetres of rain.";
        let ex = Extraction::from_text(text, None);
        assert!(!ex.facts.iter().any(|f| matches!(
            f,
            Fact::CableCut { .. }
                | Fact::CorridorSurvivors { .. }
                | Fact::GridCollapse { .. }
                | Fact::GridMostExposed { .. }
                | Fact::GridLowLatitude { .. }
                | Fact::EdgeAvailability { .. }
                | Fact::ContentPrefixesAnnounced
        )));
    }

    /// Every gated parser as `absorb` calls it: (name, its gate, does
    /// it fire on this sentence).
    type GatedParser = (&'static str, fn(&Gates) -> bool, fn(&str) -> bool);

    fn gated_parsers() -> Vec<GatedParser> {
        vec![
            ("route", |g| g.route, |s| parse_route(s).is_some()),
            ("apex", |g| g.apex, |s| parse_apex(s).is_some()),
            (
                "spans",
                |g| g.spans,
                |s| parse_after_number(s, SPANS_PREFIX, " kilometres").is_some(),
            ),
            (
                "powered",
                |g| g.powered,
                |s| parse_after_number(s, POWERED_PREFIX, " optical repeaters").is_some(),
            ),
            ("coverage", |g| g.coverage, |s| parse_coverage(s).is_some()),
            (
                "low_lat_share",
                |g| g.low_lat_share,
                |s| parse_low_lat_share(s).is_some(),
            ),
            ("presence", |g| g.presence, |s| parse_presence(s).is_some()),
            ("storm", |g| g.storm, |s| parse_storm(s).is_some()),
            ("grid", |g| g.grid, |s| parse_grid(s).is_some()),
            ("cause", |g| g.cause, |s| parse_incident_cause(s).is_some()),
            (
                "effect",
                |g| g.effect,
                |s| parse_after_marker(s, EFFECT_MARKER).is_some(),
            ),
            (
                "duration",
                |g| g.duration,
                |s| parse_after_number(s, DURATION_PREFIX, " hours").is_some(),
            ),
            (
                "cables_cut",
                |g| g.cables_cut,
                |s| parse_cables_cut(s).is_some(),
            ),
            (
                "traffic",
                |g| g.traffic,
                |s| parse_incident_traffic(s).is_some(),
            ),
            (
                "cable_cut",
                |g| g.cable_cut,
                |s| parse_cable_cut(s).is_some(),
            ),
            (
                "cable_span",
                |g| g.cable_span,
                |s| parse_cable_span(s).is_some(),
            ),
            (
                "break_took",
                |g| g.break_took,
                |s| parse_after_number(s, BREAK_TOOK_PREFIX, " optical repeaters").is_some(),
            ),
            (
                "corridor",
                |g| g.corridor,
                |s| {
                    CORRIDOR_FORMS
                        .iter()
                        .any(|(prefix, suffix)| parse_after_number(s, prefix, suffix).is_some())
                },
            ),
            (
                "grid_collapse",
                |g| g.grid_collapse,
                |s| parse_grid_collapse(s).is_some(),
            ),
            (
                "most_exposed",
                |g| g.most_exposed,
                |s| parse_grid_most_exposed(s).is_some(),
            ),
            (
                "grid_low_latitude",
                |g| g.grid_low_latitude,
                |s| parse_grid_low_latitude(s).is_some(),
            ),
            (
                "edge_during",
                |g| g.edge_during,
                |s| parse_after_number(s, EDGE_DURING_PREFIX, EDGE_DURING_TAIL).is_some(),
            ),
            (
                "restored",
                |g| g.restored,
                |s| {
                    s.contains(RESTORED_PREFIX)
                        && s.contains(REANNOUNCED_MARKER)
                        && parse_after_number(s, RESTORED_PREFIX, " percent").is_some()
                },
            ),
            (
                "content_prefixes",
                |g| g.content_prefixes,
                |s| s.contains(CONTENT_PREFIXES_MARKER),
            ),
        ]
    }

    /// Text pieces: every parser marker, the tails and separators the
    /// fact shapes need after them, glue (names, years, numbers,
    /// sentence breaks), and one whole sentence of each fact form.
    fn gate_pieces() -> Vec<&'static str> {
        let mut pieces = vec![
            ROUTE_MARKER,
            APEX_MARKER,
            SPANS_PREFIX,
            POWERED_PREFIX,
            COVERAGE_MARKER,
            LOW_LAT_SHARE_TAIL,
            PRESENCE_MARKER,
            STORM_MARKER,
            GRID_SERVES,
            GRID_SITS,
            CAUSE_MARKER,
            EFFECT_MARKER,
            DURATION_PREFIX,
            CABLES_CUT_MARKER,
            TRAFFIC_HEAD,
            TRAFFIC_MARKER,
            CABLE_CUT_MARKER,
            CABLE_SPAN_MARKER,
            BREAK_TOOK_PREFIX,
            GRID_COLLAPSE_MARKER,
            MOST_EXPOSED_HIGHEST,
            MOST_EXPOSED_FIND,
            GRID_LOW_LAT_MARKER,
            EDGE_DURING_PREFIX,
            EDGE_DURING_TAIL,
            RESTORED_PREFIX,
            REANNOUNCED_MARKER,
            CONTENT_PREFIXES_MARKER,
            " kilometres",
            " optical repeaters",
            " hours",
            " percent",
            " percent of ",
            " degrees",
            " nanotesla",
            " km",
            " major regions",
            " most exposed",
            ", show negligible",
            "such as ",
            " submarine cables",
            " degrees geomagnetic latitude",
            ", linking ",
            " to ",
            " and ",
            ", in ",
            ", ",
            "The ",
            "Anjana",
            "2021 Facebook outage",
            "12",
            "46.5",
            "-1760",
            "x",
            ". ",
            "\n",
            " ",
        ];
        for (prefix, suffix) in CORRIDOR_FORMS {
            pieces.extend([prefix, suffix]);
        }
        pieces.extend(GATED_FORMS);
        pieces
    }

    proptest::proptest! {
        #[test]
        fn a_closed_gate_means_the_parser_cannot_fire(
            picks in proptest::collection::vec(
                proptest::sample::select(gate_pieces()),
                0..24,
            ),
        ) {
            let text = picks.concat();
            let gates = Gates::of(&text);
            for sentence in split_sentences(&text) {
                for (name, gate, fires) in gated_parsers() {
                    proptest::prop_assert!(
                        gate(&gates) || !fires(sentence),
                        "{name} fired behind a closed gate on {sentence:?}"
                    );
                }
            }
        }
    }

    /// One sentence of each gated parser's fact form.
    const GATED_FORMS: &[&str] = &[
        "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, linking \
         South America and Europe.",
        "It reaches a maximum geomagnetic latitude of 46.0 degrees.",
        "The system spans approximately 6134 kilometres.",
        "It is powered through roughly 87 optical repeaters.",
        "Google operates data centers in 7 of the world's 7 major regions.",
        "About 26 percent of Google's data center sites sit at low geomagnetic latitudes.",
        "Google operates a data center in Mons, Belgium, in Europe.",
        "The 1859 Carrington event reached an estimated Dst of -1760 nanotesla.",
        "The Nordic Grid serves Europe and sits at about 60 degrees geomagnetic latitude.",
        "The 2021 Facebook outage was caused by a bad change.",
        "The main effect on the Internet was silence.",
        "Service was disrupted for about 7 hours.",
        "The 2006 Hengchun earthquake severed 8 submarine cables.",
        "During the 2020 surge, global Internet traffic grew by about 20 percent.",
        "The Anjana cable was severed by a landslide.",
        "The Anjana system spans about 7675 km.",
        "The break took about 109 optical repeaters out of service.",
        "Traffic rerouted onto 14 parallel systems.",
        "Because 14 parallel systems serve the corridor, it stayed up.",
        "The Quebec power grid collapsed when currents rose.",
        "Quebec has the highest GIC exposure of any major grid.",
        "We rank grids by GIC exposure and find Quebec most exposed.",
        "Grids at low geomagnetic latitude, such as Singapore Grid, show negligible exposure.",
        "Only 0 percent of edge networks could reach it.",
        "It was restored to 100 percent once re-announced.",
        "The content prefixes stayed announced.",
    ];

    #[test]
    fn every_gated_parser_fires_on_its_own_form() {
        // The gate property above is only as strong as the parsers'
        // reach: each one must fire on some form its gate opens on.
        let text = GATED_FORMS.join(" ");
        let gates = Gates::of(&text);
        for (name, gate, fires) in gated_parsers() {
            assert!(gate(&gates), "{name}: gate closed");
            assert!(
                GATED_FORMS.iter().any(|form| fires(form)),
                "{name}: never fired"
            );
        }
    }

    #[test]
    fn numbers_with_signs_parse() {
        assert_eq!(leading_number("-1760 nanotesla"), Some(-1760.0));
        assert_eq!(leading_number("46.3 degrees"), Some(46.3));
        assert_eq!(leading_number("no number"), None);
    }

    /// A context exercising every fact shape the index covers.
    fn rich_extraction() -> Extraction {
        Extraction::from_text(
            "The EllaLink submarine cable connects Fortaleza, Brazil to Sines, Portugal, \
             linking South America and Europe. Along its route it reaches a maximum \
             geomagnetic latitude of 46.0 degrees. \
             The Grace Hopper submarine cable connects New York, United States to Bude, \
             United Kingdom, linking North America and Europe. Along its route it reaches a \
             maximum geomagnetic latitude of 63.0 degrees. \
             Google operates data centers in 7 of the world's 7 major regions. About 26 \
             percent of Google's data center sites sit at low geomagnetic latitudes. \
             Google operates a data center in St. Ghislain, Belgium, in Europe. \
             Google operates a data center in Singapore, Singapore, in Asia. \
             The US Eastern Interconnection serves North America and sits at about 50 \
             degrees geomagnetic latitude. The Singapore Grid serves Asia and sits at about \
             8 degrees geomagnetic latitude. \
             The 2021 Facebook outage was caused by a faulty BGP configuration change. \
             Service was disrupted for about 7 hours.",
            None,
        )
    }

    #[test]
    fn index_agrees_with_scan_accessors() {
        let ex = rich_extraction();
        let idx = ExtractionIndex::build(&ex);
        for op in ["google", "Google", "GOOGLE", "facebook", "nobody"] {
            assert_eq!(idx.coverage_of(op), ex.coverage_of(op), "coverage {op}");
            assert_eq!(
                idx.low_lat_share_of(op),
                ex.low_lat_share_of(op),
                "lowlat {op}"
            );
            assert_eq!(
                idx.presence_count(op),
                ex.presences_of(op).len(),
                "presences {op}"
            );
        }
        for region in ["Asia", "north america", "Europe", "Atlantis"] {
            assert_eq!(
                idx.region_latitude(region),
                ex.region_latitude(region),
                "region {region}"
            );
        }
        for entity in ["EllaLink", "Grace Hopper", "ellalink", "nope"] {
            assert_eq!(idx.apex_of(entity), ex.apex_of(entity), "apex {entity}");
            assert_eq!(
                idx.apex_conflict(entity, 15.0),
                ex.apex_conflict(entity, 15.0),
                "conflict {entity}"
            );
        }
        assert!(idx.has_singapore_grid());
    }

    #[test]
    fn index_coverage_first_fact_wins_like_the_scan() {
        let text = "Google operates data centers in 7 of the world's 7 major regions. \
                    Google operates data centers in 3 of the world's 7 major regions.";
        let ex = Extraction::from_text(text, None);
        let idx = ExtractionIndex::build(&ex);
        assert_eq!(ex.coverage_of("google"), Some(7));
        assert_eq!(idx.coverage_of("google"), Some(7));
    }

    #[test]
    fn index_route_matching_covers_both_directions() {
        let ex = rich_extraction();
        let idx = ExtractionIndex::build(&ex);
        assert_eq!(idx.routes_matching("brazil", "europe"), vec!["EllaLink"]);
        assert_eq!(idx.routes_matching("europe", "brazil"), vec!["EllaLink"]);
        assert_eq!(
            idx.routes_matching("united states", "europe"),
            vec!["Grace Hopper"]
        );
        assert!(idx.routes_matching("asia", "africa").is_empty());
    }

    #[test]
    fn index_incident_facts_match_bidirectional_containment() {
        let ex = rich_extraction();
        let idx = ExtractionIndex::build(&ex);
        assert_eq!(idx.incident_facts("facebook outage").len(), 2);
        assert_eq!(idx.incident_facts("2021 Facebook outage").len(), 2);
        assert!(idx.incident_facts("hengchun").is_empty());
        // Order is fact order.
        assert!(matches!(
            idx.incident_facts("facebook outage")[0],
            Fact::IncidentCause { .. }
        ));
    }
}
