//! Storm scenarios and the GIC failure-probability model.
//!
//! Scenario strength is parameterised by the Dst index (nT), the
//! standard measure of geomagnetic storm intensity; the named scenarios
//! are the historical reference events the literature reasons about.
//! The failure model composes three factors, each encoded elsewhere in
//! this crate:
//!
//! * storm intensity — a normalised function of |Dst|,
//! * latitude weighting — [`crate::power::latitude_weight`], a logistic
//!   ramp over geomagnetic latitude,
//! * exposure geometry — repeater counts for cables, structural factors
//!   for grids, grid dependence for data centers.

use crate::cables::SubmarineCable;
use crate::datacenters::DataCenter;
use crate::geomag::geomagnetic_latitude;
use crate::power::{latitude_weight, PowerGrid};
use serde::{Deserialize, Serialize};

/// A geomagnetic storm scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormScenario {
    pub name: String,
    /// Minimum Dst (nT); more negative is stronger.
    pub dst_nt: f64,
    /// Year of the historical event, if any.
    pub year: Option<u16>,
}

impl StormScenario {
    pub fn new(name: &str, dst_nt: f64, year: Option<u16>) -> Self {
        assert!(dst_nt < 0.0, "storm Dst must be negative, got {dst_nt}");
        StormScenario {
            name: name.to_string(),
            dst_nt,
            year,
        }
    }

    /// The 1859 Carrington event (estimated Dst ≈ −1760 nT), the
    /// canonical "Internet apocalypse" scenario.
    pub fn carrington_1859() -> Self {
        Self::new("Carrington event", -1760.0, Some(1859))
    }

    /// The May 1921 New York Railroad storm (estimated Dst ≈ −907 nT).
    pub fn railroad_1921() -> Self {
        Self::new("New York Railroad storm", -907.0, Some(1921))
    }

    /// The March 1989 storm that collapsed the Hydro-Québec grid.
    pub fn quebec_1989() -> Self {
        Self::new("Québec storm", -589.0, Some(1989))
    }

    /// The October 2003 Halloween storms.
    pub fn halloween_2003() -> Self {
        Self::new("Halloween storms", -383.0, Some(2003))
    }

    /// A moderate storm that causes no meaningful infrastructure damage.
    pub fn moderate() -> Self {
        Self::new("moderate storm", -150.0, None)
    }

    /// All named scenarios, strongest first.
    pub fn catalog() -> Vec<StormScenario> {
        vec![
            Self::carrington_1859(),
            Self::railroad_1921(),
            Self::quebec_1989(),
            Self::halloween_2003(),
            Self::moderate(),
        ]
    }

    /// Normalised intensity in [0, 1].
    ///
    /// The cubic exponent encodes the strong nonlinearity of GIC
    /// damage: Dst −150 storms recur yearly without infrastructure
    /// damage, the 1989 Québec event (−589) damaged one exposed grid,
    /// and only Carrington-class events threaten cables at scale.
    pub fn intensity(&self) -> f64 {
        (self.dst_nt.abs() / 2000.0).clamp(0.0, 1.0).powf(3.0)
    }
}

/// The failure-probability model. Holds the tunable coefficients so
/// ablation benches can perturb them.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StormModel {
    /// Per-repeater failure probability at full intensity and full
    /// latitude weight.
    pub repeater_base: f64,
    /// Grid collapse probability at full intensity for a grid with
    /// exposure 1.0.
    pub grid_base: f64,
}

impl Default for StormModel {
    fn default() -> Self {
        StormModel {
            repeater_base: 0.05,
            grid_base: 5.0,
        }
    }
}

impl StormModel {
    /// Probability one repeater at |geomagnetic latitude| `lat` fails.
    pub fn repeater_failure_prob(&self, geomag_lat_abs: f64, storm: &StormScenario) -> f64 {
        (self.repeater_base * storm.intensity() * latitude_weight(geomag_lat_abs)).clamp(0.0, 1.0)
    }

    /// Probability the cable suffers at least one repeater failure
    /// (which severs the span until a cable ship repairs it).
    ///
    /// Repeaters are attributed to path segments; each inherits the
    /// geomagnetic latitude of its segment, so a cable is dominated by
    /// its high-latitude spans rather than its endpoints.
    pub fn cable_failure_prob(&self, cable: &SubmarineCable, storm: &StormScenario) -> f64 {
        let path = cable.path();
        let segments = path.len().saturating_sub(1).max(1);
        let repeaters_per_segment = cable.repeater_count() as f64 / segments as f64;
        let mut survive = 1.0f64;
        for w in path.windows(2) {
            let mid_lat =
                (geomagnetic_latitude(&w[0]).abs() + geomagnetic_latitude(&w[1]).abs()) / 2.0;
            let p = self.repeater_failure_prob(mid_lat, storm);
            survive *= (1.0 - p).powf(repeaters_per_segment);
        }
        1.0 - survive
    }

    /// Probability a regional grid suffers a protective collapse or
    /// transformer damage.
    pub fn grid_collapse_prob(&self, grid: &PowerGrid, storm: &StormScenario) -> f64 {
        (self.grid_base * storm.intensity() * grid.exposure()).clamp(0.0, 1.0)
    }

    /// Risk score for a data center: dominated by its grid exposure at
    /// its geomagnetic latitude (on-site generation rides through only
    /// short outages).
    pub fn datacenter_risk(&self, dc: &DataCenter, storm: &StormScenario) -> f64 {
        (storm.intensity() * latitude_weight(dc.geomag_lat_abs())).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cables::CableDatabase;
    use crate::datacenters::DataCenterFleet;
    use crate::power::PowerGridDatabase;

    #[test]
    fn intensity_orders_the_catalog() {
        let cat = StormScenario::catalog();
        for w in cat.windows(2) {
            assert!(
                w[0].intensity() > w[1].intensity(),
                "{} should outrank {}",
                w[0].name,
                w[1].name
            );
        }
        let carrington = StormScenario::carrington_1859().intensity();
        assert!((0.5..=1.0).contains(&carrington));
        assert!(StormScenario::moderate().intensity() < 0.001);
    }

    #[test]
    fn repeater_probability_scales_with_latitude() {
        let m = StormModel::default();
        let storm = StormScenario::carrington_1859();
        let low = m.repeater_failure_prob(10.0, &storm);
        let high = m.repeater_failure_prob(65.0, &storm);
        assert!(high > 20.0 * low, "high {high} vs low {low}");
    }

    #[test]
    fn us_europe_cables_fail_more_often_than_brazil_europe() {
        let m = StormModel::default();
        let db = CableDatabase::standard();
        let storm = StormScenario::carrington_1859();
        let grace = m.cable_failure_prob(db.find("Grace Hopper").unwrap(), &storm);
        let ella = m.cable_failure_prob(db.find("EllaLink").unwrap(), &storm);
        assert!(
            grace > 1.5 * ella,
            "Grace Hopper {grace:.3} should clearly exceed EllaLink {ella:.3}"
        );
    }

    #[test]
    fn moderate_storm_spares_everything() {
        let m = StormModel::default();
        let db = CableDatabase::standard();
        let storm = StormScenario::moderate();
        for cable in db.iter() {
            assert!(
                m.cable_failure_prob(cable, &storm) < 0.05,
                "{} at risk in a moderate storm",
                cable.name
            );
        }
    }

    #[test]
    fn carrington_threatens_the_north_atlantic() {
        let m = StormModel::default();
        let db = CableDatabase::standard();
        let storm = StormScenario::carrington_1859();
        let farice = m.cable_failure_prob(db.find("FARICE").unwrap(), &storm);
        assert!(farice > 0.3, "FARICE-1 failure prob {farice:.3}");
        let grace = m.cable_failure_prob(db.find("Grace Hopper").unwrap(), &storm);
        assert!(grace > 0.6, "Grace Hopper failure prob {grace:.3}");
    }

    #[test]
    fn grid_collapse_probability_ranks_quebec_over_texas() {
        let m = StormModel::default();
        let grids = PowerGridDatabase::standard();
        let storm = StormScenario::quebec_1989();
        let quebec = m.grid_collapse_prob(grids.find("québec").unwrap(), &storm);
        let texas = m.grid_collapse_prob(grids.find("ercot").unwrap(), &storm);
        assert!(
            quebec > 5.0 * texas,
            "Québec {quebec:.3} vs Texas {texas:.3}"
        );
    }

    #[test]
    fn datacenter_risk_favors_google_fleet() {
        let m = StormModel::default();
        let storm = StormScenario::carrington_1859();
        let mean = |fleet: &DataCenterFleet| {
            fleet
                .iter()
                .map(|d| m.datacenter_risk(d, &storm))
                .sum::<f64>()
                / fleet.len() as f64
        };
        let g = mean(&DataCenterFleet::google());
        let f = mean(&DataCenterFleet::facebook());
        assert!(
            f > g,
            "facebook mean risk {f:.3} should exceed google {g:.3}"
        );
    }

    #[test]
    fn sampling_respects_probability_in_aggregate() {
        // The connectivity report's Monte Carlo takes each cable down
        // at its analytic failure probability: the mean number down
        // lands within four standard errors of the expected count.
        let m = StormModel::default();
        let db = CableDatabase::standard();
        let storm = StormScenario::carrington_1859();
        let probs: Vec<f64> = db.iter().map(|c| m.cable_failure_prob(c, &storm)).collect();
        let expected: f64 = probs.iter().sum();
        let trials = 1_000;
        let variance: f64 = probs.iter().map(|p| p * (1.0 - p)).sum();
        let tolerance = 4.0 * (variance / trials as f64).sqrt();
        let report =
            crate::graph::TopologyGraph::from_cables(&db).storm_report(&db, &m, &storm, trials, 42);
        let sampled = report.mean_cables_down;
        assert!(
            (sampled - expected).abs() < tolerance,
            "sampled {sampled:.3} vs analytic {expected:.3} (± {tolerance:.3})"
        );
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn positive_dst_is_rejected() {
        StormScenario::new("bogus", 100.0, None);
    }
}
