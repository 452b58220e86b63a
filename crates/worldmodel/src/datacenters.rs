//! Hyperscaler data-center fleets.
//!
//! The SIGCOMM '21 analysis compares the geographic dispersion of Google
//! and Facebook data centers: Google operates on every inhabited
//! continent with substantial presence at low geomagnetic latitudes
//! (Asia, South America, Oceania), while Facebook's fleet concentrates
//! in the continental US and the Nordics — both high geomagnetic
//! latitude zones. The fleet lists below reflect the owned/major sites
//! of roughly the 2021 era, which is the snapshot the paper reasons
//! about.

use crate::geo::{Place, Region};
use crate::geomag::{geomagnetic_latitude, LatitudeBand};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Data-center operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operator {
    Google,
    Facebook,
}

impl Operator {
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Google => "Google",
            Operator::Facebook => "Facebook",
        }
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One data-center site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataCenter {
    pub operator: Operator,
    pub site: Place,
}

impl DataCenter {
    /// |geomagnetic latitude| of the site.
    pub fn geomag_lat_abs(&self) -> f64 {
        geomagnetic_latitude(&self.site.point).abs()
    }

    pub fn band(&self) -> LatitudeBand {
        LatitudeBand::of(self.geomag_lat_abs())
    }
}

/// An operator's full fleet plus derived dispersion metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataCenterFleet {
    pub operator: Operator,
    pub sites: Vec<DataCenter>,
}

impl DataCenterFleet {
    fn build(operator: Operator, entries: &[(&str, &str, Region, f64, f64)]) -> Self {
        let sites = entries
            .iter()
            .map(|(name, country, region, lat, lon)| DataCenter {
                operator,
                site: Place::new(name, country, *region, *lat, *lon),
            })
            .collect();
        DataCenterFleet { operator, sites }
    }

    /// Google's owned/major sites (~2021 snapshot).
    pub fn google() -> Self {
        use Region::*;
        Self::build(
            Operator::Google,
            &[
                // United States
                (
                    "Council Bluffs, IA",
                    "United States",
                    NorthAmerica,
                    41.26,
                    -95.86,
                ),
                (
                    "The Dalles, OR",
                    "United States",
                    NorthAmerica,
                    45.59,
                    -121.18,
                ),
                (
                    "Berkeley County, SC",
                    "United States",
                    NorthAmerica,
                    33.19,
                    -80.01,
                ),
                (
                    "Douglas County, GA",
                    "United States",
                    NorthAmerica,
                    33.75,
                    -84.75,
                ),
                (
                    "Jackson County, AL",
                    "United States",
                    NorthAmerica,
                    34.78,
                    -86.00,
                ),
                ("Lenoir, NC", "United States", NorthAmerica, 35.91, -81.54),
                (
                    "Mayes County, OK",
                    "United States",
                    NorthAmerica,
                    36.30,
                    -95.32,
                ),
                (
                    "Midlothian, TX",
                    "United States",
                    NorthAmerica,
                    32.48,
                    -96.99,
                ),
                (
                    "Montgomery County, TN",
                    "United States",
                    NorthAmerica,
                    36.49,
                    -87.36,
                ),
                (
                    "New Albany, OH",
                    "United States",
                    NorthAmerica,
                    40.08,
                    -82.81,
                ),
                (
                    "Papillion, NE",
                    "United States",
                    NorthAmerica,
                    41.15,
                    -96.04,
                ),
                (
                    "Henderson, NV",
                    "United States",
                    NorthAmerica,
                    36.04,
                    -114.98,
                ),
                (
                    "Loudoun County, VA",
                    "United States",
                    NorthAmerica,
                    39.09,
                    -77.64,
                ),
                (
                    "Storey County, NV",
                    "United States",
                    NorthAmerica,
                    39.55,
                    -119.44,
                ),
                // Canada & Latin America
                ("Montréal", "Canada", NorthAmerica, 45.50, -73.57),
                ("Quilicura", "Chile", SouthAmerica, -33.36, -70.73),
                ("Osasco (São Paulo)", "Brazil", SouthAmerica, -23.53, -46.79),
                // Europe
                ("Dublin", "Ireland", Europe, 53.35, -6.26),
                ("Eemshaven", "Netherlands", Europe, 53.44, 6.83),
                ("St. Ghislain", "Belgium", Europe, 50.45, 3.82),
                ("Hamina", "Finland", Europe, 60.57, 27.20),
                ("Fredericia", "Denmark", Europe, 55.57, 9.75),
                ("Middenmeer", "Netherlands", Europe, 52.81, 4.99),
                // Asia
                ("Changhua County", "Taiwan", Asia, 24.08, 120.54),
                ("Jurong West", "Singapore", Asia, 1.34, 103.71),
                ("Tokyo (Inzai)", "Japan", Asia, 35.83, 140.14),
                ("Osaka", "Japan", Asia, 34.69, 135.50),
                ("Seoul", "South Korea", Asia, 37.57, 126.98),
                ("Mumbai", "India", Asia, 19.08, 72.88),
                ("Delhi NCR", "India", Asia, 28.61, 77.21),
                ("Jakarta", "Indonesia", Asia, -6.21, 106.85),
                // Middle East
                ("Tel Aviv", "Israel", MiddleEast, 32.09, 34.78),
                // Oceania
                ("Sydney", "Australia", Oceania, -33.87, 151.21),
                ("Melbourne", "Australia", Oceania, -37.81, 144.96),
            ],
        )
    }

    /// Facebook's owned/major sites (~2021 snapshot).
    pub fn facebook() -> Self {
        use Region::*;
        Self::build(
            Operator::Facebook,
            &[
                // United States
                (
                    "Prineville, OR",
                    "United States",
                    NorthAmerica,
                    44.30,
                    -120.83,
                ),
                (
                    "Forest City, NC",
                    "United States",
                    NorthAmerica,
                    35.33,
                    -81.87,
                ),
                ("Altoona, IA", "United States", NorthAmerica, 41.65, -93.47),
                (
                    "Fort Worth, TX",
                    "United States",
                    NorthAmerica,
                    32.76,
                    -97.33,
                ),
                (
                    "Los Lunas, NM",
                    "United States",
                    NorthAmerica,
                    34.81,
                    -106.73,
                ),
                (
                    "Papillion, NE",
                    "United States",
                    NorthAmerica,
                    41.15,
                    -96.04,
                ),
                (
                    "New Albany, OH",
                    "United States",
                    NorthAmerica,
                    40.08,
                    -82.81,
                ),
                ("Henrico, VA", "United States", NorthAmerica, 37.55, -77.46),
                (
                    "Eagle Mountain, UT",
                    "United States",
                    NorthAmerica,
                    40.31,
                    -112.01,
                ),
                (
                    "Huntsville, AL",
                    "United States",
                    NorthAmerica,
                    34.73,
                    -86.59,
                ),
                ("Gallatin, TN", "United States", NorthAmerica, 36.39, -86.45),
                ("DeKalb, IL", "United States", NorthAmerica, 41.93, -88.77),
                ("Mesa, AZ", "United States", NorthAmerica, 33.42, -111.83),
                (
                    "Newton County, GA",
                    "United States",
                    NorthAmerica,
                    33.55,
                    -83.85,
                ),
                (
                    "Sarpy County, NE",
                    "United States",
                    NorthAmerica,
                    41.11,
                    -96.11,
                ),
                // Europe (Nordics + Ireland)
                ("Luleå", "Sweden", Europe, 65.58, 22.15),
                ("Odense", "Denmark", Europe, 55.40, 10.40),
                ("Clonee", "Ireland", Europe, 53.41, -6.44),
                // Asia (single announced site of the era)
                ("Singapore", "Singapore", Asia, 1.32, 103.70),
            ],
        )
    }

    pub fn len(&self) -> usize {
        self.sites.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &DataCenter> {
        self.sites.iter()
    }

    /// Number of distinct coarse regions with at least one site.
    pub fn region_coverage(&self) -> usize {
        self.sites
            .iter()
            .map(|dc| dc.site.region)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Fraction of sites in the low geomagnetic-latitude band.
    pub fn low_band_fraction(&self) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let low = self
            .sites
            .iter()
            .filter(|dc| dc.band() == LatitudeBand::Low)
            .count();
        low as f64 / self.sites.len() as f64
    }

    /// Storm-vulnerability score in \[0,1\]: the capacity-weighted share
    /// of the fleet at elevated geomagnetic latitude (Mid counts half,
    /// High counts fully). Lower is more resilient.
    pub fn vulnerability_score(&self) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let weighted: f64 = self
            .sites
            .iter()
            .map(|dc| match dc.band() {
                LatitudeBand::Low => 0.0,
                LatitudeBand::Mid => 0.5,
                LatitudeBand::High => 1.0,
            })
            .sum();
        weighted / self.sites.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sizes_match_the_era() {
        assert!(DataCenterFleet::google().len() >= 30);
        assert!(DataCenterFleet::facebook().len() >= 15);
    }

    #[test]
    fn google_covers_more_regions_than_facebook() {
        let g = DataCenterFleet::google();
        let f = DataCenterFleet::facebook();
        assert!(
            g.region_coverage() > f.region_coverage(),
            "google {} vs facebook {}",
            g.region_coverage(),
            f.region_coverage()
        );
        assert!(g.region_coverage() >= 6);
    }

    #[test]
    fn google_has_more_low_latitude_presence() {
        let g = DataCenterFleet::google();
        let f = DataCenterFleet::facebook();
        assert!(
            g.low_band_fraction() > f.low_band_fraction(),
            "google {:.2} vs facebook {:.2}",
            g.low_band_fraction(),
            f.low_band_fraction()
        );
    }

    #[test]
    fn google_is_more_dispersed() {
        // Mean pairwise great-circle distance between sites, km.
        let dispersion = |fleet: &DataCenterFleet| {
            let points: Vec<_> = fleet.sites.iter().map(|dc| &dc.site.point).collect();
            let mut sum = 0.0;
            let mut pairs = 0;
            for (i, a) in points.iter().enumerate() {
                for b in &points[i + 1..] {
                    sum += a.distance_km(b);
                    pairs += 1;
                }
            }
            sum / pairs as f64
        };
        let g = DataCenterFleet::google();
        let f = DataCenterFleet::facebook();
        assert!(dispersion(&g) > dispersion(&f));
    }

    #[test]
    fn facebook_is_more_vulnerable_overall() {
        let g = DataCenterFleet::google();
        let f = DataCenterFleet::facebook();
        assert!(
            f.vulnerability_score() > g.vulnerability_score(),
            "facebook {:.3} should exceed google {:.3}",
            f.vulnerability_score(),
            g.vulnerability_score()
        );
    }

    #[test]
    fn lulea_is_high_band() {
        let f = DataCenterFleet::facebook();
        let lulea = f.iter().find(|dc| dc.site.name.contains("Luleå")).unwrap();
        assert_eq!(lulea.band(), LatitudeBand::High);
    }

    #[test]
    fn singapore_sites_are_low_band() {
        for fleet in [DataCenterFleet::google(), DataCenterFleet::facebook()] {
            let sg = fleet
                .iter()
                .find(|dc| dc.site.country == "Singapore")
                .unwrap();
            assert_eq!(sg.band(), LatitudeBand::Low);
        }
    }

    #[test]
    fn vulnerability_score_is_bounded() {
        for fleet in [DataCenterFleet::google(), DataCenterFleet::facebook()] {
            let v = fleet.vulnerability_score();
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
