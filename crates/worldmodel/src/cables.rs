//! Submarine cable database.
//!
//! Each entry is a real cable system with approximate landing-point
//! coordinates. Paths are modelled as great circles with a route-slack
//! factor; repeaters are placed at the industry-typical ~70 km spacing.
//! The risk-relevant statistic derived per cable is the maximum absolute
//! geomagnetic latitude along its path (see [`crate::geomag`]).

use crate::geo::{GeoPoint, Place, Region};
use crate::geomag::{self, LatitudeBand};
use serde::{Deserialize, Serialize};

/// Typical spacing between powered optical repeaters, km.
pub const REPEATER_SPACING_KM: f64 = 70.0;

/// Number of great-circle segments used when sampling a cable path.
const PATH_SEGMENTS: usize = 64;

/// A submarine cable system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmarineCable {
    /// System name, e.g. "MAREA".
    pub name: String,
    /// Landing at the A end.
    pub from: Place,
    /// Landing at the B end.
    pub to: Place,
    /// Ready-for-service year.
    pub rfs_year: u16,
    /// Multiplier on the great-circle distance accounting for routing
    /// around hazards and landing approaches (≥ 1).
    pub route_slack: f64,
}

impl SubmarineCable {
    pub fn new(name: &str, from: Place, to: Place, rfs_year: u16, route_slack: f64) -> Self {
        assert!(
            route_slack >= 1.0,
            "route slack must be >= 1, got {route_slack}"
        );
        SubmarineCable {
            name: name.to_string(),
            from,
            to,
            rfs_year,
            route_slack,
        }
    }

    /// Cable length in km (great circle × route slack).
    pub fn length_km(&self) -> f64 {
        self.from.point.distance_km(&self.to.point) * self.route_slack
    }

    /// Sampled waypoints along the modelled path.
    pub fn path(&self) -> Vec<GeoPoint> {
        self.from
            .point
            .great_circle_path(&self.to.point, PATH_SEGMENTS)
    }

    /// Number of powered repeaters along the cable.
    pub fn repeater_count(&self) -> u32 {
        (self.length_km() / REPEATER_SPACING_KM).floor() as u32
    }

    /// Maximum |geomagnetic latitude| reached along the path, degrees.
    pub fn max_geomag_latitude(&self) -> f64 {
        geomag::max_abs_geomag_latitude(&self.path())
    }

    /// Qualitative exposure band of the path apex.
    pub fn band(&self) -> LatitudeBand {
        LatitudeBand::of(self.max_geomag_latitude())
    }

    /// Whether the cable connects two different coarse regions.
    pub fn is_intercontinental(&self) -> bool {
        self.from.region != self.to.region
    }

    /// True if the cable connects the given pair of regions (order-free).
    pub fn connects(&self, a: Region, b: Region) -> bool {
        (self.from.region == a && self.to.region == b)
            || (self.from.region == b && self.to.region == a)
    }
}

/// The full cable database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CableDatabase {
    cables: Vec<SubmarineCable>,
}

/// Shorthand for building a landing-point [`Place`].
fn lp(name: &str, country: &str, region: Region, lat: f64, lon: f64) -> Place {
    Place::new(name, country, region, lat, lon)
}

impl CableDatabase {
    /// The built-in database of ~45 real cable systems.
    pub fn standard() -> Self {
        use Region::*;
        let c = |name: &str, from: Place, to: Place, year: u16, slack: f64| {
            SubmarineCable::new(name, from, to, year, slack)
        };

        // Landing points reused across systems.
        let virginia_beach = || {
            lp(
                "Virginia Beach",
                "United States",
                NorthAmerica,
                36.85,
                -75.98,
            )
        };
        let new_york = || lp("New York", "United States", NorthAmerica, 40.71, -74.01);
        let wall_nj = || {
            lp(
                "Wall Township",
                "United States",
                NorthAmerica,
                40.16,
                -74.06,
            )
        };
        let boston = || lp("Lynn", "United States", NorthAmerica, 42.46, -70.95);
        let halifax = || lp("Halifax", "Canada", NorthAmerica, 44.65, -63.57);
        let miami = || lp("Boca Raton", "United States", NorthAmerica, 26.36, -80.08);
        let los_angeles = || lp("Los Angeles", "United States", NorthAmerica, 33.74, -118.29);
        let oregon = || {
            lp(
                "Pacific City",
                "United States",
                NorthAmerica,
                45.20,
                -123.96,
            )
        };
        let vancouver = || lp("Port Alberni", "Canada", NorthAmerica, 49.23, -124.81);

        let bude = || lp("Bude", "United Kingdom", Europe, 50.83, -4.55);
        let bilbao = || lp("Bilbao", "Spain", Europe, 43.26, -2.93);
        let saint_hilaire = || lp("Saint-Hilaire-de-Riez", "France", Europe, 46.72, -1.95);
        let le_porge = || lp("Le Porge", "France", Europe, 44.87, -1.20);
        let blaabjerg = || lp("Blaabjerg", "Denmark", Europe, 55.63, 8.17);
        let killala = || lp("Killala", "Ireland", Europe, 54.22, -9.22);
        let plerin = || lp("Plérin", "France", Europe, 48.54, -2.77);
        let highbridge = || lp("Highbridge", "United Kingdom", Europe, 51.22, -2.97);
        let brean = || lp("Brean", "United Kingdom", Europe, 51.29, -3.01);
        let lisbon = || lp("Lisbon", "Portugal", Europe, 38.72, -9.14);
        let sines = || lp("Sines", "Portugal", Europe, 37.96, -8.87);
        let marseille = || lp("Marseille", "France", Europe, 43.30, 5.37);
        let toulon = || lp("Toulon", "France", Europe, 43.12, 5.93);
        let reykjavik = || lp("Landeyjasandur", "Iceland", Europe, 63.60, -20.20);
        let scotland = || lp("Dunnet Bay", "United Kingdom", Europe, 58.61, -3.35);
        let denmark_ice = || lp("Blaabjerg (DANICE)", "Denmark", Europe, 55.63, 8.17);
        let longyearbyen = || lp("Longyearbyen", "Norway", Europe, 78.22, 15.64);
        let andoya = || lp("Andøya", "Norway", Europe, 69.14, 15.86);
        let nuuk = || lp("Nuuk", "Greenland", NorthAmerica, 64.18, -51.72);

        let fortaleza = || lp("Fortaleza", "Brazil", SouthAmerica, -3.73, -38.52);
        let santos = || lp("Praia Grande", "Brazil", SouthAmerica, -24.01, -46.41);
        let rio = || lp("Rio de Janeiro", "Brazil", SouthAmerica, -22.91, -43.17);
        let las_toninas = || lp("Las Toninas", "Argentina", SouthAmerica, -36.49, -56.70);
        let valparaiso = || lp("Valparaíso", "Chile", SouthAmerica, -33.05, -71.61);

        let luanda = || lp("Luanda", "Angola", Africa, -8.84, 13.23);
        let kribi = || lp("Kribi", "Cameroon", Africa, 2.94, 9.91);
        let cape_town = || lp("Cape Town", "South Africa", Africa, -33.92, 18.42);
        let yzerfontein = || lp("Yzerfontein", "South Africa", Africa, -33.34, 18.15);
        let mombasa = || lp("Mombasa", "Kenya", Africa, -4.04, 39.67);
        let port_sudan = || lp("Port Sudan", "Sudan", Africa, 19.62, 37.22);
        let maputo = || lp("Maputo", "Mozambique", Africa, -25.97, 32.57);

        let mumbai = || lp("Mumbai", "India", Asia, 19.08, 72.88);
        let singapore = || lp("Singapore", "Singapore", Asia, 1.35, 103.82);
        let chikura = || lp("Chikura", "Japan", Asia, 34.95, 139.95);
        let maruyama = || lp("Maruyama", "Japan", Asia, 35.10, 139.97);
        let shima = || lp("Shima", "Japan", Asia, 34.30, 136.80);
        let hong_kong = || lp("Hong Kong", "China", Asia, 22.32, 114.17);
        let chongming = || lp("Chongming", "China", Asia, 31.62, 121.40);
        let busan = || lp("Busan", "South Korea", Asia, 35.18, 129.08);

        let sesimbra = || lp("Sesimbra", "Portugal", Europe, 38.44, -9.10);
        let santander = || lp("Santander", "Spain", Europe, 43.46, -3.81);
        let murmansk = || lp("Murmansk", "Russia", Europe, 68.97, 33.08);
        let hillsboro = || lp("Hillsboro", "United States", NorthAmerica, 45.52, -122.99);
        let eureka = || lp("Eureka", "United States", NorthAmerica, 40.80, -124.16);
        let grover_beach = || {
            lp(
                "Grover Beach",
                "United States",
                NorthAmerica,
                35.12,
                -120.62,
            )
        };
        let myrtle_beach = || lp("Myrtle Beach", "United States", NorthAmerica, 33.69, -78.89);
        let toyohashi = || lp("Toyohashi", "Japan", Asia, 34.77, 137.39);
        let jakarta = || lp("Tanjung Pakis", "Indonesia", Asia, -5.95, 107.00);
        let vladivostok = || lp("Vladivostok", "Russia", Asia, 43.12, 131.89);
        let maldonado = || lp("Maldonado", "Uruguay", SouthAmerica, -34.91, -54.95);

        let sydney = || lp("Sydney", "Australia", Oceania, -33.87, 151.21);
        let perth = || lp("Perth", "Australia", Oceania, -31.95, 115.86);
        let auckland = || lp("Auckland", "New Zealand", Oceania, -36.85, 174.76);
        let hawaii = || lp("Kahe Point", "United States", Oceania, 21.35, -158.13);

        let cables = vec![
            // --- Trans-Atlantic, US/Canada ↔ Europe (high-latitude arcs) ---
            c("TAT-14", wall_nj(), bude(), 2001, 1.25),
            c("Atlantic Crossing-1 (AC-1)", new_york(), bude(), 1998, 1.28),
            c("MAREA", virginia_beach(), bilbao(), 2017, 1.18),
            c("Dunant", virginia_beach(), saint_hilaire(), 2021, 1.18),
            c("Grace Hopper", new_york(), bude(), 2022, 1.20),
            c("Amitié", boston(), le_porge(), 2023, 1.18),
            c("Havfrue (AEC-2)", wall_nj(), blaabjerg(), 2020, 1.22),
            c(
                "AEC-1 (America Europe Connect)",
                new_york(),
                killala(),
                2016,
                1.20,
            ),
            c("Apollo North", new_york(), bude(), 2003, 1.24),
            c("FLAG Atlantic-1", new_york(), plerin(), 2001, 1.24),
            c("Yellow (AC-2)", new_york(), bude(), 2000, 1.25),
            c("TGN-Atlantic", wall_nj(), highbridge(), 2001, 1.26),
            c("GTT Express", halifax(), brean(), 2015, 1.15),
            // --- North Atlantic, sub-arctic (very high latitude) ---
            c("FARICE-1", reykjavik(), scotland(), 2004, 1.20),
            c("DANICE", reykjavik(), denmark_ice(), 2009, 1.18),
            c("Greenland Connect", nuuk(), reykjavik(), 2009, 1.20),
            c(
                "Svalbard Undersea Cable",
                longyearbyen(),
                andoya(),
                2004,
                1.15,
            ),
            // --- South Atlantic, Brazil ↔ Europe/Africa (low latitude) ---
            c("EllaLink", fortaleza(), sines(), 2021, 1.15),
            c("Atlantis-2", fortaleza(), lisbon(), 2000, 1.35),
            c("SACS", fortaleza(), luanda(), 2018, 1.10),
            c("SAIL", fortaleza(), kribi(), 2020, 1.10),
            // --- Americas north–south ---
            c("Monet", miami(), santos(), 2017, 1.20),
            c("Seabras-1", new_york(), santos(), 2017, 1.18),
            c("BRUSA", virginia_beach(), rio(), 2018, 1.18),
            c("Firmina", virginia_beach(), las_toninas(), 2023, 1.18),
            c("Curie", los_angeles(), valparaiso(), 2019, 1.12),
            // --- Trans-Pacific ---
            c("Unity", los_angeles(), chikura(), 2010, 1.12),
            c("FASTER", oregon(), shima(), 2016, 1.12),
            c("Jupiter", los_angeles(), maruyama(), 2020, 1.12),
            c("Topaz", vancouver(), chikura(), 2023, 1.12),
            c("New Cross Pacific (NCP)", oregon(), chongming(), 2018, 1.15),
            c("Trans-Pacific Express (TPE)", oregon(), busan(), 2008, 1.15),
            // --- Pacific, Oceania ---
            c("Southern Cross", sydney(), hawaii(), 2000, 1.20),
            c("Hawaiki", sydney(), oregon(), 2018, 1.18),
            c("Australia-Japan Cable", sydney(), maruyama(), 2001, 1.18),
            c("Tasman Global Access", sydney(), auckland(), 2017, 1.10),
            c("Indigo-West", perth(), singapore(), 2019, 1.10),
            // --- Europe ↔ Asia / Middle East (mid/low latitude) ---
            c("SEA-ME-WE 4", marseille(), singapore(), 2005, 1.45),
            c("SEA-ME-WE 5", toulon(), singapore(), 2016, 1.45),
            c("AAE-1", marseille(), hong_kong(), 2017, 1.45),
            c("IMEWE", mumbai(), marseille(), 2010, 1.35),
            // --- Africa ---
            c("2Africa (west segment)", bude(), cape_town(), 2023, 1.35),
            c("2Africa (east segment)", marseille(), mombasa(), 2023, 1.40),
            c("WACS", yzerfontein(), highbridge(), 2012, 1.30),
            c("Equiano", lisbon(), cape_town(), 2022, 1.30),
            c("EASSy", port_sudan(), maputo(), 2010, 1.25),
            // --- Intra-Asia ---
            c(
                "Asia Pacific Gateway (APG)",
                chongming(),
                singapore(),
                2016,
                1.30,
            ),
            c(
                "Southeast Asia-Japan Cable (SJC)",
                chikura(),
                singapore(),
                2013,
                1.25,
            ),
            // --- Later additions across the basins ---
            c("SAT-3/WASC", sesimbra(), cape_town(), 2001, 1.35),
            c("Europe India Gateway (EIG)", bude(), mumbai(), 2011, 1.45),
            c("TGN-Pacific", hillsboro(), toyohashi(), 2002, 1.15),
            c("Echo", eureka(), singapore(), 2024, 1.18),
            c("Bifrost", grover_beach(), jakarta(), 2024, 1.20),
            c("Apricot", shima(), singapore(), 2024, 1.25),
            c(
                "Japan-Guam-Australia (JGA)",
                maruyama(),
                sydney(),
                2020,
                1.20,
            ),
            c("Malbec", santos(), las_toninas(), 2021, 1.15),
            c("Tannat", santos(), maldonado(), 2018, 1.15),
            c("Polar Express", murmansk(), vladivostok(), 2026, 1.30),
            c("Anjana", myrtle_beach(), santander(), 2024, 1.20),
        ];

        CableDatabase { cables }
    }

    pub fn len(&self) -> usize {
        self.cables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cables.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &SubmarineCable> {
        self.cables.iter()
    }

    /// Look up a cable by (case-insensitive) name prefix.
    pub fn find(&self, name: &str) -> Option<&SubmarineCable> {
        let needle = name.to_ascii_lowercase();
        self.cables
            .iter()
            .find(|c| c.name.to_ascii_lowercase().starts_with(&needle))
    }

    /// All cables connecting the two regions.
    pub fn between(&self, a: Region, b: Region) -> Vec<&SubmarineCable> {
        self.cables.iter().filter(|c| c.connects(a, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> CableDatabase {
        CableDatabase::standard()
    }

    #[test]
    fn database_has_expected_scale() {
        assert!(
            db().len() >= 40,
            "cable DB should cover ≥40 systems, has {}",
            db().len()
        );
    }

    #[test]
    fn names_are_unique() {
        let db = db();
        let mut names: Vec<_> = db.iter().map(|c| c.name.as_str()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate cable names");
    }

    #[test]
    fn lengths_are_physically_plausible() {
        for cable in db().iter() {
            let len = cable.length_km();
            assert!(
                (100.0..25_000.0).contains(&len),
                "{} length {len} km implausible",
                cable.name
            );
            assert!(
                cable.repeater_count() >= 1,
                "{} has no repeaters",
                cable.name
            );
        }
    }

    #[test]
    fn marea_is_roughly_published_length() {
        // MAREA is ~6,600 km.
        let db = db();
        let marea = db.find("MAREA").unwrap();
        let len = marea.length_km();
        assert!(
            (5_800.0..7_400.0).contains(&len),
            "MAREA modelled at {len} km"
        );
    }

    #[test]
    fn ellalink_stays_low_latitude_while_us_europe_goes_high() {
        let db = db();
        let ellalink = db.find("EllaLink").unwrap();
        let grace = db.find("Grace Hopper").unwrap();
        assert!(ellalink.max_geomag_latitude() < 50.0);
        assert!(grace.max_geomag_latitude() > 55.0);
        assert!(grace.max_geomag_latitude() > ellalink.max_geomag_latitude() + 10.0);
    }

    #[test]
    fn every_us_europe_cable_outranks_every_brazil_europe_cable() {
        let db = db();
        let us_eu: Vec<_> = db
            .between(Region::NorthAmerica, Region::Europe)
            .into_iter()
            .filter(|c| c.from.country == "United States" || c.to.country == "United States")
            .collect();
        let br_eu: Vec<_> = db
            .between(Region::SouthAmerica, Region::Europe)
            .into_iter()
            .filter(|c| c.from.country == "Brazil" || c.to.country == "Brazil")
            .collect();
        assert!(!us_eu.is_empty() && !br_eu.is_empty());
        for us in &us_eu {
            for br in &br_eu {
                assert!(
                    us.max_geomag_latitude() > br.max_geomag_latitude(),
                    "{} ({:.1}) should exceed {} ({:.1})",
                    us.name,
                    us.max_geomag_latitude(),
                    br.name,
                    br.max_geomag_latitude()
                );
            }
        }
    }

    #[test]
    fn svalbard_is_the_highest_latitude_cable() {
        let db = db();
        let max = db
            .iter()
            .max_by(|a, b| a.max_geomag_latitude().total_cmp(&b.max_geomag_latitude()))
            .unwrap();
        assert_eq!(max.name, "Svalbard Undersea Cable");
    }

    #[test]
    fn band_filters_are_consistent() {
        let db = db();
        let in_band = |band| db.iter().filter(|c| c.band() == band).count();
        let total =
            in_band(LatitudeBand::Low) + in_band(LatitudeBand::Mid) + in_band(LatitudeBand::High);
        assert_eq!(total, db.len());
        // The south-Atlantic systems must land in the low band.
        assert_eq!(db.find("SACS").unwrap().band(), LatitudeBand::Low);
    }

    #[test]
    fn find_is_case_insensitive_prefix() {
        let db = db();
        assert!(db.find("marea").is_some());
        assert!(db.find("sea-me-we").is_some());
        assert!(db.find("nonexistent cable").is_none());
    }

    #[test]
    fn intercontinental_flag() {
        let db = db();
        assert!(db.find("MAREA").unwrap().is_intercontinental());
        assert!(!db
            .find("Tasman Global Access")
            .unwrap()
            .is_intercontinental());
    }
}
