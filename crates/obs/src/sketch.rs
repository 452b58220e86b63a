//! The one latency aggregator: [`QuantileSketch`], behind both
//! `MetricsSnapshot::histograms` and the live SLO cells. A sketch read
//! from JSON is checked, so a snapshot crossing a trust boundary is
//! either a state `observe`/`merge` could build or a parse error.

use serde::{Deserialize, Serialize, Value};

/// Exact-mode capacity: sketches hold a sorted vector of raw values up
/// to this count (nearest-rank percentiles are then *exact*) and
/// collapse to fixed geometric buckets beyond it.
pub const SKETCH_EXACT_CAP: usize = 64;

/// Inclusive geometric bucket upper bounds (virtual µs) for collapsed
/// sketches, spanning sub-millisecond queue waits up to the serve
/// layer's multi-minute deadline horizon. Values above the last bound
/// land in an overflow bucket reported as the observed maximum.
pub(crate) const SKETCH_BOUNDS_US: [u64; 24] = [
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
];

/// Bucket slots of a collapsed sketch: one per bound plus overflow.
const SKETCH_BUCKETS: usize = SKETCH_BOUNDS_US.len() + 1;

/// A deterministic mergeable quantile sketch over virtual durations.
///
/// Representation is a pure function of the observed *multiset*: a
/// sorted exact vector while `count <= SKETCH_EXACT_CAP`, a fixed
/// bucket histogram beyond. Bucketing is a homomorphism (the buckets
/// of a union are the sums of the buckets) and the mode decision
/// depends only on the total count, so [`QuantileSketch::merge`] is
/// exactly associative and commutative — shard-and-merge yields the
/// same bytes as a single stream.
///
/// Fields are private so every sketch is one `observe`/`merge` (or the
/// checked JSON parse) can build. Counts and sums saturate instead of
/// wrapping, and a warm sketch
/// never allocates: the first observation reserves room for
/// `SKETCH_EXACT_CAP + 1` values, and the collapse to buckets reuses
/// that buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct QuantileSketch {
    /// Sorted raw values (exact mode only).
    exact: Vec<u64>,
    /// Bucket counts, `SKETCH_BOUNDS_US.len() + 1` long once collapsed
    /// (last slot is the overflow bucket); empty in exact mode.
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

fn bucket_index(value_us: u64) -> usize {
    SKETCH_BOUNDS_US
        .iter()
        .position(|&bound| value_us <= bound)
        .unwrap_or(SKETCH_BOUNDS_US.len())
}

impl QuantileSketch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Observations recorded (saturating).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the observed durations in µs (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest observed duration in µs; 0 when empty.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Whether percentiles are still exact (small-window mode).
    pub fn is_exact(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Record one duration. Bucket bounds are inclusive (`value_us <=
    /// bound` lands in that bucket).
    pub fn observe(&mut self, value_us: u64) {
        self.count = self.count.saturating_add(1);
        self.sum_us = self.sum_us.saturating_add(value_us);
        self.max_us = self.max_us.max(value_us);
        if self.is_exact() {
            if self.exact.capacity() == 0 {
                self.exact.reserve_exact(SKETCH_EXACT_CAP + 1);
            }
            let at = self.exact.partition_point(|&v| v <= value_us);
            self.exact.insert(at, value_us);
            if self.exact.len() > SKETCH_EXACT_CAP {
                self.collapse();
            }
        } else {
            let slot = &mut self.buckets[bucket_index(value_us)];
            *slot = slot.saturating_add(1);
        }
    }

    /// Spill the exact values into the fixed bucket histogram, reusing
    /// the exact buffer's allocation for the buckets.
    fn collapse(&mut self) {
        let mut counts = [0u64; SKETCH_BUCKETS];
        for &v in &self.exact {
            let slot = &mut counts[bucket_index(v)];
            *slot = slot.saturating_add(1);
        }
        self.buckets = std::mem::take(&mut self.exact);
        self.buckets.clear();
        self.buckets.extend_from_slice(&counts);
    }

    /// Fold another sketch in. Associative and commutative: the result
    /// depends only on the union of the observed multisets.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        let combined = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
        if self.is_exact() && other.is_exact() && combined <= SKETCH_EXACT_CAP as u64 {
            self.exact.extend_from_slice(&other.exact);
            self.exact.sort_unstable();
        } else {
            if self.is_exact() {
                self.collapse();
            }
            if other.is_exact() {
                for &v in &other.exact {
                    let slot = &mut self.buckets[bucket_index(v)];
                    *slot = slot.saturating_add(1);
                }
            } else {
                for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
                    *mine = mine.saturating_add(*theirs);
                }
            }
        }
        self.count = combined;
    }

    /// Nearest-rank quantile at `ppm` parts-per-million (500_000 =
    /// p50). Exact in exact mode; in bucket mode returns the matched
    /// bucket's upper bound clamped to the observed maximum.
    pub fn quantile_ppm(&self, ppm: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank =
            ((ppm as u128 * self.count as u128).div_ceil(1_000_000) as u64).clamp(1, self.count);
        if self.is_exact() {
            return self.exact[rank as usize - 1];
        }
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return if i < SKETCH_BOUNDS_US.len() {
                    SKETCH_BOUNDS_US[i].min(self.max_us)
                } else {
                    self.max_us
                };
            }
        }
        self.max_us
    }

    pub fn p50_us(&self) -> u64 {
        self.quantile_ppm(500_000)
    }

    pub fn p95_us(&self) -> u64 {
        self.quantile_ppm(950_000)
    }

    pub fn p99_us(&self) -> u64 {
        self.quantile_ppm(990_000)
    }

    /// Mean duration in µs, rounded down; 0 when empty.
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Check that this is a state `observe`/`merge` can build, so
    /// every read path (`quantile_ppm` indexes `exact` by rank) is
    /// total. Run on every sketch read from JSON.
    fn validate(&self) -> Result<(), &'static str> {
        let cap = SKETCH_EXACT_CAP as u64;
        let bucket_total = self
            .buckets
            .iter()
            .try_fold(0u64, |acc, &n| acc.checked_add(n));
        let problem = if self.count == 0 && (self.sum_us != 0 || self.max_us != 0) {
            "an empty sketch has a nonzero sum_us or max_us"
        } else if !self.exact.is_empty() && !self.buckets.is_empty() {
            "a sketch holds both exact values and buckets"
        } else if self.is_exact() && self.count > cap {
            "an exact sketch's count is above SKETCH_EXACT_CAP"
        } else if self.is_exact() && self.exact.len() as u64 != self.count {
            "an exact sketch's value count is not its count"
        } else if self.is_exact() && !self.exact.is_sorted() {
            "an exact sketch's values are not sorted"
        } else if self.is_exact() && self.count > 0 && self.exact.last() != Some(&self.max_us) {
            "an exact sketch's max_us is not its largest value"
        } else if !self.is_exact() && self.buckets.len() != SKETCH_BUCKETS {
            "a bucketed sketch does not have 25 buckets"
        } else if !self.is_exact() && self.count <= cap {
            "a bucketed sketch's count is not above SKETCH_EXACT_CAP"
        } else if !self.is_exact() && bucket_total != Some(self.count) {
            "a bucketed sketch's buckets do not sum to its count"
        } else {
            return Ok(());
        };
        Err(problem)
    }
}

impl Deserialize for QuantileSketch {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(
            obj: &Value,
            name: &str,
            or: Option<T>,
        ) -> Result<T, serde::Error> {
            match (obj.get(name), or) {
                (Some(v), _) => T::deserialize_value(v),
                (None, Some(default)) => Ok(default),
                (None, None) => Err(serde::Error::custom(format!(
                    "missing field `{name}` in QuantileSketch"
                ))),
            }
        }
        if value.as_object().is_none() {
            return Err(serde::Error::type_mismatch(
                "object for QuantileSketch",
                value,
            ));
        }
        let sketch = QuantileSketch {
            exact: field(value, "exact", Some(Vec::new()))?,
            buckets: field(value, "buckets", Some(Vec::new()))?,
            count: field(value, "count", None)?,
            sum_us: field(value, "sum_us", None)?,
            max_us: field(value, "max_us", None)?,
        };
        sketch
            .validate()
            .map_err(|e| serde::Error::custom(format!("invalid QuantileSketch: {e}")))?;
        Ok(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: &[u64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.observe(v);
        }
        s
    }

    fn parse(json: &str) -> Result<QuantileSketch, String> {
        serde_json::from_str::<QuantileSketch>(json).map_err(|e| e.to_string())
    }

    fn bucket_json(buckets: &[u64], count: u64, sum_us: u64, max_us: u64) -> String {
        let list: Vec<String> = buckets.iter().map(u64::to_string).collect();
        format!(
            "{{\"exact\":[],\"buckets\":[{}],\"count\":{count},\"sum_us\":{sum_us},\"max_us\":{max_us}}}",
            list.join(",")
        )
    }

    #[test]
    fn warm_sketch_keeps_one_buffer_through_the_collapse() {
        let mut sketch = QuantileSketch::new();
        sketch.observe(1);
        let buffer = sketch.exact.as_ptr();
        assert!(sketch.exact.capacity() > SKETCH_EXACT_CAP);
        for i in 0..SKETCH_EXACT_CAP as u64 {
            sketch.observe(i);
        }
        assert!(!sketch.is_exact());
        assert_eq!(
            sketch.buckets.as_ptr(),
            buffer,
            "collapse reuses the buffer"
        );
    }

    #[test]
    fn json_round_trips_in_both_modes() {
        for values in [vec![], vec![5u64, 3, 900], (0..200).collect()] {
            let sketch = sketch_of(&values);
            let json = serde_json::to_string(&sketch).unwrap();
            assert_eq!(parse(&json).unwrap(), sketch, "{json}");
        }
        // Omitted representation fields default to empty.
        assert_eq!(
            parse("{\"count\":0,\"sum_us\":0,\"max_us\":0}").unwrap(),
            QuantileSketch::new()
        );
    }

    #[test]
    fn rejects_both_exact_values_and_buckets() {
        let mut buckets = vec![0u64; SKETCH_BUCKETS];
        buckets[0] = 65;
        let json = bucket_json(&buckets, 65, 65, 1).replace("\"exact\":[]", "\"exact\":[1]");
        let err = parse(&json).unwrap_err();
        assert!(err.contains("both exact values and buckets"), "{err}");
    }

    #[test]
    fn rejects_exact_length_not_matching_count() {
        let err = parse("{\"count\":3,\"sum_us\":5,\"max_us\":5}").unwrap_err();
        assert!(err.contains("value count is not its count"), "{err}");
        let err = parse("{\"exact\":[1,4],\"count\":3,\"sum_us\":5,\"max_us\":4}").unwrap_err();
        assert!(err.contains("value count is not its count"), "{err}");
    }

    #[test]
    fn rejects_exact_count_above_the_cap() {
        let values: Vec<String> = (0..=SKETCH_EXACT_CAP).map(|i| i.to_string()).collect();
        let json = format!(
            "{{\"exact\":[{}],\"count\":{},\"sum_us\":1,\"max_us\":{SKETCH_EXACT_CAP}}}",
            values.join(","),
            SKETCH_EXACT_CAP + 1
        );
        let err = parse(&json).unwrap_err();
        assert!(err.contains("exact sketch's count is above"), "{err}");
    }

    #[test]
    fn rejects_unsorted_exact_values() {
        let err = parse("{\"exact\":[4,1],\"count\":2,\"sum_us\":5,\"max_us\":1}").unwrap_err();
        assert!(err.contains("not sorted"), "{err}");
    }

    #[test]
    fn rejects_exact_max_not_the_last_value() {
        let err = parse("{\"exact\":[1,4],\"count\":2,\"sum_us\":5,\"max_us\":9}").unwrap_err();
        assert!(err.contains("max_us is not its largest value"), "{err}");
    }

    #[test]
    fn rejects_a_wrong_bucket_count() {
        let err = parse(&bucket_json(&[1], 1, 5, 5)).unwrap_err();
        assert!(err.contains("does not have 25 buckets"), "{err}");
        let err = parse(&bucket_json(&[70; 26], 70 * 26, 5, 5)).unwrap_err();
        assert!(err.contains("does not have 25 buckets"), "{err}");
    }

    #[test]
    fn rejects_buckets_not_summing_to_count() {
        let mut buckets = vec![0u64; SKETCH_BUCKETS];
        buckets[3] = 70;
        let err = parse(&bucket_json(&buckets, 71, 100, 500)).unwrap_err();
        assert!(err.contains("do not sum to its count"), "{err}");
        // A sum that overflows is rejected, not wrapped into agreement.
        buckets[0] = u64::MAX;
        buckets[3] = 71;
        let err = parse(&bucket_json(&buckets, 70, 100, 500)).unwrap_err();
        assert!(err.contains("do not sum to its count"), "{err}");
    }

    #[test]
    fn rejects_a_bucketed_sketch_at_or_below_the_exact_cap() {
        let mut buckets = vec![0u64; SKETCH_BUCKETS];
        buckets[0] = 3;
        let err = parse(&bucket_json(&buckets, 3, 5, 5)).unwrap_err();
        assert!(
            err.contains("bucketed sketch's count is not above"),
            "{err}"
        );
    }

    #[test]
    fn rejects_an_empty_sketch_with_a_sum_or_max() {
        for json in [
            "{\"count\":0,\"sum_us\":5,\"max_us\":0}",
            "{\"count\":0,\"sum_us\":0,\"max_us\":5}",
        ] {
            let err = parse(json).unwrap_err();
            assert!(err.contains("empty sketch"), "{err}");
        }
    }

    #[test]
    fn rejects_missing_scalars_and_wrong_shapes() {
        assert!(parse("{\"sum_us\":0,\"max_us\":0}")
            .unwrap_err()
            .contains("missing field `count`"));
        assert!(parse("[1,2]").is_err());
        assert!(parse("{\"exact\":[\"x\"],\"count\":1,\"sum_us\":0,\"max_us\":0}").is_err());
    }
}
