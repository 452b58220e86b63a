//! Deterministic metrics: counters, high-watermark gauges, and
//! virtual-time latency sketches.
//!
//! Everything here is keyed by `String` in `BTreeMap`s so snapshots
//! serialize and render in a stable order, and every aggregation is
//! commutative (sums, maxima and [`QuantileSketch`] merges) so merging
//! per-session snapshots in any order — or recording from any number
//! of threads — yields the same result.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::sketch::QuantileSketch;

/// Counters, gauges and latency sketches by key — the state a
/// [`SummaryCollector`] folds events into, and the serializable
/// snapshot it hands out. Snapshots from different sessions merge
/// commutatively.
///
/// [`SummaryCollector`]: crate::collector::SummaryCollector
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, QuantileSketch>,
}

impl MetricsSnapshot {
    /// Add `by` to a counter (saturating). Warm keys are looked up by
    /// `&str` and updated in place, so only a first-seen key allocates.
    pub fn incr(&mut self, key: &str, by: u64) {
        if let Some(slot) = self.counters.get_mut(key) {
            *slot = slot.saturating_add(by);
        } else {
            self.counters.insert(key.to_string(), by);
        }
    }

    /// Record a gauge sample. Gauges keep the **high-watermark**, not
    /// the last value: a later, lower sample leaves the stored level
    /// untouched. This is deliberate — a max merges commutatively, so
    /// per-session snapshots folded in any order (or recorded from any
    /// number of threads) agree; "last value" would depend on arrival
    /// order and break trace determinism.
    pub fn gauge_max(&mut self, key: &str, level: u64) {
        if let Some(slot) = self.gauges.get_mut(key) {
            *slot = (*slot).max(level);
        } else {
            self.gauges.insert(key.to_string(), level);
        }
    }

    /// Record one duration into the key's latency sketch.
    pub fn observe_us(&mut self, key: &str, dur_us: u64) {
        if let Some(sketch) = self.histograms.get_mut(key) {
            sketch.observe(dur_us);
        } else {
            let mut sketch = QuantileSketch::new();
            sketch.observe(dur_us);
            self.histograms.insert(key.to_string(), sketch);
        }
    }

    /// Merge another snapshot into this one: counters add, gauges keep
    /// the max, latency sketches merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (key, add) in &other.counters {
            *self.counters.entry(key.clone()).or_insert(0) += add;
        }
        for (key, level) in &other.gauges {
            let slot = self.gauges.entry(key.clone()).or_insert(0);
            *slot = (*slot).max(*level);
        }
        for (key, hist) in &other.histograms {
            self.histograms.entry(key.clone()).or_default().merge(hist);
        }
    }

    /// Render a deterministic fixed-width table: counters, then
    /// gauges, then histogram summaries, each section key-sorted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            out.push_str(&format!("  {:<40} {:>12}\n", "key", "count"));
            for (key, value) in &self.counters {
                out.push_str(&format!("  {key:<40} {value:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges (high-watermark)\n");
            out.push_str(&format!("  {:<40} {:>12}\n", "key", "max"));
            for (key, value) in &self.gauges {
                out.push_str(&format!("  {key:<40} {value:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("latency (virtual µs)\n");
            out.push_str(&format!(
                "  {:<40} {:>8} {:>10} {:>10} {:>12}\n",
                "key", "count", "mean_us", "max_us", "sum_us"
            ));
            for (key, sketch) in &self.histograms {
                out.push_str(&format!(
                    "  {key:<40} {:>8} {:>10} {:>10} {:>12}\n",
                    sketch.count(),
                    sketch.mean_us(),
                    sketch.max_us(),
                    sketch.sum_us()
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SKETCH_BOUNDS_US, SKETCH_EXACT_CAP};
    use serde::Serialize;

    fn sketch_of(values: &[u64]) -> QuantileSketch {
        let mut sketch = QuantileSketch::new();
        for &v in values {
            sketch.observe(v);
        }
        sketch
    }

    /// A collapsed sketch's bucket counts, read from its JSON form.
    fn buckets(sketch: &QuantileSketch) -> Vec<u64> {
        let value = sketch.serialize_value();
        let list = value.get("buckets").and_then(|b| b.as_array()).unwrap();
        list.iter().map(|n| n.as_u64().unwrap()).collect()
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        // 61 zeros keep the sketch exact; the 65th value collapses it.
        let mut hist = sketch_of(&[0; 61]);
        hist.observe(50); // bucket 0 (<=50)
        hist.observe(100); // bucket 1 boundary is inclusive
        assert!(hist.is_exact());
        hist.observe(101); // bucket 2
        hist.observe(3_000_000_000); // overflow
        let counts = buckets(&hist);
        assert_eq!(counts[0], 62);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[SKETCH_BOUNDS_US.len()], 1);
        assert_eq!(hist.count(), 65);
        assert_eq!(hist.max_us(), 3_000_000_000);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x".into(), 2);
        a.gauges.insert("g".into(), 5);
        a.histograms.insert("h".into(), sketch_of(&[300]));

        let mut b = MetricsSnapshot::default();
        b.counters.insert("x".into(), 3);
        b.counters.insert("y".into(), 1);
        b.gauges.insert("g".into(), 4);
        b.histograms.insert("h".into(), sketch_of(&[900]));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters.get("x"), Some(&5));
        assert_eq!(ab.gauges.get("g"), Some(&5));
        assert_eq!(ab.histograms.get("h").unwrap().count(), 2);
    }

    #[test]
    fn registry_snapshot_round_trips_through_json() {
        let mut snap = MetricsSnapshot::default();
        snap.incr("llm.call", 3);
        snap.gauge_max("memory.entries", 12);
        snap.observe_us("fetch.ok", 750);
        for i in 0..100 {
            snap.observe_us("fetch.slow", i * 1_000);
        }
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);

        // A malformed sketch fails the whole snapshot.
        let bad = json.replace("\"exact\":[750]", "\"exact\":[]");
        assert_ne!(bad, json);
        let err = serde_json::from_str::<MetricsSnapshot>(&bad).unwrap_err();
        assert!(err.to_string().contains("invalid QuantileSketch"), "{err}");
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut snap = MetricsSnapshot::default();
        snap.incr("z.last", 1);
        snap.incr("a.first", 2);
        snap.observe_us("fetch.ok", 500);
        snap.observe_us("fetch.ok", 301);
        let r1 = snap.render();
        assert_eq!(r1, snap.render());
        let a_pos = r1.find("a.first").unwrap();
        let z_pos = r1.find("z.last").unwrap();
        assert!(a_pos < z_pos);
        assert!(r1.ends_with(
            "latency (virtual µs)\n  key                                         count    mean_us     max_us       sum_us\n  fetch.ok                                        2        400        500          801\n"
        ));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        assert_eq!(
            MetricsSnapshot::default().render(),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        for values in [vec![300u64], (0..100).map(|i| i * 37).collect()] {
            let mut hist = sketch_of(&values);
            let before = hist.clone();
            hist.merge(&QuantileSketch::new());
            assert_eq!(hist, before);

            let mut empty = QuantileSketch::new();
            empty.merge(&before);
            assert_eq!(empty, before);
        }
        assert_eq!(QuantileSketch::new().mean_us(), 0, "empty mean is 0");
    }

    #[test]
    fn histogram_counts_saturate_instead_of_wrapping() {
        // A collapsed sketch at the edge of u64, built through the
        // checked JSON parse: its first bucket holds every count.
        let mut full = vec![0u64; SKETCH_BOUNDS_US.len() + 1];
        full[0] = u64::MAX;
        let list: Vec<String> = full.iter().map(u64::to_string).collect();
        let json = format!(
            "{{\"buckets\":[{}],\"count\":{},\"sum_us\":{},\"max_us\":50}}",
            list.join(","),
            u64::MAX,
            u64::MAX - 10
        );
        let mut a: QuantileSketch = serde_json::from_str(&json).unwrap();
        a.merge(&sketch_of(&[40, 50])); // exact values into buckets
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.sum_us(), u64::MAX);
        assert_eq!(buckets(&a)[0], u64::MAX);
        let other = a.clone();
        a.merge(&other); // buckets into buckets
        a.observe(20); // observe on a saturated sketch is also safe
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(buckets(&a)[0], u64::MAX);
        assert_eq!(a.quantile_ppm(1_000_000), 50);

        let mut snap = MetricsSnapshot::default();
        snap.incr("x", u64::MAX - 1);
        snap.incr("x", 5);
        assert_eq!(snap.counters.get("x"), Some(&u64::MAX), "counters too");
    }

    #[test]
    fn bucket_boundary_durations_land_in_the_lower_bucket() {
        // Bounds are inclusive: exactly `bound` µs belongs to that
        // bucket; `bound + 1` spills into the next.
        let base = sketch_of(&[u64::MAX; SKETCH_EXACT_CAP + 1]);
        let landed = |value: u64| {
            let mut hist = base.clone();
            hist.observe(value);
            let mut pairs = buckets(&hist).into_iter().zip(buckets(&base));
            pairs.position(|(a, b)| a != b).unwrap()
        };
        for (i, &bound) in SKETCH_BOUNDS_US.iter().enumerate() {
            assert_eq!(landed(bound), i, "bound {bound} in bucket {i}");
            assert_eq!(landed(bound + 1), i + 1, "bound+1 left bucket {i}");
        }
        assert_eq!(landed(0), 0, "zero lands in the first bucket");
        assert_eq!(landed(u64::MAX), SKETCH_BOUNDS_US.len(), "overflow bucket");
    }

    #[test]
    fn gauges_keep_the_high_watermark_not_the_last_sample() {
        let mut snap = MetricsSnapshot::default();
        snap.gauge_max("memory.entries", 9);
        snap.gauge_max("memory.entries", 3); // later but lower — ignored
        assert_eq!(snap.gauges.get("memory.entries"), Some(&9));
        snap.gauge_max("memory.entries", 12);
        assert_eq!(snap.gauges.get("memory.entries"), Some(&12));
    }
}
