//! Property-based tests for the quantile sketch, the one latency
//! aggregator behind metrics snapshots and live SLO telemetry.
//!
//! The sketch's contract is algebraic: its state is a pure function of
//! the observed multiset, so merging shards in any grouping or order
//! must equal observing one combined stream — the property that makes
//! sharded serve telemetry worker-invariant. It also sits on a trust
//! boundary: sketch JSON with arbitrary field values must either be
//! rejected at parse time or be safe to read, merge and render.

use std::collections::BTreeMap;

use ira_obs::{LiveSnapshot, QuantileSketch, SloCell, SKETCH_EXACT_CAP};
use proptest::prelude::*;

fn sketch_of(values: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.observe(v);
    }
    s
}

/// Ground truth: nearest-rank percentile over the sorted raw values.
fn nearest_rank(values: &[u64], ppm: u64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank =
        ((ppm as u128 * sorted.len() as u128).div_ceil(1_000_000) as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Durations spanning sub-ms up to beyond the largest bucket bound, so
/// cases explore both the exact and the saturated regime. The vendored
/// proptest has no `prop_oneof`, so regimes are picked by a class tag.
fn durations(max_len: usize) -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..4, 0u64..100_000_000), 0..max_len)
}

fn widen(tagged: &[(usize, u64)]) -> Vec<u64> {
    tagged
        .iter()
        .map(|&(class, raw)| match class {
            0 => raw % 1_000,
            1 => 1_000 + raw % 999_000,
            2 => 1_000_000 + raw,
            _ => u64::MAX,
        })
        .collect()
}

proptest! {
    #[test]
    fn merge_is_commutative(a in durations(100), b in durations(100)) {
        let (a, b) = (widen(&a), widen(&b));
        let mut ab = sketch_of(&a);
        ab.merge(&sketch_of(&b));
        let mut ba = sketch_of(&b);
        ba.merge(&sketch_of(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in durations(60), b in durations(60), c in durations(60)) {
        let (a, b, c) = (widen(&a), widen(&b), widen(&c));
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn sharded_merge_equals_single_stream(values in durations(150), cut in 0usize..150) {
        let values = widen(&values);
        let cut = cut.min(values.len());
        let mut sharded = sketch_of(&values[..cut]);
        sharded.merge(&sketch_of(&values[cut..]));
        // Observation order must not matter either: the single stream
        // sees the same multiset sorted.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sharded, sketch_of(&sorted));
    }

    #[test]
    fn small_windows_agree_exactly_with_sorted_percentiles(
        values in prop::collection::vec(0u64..u64::MAX, 1..=SKETCH_EXACT_CAP),
        ppm in 1u64..=1_000_000,
    ) {
        let sketch = sketch_of(&values);
        prop_assert!(sketch.is_exact());
        prop_assert_eq!(sketch.quantile_ppm(ppm), nearest_rank(&values, ppm));
    }

    #[test]
    fn saturated_quantiles_are_bounded_and_monotone(values in durations(300)) {
        prop_assume!(!values.is_empty());
        let values = widen(&values);
        let sketch = sketch_of(&values);
        let max = *values.iter().max().unwrap();
        let mut previous = 0u64;
        for ppm in [1, 100_000, 500_000, 950_000, 990_000, 1_000_000] {
            let q = sketch.quantile_ppm(ppm);
            prop_assert!(q <= max, "quantile {q} above observed max {max}");
            prop_assert!(q >= previous, "quantiles must be monotone in ppm");
            previous = q;
        }
        prop_assert_eq!(sketch.quantile_ppm(1_000_000), max,
            "p100 is the observed max even when bucketed");
        prop_assert_eq!(sketch.count(), values.len() as u64);
    }

    #[test]
    fn count_boundary_controls_the_representation(extra in 0usize..10) {
        // Exactly at the cap the sketch stays exact; any observation or
        // merge past it saturates into buckets.
        let at_cap: Vec<u64> = (0..SKETCH_EXACT_CAP as u64).collect();
        let sketch = sketch_of(&at_cap);
        prop_assert!(sketch.is_exact());
        let mut grown = sketch.clone();
        grown.merge(&sketch_of(&vec![7; extra + 1]));
        prop_assert!(!grown.is_exact());
        prop_assert_eq!(grown.count(), (SKETCH_EXACT_CAP + extra + 1) as u64);
    }

    #[test]
    fn arbitrary_sketch_json_is_rejected_or_safe(
        shape in (0usize..3, 0usize..3, 0usize..6, (0usize..4, 0usize..3))
            .prop_map(|(a, b, c, (d, e))| (a, b, c, d, e)),
        exact in durations(SKETCH_EXACT_CAP + 6),
        buckets in prop::collection::vec(0u64..200, 0..30),
        raw in (0u64..200, 0u64..5_000_000),
        probes in durations(80),
    ) {
        let json = sketch_json(shape, &widen(&exact), &buckets, raw);
        let Ok(sketch) = serde_json::from_str::<QuantileSketch>(&json) else {
            return Ok(());
        };
        for ppm in [0, 1, 500_000, 950_000, 990_000, 1_000_000, u64::MAX] {
            let q = sketch.quantile_ppm(ppm);
            prop_assert!(q <= sketch.max_us(), "quantile {q} above max in {json}");
        }
        let probes = widen(&probes);
        let mut grown = sketch.clone();
        grown.merge(&sketch);
        grown.merge(&sketch_of(&probes));
        let mut into = sketch_of(&probes);
        into.merge(&sketch);
        for &v in &probes {
            grown.observe(v);
        }
        prop_assert!(grown.quantile_ppm(990_000) <= grown.max_us());
        prop_assert!(into.quantile_ppm(500_000) <= into.max_us());

        let cell = SloCell { queue: sketch.clone(), exec: grown, ..SloCell::default() };
        let snapshot = LiveSnapshot {
            at_us: 0,
            window_us: 1,
            samples: 1,
            window: BTreeMap::from([("s/k".to_string(), cell.clone())]),
            total: BTreeMap::from([("s/k".to_string(), cell)]),
        };
        prop_assert!(snapshot.render_text().contains("queue_us: p50="));
        prop_assert!(!snapshot.render_prometheus().is_empty());
        // An accepted sketch is a state observe/merge can build, so
        // it re-serializes to JSON that parses back to itself.
        let again = serde_json::to_string(&sketch).unwrap();
        prop_assert_eq!(serde_json::from_str::<QuantileSketch>(&again).unwrap(), sketch);
    }

    #[test]
    fn built_sketches_round_trip_through_json(
        values in durations(200),
        cuts in (0usize..200, 0usize..200),
    ) {
        let values = widen(&values);
        let (a, b) = (cuts.0.min(values.len()), cuts.1.min(values.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut merged = sketch_of(&values[..lo]);
        merged.merge(&sketch_of(&values[hi..]));
        merged.merge(&sketch_of(&values[lo..hi]));
        for sketch in [sketch_of(&values), sketch_of(&values[lo..hi]), merged] {
            let json = serde_json::to_string(&sketch).unwrap();
            let back: QuantileSketch = serde_json::from_str(&json)
                .map_err(|e| TestCaseError::fail(format!("{e}: {json}")))?;
            prop_assert_eq!(&back, &sketch);
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }
}

/// Sketch JSON with arbitrary field values, biased so that both
/// well-formed and malformed sketches come up. `shape` picks:
/// representation (exact only / buckets only / both), whether the
/// exact values are sorted (mostly), how `count` relates to the
/// contents (mostly consistent; else off by one, random or
/// saturated), `max_us` (mostly consistent; else random or an absent
/// field) and `sum_us` (random / zero / saturated).
fn sketch_json(
    (mode, unsorted, count_kind, max_kind, sum_kind): (usize, usize, usize, usize, usize),
    exact: &[u64],
    buckets: &[u64],
    (small, large): (u64, u64),
) -> String {
    let mut exact = if mode == 1 {
        Vec::new()
    } else {
        exact.to_vec()
    };
    if unsorted != 0 {
        exact.sort_unstable();
    }
    let buckets: Vec<u64> = match mode {
        0 => Vec::new(),
        // Usually the real bucket count, sometimes a short or long one.
        _ if small % 4 != 0 => (0..25)
            .map(|i| buckets.get(i).copied().unwrap_or(3))
            .collect(),
        _ => buckets.to_vec(),
    };
    let consistent = if buckets.is_empty() {
        exact.len() as u64
    } else {
        buckets.iter().fold(0u64, |acc, &n| acc.saturating_add(n))
    };
    let count = match count_kind {
        0..=2 => consistent,
        3 => consistent.wrapping_add(small % 3).wrapping_sub(1),
        4 => small,
        _ => u64::MAX,
    };
    let max_field = match max_kind {
        0 | 1 => format!(
            ",\"max_us\":{}",
            exact.last().copied().unwrap_or(large.min(count))
        ),
        2 => format!(",\"max_us\":{large}"),
        _ => String::new(),
    };
    let sum = [large, 0, u64::MAX][sum_kind];
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"exact\":[{}],\"buckets\":[{}],\"count\":{count},\"sum_us\":{sum}{max_field}}}",
        list(&exact),
        list(&buckets)
    )
}
