//! Live sliding-window SLO aggregation on the virtual clock.
//!
//! The serve layer (and anything else that produces per-request
//! [`SloSample`]s) feeds a [`LiveStats`] aggregator: a ring of
//! epoch-tracked sub-window slices over the batch arrival clock plus
//! cumulative totals, each keyed by `scenario/kind`. A snapshot at any
//! virtual instant merges the in-window slices into a
//! [`LiveSnapshot`] — windowed counters, rates, and latency
//! percentiles from a deterministic mergeable [`QuantileSketch`].
//!
//! Everything here is integer arithmetic over virtual time, so a
//! snapshot is a pure function of the sample sequence: byte-identical
//! across worker counts, thread counts, and repeated runs. Rates are
//! reported in parts-per-million and formatted with integer math —
//! no floats anywhere near the rendered output.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::sketch::QuantileSketch;

/// One request's contribution to the SLO ledger. Intake-time samples
/// set only the admission-decision flags; outcome samples set only the
/// completion flags; a replayed `(request, response)` pair sets both
/// at once. Flags that are `false` (and `None` durations) contribute
/// nothing, so intake + outcome sums to the combined sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSample {
    /// Arrival instant on the batch's synthetic arrival clock.
    pub at_us: u64,
    pub scenario: String,
    /// Request kind's stable wire spelling.
    pub kind: String,
    pub admitted: bool,
    pub shed: bool,
    pub invalid: bool,
    pub ok: bool,
    pub degraded: bool,
    pub deadline_miss: bool,
    pub failed: bool,
    pub retries: u64,
    pub queue_us: Option<u64>,
    pub exec_us: Option<u64>,
}

impl SloSample {
    /// A blank sample (no flags set) at one arrival instant.
    pub fn new(at_us: u64, scenario: impl Into<String>, kind: impl Into<String>) -> Self {
        SloSample {
            at_us,
            scenario: scenario.into(),
            kind: kind.into(),
            admitted: false,
            shed: false,
            invalid: false,
            ok: false,
            degraded: false,
            deadline_miss: false,
            failed: false,
            retries: 0,
            queue_us: None,
            exec_us: None,
        }
    }

    /// The ledger key this sample lands under.
    pub fn key(&self) -> String {
        format!("{}/{}", self.scenario, self.kind)
    }
}

/// Integer parts-per-million ratio (0 when the denominator is 0).
fn ratio_ppm(numerator: u64, denominator: u64) -> u64 {
    if denominator == 0 {
        0
    } else {
        (numerator as u128 * 1_000_000 / denominator as u128) as u64
    }
}

/// Format a ppm ratio as a percentage with two decimals, pure integer
/// math ("250000" → "25.00%").
pub fn fmt_ppm_pct(ppm: u64) -> String {
    format!("{}.{:02}%", ppm / 10_000, (ppm % 10_000) / 100)
}

/// Counters and latency sketches for one `scenario/kind` key.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloCell {
    /// Requests that arrived (admitted + shed + invalid).
    pub arrivals: u64,
    pub admitted: u64,
    pub shed: u64,
    pub invalid: u64,
    pub ok: u64,
    pub degraded: u64,
    pub deadline_miss: u64,
    pub failed: u64,
    pub retries: u64,
    /// Modeled queue wait of admitted requests.
    pub queue: QuantileSketch,
    /// Virtual execution latency of completed requests.
    pub exec: QuantileSketch,
}

impl SloCell {
    fn apply(&mut self, sample: &SloSample) {
        self.arrivals += u64::from(sample.admitted || sample.shed || sample.invalid);
        self.admitted += u64::from(sample.admitted);
        self.shed += u64::from(sample.shed);
        self.invalid += u64::from(sample.invalid);
        self.ok += u64::from(sample.ok);
        self.degraded += u64::from(sample.degraded);
        self.deadline_miss += u64::from(sample.deadline_miss);
        self.failed += u64::from(sample.failed);
        self.retries += sample.retries;
        if let Some(q) = sample.queue_us {
            self.queue.observe(q);
        }
        if let Some(e) = sample.exec_us {
            self.exec.observe(e);
        }
    }

    pub fn merge(&mut self, other: &SloCell) {
        self.arrivals += other.arrivals;
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.invalid += other.invalid;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.deadline_miss += other.deadline_miss;
        self.failed += other.failed;
        self.retries += other.retries;
        self.queue.merge(&other.queue);
        self.exec.merge(&other.exec);
    }

    /// Fraction of arrivals admitted, in ppm.
    pub fn admission_ppm(&self) -> u64 {
        ratio_ppm(self.admitted, self.arrivals)
    }

    /// Fraction of arrivals shed, in ppm.
    pub fn shed_ppm(&self) -> u64 {
        ratio_ppm(self.shed, self.arrivals)
    }

    /// Fraction of admitted requests that degraded, in ppm.
    pub fn degraded_ppm(&self) -> u64 {
        ratio_ppm(self.degraded, self.admitted)
    }

    /// Fraction of admitted requests that missed a deadline, in ppm.
    pub fn deadline_miss_ppm(&self) -> u64 {
        ratio_ppm(self.deadline_miss, self.admitted)
    }
}

/// Sliding-window policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Total window span on the virtual arrival clock.
    pub window_us: u64,
    /// Sub-window slices the window is divided into; eviction happens
    /// a slice at a time as the clock advances.
    pub slices: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            window_us: 60_000_000,
            slices: 6,
        }
    }
}

#[derive(Debug, Clone)]
struct Slice {
    /// Which `at_us / slice_us` epoch this slot currently holds;
    /// `u64::MAX` marks an empty slot.
    epoch: u64,
    cells: BTreeMap<String, SloCell>,
}

/// The live SLO aggregator: a slice ring for the sliding window plus
/// cumulative totals. Single-writer by design — the serve layer
/// records at intake and post-merge, both single-threaded in request
/// order, which is what keeps snapshots worker-invariant.
#[derive(Debug, Clone)]
pub struct LiveStats {
    config: LiveConfig,
    slice_us: u64,
    ring: Vec<Slice>,
    total: BTreeMap<String, SloCell>,
    samples: u64,
}

impl Default for LiveStats {
    fn default() -> Self {
        LiveStats::new(LiveConfig::default())
    }
}

impl LiveStats {
    pub fn new(config: LiveConfig) -> Self {
        let slices = config.slices.max(1);
        let slice_us = (config.window_us / slices as u64).max(1);
        LiveStats {
            config: LiveConfig {
                window_us: slice_us * slices as u64,
                slices,
            },
            slice_us,
            ring: vec![
                Slice {
                    epoch: u64::MAX,
                    cells: BTreeMap::new(),
                };
                slices
            ],
            total: BTreeMap::new(),
            samples: 0,
        }
    }

    pub fn config(&self) -> LiveConfig {
        self.config
    }

    /// Samples recorded since construction.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Fold one sample into its window slice and the cumulative ledger.
    pub fn record(&mut self, sample: &SloSample) {
        self.samples += 1;
        let epoch = sample.at_us / self.slice_us;
        let slot = (epoch % self.ring.len() as u64) as usize;
        let slice = &mut self.ring[slot];
        if slice.epoch != epoch {
            slice.epoch = epoch;
            slice.cells.clear();
        }
        let key = sample.key();
        slice.cells.entry(key.clone()).or_default().apply(sample);
        self.total.entry(key).or_default().apply(sample);
    }

    /// The state of the world at virtual instant `at_us`: cells merged
    /// from every slice whose epoch falls inside the window ending at
    /// `at_us`, plus the cumulative totals.
    pub fn snapshot(&self, at_us: u64) -> LiveSnapshot {
        let at_epoch = at_us / self.slice_us;
        let oldest = at_epoch.saturating_sub(self.ring.len() as u64 - 1);
        let mut window: BTreeMap<String, SloCell> = BTreeMap::new();
        for slice in &self.ring {
            if slice.epoch == u64::MAX || slice.epoch < oldest || slice.epoch > at_epoch {
                continue;
            }
            for (key, cell) in &slice.cells {
                window.entry(key.clone()).or_default().merge(cell);
            }
        }
        LiveSnapshot {
            at_us,
            window_us: self.config.window_us,
            samples: self.samples,
            window,
            total: self.total.clone(),
        }
    }
}

/// A rendered view of [`LiveStats`] at one virtual instant. Pure data:
/// serializes through the wire protocol (the serve layer's `stats`
/// payload) and renders as stable text or Prometheus exposition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveSnapshot {
    pub at_us: u64,
    pub window_us: u64,
    /// Samples recorded since the aggregator was created.
    pub samples: u64,
    /// Cells within the sliding window ending at `at_us`.
    pub window: BTreeMap<String, SloCell>,
    /// Cumulative cells since the aggregator was created.
    pub total: BTreeMap<String, SloCell>,
}

fn render_cells_text(out: &mut String, title: &str, cells: &BTreeMap<String, SloCell>) {
    out.push_str(&format!("[{title}]\n"));
    if cells.is_empty() {
        out.push_str("  (no samples)\n");
        return;
    }
    for (key, cell) in cells {
        out.push_str(&format!("  {key}\n"));
        out.push_str(&format!(
            "    arrivals={} admitted={} shed={} invalid={} ok={} degraded={} \
             deadline_miss={} failed={} retries={}\n",
            cell.arrivals,
            cell.admitted,
            cell.shed,
            cell.invalid,
            cell.ok,
            cell.degraded,
            cell.deadline_miss,
            cell.failed,
            cell.retries
        ));
        out.push_str(&format!(
            "    rates: admit={} shed={} degraded={} deadline_miss={}\n",
            fmt_ppm_pct(cell.admission_ppm()),
            fmt_ppm_pct(cell.shed_ppm()),
            fmt_ppm_pct(cell.degraded_ppm()),
            fmt_ppm_pct(cell.deadline_miss_ppm())
        ));
        out.push_str(&format!(
            "    queue_us: p50={} p95={} p99={} max={} mean={}\n",
            cell.queue.p50_us(),
            cell.queue.p95_us(),
            cell.queue.p99_us(),
            cell.queue.max_us(),
            cell.queue.mean_us()
        ));
        out.push_str(&format!(
            "    exec_us:  p50={} p95={} p99={} max={} mean={}\n",
            cell.exec.p50_us(),
            cell.exec.p95_us(),
            cell.exec.p99_us(),
            cell.exec.max_us(),
            cell.exec.mean_us()
        ));
    }
}

impl LiveSnapshot {
    /// Stable, diff-friendly text: BTreeMap key order, integer math
    /// only — byte-identical for identical sample sequences.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "live telemetry @ {}µs (window {}µs, {} samples)\n",
            self.at_us, self.window_us, self.samples
        );
        render_cells_text(&mut out, "window", &self.window);
        render_cells_text(&mut out, "total", &self.total);
        out
    }

    /// Prometheus-style exposition (virtual-clock metrics; `scope`
    /// distinguishes the sliding window from cumulative totals).
    pub fn render_prometheus(&self) -> String {
        type CellField = fn(&SloCell) -> u64;
        const COUNTERS: [(&str, CellField); 9] = [
            ("ira_serve_arrivals_total", |c| c.arrivals),
            ("ira_serve_admitted_total", |c| c.admitted),
            ("ira_serve_shed_total", |c| c.shed),
            ("ira_serve_invalid_total", |c| c.invalid),
            ("ira_serve_ok_total", |c| c.ok),
            ("ira_serve_degraded_total", |c| c.degraded),
            ("ira_serve_deadline_miss_total", |c| c.deadline_miss),
            ("ira_serve_failed_total", |c| c.failed),
            ("ira_serve_retries_total", |c| c.retries),
        ];
        let scopes: [(&str, &BTreeMap<String, SloCell>); 2] =
            [("window", &self.window), ("total", &self.total)];
        let mut out = String::new();
        out.push_str(&format!(
            "# ira live telemetry, virtual clock at {}µs (window {}µs)\n",
            self.at_us, self.window_us
        ));
        for (name, get) in COUNTERS {
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (scope, cells) in scopes {
                for (key, cell) in cells.iter() {
                    let (scenario, kind) = key.rsplit_once('/').unwrap_or((key.as_str(), ""));
                    out.push_str(&format!(
                        "{name}{{scope=\"{scope}\",scenario=\"{scenario}\",kind=\"{kind}\"}} {}\n",
                        get(cell)
                    ));
                }
            }
        }
        for (name, get) in [
            (
                "ira_serve_queue_virtual_us",
                (|c: &SloCell| &c.queue) as fn(&SloCell) -> &QuantileSketch,
            ),
            ("ira_serve_exec_virtual_us", |c: &SloCell| &c.exec),
        ] {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (scope, cells) in scopes {
                for (key, cell) in cells.iter() {
                    let (scenario, kind) = key.rsplit_once('/').unwrap_or((key.as_str(), ""));
                    let sketch = get(cell);
                    let labels =
                        format!("scope=\"{scope}\",scenario=\"{scenario}\",kind=\"{kind}\"");
                    for (q, v) in [
                        ("0.5", sketch.p50_us()),
                        ("0.95", sketch.p95_us()),
                        ("0.99", sketch.p99_us()),
                    ] {
                        out.push_str(&format!("{name}{{{labels},quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", sketch.sum_us()));
                    out.push_str(&format!("{name}_count{{{labels}}} {}\n", sketch.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::SKETCH_EXACT_CAP;

    // The sketch algebra the SLO cells rely on; the checks on sketch
    // JSON are in `sketch::tests`.
    fn sketch_of(values: &[u64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.observe(v);
        }
        s
    }

    /// Nearest-rank percentile over the raw values, the exact-mode
    /// ground truth.
    fn nearest_rank(values: &[u64], ppm: u64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((ppm as u128 * sorted.len() as u128).div_ceil(1_000_000) as usize)
            .clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn exact_mode_matches_sorted_percentiles() {
        let values = [400u64, 100, 900, 250, 30, 30, 5_000_000, 777];
        let sketch = sketch_of(&values);
        assert!(sketch.is_exact());
        for ppm in [
            10_000, 250_000, 500_000, 900_000, 950_000, 990_000, 1_000_000,
        ] {
            assert_eq!(
                sketch.quantile_ppm(ppm),
                nearest_rank(&values, ppm),
                "ppm {ppm}"
            );
        }
        assert_eq!(sketch.max_us(), 5_000_000);
        assert_eq!(sketch.count(), 8);
    }

    #[test]
    fn collapse_happens_exactly_past_the_cap() {
        let mut sketch = QuantileSketch::new();
        for i in 0..SKETCH_EXACT_CAP as u64 {
            sketch.observe(i * 1_000);
        }
        assert!(sketch.is_exact(), "at the cap the sketch is still exact");
        sketch.observe(u64::MAX);
        assert!(!sketch.is_exact(), "one past the cap collapses");
        assert_eq!(sketch.count(), SKETCH_EXACT_CAP as u64 + 1);
        assert_eq!(sketch.quantile_ppm(1_000_000), u64::MAX, "overflow → max");
    }

    #[test]
    fn merge_matches_single_stream() {
        let a = [12u64, 90_000, 3, 550, 1_000_000];
        let b = [7u64, 7, 2_000, 123_456_789];
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let mut both: Vec<u64> = a.iter().chain(&b).copied().collect();
        both.sort_unstable();
        assert_eq!(merged, sketch_of(&both));
    }

    #[test]
    fn merge_is_associative_and_commutative_across_the_collapse() {
        // Three shards that only collapse once combined.
        let a: Vec<u64> = (0..30).map(|i| i * 17).collect();
        let b: Vec<u64> = (0..30).map(|i| i * 1_003).collect();
        let c: Vec<u64> = (0..30).map(|i| i * 999_999).collect();
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));

        let mut ab_c = sa.clone();
        ab_c.merge(&sb);
        ab_c.merge(&sc);
        let mut a_bc = sb.clone();
        a_bc.merge(&sc);
        let mut left = sa.clone();
        left.merge(&a_bc);
        assert_eq!(ab_c, left, "associativity");

        let mut cba = sc.clone();
        cba.merge(&sb);
        cba.merge(&sa);
        assert_eq!(ab_c, cba, "commutativity");
        assert!(!ab_c.is_exact(), "90 samples must be collapsed");
    }

    #[test]
    fn empty_sketch_is_all_zeros() {
        let sketch = QuantileSketch::new();
        assert_eq!(sketch.quantile_ppm(500_000), 0);
        assert_eq!(sketch.mean_us(), 0);
        let mut merged = QuantileSketch::new();
        merged.merge(&sketch);
        assert_eq!(merged, QuantileSketch::new());
    }

    fn admitted(at_us: u64, kind: &str, queue_us: u64, exec_us: u64) -> SloSample {
        let mut s = SloSample::new(at_us, "solar-superstorm", kind);
        s.admitted = true;
        s.ok = true;
        s.queue_us = Some(queue_us);
        s.exec_us = Some(exec_us);
        s
    }

    fn shed(at_us: u64, kind: &str) -> SloSample {
        let mut s = SloSample::new(at_us, "solar-superstorm", kind);
        s.shed = true;
        s
    }

    #[test]
    fn intake_plus_outcome_equals_combined() {
        let combined = {
            let mut live = LiveStats::default();
            let mut s = admitted(0, "train", 10, 500);
            s.degraded = true;
            s.deadline_miss = true;
            live.record(&s);
            live.snapshot(0)
        };
        let split = {
            let mut live = LiveStats::default();
            let mut intake = SloSample::new(0, "solar-superstorm", "train");
            intake.admitted = true;
            live.record(&intake);
            let mut outcome = SloSample::new(0, "solar-superstorm", "train");
            outcome.ok = true;
            outcome.degraded = true;
            outcome.deadline_miss = true;
            outcome.queue_us = Some(10);
            outcome.exec_us = Some(500);
            live.record(&outcome);
            live.snapshot(0)
        };
        // Same cells; the sample count differs by construction.
        assert_eq!(combined.window, split.window);
        assert_eq!(combined.total, split.total);
    }

    #[test]
    fn window_slides_and_totals_accumulate() {
        let config = LiveConfig {
            window_us: 6_000_000,
            slices: 3,
        };
        let mut live = LiveStats::new(config);
        live.record(&admitted(0, "train", 5, 100));
        live.record(&admitted(1_000_000, "train", 5, 100));
        live.record(&shed(2_500_000, "quiz"));

        let early = live.snapshot(2_500_000);
        assert_eq!(early.window["solar-superstorm/train"].admitted, 2);
        assert_eq!(early.window["solar-superstorm/quiz"].shed, 1);

        // 9s later the first two slices have aged out of the window...
        live.record(&admitted(11_000_000, "train", 9, 900));
        let late = live.snapshot(11_000_000);
        assert_eq!(late.window["solar-superstorm/train"].admitted, 1);
        assert_eq!(late.window["solar-superstorm/train"].queue.max_us(), 9);
        assert!(!late.window.contains_key("solar-superstorm/quiz"));
        // ...but the cumulative ledger never forgets.
        assert_eq!(late.total["solar-superstorm/train"].admitted, 3);
        assert_eq!(late.total["solar-superstorm/quiz"].shed, 1);
        assert_eq!(late.samples, 4);
    }

    #[test]
    fn rates_are_integer_ppm() {
        let mut cell = SloCell::default();
        let mut s = SloSample::new(0, "s", "k");
        s.admitted = true;
        s.degraded = true;
        cell.apply(&s);
        cell.apply(&s);
        let mut r = SloSample::new(0, "s", "k");
        r.shed = true;
        cell.apply(&r);
        assert_eq!(cell.admission_ppm(), 666_666);
        assert_eq!(cell.shed_ppm(), 333_333);
        assert_eq!(cell.degraded_ppm(), 1_000_000);
        assert_eq!(fmt_ppm_pct(cell.shed_ppm()), "33.33%");
        assert_eq!(fmt_ppm_pct(1_000_000), "100.00%");
        assert_eq!(fmt_ppm_pct(0), "0.00%");
    }

    #[test]
    fn renders_are_replay_stable_and_round_trip() {
        let mut live = LiveStats::default();
        live.record(&admitted(0, "train", 0, 10_000_000));
        live.record(&shed(250_000, "train"));
        live.record(&admitted(500_000, "ask", 250_000, 20_000_000));
        let snap = live.snapshot(500_000);

        let text = snap.render_text();
        assert!(text.starts_with("live telemetry @ 500000µs"));
        assert!(text.contains("solar-superstorm/train"));
        assert!(text.contains("shed=1"));
        let prom = snap.render_prometheus();
        assert!(prom.contains(
            "ira_serve_shed_total{scope=\"total\",scenario=\"solar-superstorm\",kind=\"train\"} 1"
        ));
        assert!(prom.contains("quantile=\"0.99\""));

        // Wire round-trip through the vendored serde.
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: LiveSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(back, snap);
        assert_eq!(back.render_text(), text);

        // Replaying the same samples renders the same bytes.
        let mut replay = LiveStats::default();
        replay.record(&admitted(0, "train", 0, 10_000_000));
        replay.record(&shed(250_000, "train"));
        replay.record(&admitted(500_000, "ask", 250_000, 20_000_000));
        assert_eq!(replay.snapshot(500_000).render_text(), text);
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let snap = LiveStats::default().snapshot(0);
        assert!(snap.render_text().contains("(no samples)"));
    }

    #[test]
    fn a_snapshot_with_a_malformed_sketch_is_rejected() {
        let mut live = LiveStats::default();
        live.record(&admitted(0, "train", 5, 500));
        let json = serde_json::to_string(&live.snapshot(0)).unwrap();
        // The queue sketch claims one value but holds none: rendering
        // it would index past the end, so parsing must refuse it.
        let bad = json.replacen("\"exact\":[5]", "\"exact\":[]", 1);
        assert_ne!(bad, json);
        let err = serde_json::from_str::<LiveSnapshot>(&bad).unwrap_err();
        assert!(err.to_string().contains("invalid QuantileSketch"), "{err}");
    }
}
