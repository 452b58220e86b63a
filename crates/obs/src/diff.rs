//! Regression diffing for profiles and metrics snapshots.
//!
//! Both inputs are flattened to sorted `key -> u64` maps and compared
//! under per-key **relative** tolerances. Any drift beyond tolerance —
//! in either direction — is reported: on a deterministic virtual
//! timeline a speedup you didn't make is just as suspicious as a
//! slowdown, and `ira trace diff` defaults to zero tolerance precisely
//! because drift of any kind means the workload changed.

use std::collections::BTreeMap;

use crate::metrics::MetricsSnapshot;
use crate::profile::{Profile, SpanNode};

/// Per-key relative tolerances. A key matches the longest configured
/// prefix in `per_key`; otherwise `default_rel` applies. Tolerances
/// are fractions: `0.10` allows ±10 % drift; the default allows none.
#[derive(Debug, Clone, Default)]
pub struct Tolerances {
    pub default_rel: f64,
    pub per_key: BTreeMap<String, f64>,
}

impl Tolerances {
    /// The same relative tolerance for every key.
    pub fn uniform(rel: f64) -> Self {
        Tolerances {
            default_rel: rel,
            per_key: BTreeMap::new(),
        }
    }

    fn for_key(&self, key: &str) -> f64 {
        // Longest configured prefix wins.
        self.per_key
            .iter()
            .filter(|(prefix, _)| key.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, &rel)| rel)
            .unwrap_or(self.default_rel)
    }
}

/// One out-of-tolerance key.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    pub key: String,
    pub base: u64,
    pub current: u64,
    /// `(current - base) / base`; infinite when the key appeared or
    /// base was 0.
    pub rel_change: f64,
    /// The tolerance that was applied.
    pub tol: f64,
}

/// A stable, key-sorted regression report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    pub regressions: Vec<DiffEntry>,
    /// Number of keys compared (union of both sides).
    pub compared: usize,
}

impl DiffReport {
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// One line per offending key, then a verdict line. Deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.regressions {
            let change = if entry.rel_change.is_finite() {
                format!("{:+.2}%", entry.rel_change * 100.0)
            } else {
                "new/gone".to_string()
            };
            out.push_str(&format!(
                "REGRESSION {}: {} -> {} ({change}, tol {:.2}%)\n",
                entry.key,
                entry.base,
                entry.current,
                entry.tol * 100.0
            ));
        }
        if self.is_clean() {
            out.push_str(&format!("OK: {} keys within tolerance\n", self.compared));
        } else {
            out.push_str(&format!(
                "FAIL: {} of {} keys out of tolerance\n",
                self.regressions.len(),
                self.compared
            ));
        }
        out
    }
}

/// Compare two flattened maps. Keys present on only one side compare
/// against 0. Equal zeros are skipped.
pub fn diff_flat(
    base: &BTreeMap<String, u64>,
    current: &BTreeMap<String, u64>,
    tol: &Tolerances,
) -> DiffReport {
    let mut keys: Vec<&String> = base.keys().chain(current.keys()).collect();
    keys.sort();
    keys.dedup();

    let mut report = DiffReport {
        compared: keys.len(),
        ..DiffReport::default()
    };
    for key in keys {
        let b = base.get(key).copied().unwrap_or(0);
        let c = current.get(key).copied().unwrap_or(0);
        if b == c {
            continue;
        }
        // A key that appears from or collapses to zero is a
        // categorical change — no finite tolerance forgives it.
        let rel = if b == 0 {
            f64::INFINITY
        } else if c == 0 {
            f64::NEG_INFINITY
        } else {
            (c as f64 - b as f64) / b as f64
        };
        let allowed = tol.for_key(key);
        if rel.abs() > allowed {
            report.regressions.push(DiffEntry {
                key: key.clone(),
                base: b,
                current: c,
                rel_change: rel,
                tol: allowed,
            });
        }
    }
    report
}

/// Flatten a profile into diffable scalars:
/// `stage.<key>.{count,inclusive_us,exclusive_us,max_us}`,
/// `session.<n>.{total_us,roots,spans}`, `ops.<key>`, `events`,
/// `sessions`.
pub fn flatten_profile(profile: &Profile) -> BTreeMap<String, u64> {
    let mut flat = BTreeMap::new();
    flat.insert("events".to_string(), profile.events);
    flat.insert("sessions".to_string(), profile.sessions.len() as u64);
    for (key, agg) in &profile.stages {
        flat.insert(format!("stage.{key}.count"), agg.count);
        flat.insert(format!("stage.{key}.inclusive_us"), agg.inclusive_us);
        flat.insert(format!("stage.{key}.exclusive_us"), agg.exclusive_us);
        flat.insert(format!("stage.{key}.max_us"), agg.max_us);
    }
    for sp in &profile.sessions {
        let n = sp.session;
        flat.insert(format!("session.{n}.total_us"), sp.total_us);
        flat.insert(format!("session.{n}.roots"), sp.roots.len() as u64);
        let mut spans = 0u64;
        for root in &sp.roots {
            spans += count_spans(root);
        }
        flat.insert(format!("session.{n}.spans"), spans);
    }
    for (key, v) in &profile.ops {
        flat.insert(format!("ops.{key}"), *v);
    }
    flat
}

fn count_spans(node: &SpanNode) -> u64 {
    1 + node.children.iter().map(count_spans).sum::<u64>()
}

/// Flatten a metrics snapshot:
/// `counter.<key>`, `gauge.<key>`, `hist.<key>.{count,sum_us,max_us}`.
pub fn flatten_snapshot(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    let mut flat = BTreeMap::new();
    for (key, v) in &snap.counters {
        flat.insert(format!("counter.{key}"), *v);
    }
    for (key, v) in &snap.gauges {
        flat.insert(format!("gauge.{key}"), *v);
    }
    for (key, hist) in &snap.histograms {
        flat.insert(format!("hist.{key}.count"), hist.count());
        flat.insert(format!("hist.{key}.sum_us"), hist.sum_us());
        flat.insert(format!("hist.{key}.max_us"), hist.max_us());
    }
    flat
}

/// Flatten an arbitrary JSON document into diffable integral scalars
/// with dotted keys (`levels.0.outcomes.rejected`). Integers (and
/// booleans as 0/1) are kept; floats and strings are skipped — in a
/// bench report those carry host timing (wall ms, throughput), which
/// is exactly what a deterministic diff must ignore. The backend of
/// `ira bench diff`.
pub fn flatten_json(value: &serde::Value) -> BTreeMap<String, u64> {
    let mut flat = BTreeMap::new();
    flatten_json_into(&mut flat, String::new(), value);
    flat
}

fn flatten_json_into(flat: &mut BTreeMap<String, u64>, prefix: String, value: &serde::Value) {
    let join = |suffix: &str| {
        if prefix.is_empty() {
            suffix.to_string()
        } else {
            format!("{prefix}.{suffix}")
        }
    };
    match value {
        serde::Value::Object(map) => {
            for (key, child) in map {
                flatten_json_into(flat, join(key), child);
            }
        }
        serde::Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten_json_into(flat, join(&i.to_string()), child);
            }
        }
        serde::Value::U64(v) => {
            flat.insert(prefix, *v);
        }
        serde::Value::I64(v) => {
            if *v >= 0 {
                flat.insert(prefix, *v as u64);
            }
        }
        serde::Value::Bool(v) => {
            flat.insert(prefix, u64::from(*v));
        }
        // Floats are host-dependent timing; strings aren't scalars.
        serde::Value::F64(_) | serde::Value::String(_) | serde::Value::Null => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{stage, TraceEvent};
    use crate::profile::fold_trace;

    fn profile_with_llm_call(dur: u64) -> Profile {
        let events = vec![
            TraceEvent::span(0, 10, stage::LLM, "call", "", dur).with_ids(2, 1),
            TraceEvent::span(0, 0, stage::CYCLE, "goal", "", dur + 40).with_ids(1, 0),
        ];
        fold_trace(&events)
    }

    #[test]
    fn identical_profiles_are_clean_at_zero_tolerance() {
        let a = profile_with_llm_call(100);
        let report = diff_flat(
            &flatten_profile(&a),
            &flatten_profile(&profile_with_llm_call(100)),
            &Tolerances::default(),
        );
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.render().starts_with("OK:"));
    }

    #[test]
    fn ten_percent_regression_is_caught_and_named() {
        let base = profile_with_llm_call(100);
        let slow = profile_with_llm_call(110); // +10 % llm virtual time
        let report = diff_flat(
            &flatten_profile(&base),
            &flatten_profile(&slow),
            &Tolerances::default(),
        );
        assert!(!report.is_clean());
        let keys: Vec<&str> = report.regressions.iter().map(|e| e.key.as_str()).collect();
        assert!(
            keys.contains(&"stage.llm.call.inclusive_us"),
            "offending key named: {keys:?}"
        );
        let rendered = report.render();
        assert!(rendered.contains("stage.llm.call.inclusive_us"));
        assert!(rendered.contains("+10.00%"));
        assert!(rendered.contains("FAIL:"));
    }

    #[test]
    fn tolerance_absorbs_small_drift_but_not_large() {
        let base = profile_with_llm_call(100);
        let slow = profile_with_llm_call(110);
        let lenient = diff_flat(
            &flatten_profile(&base),
            &flatten_profile(&slow),
            &Tolerances::uniform(0.15),
        );
        assert!(lenient.is_clean(), "{}", lenient.render());
        let strict = diff_flat(
            &flatten_profile(&base),
            &flatten_profile(&slow),
            &Tolerances::uniform(0.05),
        );
        assert!(!strict.is_clean());
    }

    #[test]
    fn speedups_also_trip_a_zero_tolerance_gate() {
        let base = profile_with_llm_call(100);
        let fast = profile_with_llm_call(90);
        let report = diff_flat(
            &flatten_profile(&base),
            &flatten_profile(&fast),
            &Tolerances::default(),
        );
        assert!(!report.is_clean(), "unexpected speedup must be visible");
        assert!(report.regressions.iter().any(|e| e.rel_change < 0.0));
    }

    #[test]
    fn per_key_tolerances_use_longest_prefix() {
        let mut tol = Tolerances::uniform(0.0);
        tol.per_key.insert("stage.llm".into(), 0.5);
        tol.per_key.insert("stage.llm.call.max_us".into(), 0.0);
        assert_eq!(tol.for_key("stage.llm.call.inclusive_us"), 0.5);
        assert_eq!(tol.for_key("stage.llm.call.max_us"), 0.0);
        assert_eq!(tol.for_key("stage.fetch.ok.count"), 0.0);
    }

    #[test]
    fn appearing_and_vanishing_keys_are_flagged() {
        let mut base = BTreeMap::new();
        base.insert("ops.old".to_string(), 5u64);
        let mut current = BTreeMap::new();
        current.insert("ops.new".to_string(), 3u64);
        let report = diff_flat(&base, &current, &Tolerances::uniform(10.0));
        // Infinite relative change beats any finite tolerance.
        assert_eq!(report.regressions.len(), 2);
        assert!(report.render().contains("new/gone"));
    }

    #[test]
    fn snapshot_diff_flags_counter_drift() {
        let mut base = MetricsSnapshot::default();
        base.counters.insert("net.cache_hit".to_string(), 10);
        let mut cur = base.clone();
        cur.counters.insert("net.cache_hit".to_string(), 12);
        let flat = flatten_snapshot(&base);
        let report = diff_flat(&flat, &flatten_snapshot(&cur), &Tolerances::default());
        assert_eq!(report.regressions[0].key, "counter.net.cache_hit");
        assert!(diff_flat(&flat, &flat, &Tolerances::default()).is_clean());
    }

    #[test]
    fn flatten_json_keeps_integers_and_skips_host_timing() {
        let doc = r#"{
            "workload": "serve",
            "wall_ms": 12.75,
            "levels": [
                {"workers": 1, "outcomes": {"ok": 10, "rejected": 2}, "throughput_rps": 99.5},
                {"workers": 4, "outcomes": {"ok": 10, "rejected": 2}}
            ],
            "deterministic": true
        }"#;
        let value: serde::Value = serde_json::from_str(doc).unwrap();
        let flat = flatten_json(&value);
        assert_eq!(flat.get("levels.0.workers"), Some(&1));
        assert_eq!(flat.get("levels.1.outcomes.rejected"), Some(&2));
        assert_eq!(flat.get("deterministic"), Some(&1));
        assert!(!flat.contains_key("wall_ms"), "floats are host timing");
        assert!(!flat.contains_key("levels.0.throughput_rps"));
        assert!(!flat.contains_key("workload"), "strings are not scalars");
        // A drift in an integral key is caught by the normal machinery.
        let mut drifted = flat.clone();
        drifted.insert("levels.0.outcomes.rejected".to_string(), 3);
        let report = diff_flat(&flat, &drifted, &Tolerances::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key, "levels.0.outcomes.rejected");
    }

    #[test]
    fn report_is_key_sorted_and_stable() {
        let mut base = BTreeMap::new();
        base.insert("z".to_string(), 1u64);
        base.insert("a".to_string(), 1u64);
        let mut cur = BTreeMap::new();
        cur.insert("z".to_string(), 2u64);
        cur.insert("a".to_string(), 2u64);
        let report = diff_flat(&base, &cur, &Tolerances::default());
        let keys: Vec<&str> = report.regressions.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["a", "z"]);
        assert_eq!(
            report.render(),
            diff_flat(&base, &cur, &Tolerances::default()).render()
        );
    }
}
