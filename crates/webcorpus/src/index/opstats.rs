//! Process-wide deterministic lookup-op counters for corpus serving.
//!
//! Same philosophy as `ira_simllm::lexicon::ops`: counts are *work
//! units* (lookup calls), not timers, so the same workload always
//! produces the same counts and a perf baseline built on them can be
//! enforced with strict equality in CI.

use std::sync::atomic::{AtomicU64, Ordering};

static LOOKUP_CALLS: AtomicU64 = AtomicU64::new(0);

/// One host+path document lookup was served.
pub fn lookup_call() {
    LOOKUP_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time reading of the lookup counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LookupSnapshot {
    pub lookup_calls: u64,
}

impl LookupSnapshot {
    /// Counter-wise difference since `earlier` (saturating).
    pub fn since(&self, earlier: &LookupSnapshot) -> LookupSnapshot {
        LookupSnapshot {
            lookup_calls: self.lookup_calls.saturating_sub(earlier.lookup_calls),
        }
    }
}

pub fn snapshot() -> LookupSnapshot {
    LookupSnapshot {
        lookup_calls: LOOKUP_CALLS.load(Ordering::Relaxed),
    }
}

/// Zero every counter. Benchmarks call this between phases; tests must
/// NOT rely on it (tests in one binary run concurrently) and should
/// measure snapshot deltas instead.
pub fn reset() {
    LOOKUP_CALLS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_as_deltas() {
        let before = snapshot();
        lookup_call();
        let delta = snapshot().since(&before);
        // Other tests may add concurrently; ours is a lower bound.
        assert!(delta.lookup_calls >= 1);
    }
}
