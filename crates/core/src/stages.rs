//! Stage timing for the Figure 1 pipeline split: the *knowledge
//! retrieval stage* (searching, fetching, memorising over the network)
//! versus the *reasoning stage* (prompt assembly and model inference).

use serde::{Deserialize, Serialize};

/// Accumulated stage timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Virtual network time spent retrieving, microseconds.
    pub retrieval_virtual_us: u64,
    /// Virtual model-inference time charged by the LLM latency hook,
    /// microseconds.
    pub reasoning_virtual_us: u64,
    /// Number of retrieval operations.
    pub retrieval_ops: u64,
    /// Number of reasoning (LLM) operations.
    pub reasoning_ops: u64,
}

impl StageStats {
    /// Fraction of the agent's virtual time attributable to the
    /// knowledge-retrieval stage. Both stages are external-I/O
    /// bound — web latency on one side, model inference on the other —
    /// which is the Figure 1 story: the agent's wall clock is spent
    /// waiting on the outside world, so knowledge must be memorised
    /// rather than re-retrieved.
    pub fn retrieval_share(&self) -> f64 {
        let retrieval = self.retrieval_virtual_us as f64;
        let reasoning = self.reasoning_virtual_us as f64;
        let total = retrieval + reasoning;
        if total == 0.0 {
            0.0
        } else {
            retrieval / total
        }
    }

    pub fn merge(&mut self, other: &StageStats) {
        self.retrieval_virtual_us += other.retrieval_virtual_us;
        self.reasoning_virtual_us += other.reasoning_virtual_us;
        self.retrieval_ops += other.retrieval_ops;
        self.reasoning_ops += other.reasoning_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retrieval_share_is_bounded_and_sensible() {
        let s = StageStats {
            retrieval_virtual_us: 950,
            reasoning_virtual_us: 50,
            retrieval_ops: 3,
            reasoning_ops: 2,
        };
        assert!((s.retrieval_share() - 0.95).abs() < 1e-9);
        assert_eq!(StageStats::default().retrieval_share(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StageStats {
            retrieval_virtual_us: 10,
            reasoning_virtual_us: 3,
            retrieval_ops: 1,
            reasoning_ops: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.retrieval_virtual_us, 20);
        assert_eq!(a.reasoning_ops, 2);
    }
}
