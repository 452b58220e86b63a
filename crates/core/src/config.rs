//! Agent configuration.

use ira_agentmem::StoreConfig;
use ira_services::{IraError, IraResult};

/// Maximum self-learning rounds per query.
pub(crate) const MAX_ROUNDS: u32 = 4;

/// Maximum searches proposed per self-learning round.
pub(crate) const SEARCHES_PER_ROUND: usize = 4;

/// The simulated cost in microseconds of one model call, charged to the
/// session's virtual clock after every inference. A real agent's wall
/// time is dominated by API calls; these constants model a GPT-4-class
/// endpoint: ~1.2 s request overhead, ~0.1 ms per prompt token
/// ingested, ~35 ms per completion token generated.
pub(crate) fn inference_us(prompt_tokens: usize, completion_tokens: usize) -> u64 {
    const REQUEST_US: u64 = 1_200_000;
    const PER_PROMPT_TOKEN_US: u64 = 100;
    const PER_COMPLETION_TOKEN_US: u64 = 35_000;
    REQUEST_US
        + PER_PROMPT_TOKEN_US * prompt_tokens as u64
        + PER_COMPLETION_TOKEN_US * completion_tokens as u64
}

/// Configuration of the research agent and its self-learning loop.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// Knowledge entries loaded into the prompt per question.
    pub retrieval_k: usize,
    /// Confidence threshold (1–10) at which a query counts as
    /// answerable — the paper's example uses 7.
    pub confidence_threshold: u8,
    /// Two-pass retrieval: the model reads the question-retrieved
    /// context, names its knowledge gaps, and the gap queries'
    /// vocabulary joins the retrieval query. On by default — the paper
    /// only says knowledge is "automatically loaded" into the prompt;
    /// question-only top-k retrieval dilutes as the memory grows (see
    /// the A1 ablation, which measures both).
    pub query_expansion: bool,
    /// Knowledge-memory behaviour (capacity, retrieval weights).
    pub memory: StoreConfig,
    /// Crawler extension of the Auto-GPT loop: "Related:" links
    /// followed per fetched page (0, the paper's baseline, follows
    /// none).
    pub crawl_links: usize,
}

impl AgentConfig {
    /// Range-check the fields a run cannot work with out of range
    /// (threshold, retrieval width). Call it where outside input, such
    /// as a CLI flag, becomes a config. Errors carry the
    /// `IraError::Config` kind and name the offending field.
    pub fn validate(&self) -> IraResult<()> {
        if self.confidence_threshold == 0 || self.confidence_threshold > 10 {
            return Err(IraError::config("confidence_threshold must be in 1..=10"));
        }
        if self.retrieval_k == 0 {
            return Err(IraError::config("retrieval_k must be at least 1"));
        }
        Ok(())
    }
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            retrieval_k: 10,
            confidence_threshold: 7,
            query_expansion: true,
            memory: StoreConfig::default(),
            crawl_links: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AgentConfig::default();
        assert_eq!(c.confidence_threshold, 7, "paper's example threshold");
        assert!(c.retrieval_k >= 4);
    }

    #[test]
    fn gpt4_latency_matches_the_historical_constants() {
        // These numbers used to be hard-coded in ResearchAgent::new;
        // the formula must not drift or every virtual-time result
        // changes.
        assert_eq!(inference_us(0, 0), 1_200_000);
        assert_eq!(inference_us(1000, 10), 1_200_000 + 100 * 1000 + 35_000 * 10);
    }

    #[test]
    fn validate_accepts_defaults_and_in_range_overrides() {
        AgentConfig::default().validate().unwrap();
        for threshold in [1, 10] {
            AgentConfig {
                confidence_threshold: threshold,
                ..AgentConfig::default()
            }
            .validate()
            .unwrap();
        }
    }

    #[test]
    fn validate_rejects_out_of_range_values() {
        let with = |set: fn(&mut AgentConfig)| {
            let mut config = AgentConfig::default();
            set(&mut config);
            config
        };
        for (config, field) in [
            (with(|c| c.confidence_threshold = 0), "confidence_threshold"),
            (
                with(|c| c.confidence_threshold = 11),
                "confidence_threshold",
            ),
            (with(|c| c.retrieval_k = 0), "retrieval_k"),
        ] {
            let err = config.validate().expect_err(field);
            assert_eq!(err.kind(), "config", "{field}");
            assert!(err.to_string().contains(field), "{err}");
        }
    }
}
