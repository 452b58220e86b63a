//! Agent configuration.

use ira_agentmem::StoreConfig;
use ira_autogpt::{AutoGptConfig, Budget};
use ira_services::{IraError, IraResult};
use serde::{Deserialize, Serialize};

/// The simulated cost of one model call, charged to the session's
/// virtual clock after every inference. A real agent's wall time is
/// dominated by API calls; these constants model a GPT-4-class
/// endpoint (~1.2 s request overhead, ~0.1 ms per prompt token
/// ingested, ~35 ms per completion token generated). Ablations and
/// alternative backends swap in their own numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceLatency {
    /// Fixed per-request overhead, microseconds.
    pub request_us: u64,
    /// Cost per prompt token ingested, microseconds.
    pub per_prompt_token_us: u64,
    /// Cost per completion token generated, microseconds.
    pub per_completion_token_us: u64,
}

impl InferenceLatency {
    /// The GPT-4-class profile every experiment has used so far.
    pub const fn gpt4() -> Self {
        InferenceLatency {
            request_us: 1_200_000,
            per_prompt_token_us: 100,
            per_completion_token_us: 35_000,
        }
    }

    /// A free instantaneous model — useful for ablations that want to
    /// isolate network time.
    pub const fn zero() -> Self {
        InferenceLatency {
            request_us: 0,
            per_prompt_token_us: 0,
            per_completion_token_us: 0,
        }
    }

    /// Virtual microseconds one call with these token counts costs.
    pub fn charge_us(&self, prompt_tokens: usize, completion_tokens: usize) -> u64 {
        self.request_us
            + self.per_prompt_token_us * prompt_tokens as u64
            + self.per_completion_token_us * completion_tokens as u64
    }
}

impl Default for InferenceLatency {
    fn default() -> Self {
        InferenceLatency::gpt4()
    }
}

/// Configuration of the research agent and its self-learning loop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Knowledge entries loaded into the prompt per question.
    pub retrieval_k: usize,
    /// Confidence threshold (1–10) at which a query counts as
    /// answerable — the paper's example uses 7.
    pub confidence_threshold: u8,
    /// Maximum self-learning rounds per query.
    pub max_rounds: u32,
    /// Maximum searches proposed per self-learning round.
    pub searches_per_round: usize,
    /// Two-pass retrieval: the model reads the question-retrieved
    /// context, names its knowledge gaps, and the gap queries'
    /// vocabulary joins the retrieval query. On by default — the paper
    /// only says knowledge is "automatically loaded" into the prompt;
    /// question-only top-k retrieval dilutes as the memory grows (see
    /// the A1 ablation, which measures both).
    pub query_expansion: bool,
    /// Simulated model-call latency charged to the virtual clock.
    #[serde(default)]
    pub inference: InferenceLatency,
    /// Knowledge-memory behaviour (dedup threshold, retrieval weights).
    pub memory: StoreConfig,
    #[serde(skip, default = "default_autogpt")]
    pub autogpt: AutoGptConfig,
    #[serde(skip, default = "default_budget")]
    pub budget: Budget,
}

fn default_autogpt() -> AutoGptConfig {
    AutoGptConfig::default()
}

fn default_budget() -> Budget {
    Budget::standard()
}

impl AgentConfig {
    /// Range-check the fields a run cannot work with out of range
    /// (threshold, retrieval width, rounds, searches per round). Call it
    /// where outside input, such as a CLI flag, becomes a config.
    /// Errors carry the `IraError::Config` kind and name the offending
    /// field.
    pub fn validate(&self) -> IraResult<()> {
        if self.confidence_threshold == 0 || self.confidence_threshold > 10 {
            return Err(IraError::config("confidence_threshold must be in 1..=10"));
        }
        if self.retrieval_k == 0 {
            return Err(IraError::config("retrieval_k must be at least 1"));
        }
        if self.max_rounds == 0 {
            return Err(IraError::config("max_rounds must be at least 1"));
        }
        if self.searches_per_round == 0 {
            return Err(IraError::config("searches_per_round must be at least 1"));
        }
        Ok(())
    }
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            retrieval_k: 10,
            confidence_threshold: 7,
            max_rounds: 4,
            searches_per_round: 4,
            query_expansion: true,
            inference: InferenceLatency::default(),
            memory: StoreConfig::default(),
            autogpt: AutoGptConfig::default(),
            budget: Budget::standard(),
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
        assert!(c.max_rounds >= 1);
    }

    #[test]
    fn serde_round_trips_the_serializable_part() {
        let c = AgentConfig {
            confidence_threshold: 9,
            ..AgentConfig::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: AgentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.confidence_threshold, 9);
        assert_eq!(back.retrieval_k, c.retrieval_k);
        assert_eq!(back.inference, c.inference);
    }

    #[test]
    fn gpt4_latency_matches_the_historical_constants() {
        // These numbers used to be hard-coded in ResearchAgent::new;
        // the formula must not drift or every virtual-time result
        // changes.
        let l = InferenceLatency::gpt4();
        assert_eq!(l.charge_us(0, 0), 1_200_000);
        assert_eq!(l.charge_us(1000, 10), 1_200_000 + 100 * 1000 + 35_000 * 10);
        assert_eq!(InferenceLatency::default(), InferenceLatency::gpt4());
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
            (with(|c| c.max_rounds = 0), "max_rounds"),
            (with(|c| c.searches_per_round = 0), "searches_per_round"),
        ] {
            let err = config.validate().expect_err(field);
            assert_eq!(err.kind(), "config", "{field}");
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn old_configs_without_inference_still_deserialize() {
        // Knowledge/config files written before the field existed must
        // load with the GPT-4 default.
        let mut v: serde_json::Value = serde_json::to_value(&AgentConfig::default()).unwrap();
        v.as_object_mut().unwrap().remove("inference");
        let back: AgentConfig = serde_json::from_value(v).unwrap();
        assert_eq!(back.inference, InferenceLatency::gpt4());
    }
}
