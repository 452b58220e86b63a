//! Error types: the [`ServiceError`] the web-facing traits surface,
//! and the workspace-wide [`IraError`] every per-crate error converts
//! into.

use serde::{Deserialize, Serialize};
use thiserror::Error;

/// Result alias over the workspace error.
pub type IraResult<T> = Result<T, IraError>;

/// The workspace-level error: every per-crate error (`NetError`,
/// `StoreError`, `ServiceError`, io/json failures) converts into it via
/// `?`, and [`IraError::kind`] gives a stable machine-readable code for
/// programmatic handling (exit codes, metrics labels) that does not
/// depend on `Display` text.
#[derive(Debug, Error)]
pub enum IraError {
    /// A search/fetch service call failed.
    #[error("{0}")]
    Service(#[from] ServiceError),

    /// The simulated network reported a failure.
    #[error("{0}")]
    Net(#[from] ira_simnet::NetError),

    /// The knowledge store could not be loaded or persisted.
    #[error("{0}")]
    Store(#[from] ira_agentmem::store::StoreError),

    /// Host filesystem failure outside the knowledge store.
    #[error("io error: {0}")]
    Io(#[from] std::io::Error),

    /// JSON (de)serialization failure outside the knowledge store.
    #[error("json error: {0}")]
    Json(#[from] serde_json::Error),

    /// A configuration value failed validation.
    #[error("invalid configuration: {0}")]
    Config(String),

    /// User-supplied input (CLI arguments, trace files) failed to parse.
    #[error("parse error: {0}")]
    Parse(String),

    /// The serve layer shed this request under admission control.
    /// `retry_after_us` is the virtual-time hint after which a resubmit
    /// would be admitted.
    #[error("overloaded: {reason} (retry after {retry_after_us}us)")]
    Overloaded { reason: String, retry_after_us: u64 },

    /// A request's virtual-time deadline expired before the session
    /// finished; any partial result travels alongside this marker.
    #[error("deadline exceeded: {elapsed_us}us elapsed of {deadline_us}us budget")]
    DeadlineExceeded { deadline_us: u64, elapsed_us: u64 },

    /// A session panicked and was isolated by the serve supervisor;
    /// the panic payload's message is preserved.
    #[error("session panicked: {message}")]
    SessionPanicked { message: String },
}

impl IraError {
    /// Build a configuration-validation error.
    pub fn config(message: impl Into<String>) -> Self {
        IraError::Config(message.into())
    }

    /// Build a user-input parse error.
    pub fn parse(message: impl Into<String>) -> Self {
        IraError::Parse(message.into())
    }

    /// Build an admission-control rejection.
    pub fn overloaded(reason: impl Into<String>, retry_after_us: u64) -> Self {
        IraError::Overloaded {
            reason: reason.into(),
            retry_after_us,
        }
    }

    /// Build a deadline-expiry error.
    pub fn deadline_exceeded(deadline_us: u64, elapsed_us: u64) -> Self {
        IraError::DeadlineExceeded {
            deadline_us,
            elapsed_us,
        }
    }

    /// Build a supervisor-caught session panic.
    pub fn session_panicked(message: impl Into<String>) -> Self {
        IraError::SessionPanicked {
            message: message.into(),
        }
    }

    /// Stable machine-readable code for this error. Codes are part of
    /// the public API: match on these, not on `Display` output.
    pub fn kind(&self) -> &'static str {
        use ira_simnet::NetError;
        match self {
            IraError::Service(e) if e.is_source_unavailable() => "service.unavailable",
            IraError::Service(_) => "service.transport",
            IraError::Net(e) => match e {
                NetError::InvalidUrl(_) => "net.invalid_url",
                NetError::HostNotFound(_) => "net.host_not_found",
                NetError::Timeout { .. } => "net.timeout",
                NetError::ConnectionReset { .. } => "net.connection_reset",
                NetError::RateLimited { .. } => "net.rate_limited",
                NetError::RetriesExhausted { .. } => "net.retries_exhausted",
                NetError::HttpStatus { .. } => "net.http_status",
                NetError::BodyNotText { .. } => "net.body_not_text",
                NetError::CircuitOpen { .. } => "net.circuit_open",
            },
            IraError::Store(_) => "store",
            IraError::Io(_) => "io",
            IraError::Json(_) => "json",
            IraError::Config(_) => "config",
            IraError::Parse(_) => "parse",
            IraError::Overloaded { .. } => "serve.overloaded",
            IraError::DeadlineExceeded { .. } => "serve.deadline_exceeded",
            IraError::SessionPanicked { .. } => "serve.session_panicked",
        }
    }
}

/// The serializable wire form of an [`IraError`]: the stable `kind()`
/// code plus the human-readable message. This is what typed error
/// responses (e.g. the serve layer's JSONL protocol) carry — it
/// round-trips through serde where `IraError` itself (which wraps
/// non-serializable io errors) cannot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable code, identical to [`IraError::kind`].
    pub kind: String,
    /// Display text of the originating error.
    pub message: String,
}

impl From<&IraError> for WireError {
    fn from(err: &IraError) -> Self {
        WireError {
            kind: err.kind().to_string(),
            message: err.to_string(),
        }
    }
}

/// Failure of a search or fetch call, classified the way the agent
/// loop reacts to it: an unavailable source is *rerouted around*
/// (degradation), anything else is a hard error charged to the run.
#[derive(Debug, Clone, PartialEq, Eq, Error)]
pub enum ServiceError {
    /// The source's host is currently unavailable (e.g. its circuit
    /// breaker is open and the call failed fast). The agent should
    /// skip this source and continue down the ranking.
    #[error("source unavailable: {host}")]
    SourceUnavailable { host: String },

    /// Any other transport/decoding failure, carrying the backend's
    /// own message.
    #[error("{0}")]
    Transport(String),
}

impl ServiceError {
    /// Whether the agent should treat this as a reroutable outage
    /// rather than a hard error.
    pub fn is_source_unavailable(&self) -> bool {
        matches!(self, ServiceError::SourceUnavailable { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helper() {
        assert!(ServiceError::SourceUnavailable {
            host: "a.test".into()
        }
        .is_source_unavailable());
        assert!(!ServiceError::Transport("boom".into()).is_source_unavailable());
    }

    #[test]
    fn ira_error_converts_from_every_layer() {
        let from_net: IraError = ira_simnet::NetError::HostNotFound("x.test".into()).into();
        assert_eq!(from_net.kind(), "net.host_not_found");

        let from_service: IraError = ServiceError::SourceUnavailable {
            host: "a.test".into(),
        }
        .into();
        assert_eq!(from_service.kind(), "service.unavailable");

        let from_io: IraError = std::io::Error::new(std::io::ErrorKind::NotFound, "missing").into();
        assert_eq!(from_io.kind(), "io");

        let from_json: IraError = serde_json::from_str::<u32>("not json").unwrap_err().into();
        assert_eq!(from_json.kind(), "json");

        assert_eq!(IraError::config("threshold out of range").kind(), "config");
        assert_eq!(IraError::parse("bad flag").kind(), "parse");
    }

    #[test]
    fn question_mark_conversion_compiles() {
        fn load(path: &std::path::Path) -> IraResult<String> {
            Ok(std::fs::read_to_string(path)?)
        }
        assert_eq!(
            load(std::path::Path::new("/definitely/not/here"))
                .unwrap_err()
                .kind(),
            "io"
        );
    }

    #[test]
    fn net_kinds_are_stable_codes() {
        use ira_simnet::{Duration, NetError};
        let cases: Vec<(IraError, &str)> = vec![
            (
                NetError::Timeout {
                    host: "a".into(),
                    elapsed: Duration::from_millis(5),
                }
                .into(),
                "net.timeout",
            ),
            (
                NetError::CircuitOpen {
                    host: "a".into(),
                    retry_in: Duration::from_secs(1),
                }
                .into(),
                "net.circuit_open",
            ),
            (
                NetError::RetriesExhausted {
                    attempts: 3,
                    last: Box::new(NetError::ConnectionReset { host: "a".into() }),
                }
                .into(),
                "net.retries_exhausted",
            ),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
        }
    }

    /// One sample of *every* `IraError` variant. The match below has no
    /// wildcard arm, so adding a variant without updating this list (and
    /// therefore without deciding its `kind()` code and expected entry in
    /// `every_variant_has_a_stable_unique_code`) fails to compile.
    fn one_of_each() -> Vec<IraError> {
        let samples = vec![
            IraError::Service(ServiceError::Transport("boom".into())),
            IraError::Net(ira_simnet::NetError::HostNotFound("x.test".into())),
            IraError::Store(ira_agentmem::store::StoreError::Corrupt(
                serde_json::from_str::<u32>("{").unwrap_err(),
            )),
            IraError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
            IraError::Json(serde_json::from_str::<u32>("x").unwrap_err()),
            IraError::Config("bad threshold".into()),
            IraError::Parse("bad flag".into()),
            IraError::Overloaded {
                reason: "queue full".into(),
                retry_after_us: 250_000,
            },
            IraError::DeadlineExceeded {
                deadline_us: 30_000_000,
                elapsed_us: 31_500_000,
            },
            IraError::SessionPanicked {
                message: "index out of bounds".into(),
            },
        ];
        // Exhaustiveness guard: every variant above, no wildcard.
        for s in &samples {
            match s {
                IraError::Service(_)
                | IraError::Net(_)
                | IraError::Store(_)
                | IraError::Io(_)
                | IraError::Json(_)
                | IraError::Config(_)
                | IraError::Parse(_)
                | IraError::Overloaded { .. }
                | IraError::DeadlineExceeded { .. }
                | IraError::SessionPanicked { .. } => {}
            }
        }
        samples
    }

    #[test]
    fn every_variant_has_a_stable_unique_code() {
        let codes: Vec<&str> = one_of_each().iter().map(|e| e.kind()).collect();
        assert_eq!(
            codes,
            vec![
                "service.transport",
                "net.host_not_found",
                "store",
                "io",
                "json",
                "config",
                "parse",
                "serve.overloaded",
                "serve.deadline_exceeded",
                "serve.session_panicked",
            ]
        );
        let unique: std::collections::BTreeSet<&str> = codes.iter().copied().collect();
        assert_eq!(unique.len(), codes.len(), "kind codes must be unique");
    }

    #[test]
    fn serve_kind_constructors_and_messages() {
        let o = IraError::overloaded("rate limited", 125_000);
        assert_eq!(o.kind(), "serve.overloaded");
        assert!(o.to_string().contains("125000us"));

        let d = IraError::deadline_exceeded(1_000_000, 1_200_000);
        assert_eq!(d.kind(), "serve.deadline_exceeded");
        assert!(d.to_string().contains("1200000us elapsed"));

        let p = IraError::session_panicked("attempt to divide by zero");
        assert_eq!(p.kind(), "serve.session_panicked");
        assert!(p.to_string().contains("divide by zero"));
    }

    #[test]
    fn wire_error_round_trips_every_kind_through_serde() {
        for err in one_of_each() {
            let wire = WireError::from(&err);
            assert_eq!(wire.kind, err.kind());
            assert_eq!(wire.message, err.to_string());
            let json = serde_json::to_string(&wire).unwrap();
            let back: WireError = serde_json::from_str(&json).unwrap();
            assert_eq!(back, wire, "WireError must round-trip losslessly");
        }
    }

    #[test]
    fn display_carries_the_message() {
        let e = ServiceError::Transport("connection to x.test reset".into());
        assert_eq!(e.to_string(), "connection to x.test reset");
        let u = ServiceError::SourceUnavailable {
            host: "news.test".into(),
        };
        assert!(u.to_string().contains("news.test"));
    }
}
