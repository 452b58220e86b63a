//! The serve layer's JSONL wire protocol.
//!
//! One request per line in, one response per line out, in request
//! order. Responses are a pure function of the request line (plus the
//! server's static [`ServeConfig`]), so transcripts are byte-identical
//! across worker counts and repeated runs — the serve determinism
//! contract that CI enforces.
//!
//! [`ServeConfig`]: crate::ServeConfig

use ira_services::{IraError, WireError};
use serde::{Deserialize, Serialize, Value};

/// What kind of investigation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Train the session's agent through its role goals.
    Train,
    /// Train, then self-learn and answer the full incident quiz.
    Quiz,
    /// Train, then self-learn and answer one caller-supplied question.
    Ask,
    /// A deliberately poisoned request that panics inside the session —
    /// a chaos probe for the supervisor (tests, load generator).
    PanicProbe,
    /// Control-plane probe: returns the server's live telemetry
    /// snapshot ([`ira_obs::LiveSnapshot`]) as of this request's
    /// arrival. Never admitted against the token bucket, never shed,
    /// never runs a session.
    Stats,
}

impl RequestKind {
    /// Stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Train => "train",
            RequestKind::Quiz => "quiz",
            RequestKind::Ask => "ask",
            RequestKind::PanicProbe => "panic_probe",
            RequestKind::Stats => "stats",
        }
    }
}

// The wire spellings are part of the protocol, so the enums get manual
// serde impls (the derive would use the Rust variant names).
impl Serialize for RequestKind {
    fn serialize_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for RequestKind {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        match value.as_str() {
            Some("train") => Ok(RequestKind::Train),
            Some("quiz") => Ok(RequestKind::Quiz),
            Some("ask") => Ok(RequestKind::Ask),
            Some("panic_probe") => Ok(RequestKind::PanicProbe),
            Some("stats") => Ok(RequestKind::Stats),
            _ => Err(serde::Error::type_mismatch(
                "one of train|quiz|ask|panic_probe|stats",
                value,
            )),
        }
    }
}

/// Largest `distractors` a request may ask for. Every distinct value
/// generates a corpus and keeps it in the engine's cache for the
/// server's lifetime, so the count is bounded at intake; the bound sits
/// well above the largest corpus the benchmarks serve (6,000).
const MAX_DISTRACTORS: usize = 10_000;

/// Longest request `id`, in bytes. Responses echo the id; the longest
/// any bundled batch sends is 17 bytes (`r0999-panic_probe`).
const MAX_ID_BYTES: usize = 256;

/// Longest `question`, in bytes, checked before it is lowercased,
/// classified or tokenized. The longest quiz-bank question is 139 bytes.
const MAX_QUESTION_BYTES: usize = 4_096;

/// Longest raw request line, in bytes, checked before the line is
/// parsed. The longest line any bundled batch sends is 322 bytes (the
/// perfbench `serve_mix` batch; `ira serve --example` tops out at
/// 193). The bound sits far above both, and above lines whose only
/// fault is an over-long `id` or `question`, so those still get their
/// field's own validation error.
const MAX_LINE_BYTES: usize = 2 << 20;

fn default_distractors() -> usize {
    ira_webcorpus::CorpusConfig::default().distractor_count
}

fn default_scenario() -> String {
    ira_worldmodel::scenario::SOLAR_SUPERSTORM.to_string()
}

/// One investigation request, as parsed from a JSONL line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-chosen identifier, echoed on the response.
    pub id: String,
    pub kind: RequestKind,
    /// The question for [`RequestKind::Ask`]; ignored otherwise.
    #[serde(default)]
    pub question: Option<String>,
    /// Tenant seed: perturbs the session's network/model streams so
    /// distinct tenants get distinct (but each deterministic) runs.
    #[serde(default)]
    pub seed: u64,
    /// Corpus distractor count (part of the corpus cache key); at most
    /// 10,000, checked by [`ServeRequest::validate`].
    #[serde(default = "default_distractors")]
    pub distractors: usize,
    /// Registered scenario to investigate; the corpus and the quiz both
    /// follow it. Defaults to the canonical `solar-superstorm`.
    #[serde(default = "default_scenario")]
    pub scenario: String,
    /// `> 0` runs the session against a chaotic network with this
    /// fault intensity (seeded blackouts/brownouts mid-flight).
    #[serde(default)]
    pub fault_intensity: f64,
    /// Seed for the fault plan when `fault_intensity > 0`.
    #[serde(default)]
    pub fault_seed: u64,
    /// Virtual-time budget for the session, microseconds. Expiry
    /// returns a partial `degraded: true` response, not an error.
    /// `None` falls back to the server's default deadline (if any).
    #[serde(default)]
    pub deadline_us: Option<u64>,
    /// For [`RequestKind::PanicProbe`]: panic while the retry attempt
    /// index is below this value. `None` means every attempt panics.
    #[serde(default)]
    pub probe_panics: Option<u32>,
}

impl ServeRequest {
    /// A minimal request of the given kind.
    pub fn new(id: impl Into<String>, kind: RequestKind) -> Self {
        ServeRequest {
            id: id.into(),
            kind,
            question: None,
            seed: 0,
            distractors: default_distractors(),
            scenario: default_scenario(),
            fault_intensity: 0.0,
            fault_seed: 0,
            deadline_us: None,
            probe_panics: None,
        }
    }

    /// Structural validation before admission: errors here are the
    /// caller's fault and are never charged against the token bucket.
    pub fn validate(&self) -> Result<(), IraError> {
        if self.id.is_empty() {
            return Err(IraError::config("request id must be non-empty"));
        }
        if self.id.len() > MAX_ID_BYTES {
            return Err(IraError::config(format!(
                "request id must be at most {MAX_ID_BYTES} bytes, got {}",
                self.id.len()
            )));
        }
        let question = self.question.as_deref().unwrap_or("");
        if question.len() > MAX_QUESTION_BYTES {
            return Err(IraError::config(format!(
                "question must be at most {MAX_QUESTION_BYTES} bytes, got {}",
                question.len()
            )));
        }
        if self.kind == RequestKind::Ask && question.is_empty() {
            return Err(IraError::config("ask request needs a question"));
        }
        if self.distractors > MAX_DISTRACTORS {
            return Err(IraError::config(format!(
                "distractors must be at most {MAX_DISTRACTORS}, got {}",
                self.distractors
            )));
        }
        if !(0.0..=1.0).contains(&self.fault_intensity) {
            return Err(IraError::config("fault_intensity must be in [0, 1]"));
        }
        if ira_worldmodel::scenario::static_name(&self.scenario).is_none() {
            return Err(IraError::config(format!(
                "unknown scenario `{}`",
                self.scenario
            )));
        }
        Ok(())
    }
}

/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Completed within budget.
    Ok,
    /// Deadline expired mid-flight; `result` holds the partial work.
    Degraded,
    /// Shed by admission control before any session ran.
    Rejected,
    /// Session error (panic, invalid request) after retries.
    Failed,
}

impl ResponseStatus {
    /// Stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ResponseStatus::Ok => "ok",
            ResponseStatus::Degraded => "degraded",
            ResponseStatus::Rejected => "rejected",
            ResponseStatus::Failed => "failed",
        }
    }
}

impl Serialize for ResponseStatus {
    fn serialize_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for ResponseStatus {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        match value.as_str() {
            Some("ok") => Ok(ResponseStatus::Ok),
            Some("degraded") => Ok(ResponseStatus::Degraded),
            Some("rejected") => Ok(ResponseStatus::Rejected),
            Some("failed") => Ok(ResponseStatus::Failed),
            _ => Err(serde::Error::type_mismatch(
                "one of ok|degraded|rejected|failed",
                value,
            )),
        }
    }
}

/// Per-conclusion outcome inside a quiz payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuizConclusion {
    pub id: String,
    pub verdict: Option<String>,
    pub confidence: u8,
    pub consistent: bool,
}

/// Kind-specific result payload. On the wire this is internally
/// tagged: an object with a `"kind"` field naming the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponsePayload {
    Train {
        goals_completed: usize,
        goals_total: usize,
        memory_entries: usize,
    },
    Quiz {
        answered: usize,
        total: usize,
        consistent: usize,
        conclusions: Vec<QuizConclusion>,
    },
    Ask {
        text: String,
        verdict: Option<String>,
        confidence: u8,
    },
    /// A panic probe that survived (after `probe_panics` retries).
    Probe { survived_attempt: u32 },
    /// Live telemetry as of the stats request's arrival.
    Stats { snapshot: ira_obs::LiveSnapshot },
}

impl Serialize for ResponsePayload {
    fn serialize_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        let tag = |map: &mut std::collections::BTreeMap<String, Value>, name: &str| {
            map.insert("kind".to_string(), Value::String(name.to_string()));
        };
        match self {
            ResponsePayload::Train {
                goals_completed,
                goals_total,
                memory_entries,
            } => {
                tag(&mut map, "train");
                map.insert(
                    "goals_completed".to_string(),
                    goals_completed.serialize_value(),
                );
                map.insert("goals_total".to_string(), goals_total.serialize_value());
                map.insert(
                    "memory_entries".to_string(),
                    memory_entries.serialize_value(),
                );
            }
            ResponsePayload::Quiz {
                answered,
                total,
                consistent,
                conclusions,
            } => {
                tag(&mut map, "quiz");
                map.insert("answered".to_string(), answered.serialize_value());
                map.insert("total".to_string(), total.serialize_value());
                map.insert("consistent".to_string(), consistent.serialize_value());
                map.insert("conclusions".to_string(), conclusions.serialize_value());
            }
            ResponsePayload::Ask {
                text,
                verdict,
                confidence,
            } => {
                tag(&mut map, "ask");
                map.insert("text".to_string(), text.serialize_value());
                map.insert("verdict".to_string(), verdict.serialize_value());
                map.insert("confidence".to_string(), confidence.serialize_value());
            }
            ResponsePayload::Probe { survived_attempt } => {
                tag(&mut map, "probe");
                map.insert(
                    "survived_attempt".to_string(),
                    survived_attempt.serialize_value(),
                );
            }
            ResponsePayload::Stats { snapshot } => {
                tag(&mut map, "stats");
                map.insert("snapshot".to_string(), snapshot.serialize_value());
            }
        }
        Value::Object(map)
    }
}

impl Deserialize for ResponsePayload {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::type_mismatch("object for ResponsePayload", value))?;
        fn field<T: Deserialize>(
            obj: &std::collections::BTreeMap<String, Value>,
            name: &str,
        ) -> Result<T, serde::Error> {
            let value = obj
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("payload missing field `{name}`")))?;
            T::deserialize_value(value)
        }
        let kind = obj
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| serde::Error::custom("payload missing `kind` tag"))?;
        match kind {
            "train" => Ok(ResponsePayload::Train {
                goals_completed: field(obj, "goals_completed")?,
                goals_total: field(obj, "goals_total")?,
                memory_entries: field(obj, "memory_entries")?,
            }),
            "quiz" => Ok(ResponsePayload::Quiz {
                answered: field(obj, "answered")?,
                total: field(obj, "total")?,
                consistent: field(obj, "consistent")?,
                conclusions: field(obj, "conclusions")?,
            }),
            "ask" => Ok(ResponsePayload::Ask {
                text: field(obj, "text")?,
                verdict: match obj.get("verdict") {
                    Some(v) => Option::deserialize_value(v)?,
                    None => None,
                },
                confidence: field(obj, "confidence")?,
            }),
            "probe" => Ok(ResponsePayload::Probe {
                survived_attempt: field(obj, "survived_attempt")?,
            }),
            "stats" => Ok(ResponsePayload::Stats {
                snapshot: field(obj, "snapshot")?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown payload kind `{other}`"
            ))),
        }
    }
}

/// One response line. All `*_us` fields are virtual time on the
/// request's own timeline (0 = the instant the request was admitted);
/// `arrival_us` alone is on the batch's synthetic arrival clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeResponse {
    pub id: String,
    pub status: ResponseStatus,
    /// Redundant with `status == Degraded`, kept as an explicit marker
    /// so stream consumers can filter without matching the enum.
    pub degraded: bool,
    /// `null` on the wire when absent.
    #[serde(default)]
    pub error: Option<WireError>,
    /// When the request arrived, on the batch arrival clock.
    pub arrival_us: u64,
    /// Modeled queue wait between admission and execution start.
    pub queue_us: u64,
    /// Total backoff spent between retry attempts.
    pub retry_wait_us: u64,
    /// Virtual time the final attempt's session execution took.
    pub exec_virtual_us: u64,
    /// Attempts made (1 = no retries).
    pub attempts: u32,
    /// `null` on the wire for rejected/failed requests.
    #[serde(default)]
    pub result: Option<ResponsePayload>,
}

impl ServeResponse {
    /// An admission-control rejection (typed, within one virtual tick).
    pub fn rejected(request: &ServeRequest, arrival_us: u64, error: &IraError) -> Self {
        ServeResponse {
            id: request.id.clone(),
            status: ResponseStatus::Rejected,
            degraded: false,
            error: Some(WireError::from(error)),
            arrival_us,
            queue_us: 0,
            retry_wait_us: 0,
            exec_virtual_us: 0,
            attempts: 0,
            result: None,
        }
    }

    /// A request line that failed to parse or to validate before
    /// admission; `id` is the request's, or empty if it did not parse.
    pub fn invalid(id: &str, arrival_us: u64, error: &IraError) -> Self {
        ServeResponse {
            id: id.to_string(),
            status: ResponseStatus::Failed,
            degraded: false,
            error: Some(WireError::from(error)),
            arrival_us,
            queue_us: 0,
            retry_wait_us: 0,
            exec_virtual_us: 0,
            attempts: 0,
            result: None,
        }
    }
}

/// Parse a JSONL request stream line by line. Blank lines are skipped;
/// every other line gives its request, or a typed `parse` error naming
/// its line number if it is malformed or longer than 2 MiB. One bad
/// line never hides the lines around it.
pub fn parse_request_lines(input: &str) -> Vec<Result<ServeRequest, IraError>> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(lineno, line)| {
            let lineno = lineno + 1;
            if line.len() > MAX_LINE_BYTES {
                return Err(IraError::parse(format!(
                    "request line {lineno}: {} bytes, over the {MAX_LINE_BYTES}-byte limit",
                    line.len()
                )));
            }
            serde_json::from_str(line.trim())
                .map_err(|e| IraError::parse(format!("request line {lineno}: {e}")))
        })
        .collect()
}

/// Parse a JSONL request stream strictly: the first malformed line
/// aborts the whole parse with its line number. The server itself uses
/// [`parse_request_lines`] and answers each bad line on its own.
pub fn parse_requests(input: &str) -> Result<Vec<ServeRequest>, IraError> {
    parse_request_lines(input).into_iter().collect()
}

/// Render responses as JSONL, one per line, in the given order.
pub fn render_responses(responses: &[ServeResponse]) -> String {
    let mut out = String::new();
    for response in responses {
        out.push_str(&serde_json::to_string(response).expect("response serializes"));
        out.push('\n');
    }
    out
}

/// Parse a JSONL response transcript (the inverse of
/// [`render_responses`], used by tests and the load generator).
pub fn parse_responses(input: &str) -> Result<Vec<ServeResponse>, IraError> {
    let mut responses = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let response: ServeResponse = serde_json::from_str(line)
            .map_err(|e| IraError::parse(format!("response line {}: {e}", lineno + 1)))?;
        responses.push(response);
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_defaults_fill_in() {
        let parsed = parse_requests(r#"{"id":"r1","kind":"train"}"#).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, RequestKind::Train);
        assert_eq!(parsed[0].seed, 0);
        assert_eq!(parsed[0].distractors, default_distractors());
        assert_eq!(parsed[0].scenario, "solar-superstorm");
        assert_eq!(parsed[0].deadline_us, None);
    }

    #[test]
    fn validation_bounds_the_distractor_count() {
        let mut req = ServeRequest::new("a", RequestKind::Train);
        req.distractors = MAX_DISTRACTORS;
        assert!(req.validate().is_ok());
        req.distractors = MAX_DISTRACTORS + 1;
        let err = req.validate().unwrap_err();
        assert!(err.to_string().contains("distractors"), "{err}");
    }

    #[test]
    fn validation_bounds_id_and_question_length() {
        let mut req = ServeRequest::new("i".repeat(MAX_ID_BYTES), RequestKind::Ask);
        req.question = Some("q".repeat(MAX_QUESTION_BYTES));
        assert!(req.validate().is_ok());
        req.id.push('i');
        let err = req.validate().unwrap_err();
        assert!(err.to_string().contains("request id"), "{err}");
        req.id.pop();
        req.question.as_mut().unwrap().push('q');
        let err = req.validate().unwrap_err();
        assert!(err.to_string().contains("question"), "{err}");
    }

    #[test]
    fn validation_rejects_unknown_scenarios() {
        let mut req = ServeRequest::new("a", RequestKind::Quiz);
        assert!(req.validate().is_ok());
        req.scenario = "route-leak".into();
        assert!(req.validate().is_ok());
        req.scenario = "alien-invasion".into();
        let err = req.validate().unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("alien-invasion"), "{err}");
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let err = parse_requests("{\"id\":\"a\",\"kind\":\"train\"}\n\nnot json\n").unwrap_err();
        assert_eq!(err.kind(), "parse");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn each_line_parses_on_its_own() {
        let long = format!(
            r#"{{"id":"{}","kind":"train"}}"#,
            "i".repeat(MAX_LINE_BYTES)
        );
        let input = [
            r#"{"id":"a","kind":"train"}"#,
            "",
            "not json",
            &long,
            r#"  {"id":"b","kind":"quiz"}"#,
        ]
        .join("\n");
        let lines = parse_request_lines(&input);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].as_ref().unwrap().id, "a");
        let malformed = lines[1].as_ref().unwrap_err();
        assert_eq!(malformed.kind(), "parse");
        assert!(malformed.to_string().contains("line 3"), "{malformed}");
        let too_long = lines[2].as_ref().unwrap_err();
        assert_eq!(too_long.kind(), "parse");
        assert!(too_long.to_string().contains("line 4"), "{too_long}");
        assert!(too_long.to_string().contains("limit"), "{too_long}");
        assert_eq!(lines[3].as_ref().unwrap().kind, RequestKind::Quiz);
        // A line exactly at the bound is parsed (and here, well formed).
        let padding = MAX_LINE_BYTES - r#"{"id":"","kind":"train"}"#.len();
        let at_bound = format!(r#"{{"id":"{}","kind":"train"}}"#, "i".repeat(padding));
        assert_eq!(at_bound.len(), MAX_LINE_BYTES);
        assert!(parse_request_lines(&at_bound)[0].is_ok());
    }

    #[test]
    fn validation_rejects_questionless_ask_and_bad_intensity() {
        let mut req = ServeRequest::new("a", RequestKind::Ask);
        assert_eq!(req.validate().unwrap_err().kind(), "config");
        req.question = Some("why did the route flap?".into());
        assert!(req.validate().is_ok());
        req.fault_intensity = 1.5;
        assert_eq!(req.validate().unwrap_err().kind(), "config");
    }

    #[test]
    fn responses_round_trip_through_jsonl() {
        let responses = vec![
            ServeResponse {
                id: "r1".into(),
                status: ResponseStatus::Ok,
                degraded: false,
                error: None,
                arrival_us: 0,
                queue_us: 10,
                retry_wait_us: 0,
                exec_virtual_us: 123,
                attempts: 1,
                result: Some(ResponsePayload::Ask {
                    text: "yes".into(),
                    verdict: Some("solar storm".into()),
                    confidence: 8,
                }),
            },
            ServeResponse::rejected(
                &ServeRequest::new("r2", RequestKind::Quiz),
                77,
                &ira_services::IraError::overloaded("rate limited", 500_000),
            ),
        ];
        let text = render_responses(&responses);
        assert_eq!(text.lines().count(), 2);
        let back = parse_responses(&text).unwrap();
        assert_eq!(back, responses);
        assert_eq!(back[1].error.as_ref().unwrap().kind, "serve.overloaded");
    }

    #[test]
    fn kind_spellings_match_serde() {
        for kind in [
            RequestKind::Train,
            RequestKind::Quiz,
            RequestKind::Ask,
            RequestKind::PanicProbe,
            RequestKind::Stats,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(json, format!("\"{}\"", kind.as_str()));
        }
    }

    #[test]
    fn stats_payload_round_trips_with_its_snapshot() {
        let mut live = ira_obs::LiveStats::default();
        let mut sample = ira_obs::SloSample::new(250_000, "solar-superstorm", "train");
        sample.admitted = true;
        sample.ok = true;
        sample.queue_us = Some(0);
        sample.exec_us = Some(10_000_000);
        live.record(&sample);
        let response = ServeResponse {
            id: "s1".into(),
            status: ResponseStatus::Ok,
            degraded: false,
            error: None,
            arrival_us: 500_000,
            queue_us: 0,
            retry_wait_us: 0,
            exec_virtual_us: 0,
            attempts: 0,
            result: Some(ResponsePayload::Stats {
                snapshot: live.snapshot(500_000),
            }),
        };
        let text = render_responses(std::slice::from_ref(&response));
        let back = parse_responses(&text).unwrap();
        assert_eq!(back, vec![response.clone()]);
        match back[0].result.as_ref().unwrap() {
            ResponsePayload::Stats { snapshot } => {
                assert_eq!(snapshot.total["solar-superstorm/train"].admitted, 1);
                assert_eq!(snapshot.at_us, 500_000);
            }
            other => panic!("expected stats payload, got {other:?}"),
        }
    }
}
