//! The serve loop: admission → bounded worker pool → typed responses.
//!
//! Robustness contract:
//! - **Bounded and typed overload**: admission decisions happen at
//!   intake in request order; shed requests get a `serve.overloaded`
//!   response immediately, never a hang ([`crate::admission`]).
//! - **Deadlines with graceful degradation**: a session that exhausts
//!   its virtual-time budget stops cooperatively and returns the
//!   conclusions reached so far with `degraded: true`.
//! - **Panic isolation**: every attempt runs under `catch_unwind`; a
//!   poisoned request becomes a `serve.session_panicked` response while
//!   the worker returns to the pool.
//! - **Retry with seeded jitter**: transient faults (a panicked
//!   session) are retried on a re-provisioned session with full-jitter
//!   backoff; the jitter stream is derived from the request index, so
//!   retries are deterministic too.
//!
//! Determinism: each request's session runs on exactly one worker
//! thread with its own virtual clock, admission is single-threaded,
//! and responses are merged back in request order by [`try_sweep`] —
//! so the response transcript (and the trace) is byte-identical across
//! worker counts, interleavings, and repeated runs.

use crate::admission::{Admission, AdmissionConfig, AdmissionController};
use crate::protocol::{
    parse_request_lines, render_responses, QuizConclusion, RequestKind, ResponsePayload,
    ResponseStatus, ServeRequest, ServeResponse,
};
use ira_core::{AgentConfig, RoleDefinition};
use ira_engine::{Engine, FaultSpec, Session, SessionConfig};
use ira_evalkit::runner::{panic_message, try_sweep};
use ira_evalkit::{ConsistencyReport, QuizBank};
use ira_obs::{stage, LiveSnapshot, LiveStats, ObsHandle, SharedCollector, SloSample, TraceEvent};
use ira_services::{IraError, TimeSource, WireError};
use ira_simnet::clock::Duration;
use ira_simnet::retry::Backoff;
use ira_webcorpus::CorpusConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Retry policy for transient session faults.
#[derive(Debug, Clone, Copy)]
pub struct RetrySpec {
    /// Maximum retries per request (total attempts = retries + 1).
    pub max_retries: u32,
    /// Backoff schedule; the per-request jitter stream is seeded from
    /// `backoff.jitter_seed` mixed with the request index.
    pub backoff: Backoff,
}

impl Default for RetrySpec {
    fn default() -> Self {
        RetrySpec {
            max_retries: 2,
            backoff: Backoff {
                initial: Duration::from_millis(200),
                factor: 2.0,
                max: Duration::from_secs(5),
                jitter: true,
                jitter_seed: 0x5E21,
            },
        }
    }
}

/// Static server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Real worker threads executing admitted sessions. Affects wall
    /// time only — responses and traces are invariant under it.
    pub workers: usize,
    pub admission: AdmissionConfig,
    pub retry: RetrySpec,
    /// Deadline applied when a request carries none.
    pub default_deadline_us: Option<u64>,
    /// Corpus seed shared by every session (the cache key's first
    /// half), so all tenants at one distractor count share one corpus.
    pub corpus_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            admission: AdmissionConfig::default(),
            retry: RetrySpec::default(),
            default_deadline_us: None,
            corpus_seed: 0xC0FFEE,
        }
    }
}

/// Nominal virtual service cost per request kind, used only by the
/// admission queue model (real execution is measured, not assumed).
pub fn nominal_cost(kind: RequestKind) -> Duration {
    match kind {
        RequestKind::Train => Duration::from_secs(10),
        RequestKind::Quiz => Duration::from_secs(60),
        RequestKind::Ask => Duration::from_secs(20),
        RequestKind::PanicProbe => Duration::from_secs(1),
        // Control plane: answered at intake, never holds a lane.
        RequestKind::Stats => Duration::ZERO,
    }
}

/// Derive the combined [`SloSample`] for one `(request, response)`
/// pair — the replay form used by `ira serve --stats-every` and the
/// load generator's SLO summary. Folding these samples into a
/// [`LiveStats`] in request order reproduces exactly what the server's
/// own live ledger recorded for the batch.
pub fn slo_sample(request: &ServeRequest, response: &ServeResponse) -> SloSample {
    let mut sample = SloSample::new(
        response.arrival_us,
        request.scenario.clone(),
        request.kind.as_str(),
    );
    match response.status {
        ResponseStatus::Rejected => sample.shed = true,
        // attempts == 0 means no session ever ran: validation failure
        // (stats responses are Ok and land in the admitted arm).
        ResponseStatus::Failed if response.attempts == 0 => sample.invalid = true,
        _ => sample.admitted = true,
    }
    let executed = response.attempts > 0;
    sample.ok = executed && response.status == ResponseStatus::Ok;
    sample.degraded = response.status == ResponseStatus::Degraded;
    sample.failed = executed && response.status == ResponseStatus::Failed;
    sample.deadline_miss = response
        .error
        .as_ref()
        .is_some_and(|e| e.kind == "serve.deadline_exceeded");
    sample.retries = u64::from(response.attempts.saturating_sub(1));
    if executed {
        sample.queue_us = Some(response.queue_us);
        sample.exec_us = Some(response.exec_virtual_us);
    }
    sample
}

/// [`slo_sample`] for one parsed request line: a line that did not
/// parse is an invalid arrival, keyed under an empty scenario and kind
/// since it names neither.
pub fn line_slo_sample(
    line: Result<&ServeRequest, &IraError>,
    response: &ServeResponse,
) -> SloSample {
    match line {
        Ok(request) => slo_sample(request, response),
        Err(_) => {
            let mut sample = unparsed_sample(response.arrival_us);
            sample.invalid = true;
            sample
        }
    }
}

/// A blank sample for a request line that did not parse.
fn unparsed_sample(at_us: u64) -> SloSample {
    SloSample::new(at_us, "", "")
}

/// Seed strides mixed into per-attempt session provisioning. A retry
/// re-provisions the session with a shifted network seed — otherwise a
/// fully deterministic session would reproduce the identical fault.
const NET_SEED_BASE: u64 = 0xBEEF;
const LLM_SEED_BASE: u64 = 0xB0B;
const ATTEMPT_NET_STRIDE: u64 = 0x51F5_0000_0001;

struct Job {
    index: usize,
    request: ServeRequest,
    arrival_us: u64,
    queue_us: u64,
}

/// A blank intake-phase sample; the caller sets exactly one of the
/// admission-decision flags.
fn intake_sample(request: &ServeRequest, at_us: u64) -> SloSample {
    SloSample::new(at_us, request.scenario.clone(), request.kind.as_str())
}

struct Execution {
    payload: ResponsePayload,
    degraded: bool,
}

struct AttemptOk {
    payload: ResponsePayload,
    degraded: bool,
    end_us: u64,
}

struct AttemptFault {
    error: IraError,
    end_us: u64,
}

/// The long-running service: one shared [`Engine`] (world + corpus
/// cache) plus the static [`ServeConfig`]. The engine is behind an
/// [`Arc`] so several servers (say, the same workload at different
/// worker counts) can share one corpus cache.
pub struct Server {
    engine: Arc<Engine>,
    config: ServeConfig,
    /// Live SLO ledger, persistent across batches. Only ever touched
    /// from single-threaded phases (intake, post-merge) in request
    /// order, which keeps snapshots worker-invariant.
    live: Mutex<LiveStats>,
}

impl Server {
    pub fn new(config: ServeConfig) -> Self {
        Server {
            engine: Arc::new(Engine::new()),
            config,
            live: Mutex::new(LiveStats::default()),
        }
    }

    /// A server over a caller-supplied engine (shared corpus cache).
    pub fn with_engine(engine: Arc<Engine>, config: ServeConfig) -> Self {
        Server {
            engine,
            config,
            live: Mutex::new(LiveStats::default()),
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The server's live telemetry at virtual instant `at_us` — the
    /// same snapshot a `stats` request arriving then would observe.
    pub fn live_snapshot(&self, at_us: u64) -> LiveSnapshot {
        self.live.lock().expect("live stats lock").snapshot(at_us)
    }

    fn record_live(&self, sample: &SloSample) {
        self.live.lock().expect("live stats lock").record(sample);
    }

    /// Serve one JSONL batch end to end: parse, handle, render. Every
    /// non-blank line gets exactly one response, in line order; a line
    /// that does not parse gets a typed `invalid` response with an
    /// empty `id`, as a request that fails validation does, so it never
    /// takes the rest of the batch down with it.
    pub fn serve_jsonl(
        &self,
        input: &str,
        sink: Option<SharedCollector>,
    ) -> Result<String, IraError> {
        let lines = parse_request_lines(input);
        let lines: Vec<Result<&ServeRequest, &IraError>> =
            lines.iter().map(Result::as_ref).collect();
        Ok(render_responses(&self.handle(&lines, sink)))
    }

    /// Handle a request batch: admission at intake (single-threaded, in
    /// request order), execution on `workers` threads, responses merged
    /// back in request order. Every request gets exactly one response.
    pub fn handle_batch(
        &self,
        requests: &[ServeRequest],
        sink: Option<SharedCollector>,
    ) -> Vec<ServeResponse> {
        let lines: Vec<Result<&ServeRequest, &IraError>> = requests.iter().map(Ok).collect();
        self.handle(&lines, sink)
    }

    /// [`Server::handle_batch`] over parsed request lines, some of which
    /// may have failed to parse.
    fn handle(
        &self,
        lines: &[Result<&ServeRequest, &IraError>],
        sink: Option<SharedCollector>,
    ) -> Vec<ServeResponse> {
        let mut admission = AdmissionController::new(self.config.admission.clone());
        let mut slots: Vec<Option<ServeResponse>> = lines.iter().map(|_| None).collect();
        let mut jobs: Vec<Job> = Vec::new();

        for (index, &line) in lines.iter().enumerate() {
            let session_id = index as u32;
            let request = match line {
                Err(error) => {
                    let response =
                        self.intake_invalid(&sink, &mut admission, session_id, None, error);
                    slots[index] = Some(response);
                    continue;
                }
                Ok(request) => match request.validate() {
                    Ok(()) => request,
                    Err(error) => {
                        let response = self.intake_invalid(
                            &sink,
                            &mut admission,
                            session_id,
                            Some(request),
                            &error,
                        );
                        slots[index] = Some(response);
                        continue;
                    }
                },
            };
            if request.kind == RequestKind::Stats {
                // Control plane: answered here at intake, where every
                // prior request's admission decision (and every prior
                // batch's outcomes) are already in the ledger — so the
                // snapshot is worker-invariant by construction. Spends
                // an arrival slot but no token; can never be shed.
                let arrival_us = admission.observe_arrival().as_micros();
                let snapshot = self
                    .live
                    .lock()
                    .expect("live stats lock")
                    .snapshot(arrival_us);
                self.emit_stats(&sink, session_id, request, arrival_us);
                slots[index] = Some(ServeResponse {
                    id: request.id.clone(),
                    status: ResponseStatus::Ok,
                    degraded: false,
                    error: None,
                    arrival_us,
                    queue_us: 0,
                    retry_wait_us: 0,
                    exec_virtual_us: 0,
                    attempts: 0,
                    result: Some(ResponsePayload::Stats { snapshot }),
                });
                // The probe itself is counted *after* it answered, so a
                // lone stats request reports an empty window rather
                // than observing itself.
                let mut sample = intake_sample(request, arrival_us);
                sample.admitted = true;
                self.record_live(&sample);
                continue;
            }
            match admission.admit(nominal_cost(request.kind)) {
                Admission::Admitted {
                    arrival,
                    queue_wait,
                } => {
                    let mut sample = intake_sample(request, arrival.as_micros());
                    sample.admitted = true;
                    self.record_live(&sample);
                    jobs.push(Job {
                        index,
                        request: request.clone(),
                        arrival_us: arrival.as_micros(),
                        queue_us: queue_wait.as_micros(),
                    });
                }
                Admission::Shed {
                    arrival,
                    reason,
                    retry_after,
                } => {
                    let error = IraError::overloaded(reason.as_str(), retry_after.as_micros());
                    self.emit_intake_reject(&sink, session_id, &request.id, "shed", &error);
                    slots[index] = Some(ServeResponse::rejected(
                        request,
                        arrival.as_micros(),
                        &error,
                    ));
                    let mut sample = intake_sample(request, arrival.as_micros());
                    sample.shed = true;
                    self.record_live(&sample);
                }
            }
        }

        // Supervisor-level double-fault guard: run_job already catches
        // session panics, so a SweepPanic here means the serve plumbing
        // itself panicked — still answer the request instead of dying.
        let meta: Vec<(usize, String)> = jobs
            .iter()
            .map(|job| (job.index, job.request.id.clone()))
            .collect();
        let outcomes = try_sweep(jobs, self.config.workers, |_, job| {
            (job.index, self.run_job(job, &sink))
        });
        for (job_pos, outcome) in outcomes.into_iter().enumerate() {
            let (index, id) = &meta[job_pos];
            slots[*index] = Some(match outcome {
                Ok((_, response)) => response,
                Err(sweep_panic) => {
                    let error = IraError::session_panicked(&sweep_panic.message);
                    ServeResponse {
                        id: id.clone(),
                        status: ResponseStatus::Failed,
                        degraded: false,
                        error: Some(WireError::from(&error)),
                        arrival_us: 0,
                        queue_us: 0,
                        retry_wait_us: 0,
                        exec_virtual_us: 0,
                        attempts: 0,
                        result: None,
                    }
                }
            });
        }

        let responses: Vec<ServeResponse> = slots
            .into_iter()
            .map(|slot| slot.expect("every request produced exactly one response"))
            .collect();

        // Fold execution outcomes into the live ledger, single-threaded
        // in request order (the intake flags were recorded at admission
        // time, so they are zeroed here to avoid double counting).
        for (line, response) in lines.iter().zip(&responses) {
            if let (Ok(request), true) = (line, response.attempts > 0) {
                let mut sample = slo_sample(request, response);
                sample.admitted = false;
                sample.shed = false;
                sample.invalid = false;
                self.record_live(&sample);
            }
        }
        responses
    }

    /// Answer a request line that failed to parse (`request` is
    /// `None`) or to validate: a typed failure before admission, which
    /// spends no token but still takes an arrival slot on the synthetic
    /// clock.
    fn intake_invalid(
        &self,
        sink: &Option<SharedCollector>,
        admission: &mut AdmissionController,
        session_id: u32,
        request: Option<&ServeRequest>,
        error: &IraError,
    ) -> ServeResponse {
        let id = request.map_or("", |r| r.id.as_str());
        self.emit_intake_reject(sink, session_id, id, "invalid", error);
        let _ = admission.admit(Duration::ZERO);
        let mut sample = request.map_or_else(|| unparsed_sample(0), |r| intake_sample(r, 0));
        sample.invalid = true;
        self.record_live(&sample);
        ServeResponse::invalid(id, 0, error)
    }

    fn emit_intake_reject(
        &self,
        sink: &Option<SharedCollector>,
        session_id: u32,
        id: &str,
        name: &'static str,
        error: &IraError,
    ) {
        if let Some(sink) = sink {
            let obs = ObsHandle::new(sink.clone(), session_id);
            let scope = obs.scope(0, stage::SERVE, "request");
            let kind = error.kind();
            obs.emit(|| {
                TraceEvent::point(
                    session_id,
                    0,
                    stage::SERVE,
                    name,
                    format!("id={id} kind={kind}"),
                )
            });
            scope.finish_as(0, "rejected", || format!("id={id}"));
        }
    }

    fn emit_stats(
        &self,
        sink: &Option<SharedCollector>,
        session_id: u32,
        request: &ServeRequest,
        arrival_us: u64,
    ) {
        if let Some(sink) = sink {
            let obs = ObsHandle::new(sink.clone(), session_id);
            let scope = obs.scope(0, stage::SERVE, "request");
            obs.emit(|| {
                TraceEvent::point(
                    session_id,
                    0,
                    stage::SERVE,
                    "stats",
                    format!("id={} arrival_us={arrival_us}", request.id),
                )
            });
            scope.finish_as(0, "stats", || format!("id={}", request.id));
        }
    }

    /// One admitted request: the `serve.request` root span encloses the
    /// admission point, queue-wait span, every attempt's `serve.exec`
    /// span (which in turn parents the session's own cycle/fetch/LLM
    /// tree), and any retry points.
    fn run_job(&self, job: Job, sink: &Option<SharedCollector>) -> ServeResponse {
        let session_id = job.index as u32;
        let obs = match sink {
            Some(sink) => ObsHandle::new(sink.clone(), session_id),
            None => ObsHandle::disabled(),
        };
        let scope = obs.scope(0, stage::SERVE, "request");
        let request_id = job.request.id.clone();
        let queue_us = job.queue_us;
        obs.emit(|| {
            TraceEvent::point(
                session_id,
                0,
                stage::SERVE,
                "admitted",
                format!("id={request_id} queue_us={queue_us}"),
            )
        });
        if job.queue_us > 0 {
            obs.emit(|| {
                TraceEvent::span(
                    session_id,
                    0,
                    stage::SERVE,
                    "queue",
                    format!("id={request_id}"),
                    queue_us,
                )
            });
        }

        let deadline_us = job
            .request
            .deadline_us
            .or(self.config.default_deadline_us)
            .unwrap_or(u64::MAX);
        // Per-request jitter stream: deterministic, but decorrelated
        // across requests (golden-ratio mix of the request index).
        let backoff = Backoff {
            jitter_seed: self
                .config
                .retry
                .backoff
                .jitter_seed
                .wrapping_add((job.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..self.config.retry.backoff
        };
        let mut rng = backoff.jitter_rng();
        let mut timeline_us = job.queue_us;
        let mut retry_wait_us: u64 = 0;
        let mut attempts: u32 = 0;

        loop {
            let attempt = attempts;
            attempts += 1;
            match self.run_attempt(&job.request, timeline_us, attempt, deadline_us, &obs) {
                Ok(done) => {
                    let status = if done.degraded {
                        ResponseStatus::Degraded
                    } else {
                        ResponseStatus::Ok
                    };
                    let error = done.degraded.then(|| {
                        WireError::from(&IraError::deadline_exceeded(deadline_us, done.end_us))
                    });
                    let outcome = if done.degraded { "degraded" } else { "ok" };
                    scope.finish(done.end_us, || {
                        format!("id={request_id} outcome={outcome} attempts={attempts}")
                    });
                    return ServeResponse {
                        id: job.request.id.clone(),
                        status,
                        degraded: done.degraded,
                        error,
                        arrival_us: job.arrival_us,
                        queue_us: job.queue_us,
                        retry_wait_us,
                        exec_virtual_us: done.end_us.saturating_sub(timeline_us),
                        attempts,
                        result: Some(done.payload),
                    };
                }
                Err(fault) => {
                    let transient = fault.error.kind() == "serve.session_panicked";
                    if transient && attempt < self.config.retry.max_retries {
                        let delay = backoff.delay_with(attempt, &mut rng);
                        let delay_us = delay.as_micros();
                        let end_us = fault.end_us;
                        obs.emit(|| {
                            TraceEvent::point(
                                session_id,
                                end_us,
                                stage::SERVE,
                                "retry",
                                format!("id={request_id} attempt={attempt} backoff_us={delay_us}"),
                            )
                        });
                        retry_wait_us += delay_us;
                        timeline_us = fault.end_us + delay_us;
                        continue;
                    }
                    scope.finish_as(fault.end_us, "failed", || {
                        format!("id={request_id} attempts={attempts}")
                    });
                    return ServeResponse {
                        id: job.request.id.clone(),
                        status: ResponseStatus::Failed,
                        degraded: false,
                        error: Some(WireError::from(&fault.error)),
                        arrival_us: job.arrival_us,
                        queue_us: job.queue_us,
                        retry_wait_us,
                        exec_virtual_us: fault.end_us.saturating_sub(timeline_us),
                        attempts,
                        result: None,
                    };
                }
            }
        }
    }

    /// One attempt on a freshly provisioned session. The session's
    /// virtual clock is pre-advanced to `start_us` (queue wait plus any
    /// accumulated retry backoff), so serve spans and the session's own
    /// spans share one per-request timeline with 0 = admission.
    fn run_attempt(
        &self,
        request: &ServeRequest,
        start_us: u64,
        attempt: u32,
        deadline_us: u64,
        obs: &ObsHandle,
    ) -> Result<AttemptOk, AttemptFault> {
        let session_config = SessionConfig {
            role: RoleDefinition::bob(),
            agent: AgentConfig::default(),
            corpus: CorpusConfig {
                seed: self.config.corpus_seed,
                distractor_count: request.distractors,
                // Admission control rejects unknown scenario names, so
                // interning cannot fail here.
                scenario: ira_worldmodel::scenario::static_name(&request.scenario)
                    .expect("scenario validated at admission"),
            },
            net_seed: NET_SEED_BASE
                .wrapping_add(request.seed)
                .wrapping_add(attempt as u64 * ATTEMPT_NET_STRIDE),
            llm_seed: LLM_SEED_BASE.wrapping_add(request.seed),
            faults: (request.fault_intensity > 0.0).then(|| FaultSpec {
                intensity: request.fault_intensity,
                horizon: Duration::from_secs(60),
                seed: request.fault_seed.wrapping_add(attempt as u64),
            }),
        };
        let mut session = self
            .engine
            .spawn_session_with_handle(session_config, obs.clone());
        session.env.client.advance_us(start_us);

        let scope = obs.scope(start_us, stage::SERVE, "exec");
        let session_id = obs.session();
        let request_id = request.id.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.execute(request, &mut session, attempt, deadline_us)
        }));
        match outcome {
            Ok(execution) => {
                let end_us = session.now_us();
                if execution.degraded {
                    obs.emit(|| {
                        TraceEvent::point(
                            session_id,
                            end_us,
                            stage::SERVE,
                            "deadline",
                            format!("id={request_id} deadline_us={deadline_us}"),
                        )
                    });
                }
                scope.finish_as(
                    end_us,
                    if execution.degraded {
                        "degraded"
                    } else {
                        "exec"
                    },
                    || format!("id={request_id} attempt={attempt}"),
                );
                Ok(AttemptOk {
                    payload: execution.payload,
                    degraded: execution.degraded,
                    end_us,
                })
            }
            Err(payload) => {
                // The session is discarded wholesale; its clock is
                // still readable (parking_lot mutexes don't poison),
                // and the panic point is deterministic, so `end_us` is
                // too.
                let end_us = session.now_us();
                let message = panic_message(payload);
                let detail_message = message.clone();
                obs.emit(|| {
                    TraceEvent::point(
                        session_id,
                        end_us,
                        stage::SERVE,
                        "panic",
                        format!("id={request_id} attempt={attempt} message={detail_message}"),
                    )
                });
                scope.finish_as(end_us, "panicked", || {
                    format!("id={request_id} attempt={attempt}")
                });
                Err(AttemptFault {
                    error: IraError::session_panicked(message),
                    end_us,
                })
            }
        }
    }

    /// The session body per kind. Runs under the attempt's
    /// `catch_unwind`; cooperative deadline checks happen at goal and
    /// quiz-item granularity.
    fn execute(
        &self,
        request: &ServeRequest,
        session: &mut Session,
        attempt: u32,
        deadline_us: u64,
    ) -> Execution {
        match request.kind {
            RequestKind::Stats => {
                unreachable!("stats requests are answered at intake and never become jobs")
            }
            RequestKind::PanicProbe => {
                let threshold = request.probe_panics.unwrap_or(u32::MAX);
                if attempt < threshold {
                    panic!("panic probe {} detonated (attempt {attempt})", request.id);
                }
                Execution {
                    payload: ResponsePayload::Probe {
                        survived_attempt: attempt,
                    },
                    degraded: false,
                }
            }
            RequestKind::Train => {
                let report = session.agent.train_until(deadline_us);
                let goals_total = session.agent.role.goals.len();
                let goals_completed = report.per_goal.len();
                Execution {
                    payload: ResponsePayload::Train {
                        goals_completed,
                        goals_total,
                        memory_entries: report.memory_entries,
                    },
                    degraded: goals_completed < goals_total,
                }
            }
            RequestKind::Ask => {
                let question = request.question.as_deref().unwrap_or_default();
                let report = session.agent.train_until(deadline_us);
                let mut degraded = report.per_goal.len() < session.agent.role.goals.len();
                if session.now_us() < deadline_us {
                    session.agent.self_learn(question);
                } else {
                    degraded = true;
                }
                let answer = session.agent.ask(question);
                Execution {
                    payload: ResponsePayload::Ask {
                        text: answer.text,
                        verdict: answer.verdict,
                        confidence: answer.confidence,
                    },
                    degraded,
                }
            }
            RequestKind::Quiz => {
                let report = session.agent.train_until(deadline_us);
                let train_truncated = report.per_goal.len() < session.agent.role.goals.len();
                let scenario = ira_worldmodel::scenario::lookup(&request.scenario)
                    .expect("scenario validated at admission");
                let quiz = QuizBank::for_scenario(session.world(), scenario.as_ref());
                let total = quiz.len();
                let mut consistency = ConsistencyReport::new(&request.id);
                let mut answered = 0usize;
                for item in quiz.iter() {
                    if session.now_us() >= deadline_us {
                        break;
                    }
                    session.agent.self_learn(&item.question);
                    let answer = session.agent.ask(&item.question);
                    consistency.add(item, &answer);
                    answered += 1;
                }
                let conclusions = consistency
                    .per_item
                    .iter()
                    .map(|item| QuizConclusion {
                        id: item.id.clone(),
                        verdict: item.verdict.clone(),
                        confidence: item.confidence,
                        consistent: item.matched.consistent,
                    })
                    .collect();
                Execution {
                    payload: ResponsePayload::Quiz {
                        answered,
                        total,
                        consistent: consistency.consistent_count(),
                        conclusions,
                    },
                    degraded: train_truncated || answered < total,
                }
            }
        }
    }
}
