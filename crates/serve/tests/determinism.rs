//! Serve-layer robustness and determinism contract tests.
//!
//! The bar these enforce (ISSUE 6): identical request batches produce
//! byte-identical response transcripts and traces regardless of worker
//! count; overload is typed and immediate; deadlines degrade
//! gracefully instead of erroring; panics are isolated and retried;
//! and every request lands in the causal trace tree as a
//! `serve.request` span enclosing admission, queueing, and execution.

use ira_engine::Engine;
use ira_obs::{parse_jsonl, EventClass, JsonlCollector, SharedCollector};
use ira_serve::{
    render_responses, AdmissionConfig, RequestKind, ResponsePayload, ResponseStatus, ServeConfig,
    ServeRequest, ServeResponse, Server,
};
use ira_simnet::clock::Duration;
use std::sync::Arc;

/// A real quiz question (the agent's verdict matching is tuned for
/// the incident quiz bank, so ask-examples use one of its questions).
const SOLAR_QUESTION: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
     that connects Brazil to Europe or the one that connects the US to Europe?";

fn run_batch(
    engine: &Arc<Engine>,
    config: ServeConfig,
    requests: &[ServeRequest],
) -> (String, String, Vec<ServeResponse>) {
    let server = Server::with_engine(Arc::clone(engine), config);
    let collector = Arc::new(JsonlCollector::new());
    let sink: SharedCollector = collector.clone();
    let responses = server.handle_batch(requests, Some(sink));
    (render_responses(&responses), collector.render(), responses)
}

/// The mixed workload used by the worker-count sweep: a full train, a
/// deadline-degraded train, an ask, a deadline-degraded quiz, a probe
/// that recovers on retry, a probe that never recovers, and one
/// request past the token-bucket burst (shed).
fn mixed_requests() -> Vec<ServeRequest> {
    let mut train = ServeRequest::new("train-full", RequestKind::Train);
    train.seed = 1;

    let mut train_cut = ServeRequest::new("train-cut", RequestKind::Train);
    train_cut.deadline_us = Some(5_000_000);

    let mut ask = ServeRequest::new("ask-solar", RequestKind::Ask);
    ask.question = Some(SOLAR_QUESTION.to_string());
    ask.seed = 2;

    let mut quiz_cut = ServeRequest::new("quiz-cut", RequestKind::Quiz);
    quiz_cut.deadline_us = Some(100_000_000);

    let mut probe_retry = ServeRequest::new("probe-retry", RequestKind::PanicProbe);
    probe_retry.probe_panics = Some(1);

    let probe_dead = ServeRequest::new("probe-dead", RequestKind::PanicProbe);

    let shed_me = ServeRequest::new("late-train", RequestKind::Train);

    vec![
        train,
        train_cut,
        ask,
        quiz_cut,
        probe_retry,
        probe_dead,
        shed_me,
    ]
}

/// Admission tuned so exactly the last of the seven mixed requests
/// overruns the bucket: burst 5, refill 1/s, arrivals 250 ms apart.
fn mixed_admission() -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: 1.0,
        burst: 5,
        arrival_spacing: Duration::from_millis(250),
        lanes: 2,
        max_queue_wait: Duration::from_secs(600),
    }
}

#[test]
fn mixed_batch_is_byte_identical_across_worker_counts() {
    let engine = Arc::new(Engine::new());
    let requests = mixed_requests();
    let runs: Vec<(String, String, Vec<ServeResponse>)> = [1usize, 4, 8]
        .into_iter()
        .map(|workers| {
            let config = ServeConfig {
                workers,
                admission: mixed_admission(),
                ..ServeConfig::default()
            };
            run_batch(&engine, config, &requests)
        })
        .collect();

    // Byte-identity of both the response transcript and the trace.
    assert_eq!(
        runs[0].0, runs[1].0,
        "transcript differs between workers=1 and workers=4"
    );
    assert_eq!(
        runs[0].0, runs[2].0,
        "transcript differs between workers=1 and workers=8"
    );
    assert_eq!(
        runs[0].1, runs[1].1,
        "trace differs between workers=1 and workers=4"
    );
    assert_eq!(
        runs[0].1, runs[2].1,
        "trace differs between workers=1 and workers=8"
    );

    // And the transcript says what it should, request by request.
    let responses = &runs[0].2;
    assert_eq!(responses.len(), requests.len());
    for (request, response) in requests.iter().zip(responses) {
        assert_eq!(request.id, response.id, "responses stay in request order");
    }

    let full = &responses[0];
    assert_eq!(full.status, ResponseStatus::Ok);
    assert!(!full.degraded);
    match full.result.as_ref().unwrap() {
        ResponsePayload::Train {
            goals_completed,
            goals_total,
            memory_entries,
        } => {
            assert_eq!(goals_completed, goals_total);
            assert!(*memory_entries > 0);
        }
        other => panic!("expected train payload, got {other:?}"),
    }

    let cut = &responses[1];
    assert_eq!(cut.status, ResponseStatus::Degraded);
    assert!(cut.degraded);
    assert_eq!(cut.error.as_ref().unwrap().kind, "serve.deadline_exceeded");
    match cut.result.as_ref().unwrap() {
        ResponsePayload::Train {
            goals_completed,
            goals_total,
            ..
        } => {
            assert!(
                goals_completed < goals_total,
                "deadline should cut training"
            );
            assert!(*goals_completed > 0, "partial progress should be kept");
        }
        other => panic!("expected train payload, got {other:?}"),
    }

    let ask = &responses[2];
    assert_eq!(ask.status, ResponseStatus::Ok);
    match ask.result.as_ref().unwrap() {
        ResponsePayload::Ask {
            verdict,
            confidence,
            ..
        } => {
            assert!(verdict.is_some(), "solar question should reach a verdict");
            assert!(*confidence > 0);
        }
        other => panic!("expected ask payload, got {other:?}"),
    }

    let quiz = &responses[3];
    assert_eq!(quiz.status, ResponseStatus::Degraded);
    match quiz.result.as_ref().unwrap() {
        ResponsePayload::Quiz {
            answered,
            total,
            conclusions,
            ..
        } => {
            assert!(*answered > 0, "deadline leaves partial conclusions");
            assert!(answered < total);
            assert_eq!(conclusions.len(), *answered);
        }
        other => panic!("expected quiz payload, got {other:?}"),
    }

    let retried = &responses[4];
    assert_eq!(retried.status, ResponseStatus::Ok);
    assert_eq!(retried.attempts, 2, "one panic, then a clean retry");
    assert!(retried.retry_wait_us > 0, "backoff must cost virtual time");
    assert_eq!(
        retried.result.as_ref().unwrap(),
        &ResponsePayload::Probe {
            survived_attempt: 1
        }
    );

    let dead = &responses[5];
    assert_eq!(dead.status, ResponseStatus::Failed);
    assert_eq!(dead.attempts, 3, "initial attempt plus two retries");
    assert_eq!(dead.error.as_ref().unwrap().kind, "serve.session_panicked");
    assert!(dead.result.is_none());

    let shed = &responses[6];
    assert_eq!(shed.status, ResponseStatus::Rejected);
    assert_eq!(shed.error.as_ref().unwrap().kind, "serve.overloaded");
    assert_eq!(shed.exec_virtual_us, 0, "shed requests never run");
}

/// Satellite: the degraded-quiz blackout scenario. A quiz under a
/// mid-investigation blackout (chaotic network) and a virtual deadline
/// must return the conclusions reached so far with `degraded: true` —
/// and that partial transcript must be byte-identical at 1, 4, and 8
/// workers.
#[test]
fn blackout_quiz_degrades_identically_across_worker_counts() {
    let engine = Arc::new(Engine::new());
    let mut quiz = ServeRequest::new("blackout-quiz", RequestKind::Quiz);
    quiz.fault_intensity = 0.25;
    quiz.fault_seed = 7;
    quiz.deadline_us = Some(110_000_000);
    // A healthy control alongside, so degradation stays per-request.
    let control = ServeRequest::new("control-train", RequestKind::Train);
    let requests = vec![quiz, control];

    let runs: Vec<(String, String, Vec<ServeResponse>)> = [1usize, 4, 8]
        .into_iter()
        .map(|workers| {
            let config = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            run_batch(&engine, config, &requests)
        })
        .collect();

    assert_eq!(runs[0].0, runs[1].0, "workers=1 vs workers=4 transcript");
    assert_eq!(runs[0].0, runs[2].0, "workers=1 vs workers=8 transcript");
    assert_eq!(runs[0].1, runs[1].1, "workers=1 vs workers=4 trace");
    assert_eq!(runs[0].1, runs[2].1, "workers=1 vs workers=8 trace");

    let quiz_response = &runs[0].2[0];
    assert_eq!(quiz_response.status, ResponseStatus::Degraded);
    assert!(quiz_response.degraded);
    assert_eq!(
        quiz_response.error.as_ref().unwrap().kind,
        "serve.deadline_exceeded"
    );
    match quiz_response.result.as_ref().unwrap() {
        ResponsePayload::Quiz {
            answered, total, ..
        } => {
            assert!(
                *answered > 0 && answered < total,
                "blackout + deadline should leave a partial quiz, got {answered}/{total}"
            );
        }
        other => panic!("expected quiz payload, got {other:?}"),
    }
    let control_response = &runs[0].2[1];
    assert_eq!(control_response.status, ResponseStatus::Ok);
    assert!(!control_response.degraded);
}

/// Overload produces a typed `serve.overloaded` response within the
/// arrival's own virtual tick — every request is answered, none hang,
/// none queue.
#[test]
fn overload_sheds_typed_within_one_virtual_tick() {
    let engine = Arc::new(Engine::new());
    let config = ServeConfig {
        workers: 4,
        admission: AdmissionConfig {
            rate_per_sec: 0.001,
            burst: 1,
            arrival_spacing: Duration::from_millis(250),
            lanes: 4,
            max_queue_wait: Duration::from_secs(600),
        },
        ..ServeConfig::default()
    };
    // Cheap requests: probes that survive attempt 0 without panicking.
    let requests: Vec<ServeRequest> = (0..6)
        .map(|i| {
            let mut req = ServeRequest::new(format!("burst-{i}"), RequestKind::PanicProbe);
            req.probe_panics = Some(0);
            req
        })
        .collect();

    let (_, _, responses) = run_batch(&engine, config, &requests);
    assert_eq!(responses.len(), 6, "every request gets a response");
    assert_eq!(responses[0].status, ResponseStatus::Ok);
    for (i, response) in responses.iter().enumerate().skip(1) {
        assert_eq!(response.status, ResponseStatus::Rejected, "request {i}");
        let error = response.error.as_ref().unwrap();
        assert_eq!(error.kind, "serve.overloaded");
        assert!(error.message.contains("retry after"), "{}", error.message);
        // Decided at the arrival instant: no queueing, no execution.
        assert_eq!(response.arrival_us, i as u64 * 250_000);
        assert_eq!(response.queue_us, 0);
        assert_eq!(response.exec_virtual_us, 0);
        assert_eq!(response.attempts, 0);
    }
}

/// A panicking session takes down neither its neighbors nor the
/// server: the poisoned request gets a typed failure after retries and
/// the server keeps serving.
#[test]
fn panics_are_isolated_and_the_server_survives() {
    let engine = Arc::new(Engine::new());
    let server = Server::with_engine(engine, ServeConfig::default());

    let poison = ServeRequest::new("poison", RequestKind::PanicProbe);
    let mut neighbor = ServeRequest::new("neighbor", RequestKind::Train);
    neighbor.deadline_us = Some(5_000_000);

    let responses = server.handle_batch(&[poison.clone(), neighbor.clone()], None);
    assert_eq!(responses[0].status, ResponseStatus::Failed);
    assert_eq!(responses[0].attempts, 3);
    let error = responses[0].error.as_ref().unwrap();
    assert_eq!(error.kind, "serve.session_panicked");
    assert!(
        error.message.contains("panic probe poison detonated"),
        "panic payload should surface: {}",
        error.message
    );
    assert_eq!(responses[1].status, ResponseStatus::Degraded);

    // The supervisor returned the worker to the pool: same server,
    // next batch, unremarkable service.
    let again = server.handle_batch(&[neighbor], None);
    assert_eq!(again[0].status, ResponseStatus::Degraded);
    assert!(again[0].result.is_some());
}

/// Transient faults retry with seeded backoff; the retry cost is
/// visible on the response and deterministic per request index.
#[test]
fn retry_backoff_is_deterministic_and_accounted() {
    let engine = Arc::new(Engine::new());
    let server = Server::with_engine(engine, ServeConfig::default());
    let mut probe = ServeRequest::new("flaky", RequestKind::PanicProbe);
    probe.probe_panics = Some(2);

    let first = server.handle_batch(std::slice::from_ref(&probe), None);
    let second = server.handle_batch(std::slice::from_ref(&probe), None);
    assert_eq!(first, second, "retry schedule must replay exactly");
    assert_eq!(first[0].status, ResponseStatus::Ok);
    assert_eq!(first[0].attempts, 3, "panics on attempts 0 and 1");
    assert!(first[0].retry_wait_us > 0);
    assert_eq!(
        first[0].result.as_ref().unwrap(),
        &ResponsePayload::Probe {
            survived_attempt: 2
        }
    );
}

/// Every request shows up in the causal trace tree as a
/// `serve.request` root span enclosing the admission point, any queue
/// wait, and the session execution (whose own spans nest inside).
#[test]
fn every_request_lands_in_the_trace_tree() {
    let engine = Arc::new(Engine::new());
    let mut train = ServeRequest::new("traced-train", RequestKind::Train);
    train.deadline_us = Some(5_000_000);
    let mut probe = ServeRequest::new("traced-probe", RequestKind::PanicProbe);
    probe.probe_panics = Some(1);
    let requests = vec![train, probe];

    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (_, trace, responses) = run_batch(&engine, config, &requests);
    assert_eq!(responses.len(), 2);
    let events = parse_jsonl(&trace).expect("trace parses");

    for session in 0..requests.len() as u32 {
        let mine: Vec<_> = events.iter().filter(|e| e.session == session).collect();
        let root = mine
            .iter()
            .find(|e| e.stage == "serve" && e.name == "request" && e.class == EventClass::Span)
            .unwrap_or_else(|| panic!("session {session} missing serve.request root span"));
        assert_eq!(root.parent_id, 0, "serve.request is the session root");

        let admitted = mine
            .iter()
            .find(|e| e.stage == "serve" && e.name == "admitted")
            .expect("admission point present");
        assert_eq!(
            admitted.parent_id, root.span_id,
            "admission point nests under serve.request"
        );

        let exec = mine
            .iter()
            .find(|e| {
                e.stage == "serve"
                    && (e.name == "exec" || e.name == "degraded")
                    && e.class == EventClass::Span
            })
            .expect("execution span present");
        assert_eq!(exec.parent_id, root.span_id);

        // The session's own tree hangs off the request's exec scope —
        // the train request must show cycle/fetch/llm activity inside.
        if session == 0 {
            let session_spans = mine.iter().filter(|e| e.stage != "serve").count();
            assert!(
                session_spans > 0,
                "session work should be traced inside the request"
            );
        } else {
            // The retried probe leaves a panic point, a retry point,
            // and one exec span per attempt.
            assert!(mine.iter().any(|e| e.name == "panic"));
            assert!(mine.iter().any(|e| e.name == "retry"));
            let execs = mine
                .iter()
                .filter(|e| {
                    e.stage == "serve"
                        && e.class == EventClass::Span
                        && (e.name == "exec" || e.name == "panicked")
                })
                .count();
            assert_eq!(execs, 2, "one span per attempt");
        }
    }
}

/// Scenario-parameterised requests (ISSUE 8): a request naming a
/// registered scenario runs against that scenario's corpus and quiz;
/// an explicit `solar-superstorm` is byte-identical to the default;
/// an unknown scenario fails validation with a typed config error.
#[test]
fn scenario_requests_route_to_their_own_quiz() {
    let engine = Arc::new(Engine::new());
    let server = Server::with_engine(Arc::clone(&engine), ServeConfig::default());

    let mut leak_quiz = ServeRequest::new("leak-quiz", RequestKind::Quiz);
    leak_quiz.scenario = "route-leak".into();
    let responses = server.handle_batch(std::slice::from_ref(&leak_quiz), None);
    assert_eq!(responses[0].status, ResponseStatus::Ok);
    match responses[0].result.as_ref().unwrap() {
        ResponsePayload::Quiz {
            answered,
            total,
            conclusions,
            ..
        } => {
            assert_eq!(answered, total, "no deadline: the full quiz runs");
            let ids: Vec<&str> = conclusions.iter().map(|c| c.id.as_str()).collect();
            assert!(
                ids.contains(&"RouteLeakCause"),
                "quiz follows the requested scenario, got {ids:?}"
            );
        }
        other => panic!("expected quiz payload, got {other:?}"),
    }

    // Explicit solar == default (the legacy path is untouched).
    let implicit = ServeRequest::new("solar", RequestKind::Train);
    let mut explicit = ServeRequest::new("solar", RequestKind::Train);
    explicit.scenario = "solar-superstorm".into();
    let (a, trace_a, _) = run_batch(
        &engine,
        ServeConfig::default(),
        std::slice::from_ref(&implicit),
    );
    let (b, trace_b, _) = run_batch(
        &engine,
        ServeConfig::default(),
        std::slice::from_ref(&explicit),
    );
    assert_eq!(a, b, "explicit solar-superstorm must stay legacy");
    assert_eq!(trace_a, trace_b, "explicit solar trace must stay legacy");

    // Unknown scenarios are the caller's fault: typed, never executed.
    let mut bogus = ServeRequest::new("bogus", RequestKind::Train);
    bogus.scenario = "volcanic-winter".into();
    let rejected = server.handle_batch(std::slice::from_ref(&bogus), None);
    assert_eq!(rejected[0].status, ResponseStatus::Failed);
    let error = rejected[0].error.as_ref().unwrap();
    assert_eq!(error.kind, "config");
    assert!(
        error.message.contains("volcanic-winter"),
        "{}",
        error.message
    );
    assert_eq!(rejected[0].exec_virtual_us, 0, "never ran");
}

/// A line asking for a billion-document corpus is the caller's fault:
/// typed `invalid` at intake, no corpus generated or cached for it, and
/// the rest of the batch byte-identical to the batch without it.
#[test]
fn oversized_distractor_count_is_invalid_and_builds_nothing() {
    let good = concat!(
        r#"{"id":"t1","kind":"train","deadline_us":5000000}"#,
        "\n",
        r#"{"id":"p1","kind":"panic_probe","probe_panics":0}"#,
        "\n",
    );
    let huge = r#"{"id":"huge","kind":"train","distractors":1000000000}"#;
    // Checked before anything is served, so a missing bound fails here
    // instead of starting the build.
    let parsed = ira_serve::parse_requests(huge).expect("parses");
    assert!(parsed[0].validate().is_err(), "distractors must be bounded");

    let engine = Arc::new(Engine::new());
    let server = Server::with_engine(Arc::clone(&engine), ServeConfig::default());
    let clean = server.serve_jsonl(good, None).expect("serves");
    let builds = engine.corpus_builds();
    // Last in the batch: an invalid line still takes an arrival slot.
    let mixed = server
        .serve_jsonl(&format!("{good}{huge}\n"), None)
        .expect("serves");
    assert_eq!(
        engine.corpus_builds(),
        builds,
        "no corpus for the huge line"
    );

    let responses = ira_serve::parse_responses(&mixed).expect("parses back");
    let rejected = responses.last().unwrap();
    assert_eq!(rejected.id, "huge");
    assert_eq!(rejected.status, ResponseStatus::Failed);
    assert_eq!(rejected.attempts, 0, "invalid, never attempted");
    assert_eq!(rejected.error.as_ref().unwrap().kind, "config");
    let others: Vec<&str> = mixed.lines().take(2).collect();
    assert_eq!(others, clean.lines().collect::<Vec<_>>());
}

/// An over-long `id` or `question` is the caller's fault: typed
/// `invalid` at intake, before the question is lowercased, classified
/// or tokenized, with no corpus built for it and the rest of the batch
/// byte-identical to the batch without it.
#[test]
fn oversized_id_and_question_are_invalid_and_build_nothing() {
    let good = concat!(
        r#"{"id":"t1","kind":"train","deadline_us":5000000}"#,
        "\n",
        r#"{"id":"p1","kind":"panic_probe","probe_panics":0}"#,
        "\n",
    );
    // Both ask for a corpus no other line uses, so serving either one
    // would show up as a build.
    let long_question = format!(
        r#"{{"id":"long-question","kind":"ask","distractors":7,"question":"{}"}}"#,
        "why ".repeat(1 << 18)
    );
    let long_id = format!(
        r#"{{"id":"{}","kind":"train","distractors":7}}"#,
        "i".repeat(1 << 10)
    );

    let engine = Arc::new(Engine::new());
    let server = Server::with_engine(Arc::clone(&engine), ServeConfig::default());
    let clean = server.serve_jsonl(good, None).expect("serves");
    let builds = engine.corpus_builds();
    let mixed = server
        .serve_jsonl(&format!("{good}{long_question}\n{long_id}\n"), None)
        .expect("serves");
    assert_eq!(
        engine.corpus_builds(),
        builds,
        "no corpus for the oversized lines"
    );

    let responses = ira_serve::parse_responses(&mixed).expect("parses back");
    assert_eq!(responses.len(), 4);
    for (rejected, field) in responses[2..].iter().zip(["question", "request id"]) {
        assert_eq!(rejected.status, ResponseStatus::Failed);
        assert_eq!(rejected.attempts, 0, "invalid, never attempted");
        let error = rejected.error.as_ref().unwrap();
        assert_eq!(error.kind, "config");
        assert!(error.message.contains(field), "{}", error.message);
    }
    assert_eq!(responses[2].id, "long-question");
    assert_eq!(responses[3].id.len(), 1 << 10);
    let others: Vec<&str> = mixed.lines().take(2).collect();
    assert_eq!(others, clean.lines().collect::<Vec<_>>());
}

/// `serve_jsonl` round-trips the whole wire path: JSONL in, JSONL out,
/// byte-identical across repeated calls.
#[test]
fn serve_jsonl_round_trip_is_stable() {
    let engine = Arc::new(Engine::new());
    let server = Server::with_engine(engine, ServeConfig::default());
    let input = concat!(
        r#"{"id":"t1","kind":"train","deadline_us":5000000}"#,
        "\n",
        r#"{"id":"p1","kind":"panic_probe","probe_panics":0}"#,
        "\n",
    );
    let first = server.serve_jsonl(input, None).expect("serves");
    let second = server.serve_jsonl(input, None).expect("serves");
    assert_eq!(first, second);
    let responses = ira_serve::parse_responses(&first).expect("parses back");
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].id, "t1");
    assert_eq!(responses[0].status, ResponseStatus::Degraded);
    assert_eq!(responses[1].status, ResponseStatus::Ok);
}

/// A line that does not parse, or is longer than the line bound, is
/// answered on its own: a typed `invalid` response with an empty id at
/// its position, which takes an arrival slot but no token, exactly as a
/// request that fails validation does. Every other response is
/// byte-identical to the batch with those lines replaced by validation
/// failures, and the batch is byte-identical at 1, 4 and 8 workers.
#[test]
fn malformed_and_over_long_lines_are_answered_in_place() {
    let over_long = format!(
        r#"{{"id":"long","kind":"train","question":"{}"}}"#,
        "q".repeat(2 << 20)
    );
    let batch = |second: &str, fourth: &str| {
        [
            r#"{"id":"t1","kind":"train","deadline_us":5000000}"#,
            second,
            r#"{"id":"p1","kind":"panic_probe","probe_panics":0}"#,
            fourth,
            r#"{"id":"t2","kind":"train","deadline_us":5000000}"#,
        ]
        .join("\n")
            + "\n"
    };
    let invalid = r#"{"id":"","kind":"train"}"#;
    let with_bad_lines = batch("{not json", &over_long);
    let with_invalid = batch(invalid, invalid);

    let engine = Arc::new(Engine::new());
    let serve = |workers: usize, input: &str| {
        let config = ServeConfig {
            workers,
            // Two tokens: the third admitted request is shed, so a bad
            // line that spent a token would shift who gets shed.
            admission: AdmissionConfig {
                burst: 2,
                rate_per_sec: 0.001,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        };
        Server::with_engine(Arc::clone(&engine), config)
            .serve_jsonl(input, None)
            .expect("a bad line does not fail the batch")
    };

    let mixed = serve(1, &with_bad_lines);
    let replaced = serve(1, &with_invalid);
    let responses = ira_serve::parse_responses(&mixed).expect("parses back");
    assert_eq!(responses.len(), 5);
    for (response, line) in [(&responses[1], "line 2"), (&responses[3], "line 4")] {
        assert_eq!(response.id, "");
        assert_eq!(response.status, ResponseStatus::Failed);
        assert_eq!(response.attempts, 0, "invalid, never attempted");
        let error = response.error.as_ref().unwrap();
        assert_eq!(error.kind, "parse");
        assert!(error.message.contains(line), "{}", error.message);
    }
    assert!(responses[3]
        .error
        .as_ref()
        .unwrap()
        .message
        .contains("limit"));
    assert_eq!(responses[4].status, ResponseStatus::Rejected, "t2 is shed");
    for (i, (m, r)) in mixed.lines().zip(replaced.lines()).enumerate() {
        if i != 1 && i != 3 {
            assert_eq!(m, r, "response {i}");
        }
    }
    for workers in [4, 8] {
        assert_eq!(serve(workers, &with_bad_lines), mixed, "{workers} workers");
    }
}
