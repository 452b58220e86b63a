//! The decorators only time and count: a session built with timed
//! services behaves byte for byte like `Engine::spawn_session`, and a
//! serve batch gives the same transcript and flight dumps with and
//! without the timed sink. Without these, the traced run could be
//! measuring a different program.

use ira::engine::{Engine, FaultSpec, SessionConfig};
use ira::evalkit::QuizBank;
use ira::obs::{FlightRecorder, SharedCollector};
use ira::serve::{parse_responses, AdmissionConfig, ServeConfig, Server};
use ira::services::TimeSource;
use ira::simnet::Duration;
use ira::webcorpus::CorpusConfig;
use ira::worldmodel::scenario::CABLE_CUT;
use ira_perfbench::inputs::{self, serve_admission, to_jsonl};
use ira_perfbench::session::{serve_body, serve_session_config, spawn_timed};
use ira_perfbench::timed::TimedCollector;
use std::sync::Arc;

/// Train, then self-learn and answer the scenario quiz; returns every
/// answer serialized, the virtual clock and the model's usage.
fn drive(
    agent: &mut ira::core::ResearchAgent,
    quiz: &QuizBank,
    now: impl Fn() -> u64,
) -> (Vec<String>, u64, String) {
    let report = agent.train();
    let mut answers = vec![serde_json::to_string(&report.per_goal).unwrap()];
    for item in quiz.iter() {
        let trajectory = agent.self_learn(&item.question);
        answers.push(serde_json::to_string(&trajectory).unwrap());
        answers.push(serde_json::to_string(&agent.ask(&item.question)).unwrap());
    }
    (
        answers,
        now(),
        serde_json::to_string(&agent.llm_stats()).unwrap(),
    )
}

fn assert_session_equivalent(config: SessionConfig) {
    let engine = Engine::new();
    let sc = ira::worldmodel::scenario::lookup(config.corpus.scenario).unwrap();
    let quiz = QuizBank::for_scenario(engine.world(), sc.as_ref());

    let mut plain = engine.spawn_session(config.clone());
    let expected = {
        let env = &plain.env;
        let now = || env.now_us();
        drive(&mut plain.agent, &quiz, now)
    };

    let mut timed = spawn_timed(&engine, config, None);
    let web = Arc::clone(&timed.web);
    let got = drive(&mut timed.agent, &quiz, || web.now_us());

    assert_eq!(got.0, expected.0, "answers must be byte-identical");
    assert_eq!(got.1, expected.1, "virtual clocks must agree");
    assert_eq!(got.2, expected.2, "LlmStats must agree");
    assert!(timed.web.search.read().calls > 0, "searches were timed");
    assert!(timed.llm.call.read().calls > 0, "model calls were timed");
}

#[test]
fn timed_session_matches_spawn_session() {
    assert_session_equivalent(SessionConfig::bob());
}

#[test]
fn timed_chaotic_scenario_session_matches_spawn_session() {
    let mut config = SessionConfig::bob();
    config.corpus = CorpusConfig {
        scenario: CABLE_CUT,
        ..CorpusConfig::default()
    };
    config.faults = Some(FaultSpec {
        intensity: 0.25,
        horizon: Duration::from_secs(60),
        seed: 7,
    });
    assert_session_equivalent(config);
}

fn small_batch() -> String {
    let banks = inputs::quiz_banks(&ira::worldmodel::World::standard());
    // A slice of the generated batch keeps every request kind in play.
    let batch: Vec<_> = inputs::serve_batch(3, &banks)
        .into_iter()
        .take(40)
        .collect();
    to_jsonl(&batch)
}

/// A server whose admission sheds part of the slice, so flight dumps
/// are frozen too.
fn server(engine: &Arc<Engine>) -> Server {
    Server::with_engine(
        Arc::clone(engine),
        ServeConfig {
            workers: 2,
            admission: AdmissionConfig {
                rate_per_sec: 2.0,
                burst: 4,
                ..serve_admission()
            },
            ..ServeConfig::default()
        },
    )
}

#[test]
fn timed_sink_leaves_transcript_and_flight_dumps_unchanged() {
    let engine = Arc::new(Engine::new());
    let jsonl = small_batch();

    let plain = Arc::new(FlightRecorder::default());
    let expected = server(&engine)
        .serve_jsonl(&jsonl, Some(Arc::clone(&plain) as SharedCollector))
        .unwrap();
    let timed = Arc::new(TimedCollector::new(FlightRecorder::default()));
    let got = server(&engine)
        .serve_jsonl(&jsonl, Some(Arc::clone(&timed) as SharedCollector))
        .unwrap();

    assert!(
        plain.dump_count() > 0,
        "the slice must trigger flight dumps"
    );
    assert_eq!(got, expected, "serve transcript must not change");
    assert_eq!(
        timed.inner().render(),
        plain.render(),
        "flight dumps must not change"
    );
    assert_eq!(timed.record.read().calls, plain.events_seen());
}

#[test]
fn serve_body_replay_reproduces_served_payloads() {
    let engine = Arc::new(Engine::new());
    let jsonl = small_batch();
    let transcript = server(&engine).serve_jsonl(&jsonl, None).unwrap();
    let responses = parse_responses(&transcript).unwrap();
    let requests = ira::serve::parse_requests(&jsonl).unwrap();

    let mut replayed = 0;
    for (request, response) in requests.iter().zip(&responses) {
        if response.attempts != 1 || request.kind == ira::serve::RequestKind::PanicProbe {
            continue;
        }
        let mut session = spawn_timed(&engine, serve_session_config(request, 0), None);
        session.env.client.advance_us(response.queue_us);
        let deadline = request.deadline_us.unwrap_or(u64::MAX);
        let (payload, degraded) = serve_body(request, &mut session, deadline);
        assert_eq!(response.result.as_ref(), Some(&payload), "{}", request.id);
        assert_eq!(response.degraded, degraded, "{}", request.id);
        assert_eq!(
            response.exec_virtual_us,
            session.web.now_us() - response.queue_us,
            "{}",
            request.id
        );
        replayed += 1;
    }
    assert!(replayed > 10, "the slice must replay most of its requests");
}
