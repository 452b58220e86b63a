//! Command implementations for the `ira` CLI.

use crate::args::{Command, MemAction, RoleChoice, ScenarioAction, SimChoice};
use ira_agentmem::store::StoreError;
use ira_agentmem::KnowledgeStore;
use ira_core::{questions, AgentConfig, Environment, ResearchAgent, RoleDefinition};
use ira_engine::{Engine, FaultSpec, Session, SessionConfig};
use ira_evalkit::plancov::PlanCoverage;
use ira_evalkit::quiz::QuizBank;
use ira_evalkit::report::table;
use ira_evalkit::runner::{evaluate_agent, evaluate_baseline, sweep};
use ira_evalkit::trajectory::render_table;
use ira_obs::{Fanout, JsonlCollector, ObsHandle, SharedCollector, SummaryCollector};
use ira_simllm::Llm;
use ira_simnet::{Duration, FaultPlan};
use ira_webcorpus::CorpusConfig;
use std::path::Path;
use std::path::PathBuf;
use std::sync::Arc;

/// Fault horizon for CLI training runs: the span of a fault-free
/// `ira train`, 10.6 virtual seconds, or 11.8 with `--crawl`, whichever
/// is longer. Every scheduled window then falls inside the run (a
/// faulted run only takes longer).
fn train_horizon() -> Duration {
    Duration::from_millis(11_800)
}

/// Fault seed for `--faults` runs (shared with experiment X13 so the
/// CLI reproduces the same plans).
const FAULT_SEED: u64 = 0xC4A0;

/// Run one parsed command; returns a process exit code.
pub fn run(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            print!("{}", crate::args::USAGE);
            0
        }
        Command::Train {
            role,
            out,
            crawl_links,
            distractors,
            faults,
            resume,
            parallel,
            trace,
            metrics,
        } => {
            let obs = ObsSinks::new(trace.as_deref(), metrics);
            if parallel > 1 {
                train_parallel(
                    role,
                    &out,
                    crawl_links,
                    distractors,
                    faults,
                    resume,
                    parallel,
                    &obs,
                )
            } else {
                train(role, &out, crawl_links, distractors, faults, resume, &obs)
            }
        }
        Command::Ask {
            knowledge,
            question,
        } => ask(&knowledge, &question),
        Command::Learn {
            knowledge,
            question,
            threshold,
        } => match threshold_config(threshold) {
            Ok(config) => learn(&knowledge, &question, config),
            Err(code) => code,
        },
        Command::Quiz {
            incidents,
            threshold,
            report,
            parallel,
            trace,
            metrics,
        } => {
            let config = match threshold_config(threshold) {
                Ok(config) => config,
                Err(code) => return code,
            };
            let obs = ObsSinks::new(trace.as_deref(), metrics);
            if parallel > 1 {
                quiz_parallel(incidents, config, report.as_deref(), parallel, &obs)
            } else {
                quiz(incidents, config, report.as_deref(), &obs)
            }
        }
        Command::Plan => plan(),
        Command::Questions { knowledge, max } => questions_cmd(&knowledge, max),
        Command::Corpus {
            distractors,
            faults,
        } => corpus_stats(distractors, faults),
        Command::Simulate { what } => simulate(what),
        Command::Scenario { action } => scenario_cmd(action),
        Command::TraceSummarize { file } => trace_summarize(&file),
        Command::TraceProfile { file, json, top } => trace_profile(&file, json, top),
        Command::TraceDiff {
            base,
            current,
            max_regress,
        } => trace_diff(&base, &current, max_regress),
        Command::TraceQuery {
            file,
            stage,
            session,
            slower_than,
        } => trace_query(&file, stage.as_deref(), session, slower_than),
        Command::Serve {
            input,
            workers,
            rate,
            burst,
            deadline_us,
            trace,
            example,
            stats_every,
            flight,
        } => serve_cmd(
            input.as_deref(),
            workers,
            rate,
            burst,
            deadline_us,
            trace.as_deref(),
            example,
            stats_every,
            flight.as_deref(),
        ),
        Command::ObsRender { file, prom } => obs_render(&file, prom),
        Command::BenchDiff {
            base,
            current,
            max_regress,
        } => bench_diff(&base, &current, max_regress),
        Command::Mem { action } => match action {
            MemAction::Stats { knowledge } => mem_stats(&knowledge),
            MemAction::Query {
                knowledge,
                query,
                top,
            } => mem_query(&knowledge, &query, top),
            MemAction::Provenance { knowledge, term } => mem_provenance(&knowledge, &term),
        },
        Command::Audit => audit_cmd(),
    }
}

/// The collectors requested by `--trace` / `--metrics`: a JSONL
/// recorder, a metrics aggregator, neither, or both fanned out. One
/// `ObsSinks` is shared across every session of a run — the JSONL
/// collector buffers per session id, and metric merges are
/// commutative, so the outputs are identical at any `--parallel`.
struct ObsSinks {
    trace_path: Option<String>,
    jsonl: Option<Arc<JsonlCollector>>,
    summary: Option<Arc<SummaryCollector>>,
}

impl ObsSinks {
    fn new(trace: Option<&str>, metrics: bool) -> Self {
        ObsSinks {
            trace_path: trace.map(str::to_string),
            jsonl: trace.map(|_| Arc::new(JsonlCollector::new())),
            summary: metrics.then(|| Arc::new(SummaryCollector::new())),
        }
    }

    /// The shared sink sessions emit into, if any was requested.
    fn sink(&self) -> Option<SharedCollector> {
        let mut children: Vec<SharedCollector> = Vec::new();
        if let Some(jsonl) = &self.jsonl {
            children.push(Arc::clone(jsonl) as SharedCollector);
        }
        if let Some(summary) = &self.summary {
            children.push(Arc::clone(summary) as SharedCollector);
        }
        match children.len() {
            0 => None,
            1 => children.pop(),
            _ => Some(Arc::new(Fanout::new(children))),
        }
    }

    /// Write the trace file and print the metrics table. Returns a
    /// process exit code: non-zero only if the trace file could not be
    /// written.
    fn finish(&self) -> i32 {
        if let (Some(jsonl), Some(path)) = (&self.jsonl, self.trace_path.as_deref()) {
            if let Err(e) = jsonl.write_to(Path::new(path)) {
                eprintln!("error: could not write trace {path}: {e}");
                return 1;
            }
            println!("trace written to {path}");
        }
        if let Some(summary) = &self.summary {
            print!("{}", summary.snapshot().render());
        }
        0
    }
}

/// Spawn session `id`, attaching the run's collectors when any were
/// requested.
fn spawn_maybe_observed(
    engine: &Engine,
    config: SessionConfig,
    obs: &ObsSinks,
    id: u32,
) -> ira_engine::Session {
    let handle = obs
        .sink()
        .map_or_else(ObsHandle::disabled, |sink| ObsHandle::new(sink, id));
    engine.spawn_session_with_handle(config, handle)
}

fn role_definition(choice: RoleChoice) -> RoleDefinition {
    match choice {
        RoleChoice::Bob => RoleDefinition::bob(),
        RoleChoice::Alice => RoleDefinition::outage_analyst(),
    }
}

/// The CLI's canonical corpus: the fixed seed at the requested
/// distractor load.
fn cli_corpus(distractors: usize) -> CorpusConfig {
    CorpusConfig {
        seed: 0xC0FFEE,
        distractor_count: distractors,
        ..CorpusConfig::default()
    }
}

/// Bob's session over the CLI corpus at `distractors`.
fn cli_session(distractors: usize) -> Session {
    Engine::new().spawn_session(SessionConfig {
        corpus: cli_corpus(distractors),
        ..SessionConfig::bob()
    })
}

/// The training checkpoint lives next to the knowledge file.
fn checkpoint_path(out: &str) -> PathBuf {
    PathBuf::from(format!("{out}.ckpt"))
}

fn train(
    role: RoleChoice,
    out: &str,
    crawl_links: usize,
    distractors: usize,
    faults: f64,
    resume: bool,
    obs: &ObsSinks,
) -> i32 {
    // The serial path is the parallel path at one session: the engine
    // spawns session 0 on the very seeds the legacy builders used, so
    // `--parallel 1` output (and any trace) is byte-identical to
    // session 0 of a wider run.
    let engine = Engine::new();
    let config = AgentConfig {
        crawl_links,
        ..AgentConfig::default()
    };
    let session_config = SessionConfig {
        role: role_definition(role),
        agent: config,
        corpus: cli_corpus(distractors),
        net_seed: 0xBEEF,
        llm_seed: 0xB0B,
        faults: (faults > 0.0).then(|| FaultSpec {
            intensity: faults,
            horizon: train_horizon(),
            seed: FAULT_SEED,
        }),
    };
    let mut session = spawn_maybe_observed(&engine, session_config, obs, 0);
    let env = &session.env;
    if faults > 0.0 {
        println!(
            "fault injection: intensity {:.0}%, {} scheduled windows (seed {FAULT_SEED:#x})",
            faults * 100.0,
            env.client.network().fault_plan_window_count()
        );
    }
    let agent = &mut session.agent;
    println!("{}", agent.role);
    // Training always checkpoints after each goal so a killed run can
    // be picked up with `--resume`; without the flag any stale
    // checkpoint is discarded and training starts fresh.
    let ckpt_path = checkpoint_path(out);
    if !resume {
        ira_core::TrainingCheckpoint::remove(&ckpt_path);
    } else if ira_core::TrainingCheckpoint::load(&ckpt_path).is_some() {
        println!("resuming from checkpoint {}", ckpt_path.display());
    } else {
        println!(
            "no checkpoint at {}; training from scratch",
            ckpt_path.display()
        );
    }
    let report = match agent.train_with_checkpoint(&ckpt_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: checkpointed training failed: {e}");
            return 1;
        }
    };
    println!(
        "trained: {} searches, {} fetches, {} entries memorised in {:.1} virtual seconds",
        report.total_searches(),
        report.total_fetches(),
        report.memory_entries,
        report.virtual_elapsed_us as f64 / 1e6
    );
    if faults > 0.0 {
        let breaker = env.client.breaker_totals();
        let fault_stats = env.client.network().fault_stats();
        println!(
            "faults charged: {} events; breaker: {} transitions, {} fast failures; \
             {} sources rerouted",
            fault_stats.total(),
            breaker.transitions(),
            breaker.fast_failures,
            report
                .per_goal
                .iter()
                .map(|g| g.source_unavailable)
                .sum::<u32>()
        );
    }
    if let Err(e) = agent.save_knowledge(Path::new(out)) {
        eprintln!("error: could not write {out}: {e}");
        return 1;
    }
    println!("knowledge written to {out}");
    obs.finish()
}

/// `ira train --parallel N`: N independently seeded training sessions
/// (session *i* shifts the network and model seeds by *i*; session 0
/// uses exactly the serial seeds) fan out over worker threads sharing
/// one engine-cached corpus. Session 0's knowledge is written to
/// `out`, so the file is identical to a serial `ira train` run; the
/// extra sessions report seed robustness of the training itself.
#[allow(clippy::too_many_arguments)] // mirrors the parsed `train` flags one-to-one
fn train_parallel(
    role: RoleChoice,
    out: &str,
    crawl_links: usize,
    distractors: usize,
    faults: f64,
    resume: bool,
    sessions: usize,
    obs: &ObsSinks,
) -> i32 {
    if resume {
        println!("note: --resume only applies to serial training; ignoring it");
    }
    let config = AgentConfig {
        crawl_links,
        ..AgentConfig::default()
    };
    println!("{}", role_definition(role));
    println!("training {sessions} seeded sessions in parallel");

    let engine = Engine::new();
    let start = std::time::Instant::now();
    let seeds: Vec<u64> = (0..sessions as u64).collect();
    let mut results = sweep(seeds, sessions, |_, s| {
        let session_config = SessionConfig {
            role: role_definition(role),
            agent: config,
            corpus: cli_corpus(distractors),
            net_seed: 0xBEEF + s,
            llm_seed: 0xB0B + s,
            faults: (faults > 0.0).then(|| FaultSpec {
                intensity: faults,
                horizon: train_horizon(),
                seed: FAULT_SEED.wrapping_add(s),
            }),
        };
        let mut session = spawn_maybe_observed(&engine, session_config, obs, s as u32);
        let report = session.agent.train();
        (session, report)
    });

    let rows: Vec<Vec<String>> = results
        .iter()
        .enumerate()
        .map(|(i, (_, report))| {
            vec![
                i.to_string(),
                report.total_searches().to_string(),
                report.total_fetches().to_string(),
                report.memory_entries.to_string(),
                format!("{:.1}", report.virtual_elapsed_us as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["session", "searches", "fetches", "entries", "virt-s"],
            &rows
        )
    );
    eprintln!(
        "[timing] sessions={sessions} wall={:.2}s corpus-builds={}",
        start.elapsed().as_secs_f64(),
        engine.corpus_builds()
    );

    let (session0, _) = &mut results[0];
    if let Err(e) = session0.agent.save_knowledge(Path::new(out)) {
        eprintln!("error: could not write {out}: {e}");
        return 1;
    }
    println!("knowledge from session 0 written to {out}");
    obs.finish()
}

/// The agent config for a `--threshold` value, range-checked by
/// [`AgentConfig::validate`]. An out-of-range value is a usage error:
/// it is reported on stderr and yields exit code 2, before any work.
fn threshold_config(threshold: usize) -> Result<AgentConfig, i32> {
    let config = AgentConfig {
        // Saturate so an oversized value stays out of range instead of
        // wrapping into it.
        confidence_threshold: u8::try_from(threshold).unwrap_or(u8::MAX),
        ..AgentConfig::default()
    };
    config.validate().map(|()| config).map_err(|e| {
        eprintln!("error: --threshold {threshold}: {e}");
        2
    })
}

/// `ira quiz --parallel N`: N independently seeded agents take the
/// quiz on worker threads; the per-agent scores and the across-agent
/// aggregate quantify how seed-robust the result is.
fn quiz_parallel(
    incidents: bool,
    config: AgentConfig,
    report_path: Option<&str>,
    agents: usize,
    obs: &ObsSinks,
) -> i32 {
    if report_path.is_some() {
        println!("note: --report only applies to the single-agent quiz; ignoring it");
    }
    let engine = Engine::new();
    let quiz = if incidents {
        QuizBank::incidents(&engine.world().incidents)
    } else {
        QuizBank::from_world(engine.world())
    };
    let conclusions = engine.world().conclusions();
    let role = if incidents {
        RoleDefinition::outage_analyst()
    } else {
        RoleDefinition::bob()
    };

    println!("evaluating {agents} seeded agents in parallel");
    let start = std::time::Instant::now();
    let seeds: Vec<u64> = (0..agents as u64).collect();
    let runs = sweep(seeds, agents, |_, s| {
        let session_config = SessionConfig {
            role: role.clone(),
            agent: config,
            corpus: cli_corpus(150),
            net_seed: 0xBEEF + s,
            llm_seed: 0xB0B + s,
            faults: None,
        };
        let mut session = spawn_maybe_observed(&engine, session_config, obs, s as u32);
        session.agent.train();
        evaluate_agent(&mut session.agent, &quiz, &conclusions)
    });

    let rows: Vec<Vec<String>> = runs
        .iter()
        .enumerate()
        .map(|(i, run)| {
            vec![
                i.to_string(),
                format!(
                    "{}/{}",
                    run.consistency.consistent_count(),
                    run.consistency.total()
                ),
                format!("{:.1}", run.consistency.mean_confidence()),
                run.total_learning_rounds().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["agent", "consistent", "mean-conf", "learn-rounds"], &rows)
    );
    let mean_consistent = runs
        .iter()
        .map(|r| r.consistency.consistent_count())
        .sum::<usize>() as f64
        / runs.len() as f64;
    println!(
        "across {} agents: mean {:.1}/{} conclusions consistent",
        runs.len(),
        mean_consistent,
        runs[0].consistency.total()
    );
    let baseline = evaluate_baseline(&Llm::gpt4(999), &quiz);
    println!("{}", baseline.summary());
    eprintln!(
        "[timing] agents={agents} wall={:.2}s corpus-builds={}",
        start.elapsed().as_secs_f64(),
        engine.corpus_builds()
    );
    obs.finish()
}

/// Load a knowledge file into a fresh agent (no training).
fn agent_from_knowledge(env: &Environment, path: &str) -> Result<ResearchAgent, i32> {
    let store = load_store(path)?;
    Ok(ResearchAgent::with_memory(
        RoleDefinition::bob(),
        env,
        AgentConfig::default(),
        0xB0B,
        store,
    ))
}

fn ask(knowledge: &str, question: &str) -> i32 {
    let session = cli_session(150);
    let mut agent = match agent_from_knowledge(&session.env, knowledge) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let (answer, citations) = agent.ask_cited(question);
    println!("Q: {question}\n");
    println!("{}\n", answer.text);
    println!("confidence: {}/10", answer.confidence);
    if let Some(v) = &answer.verdict {
        println!("verdict: {v}");
    }
    if !answer.reasoning.is_empty() {
        println!("\nreasoning:");
        for step in &answer.reasoning {
            println!("  - {step}");
        }
    }
    if !citations.is_empty() {
        println!("\ngrounded in:");
        for (url, kind) in citations {
            println!("  [{kind}] {url}");
        }
    }
    0
}

fn learn(knowledge: &str, question: &str, config: AgentConfig) -> i32 {
    let session = cli_session(150);
    // Only a missing file starts fresh: saving over a file that fails
    // to load would discard it.
    let store = match KnowledgeStore::load(Path::new(knowledge)) {
        Ok(s) => s,
        Err(e) if missing(&e) => {
            println!("no knowledge file at {knowledge}; starting fresh");
            KnowledgeStore::with_defaults()
        }
        Err(e) => return load_failed(knowledge, &e),
    };
    let mut agent =
        ResearchAgent::with_memory(RoleDefinition::bob(), &session.env, config, 0xB0B, store);
    let trajectory = agent.self_learn(question);
    println!("{}", render_table(&trajectory));
    let answer = agent.ask(question);
    println!("final answer:\n{}", answer.text);
    if let Err(e) = agent.save_knowledge(Path::new(knowledge)) {
        eprintln!("error: could not write {knowledge}: {e}");
        return 1;
    }
    println!("\nknowledge updated in {knowledge}");
    0
}

fn quiz(incidents: bool, config: AgentConfig, report_path: Option<&str>, obs: &ObsSinks) -> i32 {
    // Like serial train: spawn session 0 through the engine so the
    // single-agent quiz (and its trace) matches session 0 of
    // `--parallel N` exactly.
    let engine = Engine::new();
    let quiz = if incidents {
        QuizBank::incidents(&engine.world().incidents)
    } else {
        QuizBank::from_world(engine.world())
    };
    let conclusions = engine.world().conclusions();
    let role = if incidents {
        RoleDefinition::outage_analyst()
    } else {
        RoleDefinition::bob()
    };
    let session_config = SessionConfig {
        role,
        agent: config,
        corpus: cli_corpus(150),
        net_seed: 0xBEEF,
        llm_seed: 0xB0B,
        faults: None,
    };
    let mut session = spawn_maybe_observed(&engine, session_config, obs, 0);
    let agent = &mut session.agent;
    agent.train();
    let run = evaluate_agent(agent, &quiz, &conclusions);

    let rows: Vec<Vec<String>> = run
        .consistency
        .per_item
        .iter()
        .map(|r| {
            vec![
                r.id.clone(),
                r.verdict.clone().unwrap_or_else(|| "(hedge)".into()),
                r.confidence.to_string(),
                if r.matched.consistent { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["item", "verdict", "conf", "consistent"], &rows)
    );
    println!("{}", run.consistency.summary());
    let baseline = evaluate_baseline(&Llm::gpt4(999), &quiz);
    println!("{}", baseline.summary());
    if let Some(path) = report_path {
        let md = ira_evalkit::report::markdown_report(
            &format!(
                "Investigation report ({})",
                if incidents {
                    "incidents"
                } else {
                    "solar superstorms"
                }
            ),
            &run,
            &baseline,
        );
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("error: could not write {path}: {e}");
            return 1;
        }
        println!("report written to {path}");
    }
    obs.finish()
}

/// `ira serve`: one JSONL batch through the resilient serve layer —
/// requests on stdin (or `--input`), responses on stdout in request
/// order, diagnostics on stderr so the response stream stays clean.
/// `--flight <dir>` fans the always-on flight recorder into the trace
/// sink and writes its post-mortem dumps after the batch;
/// `--stats-every <n>` prints a live-telemetry snapshot to stderr
/// after every n responses.
#[allow(clippy::too_many_arguments)] // mirrors the parsed `serve` flags one-to-one
fn serve_cmd(
    input: Option<&str>,
    workers: usize,
    rate: f64,
    burst: u32,
    deadline_us: Option<u64>,
    trace: Option<&str>,
    example: bool,
    stats_every: Option<usize>,
    flight: Option<&str>,
) -> i32 {
    use ira_obs::FlightRecorder;
    use ira_serve::{AdmissionConfig, ServeConfig, Server};

    if example {
        print!("{}", ira_serve::EXAMPLE_BATCH);
        return 0;
    }
    let text = match read_trace_input(input.unwrap_or("-")) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let config = ServeConfig {
        workers,
        admission: AdmissionConfig {
            rate_per_sec: rate,
            burst,
            ..AdmissionConfig::default()
        },
        default_deadline_us: deadline_us,
        ..ServeConfig::default()
    };
    let server = Server::new(config);
    let collector = trace.map(|_| Arc::new(JsonlCollector::new()));
    let recorder = flight.map(|_| Arc::new(FlightRecorder::default()));
    let mut children: Vec<SharedCollector> = Vec::new();
    if let Some(c) = &collector {
        children.push(Arc::clone(c) as SharedCollector);
    }
    if let Some(r) = &recorder {
        children.push(Arc::clone(r) as SharedCollector);
    }
    let sink: Option<SharedCollector> = match children.len() {
        0 => None,
        1 => children.pop(),
        _ => Some(Arc::new(Fanout::new(children))),
    };
    match server.serve_jsonl(&text, sink) {
        Ok(responses) => {
            print!("{responses}");
            if let Some(every) = stats_every {
                print_stats_snapshots(&text, &responses, every);
            }
            if let (Some(collector), Some(path)) = (&collector, trace) {
                if let Err(e) = collector.write_to(Path::new(path)) {
                    eprintln!("error: could not write trace {path}: {e}");
                    return 1;
                }
                eprintln!("trace written to {path}");
            }
            if let (Some(recorder), Some(dir)) = (&recorder, flight) {
                match recorder.write_dumps(Path::new(dir)) {
                    Ok(paths) if paths.is_empty() => {
                        eprintln!("flight recorder: clean run, no dumps");
                    }
                    Ok(paths) => {
                        eprintln!("flight recorder: {} dump(s) in {dir}", paths.len());
                        for p in &paths {
                            eprintln!("  {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("error: could not write flight dumps to {dir}: {e}");
                        return 1;
                    }
                }
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The `--stats-every` replay: fold the request-line/response pairs
/// through the public [`ira_serve::line_slo_sample`] derivation — which
/// reproduces the server's own ledger exactly — and print a snapshot to
/// stderr after every `every` responses (and after the last, if it didn't
/// land on a boundary). Post-hoc replay keeps the response stream and
/// the worker pool untouched.
fn print_stats_snapshots(input: &str, output: &str, every: usize) {
    let lines = ira_serve::parse_request_lines(input);
    let Ok(responses) = ira_serve::parse_responses(output) else {
        return;
    };
    let mut live = ira_obs::LiveStats::default();
    let mut printed_at = 0usize;
    for (i, (line, response)) in lines.iter().zip(&responses).enumerate() {
        live.record(&ira_serve::line_slo_sample(line.as_ref(), response));
        if (i + 1) % every == 0 {
            eprint!("{}", live.snapshot(response.arrival_us).render_text());
            printed_at = i + 1;
        }
    }
    if printed_at < responses.len() {
        if let Some(last) = responses.last() {
            eprint!("{}", live.snapshot(last.arrival_us).render_text());
        }
    }
}

/// `ira obs render <file|->`: render a live-telemetry snapshot as the
/// stable text view or (`--prom`) Prometheus exposition format. The
/// input is either a snapshot JSON (e.g. saved from a `stats` response
/// payload) or a serve response transcript, in which case the *last*
/// `stats` payload in the stream is rendered.
fn obs_render(file: &str, prom: bool) -> i32 {
    let text = match read_trace_input(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let snapshot = match serde_json::from_str::<ira_obs::LiveSnapshot>(text.trim()) {
        Ok(snapshot) => snapshot,
        Err(snapshot_err) => {
            let responses = match ira_serve::parse_responses(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "error: {} is neither a snapshot JSON ({snapshot_err}) nor a response \
                         transcript ({e})",
                        input_name(file)
                    );
                    return 1;
                }
            };
            let last_stats = responses.iter().rev().find_map(|r| match &r.result {
                Some(ira_serve::ResponsePayload::Stats { snapshot }) => Some(snapshot.clone()),
                _ => None,
            });
            match last_stats {
                Some(snapshot) => snapshot,
                None => {
                    eprintln!(
                        "error: {} holds no stats payload — send a {{\"kind\":\"stats\"}} request",
                        input_name(file)
                    );
                    return 1;
                }
            }
        }
    };
    if prom {
        print!("{}", snapshot.render_prometheus());
    } else {
        print!("{}", snapshot.render_text());
    }
    0
}

/// `ira bench diff <base> <current>`: compare two benchmark reports
/// (`BENCH_*.json` or any JSON document) field by field under a
/// uniform relative tolerance. Only integer-valued fields are
/// compared — floats are host timing and drift run to run. Exits
/// non-zero when any field moves out of tolerance.
fn bench_diff(base: &str, current: &str, max_regress_pct: f64) -> i32 {
    if base == "-" && current == "-" {
        eprintln!("error: only one diff input may come from stdin");
        return 1;
    }
    let load = |file: &str| -> Result<std::collections::BTreeMap<String, u64>, String> {
        let text = read_trace_input(file)?;
        let value = serde_json::parse(&text)
            .map_err(|e| format!("{} is not valid JSON: {e}", input_name(file)))?;
        Ok(ira_obs::flatten_json(&value))
    };
    let base_flat = match load(base) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let current_flat = match load(current) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let tol = ira_obs::Tolerances::uniform(max_regress_pct / 100.0);
    let report = ira_obs::diff::diff_flat(&base_flat, &current_flat, &tol);
    print!("{}", report.render());
    i32::from(!report.is_clean())
}

/// The name used for `-` inputs in diagnostics.
fn input_name(file: &str) -> &str {
    if file == "-" {
        "stdin"
    } else {
        file
    }
}

/// Read a trace document from a file, or from stdin when `file` is `-`.
fn read_trace_input(file: &str) -> Result<String, String> {
    if file == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("could not read stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("could not read {file}: {e}"))
    }
}

/// Read and parse a JSONL trace (file or `-`). The error is a single
/// line naming the input and the offending trace line.
fn load_trace_events(file: &str) -> Result<Vec<ira_obs::TraceEvent>, String> {
    let text = read_trace_input(file)?;
    ira_obs::parse_jsonl(&text)
        .map_err(|e| format!("{} is not a valid trace: {e}", input_name(file)))
}

/// `ira trace summarize <file|->`: replay a recorded JSONL trace
/// through the summary collector and print the metrics table. Pure
/// function of the input, so the output is as deterministic as the
/// trace.
fn trace_summarize(file: &str) -> i32 {
    let events = match load_trace_events(file) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    print!("{}", ira_obs::summarize_events(&events).render());
    0
}

/// `ira trace profile <file|->`: fold the trace into causal span
/// trees and print the profile — text flame view with hotspots and
/// critical paths, or the JSON profile with `--json`.
fn trace_profile(file: &str, json: bool, top: usize) -> i32 {
    let events = match load_trace_events(file) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let profile = ira_obs::fold_trace(&events);
    if json {
        match serde_json::to_string(&profile) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("error: could not serialize profile: {e}");
                return 1;
            }
        }
    } else {
        print!("{}", profile.render(top));
    }
    0
}

/// Load one `trace diff` input as a flattened key→value map. Accepts
/// (and auto-detects) a JSON profile (`trace profile --json` output or
/// a checked-in baseline), a JSON metrics snapshot, or a raw JSONL
/// trace, which is folded into a profile first.
fn load_diff_input(file: &str) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let text = read_trace_input(file)?;
    let trimmed = text.trim_start();
    if trimmed.starts_with('{') {
        if let Ok(profile) = serde_json::from_str::<ira_obs::Profile>(trimmed) {
            return Ok(ira_obs::diff::flatten_profile(&profile));
        }
        if let Ok(snap) = serde_json::from_str::<ira_obs::MetricsSnapshot>(trimmed) {
            return Ok(ira_obs::diff::flatten_snapshot(&snap));
        }
        // Fall through: a one-line JSONL trace also starts with '{'.
    }
    let events = ira_obs::parse_jsonl(&text).map_err(|e| {
        format!(
            "{} is neither a profile, a metrics snapshot, nor a trace: {e}",
            input_name(file)
        )
    })?;
    Ok(ira_obs::diff::flatten_profile(&ira_obs::fold_trace(
        &events,
    )))
}

/// `ira trace diff <base> <current>`: compare two recorded inputs
/// under a uniform relative tolerance (percent; 0 = byte-exact
/// virtual-time equality). Exits non-zero when any key drifts out of
/// tolerance, naming every offending key.
fn trace_diff(base: &str, current: &str, max_regress_pct: f64) -> i32 {
    if base == "-" && current == "-" {
        eprintln!("error: only one diff input may come from stdin");
        return 1;
    }
    let base_flat = match load_diff_input(base) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let current_flat = match load_diff_input(current) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let tol = ira_obs::Tolerances::uniform(max_regress_pct / 100.0);
    let report = ira_obs::diff::diff_flat(&base_flat, &current_flat, &tol);
    print!("{}", report.render());
    i32::from(!report.is_clean())
}

/// `ira trace query <file|->`: filter a trace by stage, session, and
/// minimum span duration. Matching events are printed as JSONL — the
/// output is itself a valid trace, so it pipes back into
/// `trace summarize -` or `trace profile -`. The match count goes to
/// stderr to keep stdout replayable.
fn trace_query(
    file: &str,
    stage: Option<&str>,
    session: Option<u32>,
    slower_than: Option<u64>,
) -> i32 {
    let events = match load_trace_events(file) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let total = events.len();
    let mut matched = 0usize;
    for ev in &events {
        if let Some(s) = stage {
            if ev.stage != s {
                continue;
            }
        }
        if let Some(id) = session {
            if ev.session != id {
                continue;
            }
        }
        if let Some(floor) = slower_than {
            // Duration filters select spans; points and gauges have no
            // duration to compare.
            if ev.class != ira_obs::EventClass::Span || ev.value < floor {
                continue;
            }
        }
        println!("{}", ev.to_jsonl());
        matched += 1;
    }
    eprintln!("matched {matched} of {total} events");
    0
}

fn plan() -> i32 {
    let mut bob = cli_session(150).agent;
    bob.train();
    let answer = bob.respond_plan();
    println!("{}\n", answer.text);
    let coverage = PlanCoverage::of(&answer.text);
    println!(
        "covers {:.0}% of the expert reference components (confidence {}/10)",
        coverage.coverage() * 100.0,
        answer.confidence
    );
    0
}

fn questions_cmd(knowledge: &str, max: usize) -> i32 {
    let session = cli_session(150);
    let mut agent = match agent_from_knowledge(&session.env, knowledge) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let generated = questions::generate(&mut agent, max);
    if generated.is_empty() {
        println!("no questions could be generated — the knowledge file holds no entity facts");
        return 0;
    }
    let rows: Vec<Vec<String>> = generated
        .iter()
        .map(|q| {
            vec![
                q.novelty.to_string(),
                q.confidence.to_string(),
                q.question.clone(),
            ]
        })
        .collect();
    println!("{}", table(&["novelty", "conf", "question"], &rows));
    0
}

fn simulate(what: SimChoice) -> i32 {
    use ira_worldmodel::{storm::StormScenario, World};
    match what {
        SimChoice::Storms => {
            let world = World::standard();
            println!(
                "storm impact sweep ({} cables, Monte Carlo 200 trials):\n",
                world.cables.len()
            );
            let rows: Vec<Vec<String>> = StormScenario::catalog()
                .into_iter()
                .map(|storm| {
                    let report = world.graph.storm_report(
                        &world.cables,
                        &world.storm_model,
                        &storm,
                        200,
                        0xC11,
                    );
                    vec![
                        storm.name.clone(),
                        format!("{:.0}", storm.dst_nt),
                        format!("{:.1}", report.mean_cables_down),
                        format!("{:.3}", report.mean_pair_connectivity),
                    ]
                })
                .collect();
            println!(
                "{}",
                table(
                    &["scenario", "dst-nT", "cables-down", "pair-connectivity"],
                    &rows
                )
            );
        }
        SimChoice::Outage => {
            use ira_worldmodel::bgp::RoutingSystem;
            let mut sys = RoutingSystem::standard();
            let (before, during, after) = sys.facebook_outage_replay();
            println!(
                "facebook.com availability across edge networks:\n  pre-incident {:.0}%  ->  \
                 DNS prefixes withdrawn {:.0}%  ->  restored {:.0}%",
                before * 100.0,
                during * 100.0,
                after * 100.0
            );
            println!(
                "google.com stays at {:.0}% throughout.",
                sys.availability("google.com") * 100.0
            );
        }
        SimChoice::Economics => {
            use ira_worldmodel::econ::storm_impact;
            let world = World::standard();
            let rows: Vec<Vec<String>> = StormScenario::catalog()
                .into_iter()
                .map(|storm| {
                    let impact = storm_impact(&world, &storm, 200, 0xEC0);
                    vec![
                        storm.name.clone(),
                        format!("{:.1}", impact.grid_losses_busd),
                        format!("{:.1}", impact.connectivity_losses_busd),
                        format!("{:.1}", impact.total_busd),
                    ]
                })
                .collect();
            println!(
                "{}",
                table(
                    &["scenario", "grid-$B", "connectivity-$B", "total-$B"],
                    &rows
                )
            );
        }
    }
    0
}

/// Print the deterministic virtual-op counters (the `--opstats` global
/// flag) to stderr, so stdout stays the command's own report. Counters
/// are process-wide totals since program start.
pub fn print_opstats() {
    let llm = ira_simllm::lexicon::ops::snapshot();
    let lookups = ira_webcorpus::index::opstats::snapshot();
    eprintln!("[opstats] tokenize_chars={}", llm.tokenize_chars);
    eprintln!("[opstats] absorb_calls={}", llm.absorb_calls);
    eprintln!("[opstats] classify_calls={}", llm.classify_calls);
    eprintln!(
        "[opstats] extract_cache hits={} misses={}",
        llm.extract_hits, llm.extract_misses
    );
    eprintln!(
        "[opstats] answer_cache hits={} misses={}",
        llm.answer_hits, llm.answer_misses
    );
    eprintln!("[opstats] corpus_lookups={}", lookups.lookup_calls);
}

/// Load a knowledge store for `ira ask` and `ira mem` (graph rebuilt or
/// restored from the sidecar snapshot by [`KnowledgeStore::load`]).
fn load_store(path: &str) -> Result<KnowledgeStore, i32> {
    KnowledgeStore::load(Path::new(path)).map_err(|e| load_failed(path, &e))
}

/// Whether a load failed because the file (and its backup) is missing.
fn missing(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
}

/// Report a knowledge file that did not load; returns the exit code.
fn load_failed(path: &str, e: &StoreError) -> i32 {
    eprintln!("error: could not load {path}: {e}");
    if missing(e) {
        eprintln!("hint: run `ira train --out {path}` first");
    }
    1
}

/// `ira mem stats`: the claim graph behind a knowledge file — node
/// count, the corroboration histogram, and the per-host trust table the
/// poisoning detector votes with.
fn mem_stats(knowledge: &str) -> i32 {
    let store = match load_store(knowledge) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let stats = store.graph_stats();
    println!("entries: {}", store.len());
    println!("claim graph: {} nodes", stats.nodes);
    println!(
        "corroborated claims (≥2 hosts): {}",
        stats.corroborated_nodes
    );
    let hist: Vec<String> = stats
        .corroboration_histogram
        .iter()
        .map(u64::to_string)
        .collect();
    println!(
        "corroboration histogram [1, 2, 3, 4+ hosts]: {}",
        hist.join(" / ")
    );
    let rows: Vec<Vec<String>> = store
        .graph_host_stats()
        .into_iter()
        .map(|(host, s)| {
            vec![
                host,
                s.claims.to_string(),
                s.corroborated.to_string(),
                s.exclusive.to_string(),
            ]
        })
        .collect();
    if !rows.is_empty() {
        println!();
        println!(
            "{}",
            table(&["host", "claims", "corroborated", "exclusive"], &rows)
        );
    }
    0
}

/// `ira mem query`: the top entries retrieval returns for a query,
/// in rank order.
fn mem_query(knowledge: &str, query: &str, top: usize) -> i32 {
    let store = match load_store(knowledge) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // Retrieval needs a "now"; the newest entry's timestamp keeps the
    // recency term meaningful without a live clock.
    let now = store
        .entries()
        .iter()
        .map(|e| e.learned_at)
        .max()
        .unwrap_or(0);
    let rows: Vec<Vec<String>> = store
        .retrieve(query, top, now)
        .into_iter()
        .enumerate()
        .map(|(i, e)| vec![(i + 1).to_string(), e.source_url, e.topic])
        .collect();
    println!("query: {query:?}");
    println!("{}", table(&["rank", "source", "topic"], &rows));
    0
}

/// `ira mem provenance`: every source that asserted a claim term —
/// where a belief came from.
fn mem_provenance(knowledge: &str, term: &str) -> i32 {
    let store = match load_store(knowledge) {
        Ok(s) => s,
        Err(code) => return code,
    };
    store.with_graph(|g| match g.node_by_text(term) {
        None => {
            println!("no claim node for {term:?}");
            1
        }
        Some(node) => {
            println!(
                "claim {:?}: {} occurrences, corroborated by {} host(s)",
                term,
                node.occurrences,
                g.corroboration(node.id)
            );
            println!(
                "first seen {:.1}s, last seen {:.1}s (virtual)",
                node.first_seen_us as f64 / 1e6,
                node.last_seen_us as f64 / 1e6
            );
            let rows: Vec<Vec<String>> = g
                .sources(node.id)
                .into_iter()
                .map(|s| {
                    vec![
                        s.host,
                        s.path,
                        format!("{:.1}", s.fetched_at_us as f64 / 1e6),
                        s.session.to_string(),
                        s.entry_id.to_string(),
                    ]
                })
                .collect();
            if rows.is_empty() {
                println!("no live provenance (every asserting entry was evicted)");
            } else {
                println!(
                    "{}",
                    table(&["host", "path", "fetched-s", "session", "entry"], &rows)
                );
            }
            0
        }
    })
}

/// `ira scenario list|describe|quiz`. The output is intentionally
/// stable and diff-friendly: registry order, fixed column widths, and
/// JSONL quiz items, so CI and scripts can pin it byte-for-byte.
fn scenario_cmd(action: ScenarioAction) -> i32 {
    use ira_worldmodel::scenario::{lookup, ScenarioRegistry};
    let world = ira_worldmodel::World::standard();
    let resolve = |name: &str| {
        lookup(name).ok_or_else(|| {
            let known = ScenarioRegistry::standard().names().join(", ");
            format!("unknown scenario {name:?}; registered: {known}")
        })
    };
    match action {
        ScenarioAction::List => {
            println!(
                "{:<24} {:<18} {:>11} {:>10}",
                "name", "class", "conclusions", "event-docs"
            );
            for name in ScenarioRegistry::standard().names() {
                let s = lookup(name).expect("registry names resolve");
                println!(
                    "{:<24} {:<18} {:>11} {:>10}",
                    s.name(),
                    s.class().label(),
                    s.conclusions(&world).len(),
                    s.docs(&world).event_count()
                );
            }
            0
        }
        ScenarioAction::Describe { name } => {
            let s = match resolve(&name) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            println!("name:  {}", s.name());
            println!("class: {}", s.class().label());
            println!("{}", s.description());
            let conclusions = s.conclusions(&world);
            println!("\nconclusions ({}):", conclusions.len());
            for c in &conclusions {
                println!("  [{}] {}", c.id, c.statement);
                println!("      question: {}", c.question);
                println!("      expected: {}", c.expected_answer);
                println!("      rationale: {}", c.rationale_terms.join(", "));
                if !c.wrong_terms.is_empty() {
                    println!("      wrong-side: {}", c.wrong_terms.join(", "));
                }
            }
            let docs = s.docs(&world);
            println!("\nevent documents ({}):", docs.event_count());
            for d in &docs.events {
                println!("  [{:?}] {}", d.channel, d.title);
                for sentence in &d.sentences {
                    println!("      {sentence}");
                }
            }
            0
        }
        ScenarioAction::Quiz { name } => {
            let s = match resolve(&name) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            let quiz = QuizBank::for_scenario(&world, s.as_ref());
            for item in quiz.iter() {
                println!(
                    "{}",
                    serde_json::to_string(item).expect("quiz item serializes")
                );
            }
            0
        }
    }
}

fn audit_cmd() -> i32 {
    let world = ira_worldmodel::World::standard();
    let report = ira_worldmodel::audit(&world);
    if report.clean() {
        println!(
            "clean: {} cables, {}+{} data centers, {} grids, {} incidents pass every check",
            world.cables.len(),
            world.google.len(),
            world.facebook.len(),
            world.grids.len(),
            world.incidents.len()
        );
        0
    } else {
        for f in &report.findings {
            eprintln!("[{}] {}", f.dataset, f.message);
        }
        1
    }
}

fn corpus_stats(distractors: usize, faults: f64) -> i32 {
    let env = cli_session(distractors).env;
    println!("documents: {}", env.corpus.len());
    println!("\nby topic:");
    for (topic, count) in env.corpus.topic_counts() {
        println!("  {:<26} {count}", topic.label());
    }
    println!("\nby source:");
    for (source, count) in env.corpus.source_counts() {
        println!(
            "  {:<26} {count}  (sim://{})",
            source.label(),
            source.host()
        );
    }
    if faults > 0.0 {
        let hosts = env.client.network().host_names();
        let plan = FaultPlan::random(&hosts, faults, train_horizon(), FAULT_SEED);
        println!(
            "\nfault plan at {:.0}% intensity (seed {FAULT_SEED:#x}, horizon {}s):",
            faults * 100.0,
            train_horizon().as_secs_f64()
        );
        for (host, host_plan) in &plan.hosts {
            for w in &host_plan.windows {
                println!(
                    "  {:<26} {:>6.1}s - {:>6.1}s  {:?}",
                    host,
                    w.from.as_micros() as f64 / 1e6,
                    w.until.as_micros() as f64 / 1e6,
                    w.kind
                );
            }
        }
    }
    0
}
