//! End-to-end CLI flows through the library surface: train writes a
//! knowledge file, ask/learn/questions consume it.

use ira_cli::args::{parse, Command, RoleChoice};
use ira_cli::commands::run;

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("ira-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn train_then_ask_then_learn_round_trip() {
    let knowledge = tmp("flow-knowledge.json");
    let _ = std::fs::remove_file(&knowledge);

    // train
    let code = run(Command::Train {
        role: RoleChoice::Bob,
        out: knowledge.clone(),
        crawl_links: 0,
        distractors: 50,
        faults: 0.0,
        resume: false,
        parallel: 1,
        trace: None,
        metrics: false,
    });
    assert_eq!(code, 0);
    assert!(std::path::Path::new(&knowledge).exists());

    // ask (pre-learning: should succeed, typically a hedge)
    let code = run(Command::Ask {
        knowledge: knowledge.clone(),
        question: "Which is more vulnerable to solar activity? The fiber optic cable that \
                   connects Brazil to Europe or the one that connects the US to Europe?"
            .into(),
    });
    assert_eq!(code, 0);

    // learn (updates the file)
    let before = std::fs::read_to_string(&knowledge).unwrap();
    let code = run(Command::Learn {
        knowledge: knowledge.clone(),
        question: "Which is more vulnerable to solar activity? The fiber optic cable that \
                   connects Brazil to Europe or the one that connects the US to Europe?"
            .into(),
        threshold: 7,
    });
    assert_eq!(code, 0);
    let after = std::fs::read_to_string(&knowledge).unwrap();
    assert!(
        after.len() > before.len(),
        "learning must grow the knowledge file"
    );

    // questions from the grown knowledge
    let code = run(Command::Questions {
        knowledge: knowledge.clone(),
        max: 5,
    });
    assert_eq!(code, 0);

    std::fs::remove_file(&knowledge).ok();
}

#[test]
fn faulted_train_still_writes_knowledge_and_cleans_its_checkpoint() {
    let knowledge = tmp("chaos-knowledge.json");
    let _ = std::fs::remove_file(&knowledge);

    let code = run(Command::Train {
        role: RoleChoice::Bob,
        out: knowledge.clone(),
        crawl_links: 0,
        distractors: 50,
        faults: 0.25,
        resume: false,
        parallel: 1,
        trace: None,
        metrics: false,
    });
    assert_eq!(code, 0);
    assert!(std::path::Path::new(&knowledge).exists());
    // Completed training removes its checkpoint; --resume on a clean
    // slate then just trains from scratch.
    let ckpt = format!("{knowledge}.ckpt");
    assert!(!std::path::Path::new(&ckpt).exists());
    let code = run(Command::Train {
        role: RoleChoice::Bob,
        out: knowledge.clone(),
        crawl_links: 0,
        distractors: 50,
        faults: 0.0,
        resume: true,
        parallel: 1,
        trace: None,
        metrics: false,
    });
    assert_eq!(code, 0);

    std::fs::remove_file(&knowledge).ok();
    std::fs::remove_file(format!("{knowledge}.bak")).ok();
}

#[test]
fn parallel_train_writes_the_same_knowledge_as_serial() {
    let serial = tmp("serial-knowledge.json");
    let parallel = tmp("parallel-knowledge.json");
    let _ = std::fs::remove_file(&serial);
    let _ = std::fs::remove_file(&parallel);

    let code = run(Command::Train {
        role: RoleChoice::Bob,
        out: serial.clone(),
        crawl_links: 0,
        distractors: 50,
        faults: 0.0,
        resume: false,
        parallel: 1,
        trace: None,
        metrics: false,
    });
    assert_eq!(code, 0);

    // Session 0 of a parallel run uses the serial seeds, so the file
    // it writes must match the serial run byte for byte.
    let code = run(parse(&[
        "train".to_string(),
        "--out".to_string(),
        parallel.clone(),
        "--distractors".to_string(),
        "50".to_string(),
        "--parallel".to_string(),
        "3".to_string(),
    ])
    .unwrap());
    assert_eq!(code, 0);

    let serial_bytes = std::fs::read(&serial).unwrap();
    let parallel_bytes = std::fs::read(&parallel).unwrap();
    assert_eq!(serial_bytes, parallel_bytes);

    std::fs::remove_file(&serial).ok();
    std::fs::remove_file(&parallel).ok();
}

#[test]
fn parallel_quiz_reports_all_agents() {
    let code = run(Command::Quiz {
        incidents: false,
        threshold: 7,
        report: None,
        parallel: 2,
        trace: None,
        metrics: false,
    });
    assert_eq!(code, 0);
}

#[test]
fn ask_with_missing_knowledge_file_fails_cleanly() {
    let code = run(Command::Ask {
        knowledge: tmp("definitely-missing.json"),
        question: "anything".into(),
    });
    assert_eq!(code, 1);
}

#[test]
fn corpus_and_help_commands_succeed() {
    assert_eq!(
        run(Command::Corpus {
            distractors: 10,
            faults: 0.0
        }),
        0
    );
    assert_eq!(run(Command::Help), 0);
    assert_eq!(run(parse(&["help".to_string()]).unwrap()), 0);
}

#[test]
fn traced_train_is_thread_count_invariant_and_summarizable() {
    let knowledge = tmp("trace-knowledge.json");
    let trace1 = tmp("train-p1.jsonl");
    let trace4 = tmp("train-p4.jsonl");
    for f in [&knowledge, &trace1, &trace4] {
        let _ = std::fs::remove_file(f);
    }

    let base = |out: &str, trace: &str, parallel: usize| Command::Train {
        role: RoleChoice::Bob,
        out: out.to_string(),
        crawl_links: 0,
        distractors: 50,
        faults: 0.0,
        resume: false,
        parallel,
        trace: Some(trace.to_string()),
        metrics: false,
    };
    assert_eq!(run(base(&knowledge, &trace1, 1)), 0);
    assert_eq!(run(base(&knowledge, &trace4, 4)), 0);

    let one = std::fs::read_to_string(&trace1).unwrap();
    let four = std::fs::read_to_string(&trace4).unwrap();
    assert!(!one.is_empty(), "serial trace must record events");
    assert!(
        four.len() > one.len(),
        "four sessions must record more than one"
    );
    // Per-session determinism: the serial run IS session 0, and the
    // JSONL file is rendered in session order, so the parallel trace
    // must start with the serial trace byte for byte.
    assert!(
        four.starts_with(&one),
        "session 0 of --parallel 4 must match --parallel 1 exactly"
    );
    // Every line of the wider trace belongs to a session in 0..4.
    for line in four.lines() {
        assert!(
            line.contains("\"session\":"),
            "line missing session: {line}"
        );
    }

    assert_eq!(
        run(Command::TraceSummarize {
            file: trace4.clone()
        }),
        0
    );
    // Summarizing garbage fails cleanly.
    let junk = tmp("junk.jsonl");
    std::fs::write(&junk, "not json\n").unwrap();
    assert_eq!(run(Command::TraceSummarize { file: junk.clone() }), 1);
    assert_eq!(
        run(Command::TraceSummarize {
            file: tmp("missing.jsonl")
        }),
        1
    );

    for f in [&knowledge, &trace1, &trace4, &junk] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn trace_profile_diff_and_query_flows() {
    let knowledge = tmp("profile-knowledge.json");
    let trace = tmp("profile-trace.jsonl");
    for f in [&knowledge, &trace] {
        let _ = std::fs::remove_file(f);
    }
    assert_eq!(
        run(Command::Train {
            role: RoleChoice::Bob,
            out: knowledge.clone(),
            crawl_links: 0,
            distractors: 50,
            faults: 0.0,
            resume: false,
            parallel: 1,
            trace: Some(trace.clone()),
            metrics: false,
        }),
        0
    );

    // Profile the recorded trace, text and JSON renderings.
    assert_eq!(
        run(Command::TraceProfile {
            file: trace.clone(),
            json: false,
            top: 5,
        }),
        0
    );
    assert_eq!(
        run(Command::TraceProfile {
            file: trace.clone(),
            json: true,
            top: 10,
        }),
        0
    );

    // A trace diffed against itself is clean at zero tolerance.
    assert_eq!(
        run(Command::TraceDiff {
            base: trace.clone(),
            current: trace.clone(),
            max_regress: 0.0,
        }),
        0
    );

    // Query filters compose and exit 0 even when nothing matches.
    assert_eq!(
        run(Command::TraceQuery {
            file: trace.clone(),
            stage: Some("llm".into()),
            session: Some(0),
            slower_than: Some(1),
        }),
        0
    );
    assert_eq!(
        run(Command::TraceQuery {
            file: trace.clone(),
            stage: Some("no-such-stage".into()),
            session: None,
            slower_than: None,
        }),
        0
    );

    for f in [&knowledge, &trace] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn trace_diff_catches_a_regression_and_respects_tolerance() {
    // Two handmade single-span traces: the llm call got 10% slower.
    let base = tmp("diff-base.jsonl");
    let current = tmp("diff-current.jsonl");
    let span = |value: u64| {
        format!(
            "{{\"at_us\":0,\"class\":\"Span\",\"detail\":\"\",\"name\":\"call\",\
             \"parent_id\":0,\"session\":0,\"span_id\":1,\"stage\":\"llm\",\"value\":{value}}}\n"
        )
    };
    std::fs::write(&base, span(1000)).unwrap();
    std::fs::write(&current, span(1100)).unwrap();

    // Zero tolerance: the 10% slowdown is a failure.
    assert_eq!(
        run(Command::TraceDiff {
            base: base.clone(),
            current: current.clone(),
            max_regress: 0.0,
        }),
        1
    );
    // A 15% budget forgives it.
    assert_eq!(
        run(Command::TraceDiff {
            base: base.clone(),
            current: current.clone(),
            max_regress: 15.0,
        }),
        0
    );

    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&current).ok();
}

#[test]
fn malformed_trace_inputs_fail_with_exit_one() {
    let junk = tmp("profile-junk.jsonl");
    std::fs::write(&junk, "{\"at_us\":0}\nnot json\n").unwrap();
    let missing = tmp("profile-missing.jsonl");
    let _ = std::fs::remove_file(&missing);

    assert_eq!(
        run(Command::TraceProfile {
            file: junk.clone(),
            json: false,
            top: 10,
        }),
        1
    );
    assert_eq!(
        run(Command::TraceProfile {
            file: missing.clone(),
            json: true,
            top: 10,
        }),
        1
    );
    assert_eq!(
        run(Command::TraceDiff {
            base: junk.clone(),
            current: junk.clone(),
            max_regress: 0.0,
        }),
        1
    );
    assert_eq!(
        run(Command::TraceQuery {
            file: junk.clone(),
            stage: None,
            session: None,
            slower_than: None,
        }),
        1
    );
    // Both diff inputs cannot come from stdin.
    assert_eq!(
        run(Command::TraceDiff {
            base: "-".into(),
            current: "-".into(),
            max_regress: 0.0,
        }),
        1
    );

    std::fs::remove_file(&junk).ok();
}

#[test]
fn quiz_with_metrics_and_trace_succeeds() {
    let trace = tmp("quiz-trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let code = run(Command::Quiz {
        incidents: false,
        threshold: 7,
        report: None,
        parallel: 1,
        trace: Some(trace.clone()),
        metrics: true,
    });
    assert_eq!(code, 0);
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.lines().all(|l| l.contains("\"session\":0")),
        "single-agent quiz trace is all session 0"
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn out_of_range_thresholds_are_usage_errors() {
    // `--threshold` is range-checked by `AgentConfig::validate`: an
    // oversized value must not wrap into range (256 would become 0, a
    // quiz that never self-learns), and 0 and 11 are outside 1..=10.
    let knowledge = tmp("threshold-rejected.json");
    let _ = std::fs::remove_file(&knowledge);
    for t in ["256", "0", "11"] {
        let quiz = parse(&["quiz", "--threshold", t].map(String::from)).unwrap();
        assert_eq!(run(quiz), 2, "quiz --threshold {t}");
        let learn = parse(
            &[
                "learn",
                "--knowledge",
                knowledge.as_str(),
                "--threshold",
                t,
                "what is a CME?",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(run(learn), 2, "learn --threshold {t}");
    }
    assert!(
        !std::path::Path::new(&knowledge).exists(),
        "a rejected learn must not touch the knowledge file"
    );
}

#[test]
fn obs_render_rejects_a_malformed_sketch_with_one_error_line() {
    // A stats snapshot whose queue sketch claims three values but
    // holds none (rendering it would index past the end), and one
    // whose lone bucket would print made-up percentiles.
    let snapshot = |queue: &str| {
        format!(
            "{{\"at_us\":0,\"window_us\":60000000,\"samples\":1,\"window\":[],\"total\":\
             [[\"solar-superstorm/train\",{{\"arrivals\":1,\"admitted\":1,\"shed\":0,\
             \"invalid\":0,\"ok\":1,\"degraded\":0,\"deadline_miss\":0,\"failed\":0,\
             \"retries\":0,\"queue\":{queue},\
             \"exec\":{{\"count\":0,\"sum_us\":0,\"max_us\":0}}}}]]}}"
        )
    };
    let valid = snapshot("{\"exact\":[5],\"count\":1,\"sum_us\":5,\"max_us\":5}");
    let cases = [
        ("missing-exact", "{\"count\":3,\"sum_us\":5,\"max_us\":5}"),
        (
            "short-buckets",
            "{\"buckets\":[1],\"count\":3,\"sum_us\":5,\"max_us\":5}",
        ),
    ];
    let render = |path: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ira"))
            .args(["obs", "render", path])
            .output()
            .expect("ira binary runs")
    };

    let good = tmp("obs-render-valid.json");
    std::fs::write(&good, valid).unwrap();
    let out = render(&good);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("queue_us: p50=5"));
    std::fs::remove_file(&good).ok();

    for (name, queue) in cases {
        let path = tmp(&format!("obs-render-{name}.json"));
        std::fs::write(&path, snapshot(queue)).unwrap();
        let out = render(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert!(stderr.starts_with("error: "), "{name}: {stderr}");
        assert!(
            stderr.contains("invalid QuantileSketch"),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}: nothing is rendered");
        std::fs::remove_file(&path).ok();
    }
}

/// The previous format (`IRAGRPH1`) of an `IRAGRPH2` claim-graph
/// snapshot: a decayed flag of 0 after each node's last-seen time, an
/// empty edge section before the entries, and a decay count of 0 at
/// the end.
fn graph_v1(v2: &[u8]) -> Vec<u8> {
    assert_eq!(&v2[..8], b"IRAGRPH2");
    let u32_at = |at: usize| u32::from_le_bytes(v2[at..at + 4].try_into().unwrap()) as usize;
    let str_end = |at: usize| at + 4 + u32_at(at);
    let mut out = b"IRAGRPH1".to_vec();
    out.extend_from_slice(&v2[8..12]);
    let mut at = 12;
    for _ in 0..u32_at(8) {
        // Term, occurrences, first and last seen.
        let start = at;
        at = str_end(at) + 4 + 8 + 8;
        out.extend_from_slice(&v2[start..at]);
        out.push(0);
        // Sources: host, path, fetch time, session, entry id.
        let start = at;
        let sources = u32_at(at);
        at += 4;
        for _ in 0..sources {
            at = str_end(str_end(at)) + 8 + 4 + 8;
        }
        out.extend_from_slice(&v2[start..at]);
    }
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&v2[at..]);
    out.extend_from_slice(&0u64.to_le_bytes());
    out
}

#[test]
fn mem_inspects_the_claim_graph_and_rebuilds_from_a_stale_sidecar() {
    let knowledge = tmp("mem-knowledge.json");
    let sidecar = ira_agentmem::KnowledgeStore::graph_snapshot_path(knowledge.as_ref());
    let backup = ira_agentmem::persist::backup_path(&sidecar);
    for path in [knowledge.as_ref(), sidecar.as_path(), backup.as_path()] {
        std::fs::remove_file(path).ok();
    }
    let ira = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ira"))
            .args(args)
            .output()
            .expect("ira binary runs");
        let stdout = String::from_utf8(out.stdout).unwrap();
        (out.status.code(), stdout)
    };
    assert_eq!(ira(&["train", "--out", &knowledge]).0, Some(0));
    let mem = |action: &[&str]| {
        let mut args = vec!["mem"];
        args.extend_from_slice(action);
        args.extend_from_slice(&["--knowledge", &knowledge]);
        ira(&args)
    };

    let (code, stats) = mem(&["stats"]);
    assert_eq!(code, Some(0), "{stats}");
    assert!(stats.contains("\nclaim graph: "), "{stats}");
    assert!(stats.contains(" nodes\n"), "{stats}");
    assert!(stats.contains("host "), "{stats}");
    assert!(stats.contains("encyclopedia.test"), "{stats}");
    let (code, provenance) = mem(&["provenance", "geomagnetic"]);
    assert_eq!(code, Some(0), "{provenance}");
    assert!(
        provenance.starts_with("claim \"geomagnetic\": "),
        "{provenance}"
    );
    assert!(provenance.contains("fetched-s"), "{provenance}");
    assert!(provenance.contains("/wiki/"), "{provenance}");
    assert!(!provenance.contains("co-occurrence"), "{provenance}");
    assert_eq!(mem(&["query", "geomagnetic latitude"]).0, Some(0));
    let (code, missing) = mem(&["provenance", "zzzunknownzzz"]);
    assert_eq!(code, Some(1));
    assert!(missing.contains("no claim node"), "{missing}");

    // A sidecar in the previous format does not decode, so the graph is
    // rebuilt from the entries: with no evictions, the same graph.
    let payload = ira_agentmem::load_bytes_with_backup(&sidecar).unwrap();
    ira_agentmem::save_atomic_bytes(&sidecar, &graph_v1(&payload)).unwrap();
    std::fs::remove_file(&backup).unwrap();
    assert_eq!(mem(&["stats"]), (Some(0), stats));
    assert_eq!(mem(&["provenance", "geomagnetic"]), (Some(0), provenance));

    for path in [knowledge.as_ref(), sidecar.as_path()] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn bench_diff_passes_an_identical_report_and_names_a_bumped_counter() {
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_serve_smoke.json"
    );
    let diff = |current: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ira"))
            .args(["bench", "diff", baseline, current])
            .output()
            .expect("ira binary runs")
    };

    let same = diff(baseline);
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // Bump one counter; the report is re-serialized the way serve_load
    // writes it, so the bump is its only change. `bench diff` keys a
    // counter by its position in the snapshot's sorted counter list.
    let text = std::fs::read_to_string(baseline).unwrap();
    let mut snapshot: ira_obs::MetricsSnapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&snapshot).unwrap() + "\n",
        text
    );
    let index = snapshot
        .counters
        .keys()
        .position(|k| k == "fetch.page")
        .expect("the smoke batch fetches pages");
    *snapshot.counters.get_mut("fetch.page").unwrap() += 1;
    let bumped = tmp("bench-diff-bumped.json");
    std::fs::write(&bumped, serde_json::to_string_pretty(&snapshot).unwrap()).unwrap();

    let out = diff(&bumped);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let flagged: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("REGRESSION "))
        .collect();
    assert_eq!(flagged.len(), 1, "{stdout}");
    assert!(
        flagged[0].starts_with(&format!("REGRESSION counters.{index}.1: ")),
        "{stdout}"
    );
    std::fs::remove_file(&bumped).ok();
}

/// Run the built `ira`; returns (exit code, stdout, stderr).
fn ira(args: &[&str]) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ira"))
        .args(args)
        .output()
        .expect("ira binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const FLAGSHIP: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                        that connects Brazil to Europe or the one that connects the US to \
                        Europe?";

/// A freshly trained knowledge file at `name`, with no `.bak`.
fn trained(name: &str) -> String {
    let knowledge = tmp(name);
    std::fs::remove_file(&knowledge).ok();
    std::fs::remove_file(format!("{knowledge}.bak")).ok();
    assert_eq!(ira(&["train", "--out", &knowledge]).0, Some(0));
    knowledge
}

#[test]
fn learn_on_a_knowledge_file_that_fails_to_load_exits_1_and_leaves_it() {
    let knowledge = trained("learn-corrupt.json");
    // Flip one byte of the body: the checksum no longer matches, and
    // there is no backup to fall back to.
    let raw = std::fs::read_to_string(&knowledge).unwrap();
    let corrupt = raw.replacen("geomagnetic", "geomagnetiC", 1);
    assert_ne!(corrupt, raw);
    std::fs::write(&knowledge, &corrupt).unwrap();

    let (code, stdout, stderr) = ira(&["learn", "--knowledge", &knowledge, FLAGSHIP]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("checksum mismatch"), "{stderr}");
    assert!(!stdout.contains("starting fresh"), "{stdout}");
    assert_eq!(std::fs::read_to_string(&knowledge).unwrap(), corrupt);
    assert!(!std::path::Path::new(&format!("{knowledge}.bak")).exists());

    // A missing file still starts fresh.
    std::fs::remove_file(&knowledge).unwrap();
    let (code, stdout, _) = ira(&["learn", "--knowledge", &knowledge, FLAGSHIP]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("starting fresh"), "{stdout}");
    for suffix in ["", ".graph"] {
        std::fs::remove_file(format!("{knowledge}{suffix}")).ok();
    }
}

#[test]
fn knowledge_values_out_of_range_exit_1_naming_the_field() {
    let knowledge = trained("learn-probes.json");
    let body = ira_agentmem::load_with_backup(knowledge.as_ref()).unwrap();
    let probes = [
        (
            "\"importance\":1.0,\"learned_at\"",
            "\"importance\":1e300,\"learned_at\"",
            "entries[0].importance",
        ),
        ("\"capacity\":2000", "\"capacity\":0", "config.capacity"),
        (
            "\"half_life_secs\":3600.0",
            "\"half_life_secs\":0",
            "config.weights.half_life_secs",
        ),
        ("\"next_id\":15", "\"next_id\":0", "next_id"),
    ];
    let probe = tmp("learn-probe.json");
    for (from, to, field) in probes {
        assert!(body.contains(from), "{from}");
        for path in [probe.clone(), format!("{probe}.bak")] {
            std::fs::remove_file(path).ok();
        }
        // Re-enveloped, so the checksum matches the edited body.
        ira_agentmem::save_atomic(probe.as_ref(), &body.replacen(from, to, 1)).unwrap();
        let before = std::fs::read(&probe).unwrap();
        let (code, stdout, stderr) = ira(&["learn", "--knowledge", &probe, FLAGSHIP]);
        assert_eq!(code, Some(1), "{to}: {stdout}{stderr}");
        assert!(stderr.contains(field), "{to}: {stderr}");
        assert_eq!(std::fs::read(&probe).unwrap(), before, "{to}");
        let (code, _, stderr) = ira(&["ask", "--knowledge", &probe, FLAGSHIP]);
        assert_eq!(code, Some(1), "{to}: {stderr}");
        assert!(stderr.contains(field), "{to}: {stderr}");
        // The file is there: no hint to train over it.
        assert!(!stderr.contains("hint"), "{to}: {stderr}");
    }
    for suffix in ["", ".graph"] {
        std::fs::remove_file(format!("{knowledge}{suffix}")).ok();
    }
    std::fs::remove_file(&probe).ok();
}

#[test]
fn faulted_train_charges_faults_across_the_run() {
    let knowledge = tmp("faults-charged.json");
    for crawl in ["0", "2"] {
        std::fs::remove_file(&knowledge).ok();
        let (code, stdout, stderr) = ira(&[
            "train", "--faults", "0.4", "--crawl", crawl, "--out", &knowledge,
        ]);
        assert_eq!(code, Some(0), "{stderr}");
        let charged: u64 = stdout
            .split("faults charged: ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no fault line: {stdout}"));
        assert!(charged > 1, "--crawl {crawl}: {stdout}");
    }
    for suffix in ["", ".bak", ".graph", ".graph.bak"] {
        std::fs::remove_file(format!("{knowledge}{suffix}")).ok();
    }
}
