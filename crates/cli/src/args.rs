//! Hand-rolled argument parsing for the `ira` CLI.
//!
//! Deliberately dependency-free: the grammar is small (one subcommand,
//! a handful of `--flag value` options, one positional), and keeping it
//! in-tree means the whole workspace builds from the offline
//! dependency set. Each subcommand lists the flags it defines; any
//! other `--flag` is a usage error that names it.

use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Train an agent and write its knowledge file.
    Train {
        role: RoleChoice,
        out: String,
        crawl_links: usize,
        distractors: usize,
        /// Fault intensity in [0, 1]: fraction of hosts given seeded
        /// fault windows (0 disables fault injection).
        faults: f64,
        /// Resume from the training checkpoint next to `out`.
        resume: bool,
        /// Train this many independently seeded sessions on worker
        /// threads (1 = the classic serial path).
        parallel: usize,
        /// Write a replayable JSONL trace of every session here.
        trace: Option<String>,
        /// Print the metrics summary table after the run.
        metrics: bool,
    },
    /// Answer one question from a knowledge file.
    Ask { knowledge: String, question: String },
    /// Self-learn a question (updates the knowledge file).
    Learn {
        knowledge: String,
        question: String,
        /// `--threshold` as typed; `AgentConfig::validate` range-checks
        /// it when the command runs.
        threshold: usize,
    },
    /// Run the full quiz evaluation.
    Quiz {
        incidents: bool,
        /// `--threshold` as typed (see [`Command::Learn`]).
        threshold: usize,
        report: Option<String>,
        /// Evaluate this many independently seeded agents on worker
        /// threads and report each (1 = single agent, classic output).
        parallel: usize,
        /// Write a replayable JSONL trace of every session here.
        trace: Option<String>,
        /// Print the metrics summary table after the run.
        metrics: bool,
    },
    /// Generate a storm response plan.
    Plan,
    /// Generate research questions from a knowledge file.
    Questions { knowledge: String, max: usize },
    /// Print corpus statistics.
    Corpus { distractors: usize, faults: f64 },
    /// Run a world-model simulation.
    Simulate { what: SimChoice },
    /// Inspect the registered incident scenarios.
    Scenario { action: ScenarioAction },
    /// Summarize a JSONL trace file into the metrics table.
    TraceSummarize { file: String },
    /// Fold a JSONL trace into causal span trees and print the
    /// profile (flame view, hotspots, critical paths).
    TraceProfile {
        file: String,
        /// Emit the JSON profile instead of the text view.
        json: bool,
        /// Hotspot table size.
        top: usize,
    },
    /// Diff two traces/profiles/snapshots and report regressions.
    TraceDiff {
        base: String,
        current: String,
        /// Allowed relative drift, in percent (0 = exact).
        max_regress: f64,
    },
    /// Filter a trace's events by stage, session, or duration.
    TraceQuery {
        file: String,
        stage: Option<String>,
        session: Option<u32>,
        slower_than: Option<u64>,
    },
    /// Serve investigation requests (JSONL in, JSONL out) through the
    /// resilient multi-tenant serve layer.
    Serve {
        /// Read requests from this file instead of stdin.
        input: Option<String>,
        /// Worker threads. Responses are byte-identical across values.
        workers: usize,
        /// Admission token-bucket refill rate, requests per second.
        rate: f64,
        /// Admission token-bucket burst capacity.
        burst: u32,
        /// Default virtual deadline (µs) for requests that carry none.
        deadline_us: Option<u64>,
        /// Write the serve trace (a `serve.request` span per request).
        trace: Option<String>,
        /// Print a sample request batch and exit.
        example: bool,
        /// Print a live-telemetry snapshot to stderr every N requests.
        stats_every: Option<usize>,
        /// Write flight-recorder post-mortem dumps into this directory.
        flight: Option<String>,
    },
    /// Render a live-telemetry snapshot (stats text or Prometheus
    /// exposition) from a snapshot JSON or a serve response transcript.
    ObsRender {
        file: String,
        /// Emit Prometheus exposition format instead of the text view.
        prom: bool,
    },
    /// Diff two BENCH_*.json reports and flag integer-field drift.
    BenchDiff {
        base: String,
        current: String,
        /// Allowed relative drift, in percent (0 = exact).
        max_regress: f64,
    },
    /// Inspect the claim graph behind a knowledge file.
    Mem { action: MemAction },
    /// Audit the built-in databases.
    Audit,
    /// Print usage.
    Help,
}

/// What `ira mem` does.
#[derive(Debug, Clone, PartialEq)]
pub enum MemAction {
    /// Print graph statistics: node count, corroboration histogram,
    /// per-host trust table.
    Stats { knowledge: String },
    /// The top entries retrieval returns for a query, in rank order.
    Query {
        knowledge: String,
        query: String,
        top: usize,
    },
    /// Show the provenance of a claim term: every source that asserted
    /// it, with host, path, fetch time, and session.
    Provenance { knowledge: String, term: String },
}

/// What `ira scenario` does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioAction {
    /// One line per registered scenario: name, class, counts.
    List,
    /// Full spec of one scenario: conclusions and event documents.
    Describe { name: String },
    /// The scenario's derived quiz as JSONL, one item per line.
    Quiz { name: String },
}

/// What `ira simulate` runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimChoice {
    /// Storm impact sweep over the scenario catalog.
    Storms,
    /// The 2021 Facebook outage replay on the BGP substrate.
    Outage,
    /// Economic impact per scenario.
    Economics,
}

/// Which built-in role to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleChoice {
    Bob,
    Alice,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

pub const USAGE: &str = "\
ira — interactive research agent for Internet incident investigation

USAGE:
    ira <command> [options]

COMMANDS:
    train       Train an agent and save its knowledge
                  --role bob|alice        (default bob)
                  --out <file>            (default knowledge.json)
                  --crawl <n>             related links to follow (default 0)
                  --distractors <n>       corpus distractor count (default 150)
                  --faults <0..1>         fault-injection intensity (default 0)
                  --resume                resume from the training checkpoint
                  --parallel <n>          train n seeded sessions on worker threads
                                          (default 1; session 0 writes --out)
                  --trace <file>          write a replayable JSONL trace
                  --metrics               print the metrics summary table
    ask         Answer a question from saved knowledge
                  --knowledge <file>      (default knowledge.json)
                  \"<question>\"
    learn       Self-learn a question, updating the knowledge file
                  --knowledge <file>      (default knowledge.json)
                  --threshold <1-10>      confidence threshold (default 7)
                  \"<question>\"
    quiz        Train + evaluate against the expert conclusions
                  --incidents             use the incident quiz instead
                  --threshold <1-10>      (default 7)
                  --report <file>         write a markdown report
                  --parallel <n>          evaluate n seeded agents on worker threads
                                          (default 1; classic single-agent output)
                  --trace <file>          write a replayable JSONL trace
                  --metrics               print the metrics summary table
    serve       Serve investigation requests through the resilient
                multi-tenant serve layer: JSONL requests on stdin (or
                --input), one JSONL response per line on stdout, in
                request order. Admission control sheds overload with
                typed `serve.overloaded` responses; per-request virtual
                deadlines degrade gracefully (`degraded: true` with
                partial results); panicking sessions are isolated and
                retried with seeded backoff. Responses and traces are
                byte-identical for any --workers value.
                  --input <file>          read requests from a file
                  --workers <n>           worker threads (default 4)
                  --rate <per-sec>        admission refill rate (default 2)
                  --burst <n>             admission burst size (default 8)
                  --deadline-us <µs>      default virtual deadline
                  --trace <file>          write the serve trace
                  --example               print a sample request batch
                  --stats-every <n>       print a live-telemetry snapshot
                                          to stderr every n requests
                  --flight <dir>          write flight-recorder post-mortem
                                          dumps (one JSONL per trigger)
                                          into this directory
    plan        Train + produce a storm response plan
    questions   Propose research questions from saved knowledge
                  --knowledge <file>      (default knowledge.json)
                  --max <n>               (default 10)
    corpus      Print synthetic-web statistics
                  --distractors <n>       (default 150)
                  --faults <0..1>         report the fault plan at this intensity
    simulate    Run a world-model simulation
                  storms | outage | economics   (default storms)
    scenario    Inspect the registered incident scenarios (stable,
                diff-friendly output; each scenario derives its own
                corpus slice and ground-truth quiz from the world model)
                  list                    one line per scenario: name,
                                          class, conclusion and event-doc
                                          counts
                  describe <name>         the full spec: every conclusion
                                          with its question, expected
                                          answer and rationale terms, and
                                          the event documents the
                                          scenario injects into the corpus
                  quiz <name>             the derived quiz as JSONL, one
                                          item per line
    trace       Inspect a recorded trace (every action accepts `-`
                to read the trace from stdin)
                  summarize <file>        print the deterministic
                                          per-stage latency/count table
                  profile <file>          fold the trace into causal span
                                          trees: inclusive/exclusive
                                          virtual time, hotspots,
                                          per-session critical paths
                    --json                emit the JSON profile instead
                    --top <n>             hotspot table size (default 10)
                  diff <base> <current>   compare two traces, profiles
                                          (--json output), or metrics
                                          snapshots; non-zero exit and
                                          a sorted report on drift
                    --max-regress <pct>   allowed relative drift in
                                          percent (default 0 = exact)
                  query <file>            grep the causal tree
                    --stage <stage>       keep events of this stage
                    --session <n>         keep one session
                    --slower-than <µs>    keep spans at least this long
    mem         Inspect the claim graph behind a knowledge file (all
                actions accept --knowledge <file>, default
                knowledge.json)
                  stats                   node count, corroboration
                                          histogram, per-host trust table
                  query \"<terms>\"         the top entries retrieval returns
                                          for the query, in rank order
                    --top <n>             entries to show (default 5)
                  provenance \"<term>\"     every source that asserted a
                                          claim term: host, path, fetch
                                          time, session
    obs         Observability utilities
                  render <file>           render a live-telemetry snapshot
                                          (a snapshot JSON, or a serve
                                          response transcript — the last
                                          stats payload is used; `-` reads
                                          stdin)
                    --prom                Prometheus exposition format
                                          instead of the text view
    bench       Benchmark report utilities
                  diff <base> <current>   compare two BENCH_*.json reports
                                          field by field (integer fields
                                          only — floats are host timing);
                                          non-zero exit on drift
                    --max-regress <pct>   allowed relative drift in
                                          percent (default 0 = exact)
    audit       Integrity-check the built-in databases
    help        Show this message

GLOBAL OPTIONS:
    --opstats   After the command, print the deterministic virtual-op
                counters (characters tokenized, cache hits, documents
                scanned) to stderr — the counters behind the
                p1_hotpath perf baseline
";

/// Strip the global `--opstats` flag from an argument list. Returns
/// the remaining arguments and whether the flag was present. Global
/// flags are removed before command parsing so they never collide with
/// positionals.
pub fn split_opstats(args: &[String]) -> (Vec<String>, bool) {
    let mut present = false;
    let rest = args
        .iter()
        .filter(|a| {
            if *a == "--opstats" {
                present = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, present)
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().unwrap_or("help");
    let rest: Vec<&str> = it.collect();
    // The action of a command that has actions, and its arguments.
    let action = rest.first().copied();
    let sub = rest.get(1..).unwrap_or(&[]);

    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "train" => {
            let a = Args::new(
                "train",
                &rest,
                &[
                    "--role",
                    "--out",
                    "--crawl",
                    "--distractors",
                    "--faults",
                    "--parallel",
                    "--trace",
                ],
                &["--resume", "--metrics"],
            )?;
            let role = match a.value("--role")?.unwrap_or("bob") {
                "bob" => RoleChoice::Bob,
                "alice" => RoleChoice::Alice,
                other => return Err(ParseError(format!("unknown role {other:?}"))),
            };
            Ok(Command::Train {
                role,
                out: a.value("--out")?.unwrap_or("knowledge.json").to_string(),
                crawl_links: a.num("--crawl", 0)?,
                distractors: a.num("--distractors", 150)?,
                faults: a.fraction("--faults", 0.0)?,
                resume: a.switch("--resume"),
                parallel: a.num("--parallel", 1)?.max(1),
                trace: a.value("--trace")?.map(str::to_string),
                metrics: a.switch("--metrics"),
            })
        }
        "ask" => {
            let a = Args::new("ask", &rest, &["--knowledge"], &[])?;
            Ok(Command::Ask {
                knowledge: a.knowledge()?,
                question: a
                    .positional()
                    .ok_or_else(|| ParseError("ask needs a question".into()))?,
            })
        }
        "learn" => {
            let a = Args::new("learn", &rest, &["--knowledge", "--threshold"], &[])?;
            Ok(Command::Learn {
                knowledge: a.knowledge()?,
                threshold: a.num("--threshold", 7)?,
                question: a
                    .positional()
                    .ok_or_else(|| ParseError("learn needs a question".into()))?,
            })
        }
        "quiz" => {
            let a = Args::new(
                "quiz",
                &rest,
                &["--threshold", "--report", "--parallel", "--trace"],
                &["--incidents", "--metrics"],
            )?;
            Ok(Command::Quiz {
                incidents: a.switch("--incidents"),
                threshold: a.num("--threshold", 7)?,
                report: a.value("--report")?.map(str::to_string),
                parallel: a.num("--parallel", 1)?.max(1),
                trace: a.value("--trace")?.map(str::to_string),
                metrics: a.switch("--metrics"),
            })
        }
        "serve" => {
            let a = Args::new(
                "serve",
                &rest,
                &[
                    "--input",
                    "--workers",
                    "--rate",
                    "--burst",
                    "--deadline-us",
                    "--trace",
                    "--stats-every",
                    "--flight",
                ],
                &["--example"],
            )?;
            let rate = match a.value("--rate")? {
                Some(v) => v.parse::<f64>().map_err(|_| {
                    ParseError(format!("--rate expects requests per second, got {v:?}"))
                })?,
                None => 2.0,
            };
            if rate.is_nan() || rate <= 0.0 {
                return Err(ParseError(format!("--rate must be positive, got {rate}")));
            }
            let deadline_us = match a.value("--deadline-us")? {
                Some(v) => Some(v.parse::<u64>().map_err(|_| {
                    ParseError(format!("--deadline-us expects microseconds, got {v:?}"))
                })?),
                None => None,
            };
            Ok(Command::Serve {
                input: a.value("--input")?.map(str::to_string),
                workers: a.num("--workers", 4)?.max(1),
                rate,
                burst: a.num("--burst", 8)?.max(1) as u32,
                deadline_us,
                trace: a.value("--trace")?.map(str::to_string),
                example: a.switch("--example"),
                stats_every: match a.value("--stats-every")? {
                    Some(v) => Some(v.parse::<usize>().map_err(|_| {
                        ParseError(format!("--stats-every expects a request count, got {v:?}"))
                    })?)
                    .filter(|n| *n > 0),
                    None => None,
                },
                flight: a.value("--flight")?.map(str::to_string),
            })
        }
        "obs" => match action {
            Some("render") => {
                let a = Args::new("obs render", sub, &[], &["--prom"])?;
                let file = a.positional().ok_or_else(|| {
                    ParseError("obs render needs a snapshot or transcript file (or -)".into())
                })?;
                Ok(Command::ObsRender {
                    file,
                    prom: a.switch("--prom"),
                })
            }
            Some(other) => Err(ParseError(format!(
                "unknown obs action {other:?}; expected render"
            ))),
            None => Err(ParseError("obs needs an action: render".into())),
        },
        "bench" => match action {
            Some("diff") => {
                let a = Args::new("bench diff", sub, &["--max-regress"], &[])?;
                let (base, current, max_regress) = a.diff_inputs("bench diff")?;
                Ok(Command::BenchDiff {
                    base,
                    current,
                    max_regress,
                })
            }
            Some(other) => Err(ParseError(format!(
                "unknown bench action {other:?}; expected diff"
            ))),
            None => Err(ParseError("bench needs an action: diff".into())),
        },
        "plan" => {
            Args::new("plan", &rest, &[], &[])?;
            Ok(Command::Plan)
        }
        "mem" => {
            let action = match action {
                Some("stats") => {
                    let a = Args::new("mem stats", sub, &["--knowledge"], &[])?;
                    MemAction::Stats {
                        knowledge: a.knowledge()?,
                    }
                }
                Some("query") => {
                    let a = Args::new("mem query", sub, &["--knowledge", "--top"], &[])?;
                    MemAction::Query {
                        knowledge: a.knowledge()?,
                        query: a
                            .positional()
                            .ok_or_else(|| ParseError("mem query needs a query string".into()))?,
                        top: a.num("--top", 5)?.max(1),
                    }
                }
                Some("provenance") => {
                    let a = Args::new("mem provenance", sub, &["--knowledge"], &[])?;
                    MemAction::Provenance {
                        knowledge: a.knowledge()?,
                        term: a
                            .positional()
                            .ok_or_else(|| ParseError("mem provenance needs a term".into()))?,
                    }
                }
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown mem action {other:?}; expected stats|query|provenance"
                    )))
                }
                None => {
                    return Err(ParseError(
                        "mem needs an action: stats|query|provenance".into(),
                    ))
                }
            };
            Ok(Command::Mem { action })
        }
        "audit" => {
            Args::new("audit", &rest, &[], &[])?;
            Ok(Command::Audit)
        }
        "questions" => {
            let a = Args::new("questions", &rest, &["--knowledge", "--max"], &[])?;
            Ok(Command::Questions {
                knowledge: a.knowledge()?,
                max: a.num("--max", 10)?,
            })
        }
        "corpus" => {
            let a = Args::new("corpus", &rest, &["--distractors", "--faults"], &[])?;
            Ok(Command::Corpus {
                distractors: a.num("--distractors", 150)?,
                faults: a.fraction("--faults", 0.0)?,
            })
        }
        "simulate" => {
            let a = Args::new("simulate", &rest, &[], &[])?;
            let what = match a.positional().as_deref() {
                Some("storms") | None => SimChoice::Storms,
                Some("outage") => SimChoice::Outage,
                Some("economics") => SimChoice::Economics,
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown simulation {other:?}; expected storms|outage|economics"
                    )))
                }
            };
            Ok(Command::Simulate { what })
        }
        "scenario" => {
            let a = Args::new("scenario", sub, &[], &[])?;
            let name = || {
                a.positional()
                    .ok_or_else(|| ParseError("scenario action needs a scenario name".into()))
            };
            let action = match action {
                Some("list") => ScenarioAction::List,
                Some("describe") => ScenarioAction::Describe { name: name()? },
                Some("quiz") => ScenarioAction::Quiz { name: name()? },
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown scenario action {other:?}; expected list|describe|quiz"
                    )))
                }
                None => {
                    return Err(ParseError(
                        "scenario needs an action: list|describe|quiz".into(),
                    ))
                }
            };
            Ok(Command::Scenario { action })
        }
        "trace" => match action {
            Some("summarize") => {
                let a = Args::new("trace summarize", sub, &[], &[])?;
                let file = a.positional().ok_or_else(|| {
                    ParseError("trace summarize needs a trace file (or -)".into())
                })?;
                Ok(Command::TraceSummarize { file })
            }
            Some("profile") => {
                let a = Args::new("trace profile", sub, &["--top"], &["--json"])?;
                let file = a
                    .positional()
                    .ok_or_else(|| ParseError("trace profile needs a trace file (or -)".into()))?;
                Ok(Command::TraceProfile {
                    file,
                    json: a.switch("--json"),
                    top: a.num("--top", 10)?,
                })
            }
            Some("diff") => {
                let a = Args::new("trace diff", sub, &["--max-regress"], &[])?;
                let (base, current, max_regress) = a.diff_inputs("trace diff")?;
                Ok(Command::TraceDiff {
                    base,
                    current,
                    max_regress,
                })
            }
            Some("query") => {
                let a = Args::new(
                    "trace query",
                    sub,
                    &["--stage", "--session", "--slower-than"],
                    &[],
                )?;
                let file = a
                    .positional()
                    .ok_or_else(|| ParseError("trace query needs a trace file (or -)".into()))?;
                let session = match a.value("--session")? {
                    Some(v) => Some(v.parse::<u32>().map_err(|_| {
                        ParseError(format!("--session expects a number, got {v:?}"))
                    })?),
                    None => None,
                };
                let slower_than = match a.value("--slower-than")? {
                    Some(v) => Some(v.parse::<u64>().map_err(|_| {
                        ParseError(format!("--slower-than expects microseconds, got {v:?}"))
                    })?),
                    None => None,
                };
                Ok(Command::TraceQuery {
                    file,
                    stage: a.value("--stage")?.map(str::to_string),
                    session,
                    slower_than,
                })
            }
            Some(other) => Err(ParseError(format!(
                "unknown trace action {other:?}; expected summarize|profile|diff|query"
            ))),
            None => Err(ParseError(
                "trace needs an action: summarize|profile|diff|query".into(),
            )),
        },
        other => Err(ParseError(format!(
            "unknown command {other:?}; run `ira help` for usage"
        ))),
    }
}

/// The arguments of one (sub)command, checked against the flags it
/// defines: `values` take an argument, `switches` take none. Every
/// other argument is a positional.
struct Args<'a> {
    rest: &'a [&'a str],
    values: &'static [&'static str],
}

impl<'a> Args<'a> {
    /// Reject any `--flag` that `cmd` does not define, naming it: a
    /// misspelled flag must never run the command with a default.
    fn new(
        cmd: &str,
        rest: &'a [&'a str],
        values: &'static [&'static str],
        switches: &'static [&'static str],
    ) -> Result<Self, ParseError> {
        let args = Args { rest, values };
        if let Some(a) = args
            .flags()
            .find(|a| !values.contains(a) && !switches.contains(a))
        {
            return Err(ParseError(format!("unknown flag {a} for `ira {cmd}`")));
        }
        Ok(args)
    }

    /// Each argument, paired with whether it is the value of the flag
    /// before it.
    fn walk(&self) -> impl Iterator<Item = (usize, &'a str, bool)> + '_ {
        let mut skip = false;
        self.rest.iter().enumerate().map(move |(i, &a)| {
            let is_value = std::mem::take(&mut skip);
            if !is_value && a.starts_with("--") {
                skip = self.values.contains(&a);
            }
            (i, a, is_value)
        })
    }

    /// The flag names given, in order.
    fn flags(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.walk()
            .filter(|&(_, a, is_value)| !is_value && a.starts_with("--"))
            .map(|(_, a, _)| a)
    }

    /// Value of `--name` if present.
    fn value(&self, name: &str) -> Result<Option<&'a str>, ParseError> {
        match self.walk().find(|&(_, a, is_value)| !is_value && a == name) {
            Some((i, _, _)) => self
                .rest
                .get(i + 1)
                .copied()
                .map(Some)
                .ok_or_else(|| ParseError(format!("{name} needs a value"))),
            None => Ok(None),
        }
    }

    /// Whether the switch `--name` is present.
    fn switch(&self, name: &str) -> bool {
        self.flags().any(|a| a == name)
    }

    /// Numeric flag with default.
    fn num(&self, name: &str, default: usize) -> Result<usize, ParseError> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("{name} expects a number, got {v:?}"))),
            None => Ok(default),
        }
    }

    /// Float flag with default, clamped to [0, 1].
    fn fraction(&self, name: &str, default: f64) -> Result<f64, ParseError> {
        match self.value(name)? {
            Some(v) => v
                .parse::<f64>()
                .map(|f| f.clamp(0.0, 1.0))
                .map_err(|_| ParseError(format!("{name} expects a number in [0, 1], got {v:?}"))),
            None => Ok(default),
        }
    }

    /// `--knowledge`, defaulting to `knowledge.json`.
    fn knowledge(&self) -> Result<String, ParseError> {
        Ok(self
            .value("--knowledge")?
            .unwrap_or("knowledge.json")
            .to_string())
    }

    /// The arguments that are neither flag names nor flag values.
    fn positionals(&self) -> Vec<&'a str> {
        self.walk()
            .filter(|&(_, a, is_value)| !is_value && !a.starts_with("--"))
            .map(|(_, a, _)| a)
            .collect()
    }

    /// The first positional.
    fn positional(&self) -> Option<String> {
        self.positionals().first().map(|a| a.to_string())
    }

    /// `<base> <current>` and `--max-regress` (percent, default 0) of
    /// `trace diff` and `bench diff`.
    fn diff_inputs(&self, cmd: &str) -> Result<(String, String, f64), ParseError> {
        let [base, current] = self.positionals()[..] else {
            return Err(ParseError(format!(
                "{cmd} needs two inputs: <base> <current> (either may be -)"
            )));
        };
        let max_regress = match self.value("--max-regress")? {
            Some(v) => v.parse::<f64>().map_err(|_| {
                ParseError(format!("--max-regress expects a percentage, got {v:?}"))
            })?,
            None => 0.0,
        };
        if !(0.0..=100.0).contains(&max_regress) {
            return Err(ParseError(format!(
                "--max-regress must be in [0, 100], got {max_regress}"
            )));
        }
        Ok((base.to_string(), current.to_string(), max_regress))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ParseError> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(p(&[]), Ok(Command::Help));
        assert_eq!(p(&["help"]), Ok(Command::Help));
        assert_eq!(p(&["--help"]), Ok(Command::Help));
    }

    #[test]
    fn train_defaults_and_overrides() {
        assert_eq!(
            p(&["train"]),
            Ok(Command::Train {
                role: RoleChoice::Bob,
                out: "knowledge.json".into(),
                crawl_links: 0,
                distractors: 150,
                faults: 0.0,
                resume: false,
                parallel: 1,
                trace: None,
                metrics: false,
            })
        );
        assert_eq!(
            p(&["train", "--role", "alice", "--out", "a.json", "--crawl", "2"]),
            Ok(Command::Train {
                role: RoleChoice::Alice,
                out: "a.json".into(),
                crawl_links: 2,
                distractors: 150,
                faults: 0.0,
                resume: false,
                parallel: 1,
                trace: None,
                metrics: false,
            })
        );
        assert!(p(&["train", "--role", "mallory"]).is_err());
    }

    #[test]
    fn serve_defaults_and_overrides() {
        assert_eq!(
            p(&["serve"]),
            Ok(Command::Serve {
                input: None,
                workers: 4,
                rate: 2.0,
                burst: 8,
                deadline_us: None,
                trace: None,
                example: false,
                stats_every: None,
                flight: None,
            })
        );
        assert_eq!(
            p(&[
                "serve",
                "--input",
                "reqs.jsonl",
                "--workers",
                "8",
                "--rate",
                "0.5",
                "--burst",
                "3",
                "--deadline-us",
                "120000000",
                "--trace",
                "serve.jsonl",
                "--stats-every",
                "4",
                "--flight",
                "dumps/",
            ]),
            Ok(Command::Serve {
                input: Some("reqs.jsonl".into()),
                workers: 8,
                rate: 0.5,
                burst: 3,
                deadline_us: Some(120_000_000),
                trace: Some("serve.jsonl".into()),
                example: false,
                stats_every: Some(4),
                flight: Some("dumps/".into()),
            })
        );
        assert!(matches!(
            p(&["serve", "--example"]),
            Ok(Command::Serve { example: true, .. })
        ));
        // --stats-every 0 means "never": it normalizes to None.
        assert!(matches!(
            p(&["serve", "--stats-every", "0"]),
            Ok(Command::Serve {
                stats_every: None,
                ..
            })
        ));
        assert!(p(&["serve", "--rate", "0"]).is_err());
        assert!(p(&["serve", "--deadline-us", "soon"]).is_err());
        assert!(p(&["serve", "--stats-every", "often"]).is_err());
    }

    #[test]
    fn obs_render_parses() {
        assert_eq!(
            p(&["obs", "render", "snap.json"]),
            Ok(Command::ObsRender {
                file: "snap.json".into(),
                prom: false,
            })
        );
        assert_eq!(
            p(&["obs", "render", "--prom", "-"]),
            Ok(Command::ObsRender {
                file: "-".into(),
                prom: true,
            })
        );
        assert!(p(&["obs"]).is_err());
        assert!(p(&["obs", "render"]).is_err());
        assert!(p(&["obs", "export", "snap.json"]).is_err());
    }

    #[test]
    fn bench_diff_parses() {
        assert_eq!(
            p(&["bench", "diff", "base.json", "fresh.json"]),
            Ok(Command::BenchDiff {
                base: "base.json".into(),
                current: "fresh.json".into(),
                max_regress: 0.0,
            })
        );
        assert_eq!(
            p(&["bench", "diff", "--max-regress", "5", "a.json", "-"]),
            Ok(Command::BenchDiff {
                base: "a.json".into(),
                current: "-".into(),
                max_regress: 5.0,
            })
        );
        assert!(p(&["bench"]).is_err());
        assert!(p(&["bench", "diff", "only-one"]).is_err());
        assert!(p(&["bench", "diff", "a", "b", "--max-regress", "999"]).is_err());
        assert!(p(&["bench", "run"]).is_err());
    }

    #[test]
    fn train_faults_and_resume_flags() {
        assert_eq!(
            p(&["train", "--faults", "0.25", "--resume"]),
            Ok(Command::Train {
                role: RoleChoice::Bob,
                out: "knowledge.json".into(),
                crawl_links: 0,
                distractors: 150,
                faults: 0.25,
                resume: true,
                parallel: 1,
                trace: None,
                metrics: false,
            })
        );
        // Intensity clamps into [0, 1]; junk is an error.
        assert_eq!(
            p(&["train", "--faults", "7"]),
            Ok(Command::Train {
                role: RoleChoice::Bob,
                out: "knowledge.json".into(),
                crawl_links: 0,
                distractors: 150,
                faults: 1.0,
                resume: false,
                parallel: 1,
                trace: None,
                metrics: false,
            })
        );
        assert!(p(&["train", "--faults", "many"]).is_err());
        assert_eq!(
            p(&["corpus", "--faults", "0.5"]),
            Ok(Command::Corpus {
                distractors: 150,
                faults: 0.5
            })
        );
    }

    #[test]
    fn ask_requires_a_question() {
        assert!(p(&["ask"]).is_err());
        assert_eq!(
            p(&["ask", "--knowledge", "k.json", "what is a CME?"]),
            Ok(Command::Ask {
                knowledge: "k.json".into(),
                question: "what is a CME?".into()
            })
        );
        // Positional before flags also works.
        assert_eq!(
            p(&["ask", "what is a CME?", "--knowledge", "k.json"]),
            Ok(Command::Ask {
                knowledge: "k.json".into(),
                question: "what is a CME?".into()
            })
        );
    }

    #[test]
    fn quiz_flags() {
        assert_eq!(
            p(&["quiz"]),
            Ok(Command::Quiz {
                incidents: false,
                threshold: 7,
                report: None,
                parallel: 1,
                trace: None,
                metrics: false,
            })
        );
        assert_eq!(
            p(&[
                "quiz",
                "--incidents",
                "--threshold",
                "9",
                "--report",
                "r.md"
            ]),
            Ok(Command::Quiz {
                incidents: true,
                threshold: 9,
                report: Some("r.md".into()),
                parallel: 1,
                trace: None,
                metrics: false,
            })
        );
    }

    #[test]
    fn parallel_flag_parses_and_clamps() {
        assert_eq!(
            p(&["train", "--parallel", "4"]),
            Ok(Command::Train {
                role: RoleChoice::Bob,
                out: "knowledge.json".into(),
                crawl_links: 0,
                distractors: 150,
                faults: 0.0,
                resume: false,
                parallel: 4,
                trace: None,
                metrics: false,
            })
        );
        // 0 would mean "no sessions"; it clamps up to serial.
        assert_eq!(
            p(&["quiz", "--parallel", "0"]),
            Ok(Command::Quiz {
                incidents: false,
                threshold: 7,
                report: None,
                parallel: 1,
                trace: None,
                metrics: false,
            })
        );
        assert_eq!(
            p(&["quiz", "--parallel", "8"]),
            Ok(Command::Quiz {
                incidents: false,
                threshold: 7,
                report: None,
                parallel: 8,
                trace: None,
                metrics: false,
            })
        );
        assert!(p(&["quiz", "--parallel", "several"]).is_err());
    }

    #[test]
    fn bad_numbers_are_reported() {
        let err = p(&["quiz", "--threshold", "lots"]).unwrap_err();
        assert!(err.0.contains("--threshold"));
    }

    #[test]
    fn missing_flag_value_is_reported() {
        assert!(p(&["train", "--out"]).is_err());
    }

    #[test]
    fn simulate_choices_parse() {
        assert_eq!(
            p(&["simulate"]),
            Ok(Command::Simulate {
                what: SimChoice::Storms
            })
        );
        assert_eq!(
            p(&["simulate", "outage"]),
            Ok(Command::Simulate {
                what: SimChoice::Outage
            })
        );
        assert_eq!(
            p(&["simulate", "economics"]),
            Ok(Command::Simulate {
                what: SimChoice::Economics
            })
        );
        assert!(p(&["simulate", "weather"]).is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = p(&["frobnicate"]).unwrap_err();
        assert!(err.0.contains("frobnicate"));
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        assert_eq!(
            p(&["train", "--trace", "out.jsonl", "--metrics"]),
            Ok(Command::Train {
                role: RoleChoice::Bob,
                out: "knowledge.json".into(),
                crawl_links: 0,
                distractors: 150,
                faults: 0.0,
                resume: false,
                parallel: 1,
                trace: Some("out.jsonl".into()),
                metrics: true,
            })
        );
        assert_eq!(
            p(&["quiz", "--metrics", "--trace", "t.jsonl"]),
            Ok(Command::Quiz {
                incidents: false,
                threshold: 7,
                report: None,
                parallel: 1,
                trace: Some("t.jsonl".into()),
                metrics: true,
            })
        );
        assert!(p(&["train", "--trace"]).is_err());
        // `learn` defines no --metrics: the flag is rejected, not
        // skipped or taken for the question.
        let err = p(&["learn", "--metrics", "what is a CME?"]).unwrap_err();
        assert!(err.0.contains("--metrics"), "{err}");
    }

    #[test]
    fn opstats_is_stripped_before_parsing() {
        let argv: Vec<String> = ["ask", "--opstats", "what is a CME?"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, opstats) = split_opstats(&argv);
        assert!(opstats);
        assert_eq!(
            parse(&rest),
            Ok(Command::Ask {
                knowledge: "knowledge.json".into(),
                question: "what is a CME?".into()
            })
        );
        let (rest, opstats) = split_opstats(&rest);
        assert!(!opstats);
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn mem_actions_parse() {
        assert_eq!(
            p(&["mem", "stats"]),
            Ok(Command::Mem {
                action: MemAction::Stats {
                    knowledge: "knowledge.json".into()
                }
            })
        );
        assert_eq!(
            p(&["mem", "stats", "--knowledge", "k.json"]),
            Ok(Command::Mem {
                action: MemAction::Stats {
                    knowledge: "k.json".into()
                }
            })
        );
        assert_eq!(
            p(&["mem", "query", "geomagnetic latitude", "--top", "3"]),
            Ok(Command::Mem {
                action: MemAction::Query {
                    knowledge: "knowledge.json".into(),
                    query: "geomagnetic latitude".into(),
                    top: 3,
                }
            })
        );
        assert_eq!(
            p(&["mem", "provenance", "--knowledge", "k.json", "ellalink"]),
            Ok(Command::Mem {
                action: MemAction::Provenance {
                    knowledge: "k.json".into(),
                    term: "ellalink".into(),
                }
            })
        );
        assert!(p(&["mem"]).is_err());
        assert!(p(&["mem", "query"]).is_err());
        assert!(p(&["mem", "provenance"]).is_err());
        assert!(p(&["mem", "forget", "everything"]).is_err());
    }

    #[test]
    fn scenario_actions_parse() {
        assert_eq!(
            p(&["scenario", "list"]),
            Ok(Command::Scenario {
                action: ScenarioAction::List
            })
        );
        assert_eq!(
            p(&["scenario", "describe", "route-leak"]),
            Ok(Command::Scenario {
                action: ScenarioAction::Describe {
                    name: "route-leak".into()
                }
            })
        );
        assert_eq!(
            p(&["scenario", "quiz", "cable-cut"]),
            Ok(Command::Scenario {
                action: ScenarioAction::Quiz {
                    name: "cable-cut".into()
                }
            })
        );
        assert!(p(&["scenario"]).is_err());
        assert!(p(&["scenario", "describe"]).is_err());
        assert!(p(&["scenario", "invent", "new-one"]).is_err());
    }

    #[test]
    fn trace_summarize_parses() {
        assert_eq!(
            p(&["trace", "summarize", "out.jsonl"]),
            Ok(Command::TraceSummarize {
                file: "out.jsonl".into()
            })
        );
        assert!(p(&["trace"]).is_err());
        assert!(p(&["trace", "summarize"]).is_err());
        assert!(p(&["trace", "replay", "out.jsonl"]).is_err());
    }

    #[test]
    fn trace_profile_parses() {
        assert_eq!(
            p(&["trace", "profile", "t.jsonl"]),
            Ok(Command::TraceProfile {
                file: "t.jsonl".into(),
                json: false,
                top: 10,
            })
        );
        assert_eq!(
            p(&["trace", "profile", "--json", "--top", "3", "-"]),
            Ok(Command::TraceProfile {
                file: "-".into(),
                json: true,
                top: 3,
            })
        );
        assert!(p(&["trace", "profile"]).is_err());
    }

    #[test]
    fn trace_diff_parses() {
        assert_eq!(
            p(&["trace", "diff", "base.json", "fresh.jsonl"]),
            Ok(Command::TraceDiff {
                base: "base.json".into(),
                current: "fresh.jsonl".into(),
                max_regress: 0.0,
            })
        );
        assert_eq!(
            p(&["trace", "diff", "--max-regress", "10", "a", "-"]),
            Ok(Command::TraceDiff {
                base: "a".into(),
                current: "-".into(),
                max_regress: 10.0,
            })
        );
        assert!(p(&["trace", "diff", "only-one"]).is_err());
        assert!(p(&["trace", "diff", "a", "b", "--max-regress", "oops"]).is_err());
        assert!(p(&["trace", "diff", "a", "b", "--max-regress", "250"]).is_err());
    }

    #[test]
    fn trace_query_parses() {
        assert_eq!(
            p(&["trace", "query", "t.jsonl", "--stage", "fetch"]),
            Ok(Command::TraceQuery {
                file: "t.jsonl".into(),
                stage: Some("fetch".into()),
                session: None,
                slower_than: None,
            })
        );
        assert_eq!(
            p(&[
                "trace",
                "query",
                "--session",
                "2",
                "--slower-than",
                "5000",
                "-"
            ]),
            Ok(Command::TraceQuery {
                file: "-".into(),
                stage: None,
                session: Some(2),
                slower_than: Some(5000),
            })
        );
        assert!(p(&["trace", "query"]).is_err());
        assert!(p(&["trace", "query", "t.jsonl", "--session", "x"]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_every_subcommand() {
        for argv in [
            &["train", "--distractorz", "5"][..],
            &["ask", "--knowlege", "k.json", "q?"],
            &["learn", "--treshold", "9", "q?"],
            &["quiz", "--incident"],
            &["serve", "--worker", "2"],
            &["obs", "render", "--prometheus", "snap.json"],
            &["bench", "diff", "a", "b", "--max-regression", "5"],
            &["plan", "--verbose"],
            &["mem", "stats", "--knowlege", "k.json"],
            &["mem", "query", "latitude", "--topk", "3"],
            &["mem", "provenance", "--knowlege", "k.json", "ellalink"],
            &["audit", "--strict"],
            &["questions", "--maximum", "3"],
            &["corpus", "--distractorz", "5"],
            &["simulate", "--storm"],
            &["scenario", "describe", "--verbose", "cable-cut"],
            &["trace", "summarize", "--json", "t.jsonl"],
            &["trace", "profile", "--jsonl", "t.jsonl"],
            &["trace", "diff", "a", "b", "--max-regres", "5"],
            &["trace", "query", "t.jsonl", "--stages", "fetch"],
        ] {
            let err = p(argv).unwrap_err();
            let typo = argv.iter().find(|a| a.starts_with("--")).unwrap();
            assert!(
                err.0.contains(&format!("unknown flag {typo} ")),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn serve_graph_is_an_unknown_flag() {
        let err = p(&["serve", "--graph"]).unwrap_err();
        assert_eq!(err.0, "unknown flag --graph for `ira serve`");
    }

    #[test]
    fn flag_values_that_look_like_flags_are_values() {
        assert!(matches!(
            p(&["train", "--out", "--metrics"]),
            Ok(Command::Train { ref out, metrics: false, .. }) if out == "--metrics"
        ));
    }
}
