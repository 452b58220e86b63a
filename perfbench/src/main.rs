//! `perfbench --workload <serve_mix|bigweb|longlived> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints the run stamp and a detail line, then, as the last line of
//! standard output, the result object. Exits 1 when an output check
//! fails and 2 on bad arguments.

use ira_perfbench::report::{self, object, result_line};
use ira_perfbench::workloads::{self, Run, WORKLOADS};
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value(name)?.parse().map_err(|e| format!("bad {name}: {e}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`; 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The serve batch detonates panic probes on purpose; keep their
    // messages out of the output while leaving real panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let probe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("panic probe"));
        if !probe {
            default_hook(info);
        }
    }));

    println!(
        "stamp {}",
        report::stamp(&args.workload, args.seed, args.seconds, args.trace)
    );
    let run = Run {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
    };
    let outcome = workloads::run(&args.workload, &run, args.trace).expect("workload validated");
    println!("detail {}", object(&outcome.details));
    if !outcome.correct {
        // A failed check is reported as failed, never as figures.
        eprintln!(
            "error: output check failed on {} of {} units",
            outcome.failed, outcome.attempted
        );
        println!(
            "{}",
            result_line(false, outcome.attempted, outcome.failed, &[])
        );
        std::process::exit(1);
    }
    println!(
        "{}",
        result_line(true, outcome.attempted, outcome.failed, &outcome.metrics)
    );
}
