//! The two text inputs obs reads from outside — trace JSONL
//! (`parse_jsonl`) and JSON reports flattened for `ira bench diff`
//! (`flatten_json`) — on arbitrary text and on truncations and
//! single-byte flips of real inputs. Neither may panic; a failure is a
//! typed error that names a line of the input, and a result is no
//! larger than its input.

use ira_obs::{flatten_json, parse_jsonl, render_jsonl};
use proptest::prelude::*;

/// Real lines of an E5 trace (`trace_profile_gate --trace-out`): the
/// first event of each (stage, class, name) the sweep emits, in trace
/// order.
const E5_TRACE: &str = include_str!("data/e5_trace_sample.jsonl");

/// A real bench report, as `ira bench diff` reads it.
const SERVE_SMOKE: &str = include_str!("../../../results/BENCH_serve_smoke.json");

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn check_trace(doc: &str) -> Result<(), TestCaseError> {
    let lines: Vec<&str> = doc.lines().collect();
    let events = lines.iter().filter(|l| !l.trim().is_empty()).count();
    match parse_jsonl(doc) {
        Ok(parsed) => {
            prop_assert_eq!(parsed.len(), events, "one event per non-blank line");
            let rendered = render_jsonl(&parsed);
            prop_assert_eq!(parse_jsonl(&rendered).expect("re-parses"), parsed);
        }
        Err(e) => {
            prop_assert!((1..=lines.len()).contains(&e.line), "line {}", e.line);
            prop_assert!(
                !lines[e.line - 1].trim().is_empty(),
                "blank line {}",
                e.line
            );
        }
    }
    Ok(())
}

/// Leaves `flatten_json` may keep: integers and booleans.
fn integral_leaves(value: &serde::Value) -> usize {
    match value {
        serde::Value::Object(map) => map.values().map(integral_leaves).sum(),
        serde::Value::Array(items) => items.iter().map(integral_leaves).sum(),
        serde::Value::U64(_) | serde::Value::I64(_) | serde::Value::Bool(_) => 1,
        serde::Value::F64(_) | serde::Value::String(_) | serde::Value::Null => 0,
    }
}

fn check_report(doc: &str) -> Result<(), TestCaseError> {
    // A parse failure is the typed error `ira bench diff` reports.
    if let Ok(value) = serde_json::parse(doc) {
        let flat = flatten_json(&value);
        prop_assert!(flat.len() <= integral_leaves(&value));
        for key in flat.keys() {
            prop_assert!(
                key.len() <= 2 * doc.len(),
                "key {key:.40} outgrows its input"
            );
        }
    }
    Ok(())
}

#[test]
fn the_real_inputs_parse_whole() {
    assert_eq!(
        parse_jsonl(E5_TRACE).unwrap().len(),
        E5_TRACE.lines().count()
    );
    let flat = flatten_json(&serde_json::parse(SERVE_SMOKE).unwrap());
    assert!(flat.len() > 50, "{} keys", flat.len());
}

#[test]
fn every_truncation_of_the_real_inputs_is_handled() {
    for cut in 0..=E5_TRACE.len() {
        check_trace(&text(&E5_TRACE.as_bytes()[..cut])).unwrap();
    }
    for cut in 0..=SERVE_SMOKE.len() {
        check_report(&text(&SERVE_SMOKE.as_bytes()[..cut])).unwrap();
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_handled(bytes in prop::collection::vec(0u8..=255, 0..1024)) {
        let doc = text(&bytes);
        check_trace(&doc)?;
        check_report(&doc)?;
    }

    #[test]
    fn json_like_text_is_handled(doc in "[\\[\\]{}\":, \\n0-9a-z_.-]{0,400}") {
        check_trace(&doc)?;
        check_report(&doc)?;
    }

    #[test]
    fn a_flipped_byte_of_a_real_input_is_handled(
        at in 0..E5_TRACE.len().max(SERVE_SMOKE.len()),
        byte in 0u8..=255,
    ) {
        for (doc, check) in [
            (E5_TRACE, check_trace as fn(&str) -> Result<(), TestCaseError>),
            (SERVE_SMOKE, check_report),
        ] {
            let mut bytes = doc.as_bytes().to_vec();
            bytes[at % doc.len()] = byte;
            check(&text(&bytes))?;
        }
    }
}
