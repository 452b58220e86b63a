//! Serve intake on hostile input: `parse_request_lines` over arbitrary
//! text, and over truncations and single-byte flips of the example
//! batch, never panics and does bounded work. Every non-blank line gets
//! exactly one result, in order; every failure is a typed `parse` error
//! naming its line; and validating whatever did parse is total too.

use ira_serve::{parse_request_lines, EXAMPLE_BATCH};
use proptest::prelude::*;

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn check_intake(input: &str) -> Result<(), TestCaseError> {
    let parsed = parse_request_lines(input);
    let lines: Vec<usize> = input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, _)| i + 1)
        .collect();
    prop_assert_eq!(parsed.len(), lines.len(), "one result per non-blank line");
    for (result, lineno) in parsed.iter().zip(lines) {
        match result {
            Ok(request) => {
                let _ = request.validate();
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), "parse");
                let named = format!("request line {lineno}:");
                prop_assert!(e.to_string().contains(&named), "{} lacks {}", e, named);
            }
        }
    }
    Ok(())
}

#[test]
fn the_example_batch_parses_whole() {
    let parsed = parse_request_lines(EXAMPLE_BATCH);
    assert_eq!(parsed.len(), 5);
    for result in parsed {
        result.expect("parses").validate().expect("valid");
    }
}

#[test]
fn every_truncation_of_the_example_batch_is_handled() {
    let bytes = EXAMPLE_BATCH.as_bytes();
    for cut in 0..=bytes.len() {
        check_intake(&text(&bytes[..cut])).unwrap();
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_handled(bytes in prop::collection::vec(0u8..=255, 0..1024)) {
        check_intake(&text(&bytes))?;
    }

    #[test]
    fn json_like_text_is_handled(input in "[\\[\\]{}\":, \\n0-9a-z_.-]{0,400}") {
        check_intake(&input)?;
    }

    #[test]
    fn a_flipped_byte_of_the_example_batch_is_handled(
        at in 0..EXAMPLE_BATCH.len(),
        byte in 0u8..=255,
    ) {
        let mut bytes = EXAMPLE_BATCH.as_bytes().to_vec();
        bytes[at] = byte;
        check_intake(&text(&bytes))?;
    }
}
