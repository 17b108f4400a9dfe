//! Hostile input for scenario files through `bench::scenario`'s decoder,
//! the one the `opera run-scenario` command reads them with.
//!
//! * No input panics the decoder: every truncation and every
//!   single-character substitution of a valid scenario, arbitrary bytes,
//!   and a valid scenario overwritten with arbitrary bytes are each `Ok`
//!   or `Err`.
//! * An unknown key, at top level and in each object, is an error naming
//!   the key and where it is; so is a duplicate key.

use bench::scenario::Scenario;
use expt::json::Json;
use simkit::cases::{self, Draw};

const SCENARIO: &str = r#"{
  "name": "démo",
  "topology": {"kind": "expander"},
  "workload": {"kind": "victim", "senders": 8, "flow_kb": 30},
  "switch": {"policy": ["pfc", "ecn"]},
  "transport": {"kind": "gbn"},
  "run": {"duration_ms": 10, "seed": 1},
  "trace": {}
}"#;

fn decode(text: &str) -> Result<(), String> {
    Scenario::from_doc(&Json::parse(text)?, "x").map(drop)
}

#[test]
fn the_valid_instance_decodes() {
    decode(SCENARIO).unwrap();
}

#[test]
fn no_truncation_panics_and_an_unclosed_document_is_an_error() {
    // An object without its closing brace cannot be anything.
    for (i, _) in SCENARIO.char_indices() {
        assert!(
            decode(&SCENARIO[..i]).is_err(),
            "accepted when cut at byte {i}"
        );
    }
}

#[test]
fn no_single_character_substitution_panics() {
    for (i, original) in SCENARIO.char_indices() {
        for sub in ['{', '}', '[', ']', '"', ',', ':', '0', '\\', 'é'] {
            if sub != original {
                let mut hostile = SCENARIO.to_string();
                hostile.replace_range(i..i + original.len_utf8(), sub.encode_utf8(&mut [0; 4]));
                let _ = decode(&hostile);
            }
        }
    }
}

/// `text` with `"zzz": 1` inserted as the first member of the `nth`
/// object opened in it (0 = the root).
fn with_stray_key(text: &str, nth: usize) -> String {
    let at = text.match_indices('{').nth(nth).expect("object exists").0 + 1;
    let comma = if text[at..].trim_start().starts_with('}') {
        ""
    } else {
        ","
    };
    format!("{}\"zzz\": 1{comma}{}", &text[..at], &text[at..])
}

#[test]
fn unknown_and_duplicate_keys_are_rejected_at_every_level() {
    // (nth object, how the message must start)
    let cases = [
        (
            0,
            "scenario: unknown key \"zzz\" (known: name, run, switch, ",
        ),
        (
            1,
            "scenario: topology: unknown key \"zzz\" (known: kind, racks)",
        ),
        (
            2,
            "scenario: workload: unknown key \"zzz\" (known: flow_kb, kind, senders)",
        ),
        (3, "scenario: switch: unknown key \"zzz\" (known: policy)"),
        (4, "scenario: transport: unknown key \"zzz\" (known: kind)"),
        (
            5,
            "scenario: run: unknown key \"zzz\" (known: duration_ms, seed)",
        ),
        (
            6,
            "scenario: trace: unknown key \"zzz\" (known: jsonl, pcapng)",
        ),
    ];
    for (nth, want) in cases {
        let err = decode(&with_stray_key(SCENARIO, nth)).expect_err("stray key");
        assert!(err.starts_with(want), "object {nth}: {err}");
    }
    // A second copy of a key that *is* known never reaches the decoder.
    let text = SCENARIO;
    let start = text.find('"').expect("has a key");
    let end = start + 1 + text[start + 1..].find('"').expect("key closes");
    let key = &text[start..=end];
    let twice = format!("{}{key}: 1, {}", &text[..start], &text[start..]);
    let err = decode(&twice).expect_err("duplicate key");
    assert!(err.contains(&format!("duplicate key {key}")), "{err}");
}

/// Arbitrary bytes (all 256 values), read as text the way a file is,
/// and the valid scenario with arbitrary bytes written over it at
/// arbitrary places, never panic the decoder.
#[test]
fn arbitrary_bytes_never_panic_a_decoder() {
    let draw = |d: &mut Draw| {
        (
            d.vec(0..256, |d| d.u64(0..256) as u8),
            d.vec(1..16, |d| (d.usize(0..1 << 16), d.u64(0..256) as u8)),
        )
    };
    cases::check(
        "arbitrary_bytes_never_panic_a_decoder",
        64,
        draw,
        |(bytes, edits)| {
            let _ = decode(&String::from_utf8_lossy(&bytes));
            let mut hostile = SCENARIO.as_bytes().to_vec();
            for &(at, byte) in &edits {
                let at = at % hostile.len();
                hostile[at] = byte;
            }
            let _ = decode(&String::from_utf8_lossy(&hostile));
        },
    );
}
