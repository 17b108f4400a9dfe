//! Hostile input for scenario files, in TOML and JSON form, through
//! `bench::scenario`'s decoder, the one the `opera run-scenario` command
//! reads them with.
//!
//! * No input panics the decoder: every truncation and every
//!   single-character substitution of a valid scenario, arbitrary bytes,
//!   and a valid scenario overwritten with arbitrary bytes are each `Ok`
//!   or `Err`.
//! * An unknown key, at top level and in each table, is an error naming
//!   the key and where it is; so is a duplicate key.

use bench::scenario::Scenario;
use expt::json::{parse_toml, Json};
use proptest::prelude::*;

const SCENARIO_TOML: &str = r#"# every section, one axis
name = "démo"

[topology]
kind = "opera"
racks = 8

[workload]
kind = "incast"
senders = [4, 8]
flow_kb = 15

[switch]
policy = "ndp_trim"

[transport]
kind = "ndp"

[run]
duration_ms = 40
seed = 3
"#;

const SCENARIO_JSON: &str = r#"{
  "name": "démo",
  "topology": {"kind": "expander"},
  "workload": {"kind": "victim", "senders": 8, "flow_bytes": 30000},
  "switch": {"policy": ["pfc", "ecn"]},
  "transport": {"kind": "gbn"},
  "run": {"duration_ms": 10, "seed": 1},
  "trace": {}
}"#;

type Decode = fn(&str) -> Result<(), String>;

/// Both spellings: a name, one valid instance, its decoder, and whether
/// it is JSON (an object that must be closed to be valid).
fn documents() -> [(&'static str, &'static str, Decode, bool); 2] {
    [
        (
            "scenario (JSON)",
            SCENARIO_JSON,
            |t| Scenario::from_doc(&Json::parse(t)?, "x").map(drop),
            true,
        ),
        (
            "scenario (TOML)",
            SCENARIO_TOML,
            |t| Scenario::from_doc(&parse_toml(t)?, "x").map(drop),
            false,
        ),
    ]
}

#[test]
fn valid_instances_decode() {
    for (name, text, decode, _) in documents() {
        decode(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn no_truncation_panics_and_an_unclosed_document_is_an_error() {
    for (name, text, decode, json) in documents() {
        let closing = text.rfind('}').unwrap_or(0);
        for (i, _) in text.char_indices() {
            let result = decode(&text[..i]);
            // A TOML prefix can be a complete scenario; a JSON object
            // without its closing brace cannot be anything.
            assert!(
                !(json && i <= closing && result.is_ok()),
                "{name}: accepted when cut at byte {i}"
            );
        }
    }
}

#[test]
fn no_single_character_substitution_panics() {
    for (_, text, decode, _) in documents() {
        for (i, original) in text.char_indices() {
            for sub in ['{', '}', '[', ']', '"', ',', ':', '0', '\\', 'é'] {
                if sub != original {
                    let mut hostile = text.to_string();
                    hostile.replace_range(i..i + original.len_utf8(), sub.encode_utf8(&mut [0; 4]));
                    let _ = decode(&hostile);
                }
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
    // (document, nth object, how the message must start)
    let cases = [
        (
            "scenario (JSON)",
            0,
            "scenario: unknown key \"zzz\" (known: name, run, switch, ",
        ),
        (
            "scenario (JSON)",
            1,
            "scenario: topology: unknown key \"zzz\" (known: kind, racks)",
        ),
        (
            "scenario (JSON)",
            2,
            "scenario: workload: unknown key \"zzz\" (known: flow_bytes, flow_kb, kind, senders)",
        ),
        (
            "scenario (JSON)",
            3,
            "scenario: switch: unknown key \"zzz\" (known: policy)",
        ),
        (
            "scenario (JSON)",
            4,
            "scenario: transport: unknown key \"zzz\" (known: kind)",
        ),
        (
            "scenario (JSON)",
            5,
            "scenario: run: unknown key \"zzz\" (known: duration_ms, seed)",
        ),
        (
            "scenario (JSON)",
            6,
            "scenario: trace: unknown key \"zzz\" (known: jsonl, pcapng)",
        ),
        (
            "scenario (TOML)",
            0,
            "scenario: topology: unknown key \"zzz\" (known: kind, racks)",
        ),
    ];
    let docs = documents();
    for (name, nth, want) in cases {
        let (_, text, decode, json) = docs.iter().find(|d| d.0 == name).expect(name);
        let hostile = if *json {
            with_stray_key(text, nth)
        } else {
            text.replace("racks = 8", "racks = 8\nzzz = 1")
        };
        let err = decode(&hostile).expect_err(name);
        assert!(err.starts_with(want), "{name} object {nth}: {err}");
    }
    // A second copy of a key that *is* known never reaches the decoder.
    let text = SCENARIO_JSON;
    let start = text.find('"').expect("has a key");
    let end = start + 1 + text[start + 1..].find('"').expect("key closes");
    let key = &text[start..=end];
    let twice = format!("{}{key}: 1, {}", &text[..start], &text[start..]);
    let err = documents()[0].2(&twice).expect_err("duplicate key");
    assert!(err.contains(&format!("duplicate key {key}")), "{err}");
    let twice = SCENARIO_TOML.replace("racks = 8", "racks = 8\nracks = 8");
    let err = documents()[1].2(&twice).expect_err("duplicate key");
    assert!(err.contains("duplicate key \"racks\""), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, read as text the way a file is, and each valid
    /// scenario with arbitrary bytes written over it at arbitrary places,
    /// never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(0u8..255, 0..256),
        edits in prop::collection::vec((0usize..1 << 16, 0u8..255), 1..16),
    ) {
        for (_, text, decode, _) in documents() {
            let _ = decode(&String::from_utf8_lossy(&bytes));
            let mut hostile = text.as_bytes().to_vec();
            for &(at, byte) in &edits {
                let at = at % hostile.len();
                hostile[at] = byte;
            }
            let _ = decode(&String::from_utf8_lossy(&hostile));
        }
    }
}
