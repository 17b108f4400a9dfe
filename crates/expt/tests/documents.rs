//! Hostile input and round trips for the two documents `expt` reads
//! back: table documents (sharded and not) and golden manifests. (The
//! third, scenario files, is `bench::scenario`'s, and so are its cases.)
//!
//! * No input panics a decoder: every truncation and every
//!   single-character substitution of a valid document, arbitrary
//!   bytes, and a valid document overwritten with arbitrary bytes are
//!   each `Ok` or `Err`.
//! * Provenance a table document cannot have (a point outside its
//!   sweep, points run out of order or twice, a sweep far larger than
//!   the documents) is a named error from the parser or the merge, in
//!   memory bounded by the documents.
//! * `parse(render(x)) == x` over generated values, and
//!   `render(parse(text)) == text` byte for byte.
//! * Every decoder rejects an unknown key, at top level and in each
//!   nested object, naming the key and where it is.

use expt::golden::{parse_csv, GoldenManifest};
use expt::{
    merge_shard_docs, Cell, MergeError, RunFlags, RunMeta, Scale, SweepRef, Table, TableDoc,
};
use proptest::prelude::*;

const FLAGS: RunFlags = RunFlags {
    scale: Scale::Quick,
    seed: 18_446_744_073_709_551_557,
    replicates: 3,
    k: Some(12),
};

/// A table document with constant and sweep rows, awkward cells, and
/// (so that truncation meets multi-byte characters) non-ASCII text.
fn table_doc(shard: Option<(usize, usize)>) -> String {
    table_and_meta(shard).render()
}

fn table_and_meta(shard: Option<(usize, usize)>) -> TableDoc {
    let sweep = SweepRef {
        points: 4,
        owned: match shard {
            Some((i, n)) => (0..4).filter(|p| p % n == i).collect(),
            None => (0..4).collect(),
        },
    };
    let mut t = Table::new("séries", &["label", "µs"]).for_sweep(&sweep);
    t.push(vec![Cell::from("a\"b,c\nd"), Cell::F64(f64::NAN)]);
    for &p in &sweep.owned {
        t.push_indexed(p, vec![Cell::from("→"), Cell::from(u64::MAX - p as u64)]);
    }
    let meta = RunMeta {
        driver: "drv".into(),
        flags: FLAGS,
        shard,
    };
    TableDoc { meta, table: t }
}

fn golden_manifest() -> GoldenManifest {
    GoldenManifest {
        commit: "ab3e1af".into(),
        flags: RunFlags { k: None, ..FLAGS },
        tables: vec!["bulk_threshold_mb".into(), "cycle_time".into()],
    }
}

type Decode = fn(&str) -> Result<(), String>;

/// Every document kind: a name, one valid instance and its decoder.
fn documents() -> Vec<(&'static str, String, Decode)> {
    let table: Decode = |t| TableDoc::parse(t).map(drop).map_err(|e| e.to_string());
    vec![
        ("sharded table document", table_doc(Some((1, 2))), table),
        ("unsharded table document", table_doc(None), table),
        ("golden manifest", golden_manifest().render(), |t| {
            GoldenManifest::parse(t).map(drop)
        }),
    ]
}

#[test]
fn valid_instances_decode() {
    for (name, text, decode) in documents() {
        decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn no_truncation_panics_and_an_unclosed_document_is_an_error() {
    for (name, text, decode) in documents() {
        let closing = text.rfind('}').unwrap_or(0);
        for (i, _) in text.char_indices() {
            // A JSON object without its closing brace cannot be anything.
            assert!(
                !(i <= closing && decode(&text[..i]).is_ok()),
                "{name}: accepted when cut at byte {i}"
            );
        }
    }
}

#[test]
fn no_single_character_substitution_panics() {
    for (_, text, decode) in documents() {
        for (i, original) in text.char_indices() {
            for sub in ['{', '}', '[', ']', '"', ',', ':', '0', '\\', 'é'] {
                if sub != original {
                    let mut hostile = text.clone();
                    hostile.replace_range(i..i + original.len_utf8(), sub.encode_utf8(&mut [0; 4]));
                    let _ = decode(&hostile);
                }
            }
        }
    }
}

/// What `TableDoc::parse` says about `text`, which it must reject.
fn parse_error(text: &str) -> String {
    match TableDoc::parse(text) {
        Err(MergeError::Parse { context }) => context,
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn impossible_provenance_is_a_named_parse_error() {
    // Shard 1 of 2 over four points: it ran points 1 and 3.
    let good = table_doc(Some((1, 2)));
    assert!(good.contains("\"points_run\": [1, 3]") && good.contains("[null, 1, 3]"));
    for (from, to, want) in [
        (
            "\"points_run\": [1, 3]",
            "\"points_run\": [3, 1]",
            "table document: points_run[1]: point 1 after point 3 (want strictly ascending)",
        ),
        (
            "\"points_run\": [1, 3]",
            "\"points_run\": [1, 3, 3]",
            "table document: points_run[2]: point 3 after point 3 (want strictly ascending)",
        ),
        (
            "\"points_run\": [1, 3]",
            "\"points_run\": [1, 4]",
            "table document: points_run[1]: point 4 outside the 4-point sweep",
        ),
        (
            "\"points_run\": [1, 3]",
            "\"points_run\": [1, 18446744073709551615]",
            "table document: points_run[1]: point 18446744073709551615 outside the 4-point sweep",
        ),
        (
            "[null, 1, 3]",
            "[null, 1, 1000000000000000000]",
            "table document: row_points[2]: point 1000000000000000000 outside the 4-point sweep",
        ),
        (
            "\"points_run\": [1, 3]",
            "\"points_run\": [1, -3]",
            "table document: points_run[1]: expected a non-negative integer",
        ),
        (
            "\"sweep_points\": 4",
            "\"sweep_points\": 18446744073709551616",
            "table document: sweep_points: expected a non-negative integer",
        ),
        (
            "\"sweep_points\": 4",
            "\"sweep_points\": 1",
            "table document: points_run[0]: point 1 outside the 1-point sweep",
        ),
    ] {
        assert!(good.contains(from), "fixture lost {from}");
        assert_eq!(parse_error(&good.replace(from, to)), want);
    }
}

/// A sweep far larger than its shard documents is a missing point, found
/// without a slot per point: 10^18 of them would not fit in memory.
#[test]
fn oversized_sweep_is_a_missing_point_not_an_allocation() {
    for huge in ["4000000000", "1000000000000000000", "18446744073709551615"] {
        let docs: Vec<TableDoc> = (0..2)
            .map(|i| {
                let text = table_doc(Some((i, 2)));
                let hostile =
                    text.replace("\"sweep_points\": 4", &format!("\"sweep_points\": {huge}"));
                TableDoc::parse(&hostile).expect("the points named are inside the sweep")
            })
            .collect();
        let err = merge_shard_docs(&docs).unwrap_err();
        assert_eq!(
            err,
            MergeError::MissingPointIndex {
                table: "séries".into(),
                point: 4,
                expected_shard: 0,
            }
        );
        assert_eq!(
            err.to_string(),
            "séries: missing point index 4 (shard 0 dropped?)"
        );
    }
    // One shard alone: the first gap is its sibling's first point.
    let lone = [TableDoc::parse(&table_doc(Some((1, 2)))).unwrap()];
    assert!(matches!(
        merge_shard_docs(&lone).unwrap_err(),
        MergeError::MissingPointIndex {
            point: 0,
            expected_shard: 0,
            ..
        }
    ));
}

/// What is read back renders to the bytes it was read from — NaN cells,
/// `u64::MAX`, quoted and non-ASCII text included — and to the CSV of
/// the typed table it was written from.
#[test]
fn parse_then_render_is_byte_exact() {
    for shard in [None, Some((0, 2)), Some((1, 2)), Some((3, 5))] {
        let written = table_and_meta(shard);
        let text = written.render();
        let read = TableDoc::parse(&text).unwrap();
        assert_eq!(read.render(), text);
        assert_eq!(read.to_csv(), written.to_csv());
        assert_eq!(read.meta, written.meta);
        assert!(read
            .table
            .rows
            .iter()
            .flatten()
            .all(|c| matches!(c, Cell::Str(_))));
    }
    let merged = merge_shard_docs(&[0, 1].map(|i| table_and_meta(Some((i, 2))))).unwrap();
    assert_eq!(merged.render(), table_doc(None));
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
            "unsharded table document",
            0,
            "table document: unknown key \"zzz\" (known: columns, ",
        ),
        (
            "golden manifest",
            0,
            "golden manifest: unknown key \"zzz\" (known: commit, k, ",
        ),
    ];
    let docs = documents();
    for (name, nth, want) in cases {
        let (_, text, decode) = docs.iter().find(|d| d.0 == name).expect(name);
        let err = decode(&with_stray_key(text, nth)).expect_err(name);
        assert!(err.starts_with(want), "{name} object {nth}: {err}");
    }
    // A second copy of a key that *is* known never reaches a decoder.
    for (name, text, decode) in &docs {
        let start = text.find('"').expect("has a key");
        let end = start + 1 + text[start + 1..].find('"').expect("key closes");
        let key = &text[start..=end];
        let twice = format!("{}{key}: 1, {}", &text[..start], &text[start..]);
        let err = decode(&twice).expect_err(name);
        assert!(
            err.contains(&format!("duplicate key {key}")),
            "{name}: {err}"
        );
    }
}

/// Strings a renderer has to escape, a CSV writer has to quote, or a
/// typed decoder could mistake for something else.
const AWKWARD: [&str; 12] = [
    "",
    "plain",
    "a\"b",
    "x,y",
    "line\nbreak",
    "tab\there",
    "back\\slash",
    "NaN",
    "18446744073709551615",
    "-0.5000",
    "µ→é",
    "\u{1f}null",
];

fn awkward(i: usize) -> String {
    AWKWARD[i % AWKWARD.len()].to_string()
}

/// Flags from four draws; `k == 0` stands for "not set".
fn flags_of((scale, seed, replicates, k): (usize, u64, usize, usize)) -> RunFlags {
    RunFlags {
        scale: [Scale::Quick, Scale::Default, Scale::Full][scale],
        seed,
        replicates,
        k: k.checked_sub(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_documents_round_trip(
        flags in (0usize..3, 0u64..u64::MAX, 1usize..9, 0usize..40),
        shard in (0usize..4, 0usize..5),
        names in prop::collection::vec(0usize..AWKWARD.len(), 3..6),
        cells in prop::collection::vec(0usize..AWKWARD.len(), 0..30),
        steps in prop::collection::vec(1usize..200, 0..8),
        beyond in 0usize..50,
    ) {
        let columns: Vec<String> = names[2..].iter().map(|&i| awkward(i)).collect();
        let rows: Vec<Vec<Cell>> = cells
            .chunks_exact(columns.len())
            .map(|r| r.iter().map(|&i| Cell::Str(awkward(i))).collect())
            .collect();
        // Points run ascend strictly; `beyond == 0` stands for a table
        // that records no sweep size, any other value for a sweep that
        // ends `beyond` points after the last one run.
        let points_run: Vec<usize> = steps
            .iter()
            .scan(0, |next, step| {
                *next += step;
                Some(*next - 1)
            })
            .collect();
        let sweep_points = beyond
            .checked_sub(1)
            .map(|b| points_run.last().map_or(0, |p| p + 1) + b + rows.len() * 7);
        let doc = TableDoc {
            meta: RunMeta {
                driver: awkward(names[0]),
                flags: flags_of(flags),
                // n == 0 stands for an unsharded document.
                shard: (shard.1 > 0).then_some(shard),
            },
            table: Table {
                name: awkward(names[1]),
                sweep_points,
                points_run,
                columns,
                // Whether a row is a constant row hangs on its first cell.
                row_points: rows
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r[0] != Cell::from("")).then_some(i * 7))
                    .collect(),
                rows,
            },
        };
        prop_assert_eq!(TableDoc::parse(&doc.render()).as_ref(), Ok(&doc));
        // Rows (not the header, which `Table::to_csv` leaves unquoted:
        // column names are identifiers in every driver) survive the CSV
        // written beside the document too.
        let mut plain = doc.table.clone();
        plain.columns = vec!["c".to_string(); plain.columns.len()];
        let rendered: Vec<Vec<String>> = doc
            .table
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::to_string).collect())
            .collect();
        prop_assert_eq!(&parse_csv(&plain.to_csv()).unwrap()[1..], &rendered[..]);
    }

    /// Arbitrary bytes, read as text the way a file is, and each valid
    /// document with arbitrary bytes written over it at arbitrary
    /// places, never panic a decoder.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(0u8..255, 0..256),
        edits in prop::collection::vec((0usize..1 << 16, 0u8..255), 1..16),
    ) {
        for (_, text, decode) in documents() {
            let _ = decode(&String::from_utf8_lossy(&bytes));
            let mut hostile = text.into_bytes();
            for &(at, byte) in &edits {
                let at = at % hostile.len();
                hostile[at] = byte;
            }
            let _ = decode(&String::from_utf8_lossy(&hostile));
        }
    }

    #[test]
    fn golden_manifests_round_trip(
        flags in (0usize..3, 0u64..u64::MAX, 1usize..9, 0usize..40),
        commit in 0usize..AWKWARD.len(),
        tables in prop::collection::vec(0usize..AWKWARD.len(), 0..6),
    ) {
        let m = GoldenManifest {
            commit: awkward(commit),
            flags: flags_of(flags),
            tables: tables.iter().map(|&i| awkward(i)).collect(),
        };
        prop_assert_eq!(GoldenManifest::parse(&m.render()), Ok(m));
    }
}
