//! Golden trace regression: the JSON-lines trace and the pcapng capture
//! of the committed `scenarios/tiny_incast.json` scenario must match the
//! blessed files under `goldens/traces/tiny_incast/` byte-for-byte.
//!
//! The trace is a total ordering of every per-link event in the run —
//! enqueues, transmissions, trims, ACKs, timers, with timestamps — so
//! this is the strictest behavioral pin in the suite: any reordering or
//! retiming anywhere in netsim/transport moves some line. After an
//! *intended* change, re-bless with
//! `OPERA_BLESS=1 cargo test -q --test trace_scenarios` and commit the
//! diff alongside, exactly like the figure goldens.
//!
//! Every committed scenario file also decodes, without being run: the
//! paper-scale one otherwise runs only nightly. `scenarios/` holds its
//! README and JSON files, nothing else: JSON is the one scenario syntax.

use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn bless() -> bool {
    matches!(
        std::env::var("OPERA_BLESS").ok().as_deref(),
        Some("1") | Some("true")
    )
}

#[test]
fn every_committed_scenario_decodes() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_root().join("scenarios"))
        .expect("scenarios/ is committed")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| !p.ends_with("README.md"))
        .collect();
    files.sort();
    let stray: Vec<&PathBuf> = files
        .iter()
        .filter(|p| p.extension().is_none_or(|e| e != "json"))
        .collect();
    assert!(
        stray.is_empty(),
        "scenarios/ holds non-JSON files: {stray:?}"
    );
    let names: Vec<String> = files
        .iter()
        .map(|p| {
            bench::scenario::Scenario::load(p)
                .unwrap_or_else(|e| panic!("{e}"))
                .name
        })
        .collect();
    assert_eq!(
        names,
        [
            "incast_smoke",
            "paper_incast_648",
            "policy_matrix",
            "tiny_incast"
        ]
    );
}

#[test]
fn tiny_incast_trace_matches_golden() {
    let sc = bench::scenario::Scenario::load(&repo_root().join("scenarios/tiny_incast.json"))
        .expect("parse committed scenario");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-golden");
    let _ = std::fs::remove_dir_all(&out);
    let report = bench::scenario::run_scenario(&sc, &out).expect("scenario runs");

    // The run itself must self-validate: both sinks, reconciled.
    let v = report.validation.expect("tiny_incast enables both sinks");
    assert!(v.jsonl_tx > 0, "traced run produced no transmissions");
    assert_eq!(v.jsonl_tx, v.pcapng_packets);

    let fresh_path = report.trace_jsonl.expect("jsonl sink enabled");
    let fresh = std::fs::read_to_string(&fresh_path).unwrap();
    let fresh_cap = std::fs::read(report.trace_pcapng.expect("pcapng sink enabled")).unwrap();
    let golden_path = repo_root().join("goldens/traces/tiny_incast/trace.jsonl");
    let golden_cap_path = golden_path.with_extension("pcapng");
    if bless() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &fresh).unwrap();
        std::fs::write(&golden_cap_path, &fresh_cap).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nbless with `OPERA_BLESS=1 cargo test -q --test trace_scenarios`",
            golden_path.display()
        )
    });
    if fresh != committed {
        // Name the first diverging line, not a 200-line dump.
        for (i, (f, c)) in fresh.lines().zip(committed.lines()).enumerate() {
            assert_eq!(
                f,
                c,
                "trace diverges from golden at line {} — if intended, re-bless with \
                 OPERA_BLESS=1 and commit the goldens/traces diff",
                i + 1
            );
        }
        panic!(
            "trace length changed: fresh {} line(s), golden {} line(s) — if intended, \
             re-bless with OPERA_BLESS=1 and commit the goldens/traces diff",
            fresh.lines().count(),
            committed.lines().count()
        );
    }

    let committed_cap = std::fs::read(&golden_cap_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nbless with `OPERA_BLESS=1 cargo test -q --test trace_scenarios`",
            golden_cap_path.display()
        )
    });
    if fresh_cap != committed_cap {
        let at = fresh_cap
            .iter()
            .zip(&committed_cap)
            .position(|(f, c)| f != c)
            .unwrap_or(fresh_cap.len().min(committed_cap.len()));
        panic!(
            "capture diverges from golden at byte {at}, in the block at byte {} (fresh {} \
             bytes, golden {}) — if intended, re-bless with OPERA_BLESS=1 and commit the \
             goldens/traces diff",
            block_start(&committed_cap, at),
            fresh_cap.len(),
            committed_cap.len()
        );
    }
}

/// Offset of the pcapng block of `capture` that holds byte `at`, walking
/// the `type:u32 len:u32` block headers from the start.
fn block_start(capture: &[u8], at: usize) -> usize {
    let mut off = 0;
    while let Some(len) = capture.get(off + 4..off + 8) {
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        if len < 12 || off + len > at {
            break;
        }
        off += len;
    }
    off
}

/// Tracing must be pure observation: running the same scenario with the
/// trace table stripped yields identical metrics rows.
#[test]
fn tracing_does_not_perturb_metrics() {
    let mut sc = bench::scenario::Scenario::load(&repo_root().join("scenarios/tiny_incast.json"))
        .expect("parse committed scenario");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-perturb");
    let _ = std::fs::remove_dir_all(&out);
    let traced = bench::scenario::run_scenario(&sc, &out.join("on")).unwrap();
    sc.trace = Default::default();
    let plain = bench::scenario::run_scenario(&sc, &out.join("off")).unwrap();

    let traced_csv = std::fs::read_to_string(&traced.csv).unwrap();
    let plain_csv = std::fs::read_to_string(&plain.csv).unwrap();
    assert_eq!(
        traced_csv, plain_csv,
        "enabling trace sinks changed simulation results"
    );
}
