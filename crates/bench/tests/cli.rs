//! CLI acceptance tests driving the real `opera` binary: the exit-code
//! convention, the registry-driven `list` / `run` (and its `--shard`
//! split), name, replicate- and shard-count validation in `orchestrate`,
//! re-running `orchestrate` over the tree it wrote, and the
//! `run-scenario` subcommand.
//!
//! The regression of record: an empty or unknown driver list must be a
//! hard named error *before any job is scheduled* — never an exit-0 run
//! of zero jobs that CI reads as green. Same rule for `orchestrate` into
//! a tree of another run and for `run-scenario` with unknown names.

use bench::figures;
use expt::orchestrate::{start_run, Plan};
use expt::{merge_shard_docs, Ctx, TableDoc};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("opera-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_opera"))
        .args(args)
        .output()
        .expect("spawn opera")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The repo-root `scenarios/` directory (tests run with the crate as
/// cwd, two levels down).
fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn help_is_exit_0_and_bad_command_lines_are_exit_2() {
    for args in [
        &["--help"][..],
        &["run-scenario", "--help"],
        &["golden", "-h"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout_of(&out).starts_with("usage: opera list"), "{args:?}");
    }
    for args in [
        &[][..],
        &["frobnicate"],
        &["list", "extra"],
        &["run"],
        &["run", "fig14_cycle_time_scaling", "--bogus"],
        &["orchestrate", "--shards"],
        &["orchestrate", "--retries", "1"],
        &["orchestrate", "--plan", "plan.json"],
        &["orchestrate", "--no-write"],
        &["orchestrate", "--threads", "1"],
        &["orchestrate", "--shard", "0/2"],
        &["resume"],
        &["validate", "--bogus"],
        &["golden", "--threads", "many"],
        &["spot", "--bogus"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr_of(&out).contains("usage: opera list"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn list_is_the_registry_in_order() {
    let out = run(&["list"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let names: Vec<&str> = figures::all().iter().map(|(e, _)| e.name).collect();
    assert_eq!(stdout_of(&out), names.join("\n") + "\n");
}

#[test]
fn run_unknown_driver_is_exit_2_listing_the_drivers() {
    for args in [
        &["run", "nope"][..],
        &["golden", "--driver", "nope"],
        &["spot", "--point", "nope"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("\"nope\""), "{args:?}");
    }
    let err = stderr_of(&run(&["run", "nope"]));
    for (exp, _) in figures::all() {
        assert!(err.contains(exp.name), "{} missing from: {err}", exp.name);
    }
}

/// `opera run <driver>` is the registry's builder under `emit`'s
/// headers: byte-for-byte the tables the golden check builds in process.
#[test]
fn run_prints_the_registry_drivers_tables() {
    let out = run(&[
        "run",
        "fig14_cycle_time_scaling",
        "--quick",
        "--threads",
        "1",
        "--no-write",
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let mut want = format!(
        "# {}\n# mode=quick threads=1 seed=0 replicates=3\n",
        figures::fig14::EXPERIMENT.title
    );
    for t in figures::fig14::tables(&figures::golden_ctx(1)) {
        want += &format!("table,{}\n{}\n", t.name, t.to_csv());
    }
    assert_eq!(stdout_of(&out), want);
}

/// An unknown driver, or one named twice (which used to run it twice
/// and write each CSV twice), is exit 2 naming it before anything runs.
#[test]
fn unknown_driver_is_exit_2_with_known_list() {
    let dir = scratch("bad-drivers");
    let results = dir.join("results");
    for (drivers, want) in [
        (
            "fig99_nonexistent",
            "\"fig99_nonexistent\"; known drivers: [",
        ),
        (
            "fig14_cycle_time_scaling,fig01_flow_dists,fig14_cycle_time_scaling",
            "--drivers names driver \"fig14_cycle_time_scaling\" twice",
        ),
    ] {
        let args = ["orchestrate", "--drivers", drivers, "--quick", "--out"];
        let out = run(&[&args[..], &[results.to_str().unwrap()]].concat());
        assert_eq!(out.status.code(), Some(2), "{drivers}: {}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(err.contains(want), "{drivers}: {err}");
        assert!(out.stdout.is_empty() && !results.exists(), "{drivers} ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two megabytes of `[` used to overflow the stack of every subcommand
/// that reads a document (exit 134). Now it is a parse error: running
/// `orchestrate` again re-runs exactly the job whose shard document it
/// replaced, and a scenario is exit 2 naming the file.
#[test]
fn deeply_nested_documents_are_errors_not_aborts() {
    let dir = scratch("deep");
    let deep = "[".repeat(2_000_000);
    let too_deep = "nesting deeper than 64 at byte 64";

    let scenario = dir.join("scenario.json");
    std::fs::write(&scenario, &deep).unwrap();
    let out = run(&["run-scenario", scenario.to_str().unwrap()]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(scenario.to_str().unwrap()) && err.contains(too_deep),
        "{err}"
    );

    let results = dir.join("results");
    let orchestrate = [
        "orchestrate",
        "--drivers",
        "fig14_cycle_time_scaling",
        "--shards",
        "2",
        "--quick",
        "--out",
        results.to_str().unwrap(),
    ];
    let orchestrated = run(&orchestrate);
    assert!(
        orchestrated.status.success(),
        "{}",
        stderr_of(&orchestrated)
    );
    let merged = results.join("fig14_cycle_time_scaling/cycle_time.csv");
    let reference = std::fs::read_to_string(&merged).unwrap();
    let victim = "fig14_cycle_time_scaling/shards/bulk_threshold_mb.shard1of2.json";
    std::fs::write(results.join(victim), &deep).unwrap();

    let out = run(&["validate", "--out", results.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains(too_deep), "{}", stderr_of(&out));

    let out = run(&orchestrate);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let reruns: Vec<String> = stdout_of(&out)
        .lines()
        .filter(|l| l.starts_with("rerun"))
        .map(str::to_string)
        .collect();
    assert_eq!(reruns.len(), 1, "{reruns:?}");
    assert!(
        reruns[0].starts_with("rerun  fig14_cycle_time_scaling shard 1/2: corrupt shard document")
            && reruns[0].contains(victim)
            && reruns[0].ends_with(too_deep),
        "{}",
        reruns[0]
    );
    assert_eq!(std::fs::read_to_string(&merged).unwrap(), reference);
    let out = run(&["validate", "--out", results.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Both shards of a table claiming a 10^18-point sweep: a missing
    // point by name, not a slot allocated per claimed point (exit 101).
    for i in 0..2 {
        let shard = format!("fig14_cycle_time_scaling/shards/cycle_time.shard{i}of2.json");
        let text = std::fs::read_to_string(results.join(&shard)).unwrap();
        let hostile = text.replace(
            "\"sweep_points\": 4",
            "\"sweep_points\": 1000000000000000000",
        );
        assert_ne!(hostile, text, "{shard} records another sweep size");
        std::fs::write(results.join(&shard), hostile).unwrap();
    }
    for args in [
        &["validate", "--out", results.to_str().unwrap()][..],
        &orchestrate,
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(err.contains("cycle_time: missing point index 4"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `opera run <driver> --shard i/n --out D` writes only its shard
/// documents, and the two shards of a 2-way split merge to the CSV an
/// unsharded `opera run` writes, byte for byte.
#[test]
fn sharded_runs_write_documents_that_merge_to_the_unsharded_csv() {
    const DRIVER: &str = "fig14_cycle_time_scaling";
    let dir = scratch("shard-run");
    let (sharded, unsharded) = (dir.join("sharded"), dir.join("unsharded"));
    run_both_shards(DRIVER, &sharded);
    let out = run(&[
        "run",
        DRIVER,
        "--quick",
        "--out",
        unsharded.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let mut written: Vec<PathBuf> = Vec::new();
    let mut pending = vec![sharded.clone()];
    while let Some(d) = pending.pop() {
        for e in std::fs::read_dir(d).unwrap() {
            let path = e.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                written.push(path.strip_prefix(&sharded).unwrap().to_path_buf());
            }
        }
    }
    written.sort();
    let tables = ["bulk_threshold_mb", "cycle_time"];
    let want: Vec<PathBuf> = tables
        .iter()
        .flat_map(|t| (0..2).map(move |i| format!("{DRIVER}/shards/{t}.shard{i}of2.json")))
        .map(PathBuf::from)
        .collect();
    assert_eq!(written, want);

    for t in tables {
        let docs: Vec<TableDoc> = (0..2)
            .map(|i| {
                let path = sharded.join(format!("{DRIVER}/shards/{t}.shard{i}of2.json"));
                TableDoc::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
            })
            .collect();
        let csv = std::fs::read_to_string(unsharded.join(format!("{DRIVER}/{t}.csv"))).unwrap();
        assert_eq!(merge_shard_docs(&docs).unwrap().to_csv(), csv, "{t}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `opera run <driver> --quick --shard i/2` for both shards into `out`,
/// as two machines would, each writing only its own shard documents.
fn run_both_shards(driver: &str, out: &Path) {
    for shard in ["0/2", "1/2"] {
        let args = ["run", driver, "--quick", "--shard", shard, "--out"];
        let done = run(&[&args[..], &[out.to_str().unwrap()]].concat());
        assert!(done.status.success(), "{shard}: {}", stderr_of(&done));
    }
}

/// The files under `dir`'s `shards/`, by name, with their bytes.
fn shard_documents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut docs: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("shards"))
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    docs.sort();
    docs
}

/// One writer: the shard documents `opera run --shard i/2` writes are
/// the orchestrator's, byte for byte.
#[test]
fn sharded_run_documents_equal_the_orchestrators() {
    const DRIVER: &str = "fig14_cycle_time_scaling";
    let dir = scratch("shard-equal");
    let (sharded, orchestrated) = (dir.join("sharded"), dir.join("orchestrated"));
    run_both_shards(DRIVER, &sharded);
    let args = [
        "orchestrate",
        "--drivers",
        DRIVER,
        "--shards",
        "2",
        "--quick",
    ];
    let out = run(&[&args[..], &["--out", orchestrated.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr_of(&out));
    let docs = shard_documents(&sharded.join(DRIVER));
    assert_eq!(docs.len(), 4);
    assert_eq!(docs, shard_documents(&orchestrated.join(DRIVER)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard documents written by `opera run --shard i/n` on other machines
/// and gathered into one tree are a finished run to `start_run`: it
/// runs no job, leaves them as they are, and merges them to the CSVs an
/// unsharded run renders.
#[test]
fn start_run_keeps_and_merges_gathered_shard_runs() {
    const DRIVER: &str = "fig14_cycle_time_scaling";
    let dir = scratch("shard-gather");
    run_both_shards(DRIVER, &dir);
    let before = shard_documents(&dir.join(DRIVER));
    let plan = Plan::new(vec![DRIVER.to_string()], 2).unwrap();
    let ran = AtomicUsize::new(0);
    let build = |driver: &str, ctx: &Ctx| {
        ran.fetch_add(1, Ordering::SeqCst);
        figures::build(driver, ctx)
    };
    let (report, csvs) = start_run(&dir, &plan, figures::GOLDEN_FLAGS, build, 1).unwrap();
    assert_eq!((ran.into_inner(), report.reused), (0, 2));
    assert!(report.rerun.is_empty(), "{:?}", report.rerun);
    assert_eq!(shard_documents(&dir.join(DRIVER)), before);
    let unsharded = figures::build(DRIVER, &figures::golden_ctx(1)).unwrap();
    assert_eq!(csvs.len(), unsharded.len());
    for t in &unsharded {
        let csv = std::fs::read_to_string(dir.join(format!("{DRIVER}/{}.csv", t.name))).unwrap();
        assert_eq!(csv, t.to_csv(), "{}", t.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zero replicates would run no seed at all: table-only drivers used to
/// write header-only tables and exit 0. Every input a replicate count
/// comes from — the `run` and `orchestrate` flags — is exit 2 naming the
/// field, before anything runs or is written. So is
/// `orchestrate --shards 0`, which used to run one shard and exit 0.
#[test]
fn zero_replicates_or_shards_is_exit_2_from_every_input() {
    const DRIVER: &str = "fig01_flow_dists";
    let dir = scratch("zero-replicates");
    let out = dir.join("results");
    let out = out.to_str().unwrap();
    for (args, want) in [
        (
            &["run", DRIVER, "--quick", "--replicates", "0", "--out", out][..],
            "--replicates must be at least 1",
        ),
        (
            &[
                "orchestrate",
                "--drivers",
                DRIVER,
                "--quick",
                "--replicates",
                "0",
                "--out",
                out,
            ],
            "--replicates must be at least 1",
        ),
        (
            &[
                "orchestrate",
                "--drivers",
                DRIVER,
                "--shards",
                "0",
                "--out",
                out,
            ],
            "--shards must be at least 1",
        ),
    ] {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {}", stderr_of(&o));
        assert!(stderr_of(&o).contains(want), "{args:?}: {}", stderr_of(&o));
        assert!(o.stdout.is_empty(), "{args:?} ran something");
    }
    assert!(!Path::new(out).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run` and `orchestrate` read the run-identity flags through one
/// parser, so `--quick` beats `--full` in both, in either order;
/// `orchestrate` used to take whichever came last.
#[test]
fn quick_beats_full_in_run_and_orchestrate() {
    let dir = scratch("quick-full");
    let out = dir.to_str().unwrap();
    let orchestrate = |scale: [&str; 2]| {
        let args = ["orchestrate", "--drivers", "fig14_cycle_time_scaling"];
        let o = run(&[&args[..], &scale, &["--shards", "1", "--out", out]].concat());
        assert!(o.status.success(), "{scale:?}: {}", stderr_of(&o));
        let _ = std::fs::remove_dir_all(dir.join("fig14_cycle_time_scaling"));
        stdout_of(&o).lines().next().unwrap_or_default().to_string()
    };
    let quick = "# orchestrating 1 driver(s) x 1 shard(s), scale=quick, seed=0, replicates=3";
    assert_eq!(orchestrate(["--quick", "--full"]), quick);
    assert_eq!(orchestrate(["--full", "--quick"]), quick);
    let o = run(&[
        "run",
        "fig14_cycle_time_scaling",
        "--full",
        "--quick",
        "--no-write",
    ]);
    assert!(o.status.success(), "{}", stderr_of(&o));
    assert!(stdout_of(&o).contains("# mode=quick "), "{}", stdout_of(&o));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, with its bytes, in path order.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for path in std::fs::read_dir(d).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push((path.clone(), std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// `orchestrate` into a tree written under other flags, or with another
/// shard count, is exit 2 naming the field and the file, with every
/// file of the tree left as it was: a tree belongs to one run, and is
/// never pruned or overwritten by another.
#[test]
fn orchestrate_refuses_a_tree_of_another_run() {
    const DRIVER: &str = "fig14_cycle_time_scaling";
    let dir = scratch("other-run");
    let results = dir.join("results");
    let results = results.to_str().unwrap();
    let args = [
        "orchestrate",
        "--drivers",
        DRIVER,
        "--quick",
        "--out",
        results,
    ];
    let made = run(&[&args[..], &["--shards", "2"]].concat());
    assert!(made.status.success(), "{}", stderr_of(&made));
    let before = snapshot(Path::new(results));
    let shard0 = format!("{DRIVER}/shards/bulk_threshold_mb.shard0of2.json");
    for (extra, want) in [
        (
            &["--shards", "2", "--seed", "1"][..],
            "written under seed `0`; this run has `1`",
        ),
        (
            &["--shards", "3"],
            "a document of a 2-shard run; this run has --shards 3",
        ),
    ] {
        let out = run(&[&args[..], extra].concat());
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {err}");
        assert!(
            err.contains(want) && err.contains(&shard0),
            "{extra:?}: {err}"
        );
        assert!(out.stdout.starts_with(b"# orchestrating"), "{extra:?}");
        assert_eq!(
            stdout_of(&out).lines().count(),
            1,
            "{extra:?} ran something"
        );
        assert!(
            snapshot(Path::new(results)) == before,
            "{extra:?} changed the tree"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_scenario_missing_file_is_exit_2() {
    let out = run(&["run-scenario", "/nonexistent/never.json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("never.json"),
        "{}",
        stderr_of(&out)
    );
}

/// JSON is the one scenario syntax: a file of any other extension is one
/// exit-2 line naming it and `.json`, before it is read, and nothing is
/// written.
#[test]
fn run_scenario_of_another_extension_is_exit_2() {
    let smoke = std::fs::read_to_string(scenarios_dir().join("incast_smoke.json")).unwrap();
    let dir = scratch("extension");
    for file in ["smoke.toml", "smoke.JSON", "smoke"] {
        let sc = dir.join(file);
        std::fs::write(&sc, &smoke).unwrap();
        let out = dir.join("out");
        let out = run(&[
            "run-scenario",
            sc.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{file}: {err}");
        assert!(
            err.contains(file) && err.contains("want .json"),
            "{file}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{file}: not one line: {err}");
        assert!(out.stdout.is_empty(), "{file} ran something");
        assert!(!dir.join("out").exists(), "{file}: something was written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_scenario_unknown_policy_is_exit_2_before_running() {
    let dir = scratch("bad-policy");
    let sc = dir.join("bad.json");
    std::fs::write(
        &sc,
        r#"{"topology": {"kind": "expander"},
            "workload": {"kind": "incast", "senders": 2, "flow_kb": 6},
            "switch": {"policy": "redlight"}, "transport": {"kind": "ndp"},
            "run": {"duration_ms": 5, "seed": 1}}"#,
    )
    .unwrap();
    let out = run(&[
        "run-scenario",
        sc.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("redlight") && err.contains("known policies"),
        "{err}"
    );
    // Nothing was written: validation failed before any simulation.
    assert!(!dir.join("bad").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_scenario_unknown_key_is_exit_2() {
    let dir = scratch("bad-key");
    let sc = dir.join("typo.json");
    std::fs::write(
        &sc,
        r#"{"topology": {"kind": "expander"},
            "workload": {"kind": "incast", "senders": 2, "flow_kb": 6},
            "switch": {"policiy": "ndp_trim"}, "transport": {"kind": "ndp"},
            "run": {"duration_ms": 5, "seed": 1}}"#,
    )
    .unwrap();
    let out = run(&[
        "run-scenario",
        sc.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("policiy"), "{}", stderr_of(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `topology.racks` is checked where names are, before anything is
/// built: a count the rotor topology cannot be generated for (it used to
/// panic in the generator), and the key on a topology that ignores it
/// (it used to run the 8-rack expander and exit 0), are exit-2 errors.
#[test]
fn run_scenario_bad_racks_is_exit_2_before_running() {
    let smoke = std::fs::read_to_string(scenarios_dir().join("incast_smoke.json")).unwrap();
    let dir = scratch("bad-racks");
    for (tag, from, to, explains) in [
        (
            "seven",
            r#""racks": 8"#,
            r#""racks": 7"#,
            "multiple of the 4 uplinks",
        ),
        (
            "zero",
            r#""racks": 8"#,
            r#""racks": 0"#,
            "multiple of the 4 uplinks",
        ),
        (
            "fixed",
            r#""kind": "opera", "racks": 8"#,
            r#""kind": "expander", "racks": 16"#,
            "\"opera\" and \"opera_paper\"",
        ),
    ] {
        assert!(smoke.contains(from), "incast_smoke.json changed shape");
        let sc = dir.join(format!("{tag}.json"));
        std::fs::write(&sc, smoke.replace(from, to)).unwrap();
        let out = run(&[
            "run-scenario",
            sc.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{tag}: {err}");
        assert!(
            err.contains("topology.racks") && err.contains(explains),
            "{tag}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{tag}: not one line: {err}");
        assert!(!dir.join("incast_smoke").exists(), "{tag}: something ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lengths and durations taken from a scenario file are bounded where
/// they are read: a duration that wraps the nanosecond clock used to run
/// for 0.45 ms and exit 0 (or panic in a debug build), sender / rack
/// counts in the billions used to abort on a failed allocation, and a
/// 6.2 TB flow wrapped its `u32` segment count and ran 0 of 8 flows to
/// exit 0. Each is one exit-2 line naming the file and the field, whether
/// it is far past its bound or one past it.
#[test]
fn run_scenario_hostile_lengths_are_exit_2_before_running() {
    let smoke = std::fs::read_to_string(scenarios_dir().join("incast_smoke.json")).unwrap();
    let json = |racks: &str, senders: &str, duration_ms: &str| {
        format!(
            r#"{{"name": "incast_smoke",
                "topology": {{"kind": "opera", "racks": {racks}}},
                "workload": {{"kind": "incast", "senders": {senders}, "flow_kb": 15}},
                "switch": {{"policy": "ndp_trim"}}, "transport": {{"kind": "ndp"}},
                "run": {{"duration_ms": {duration_ms}}}}}"#
        )
    };
    let edit = |from: &str, to: &str| {
        assert!(smoke.contains(from), "incast_smoke.json changed shape");
        smoke.replace(from, to)
    };
    let dir = scratch("hostile-lengths");
    for (file, text, field) in [
        (
            "wraps.json",
            json("8", "8", "18446744073710"),
            "run.duration_ms: too large",
        ),
        (
            "max.json",
            edit(
                r#""duration_ms": 40"#,
                r#""duration_ms": 18446744073709551615"#,
            ),
            "run.duration_ms: too large",
        ),
        (
            "senders.json",
            json("8", "1000000000000", "40"),
            "workload.senders: 1000000000000 is over",
        ),
        (
            "senders_axis.json",
            edit(r#""senders": 8"#, r#""senders": [8, 1000000000000]"#),
            "workload.senders: 1000000000000 is over",
        ),
        (
            "racks.json",
            json("4000000000", "8", "40"),
            "topology.racks: 4000000000 is over",
        ),
        (
            "racks_433.json",
            edit(r#""racks": 8"#, r#""racks": 433"#),
            "topology.racks: 433 is over",
        ),
        (
            "flow.json",
            json("8", "8", "1").replace(r#""flow_kb": 15"#, r#""flow_kb": 6200000000"#),
            "workload.flow_kb: 6200000000 is over",
        ),
        (
            "flow_bound.json",
            edit(r#""flow_kb": 15"#, r#""flow_kb": 10000001"#),
            "workload.flow_kb: 10000001 is over",
        ),
    ] {
        let sc = dir.join(file);
        std::fs::write(&sc, text).unwrap();
        let out = run(&[
            "run-scenario",
            sc.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{file}: {err}");
        assert!(
            err.contains(file) && err.contains("scenario: ") && err.contains(field),
            "{file}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{file}: not one line: {err}");
        assert!(!dir.join("incast_smoke").exists(), "{file}: something ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario names files inside `--out`, never beside or above it:
/// `"name": "../esc"` and `"trace": {"jsonl": "../../esc2.jsonl"}` used
/// to write one and two levels above `--out` and exit 0. Each is one
/// exit-2 line naming the file and the field, and nothing is written.
#[test]
fn run_scenario_paths_outside_out_are_exit_2() {
    let dir = scratch("escape");
    let json = |name: &str, jsonl: &str| {
        format!(
            r#"{{"name": "{name}", "topology": {{"kind": "expander"}},
                "workload": {{"kind": "incast", "senders": 2, "flow_kb": 6}},
                "switch": {{"policy": "ndp_trim"}}, "transport": {{"kind": "ndp"}},
                "run": {{"duration_ms": 5}}, "trace": {{"jsonl": "{jsonl}"}}}}"#
        )
    };
    for (file, text, field) in [
        ("name.json", json("../esc", "../../esc2.jsonl"), "name"),
        ("jsonl.json", json("esc", "../../esc2.jsonl"), "trace.jsonl"),
        (
            "absolute.json",
            json("esc", "/tmp/esc2.jsonl"),
            "trace.jsonl",
        ),
    ] {
        let sc = dir.join(file);
        std::fs::write(&sc, text).unwrap();
        let out = dir.join("o1/deep");
        let out = run(&[
            "run-scenario",
            sc.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{file}: {err}");
        let want = format!("{file}: scenario: {field}: ");
        assert!(
            err.contains(&want) && err.contains("is not a plain file name"),
            "{file}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{file}: not one line: {err}");
        assert!(!dir.join("o1").exists(), "{file}: something was written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An incast of 0 senders offers no flow: exit 2 naming
/// `workload.senders` (it used to print `0/0 flows` and exit 0), as
/// `--replicates 0` is. A victim run of 0 senders still offers its victim
/// flow, and runs.
#[test]
fn run_scenario_incast_of_no_senders_is_exit_2() {
    let smoke = std::fs::read_to_string(scenarios_dir().join("incast_smoke.json")).unwrap();
    let (eight, none) = (r#""senders": 8"#, r#""senders": 0"#);
    assert!(smoke.contains(eight), "incast_smoke.json changed shape");
    let dir = scratch("no-senders");
    let sc = dir.join("none.json");
    std::fs::write(&sc, smoke.replace(eight, none)).unwrap();
    let out = run(&[
        "run-scenario",
        sc.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("none.json: scenario: workload.senders: "),
        "{err}"
    );
    assert!(!dir.join("incast_smoke").exists(), "something ran");

    let victim = smoke
        .replace(r#""kind": "incast""#, r#""kind": "victim""#)
        .replace(eight, none);
    std::fs::write(&sc, victim).unwrap();
    let out = run(&[
        "run-scenario",
        sc.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains(" 1/1 flows"),
        "{}",
        stdout_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_scenario_tiny_incast_end_to_end() {
    let dir = scratch("tiny");
    let sc = scenarios_dir().join("tiny_incast.json");
    let out = run(&[
        "run-scenario",
        sc.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("traces reconciled"), "{stdout}");
    // One summary line per sweep point.
    assert!(stdout.contains("flows, avg_fct="), "{stdout}");
    let base = dir.join("tiny_incast");
    assert!(base.join("tiny_incast.csv").exists());
    assert!(base.join("trace.jsonl").exists());
    assert!(base.join("trace.pcapng").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
