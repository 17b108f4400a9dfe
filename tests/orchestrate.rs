//! Tier-1 acceptance tests for the sweep orchestrator: merged sharded
//! output must be byte-identical to unsharded `--threads 1` runs for
//! **every** driver, an injected dropped shard must fail with the named
//! missing-point-index error, and running an interrupted run again must
//! finish it to a byte-identical final merge — re-run jobs reproducing
//! their shard documents bit for bit — without re-running completed
//! shards, whatever the interruption left: a missing, corrupt or staged
//! shard document, or a hand-deleted table document.

use bench::figures::{self, GOLDEN_FLAGS};
use expt::orchestrate::{start_run, validate_dir, OrchestrateError, Plan};
use expt::{Ctx, Table};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The acceptance bar from the issue: `opera orchestrate --drivers all
/// --shards 4 --quick` produces CSVs byte-identical to unsharded
/// `--threads 1` runs for all 20 drivers.
#[test]
fn orchestrated_4_shard_quick_run_matches_unsharded_threads_1() {
    let drivers: Vec<String> = figures::all()
        .iter()
        .map(|(e, _)| e.name.to_string())
        .collect();
    let out = std::env::temp_dir().join(format!("orch-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let plan = Plan::new(drivers.clone(), 4).unwrap();
    let (report, _) = start_run(&out, &plan, GOLDEN_FLAGS, figures::build, 2)
        .expect("orchestrated quick run succeeds");
    assert_eq!(report.drivers.len(), 20);

    let serial = figures::golden_ctx(1);
    for ((exp, build), run) in figures::all().into_iter().zip(&report.drivers) {
        assert_eq!(exp.name, run.driver);
        let unsharded: Vec<Table> = build(&serial);
        assert_eq!(
            unsharded.len(),
            run.merged.len(),
            "{}: table count differs",
            exp.name
        );
        // Merged tables come back in canonical (sorted-by-name) order,
        // independent of the driver's emission order; match by name.
        for t in &unsharded {
            let merged = run
                .merged
                .iter()
                .find(|m| m.name == t.name)
                .unwrap_or_else(|| panic!("{}: table {} missing from merge", exp.name, t.name));
            assert_eq!(
                merged.to_csv(),
                t.to_csv(),
                "{}/{}: merged CSV differs from unsharded --threads 1",
                exp.name,
                t.name
            );
        }
    }
    std::fs::remove_dir_all(&out).unwrap();
}

/// Dropping one shard document from a persisted run must fail
/// validation with a message naming the driver, the table and the
/// dropped point — the self-validating half of the acceptance bar.
#[test]
fn dropped_shard_fails_with_missing_point_index() {
    let out = std::env::temp_dir().join(format!("orch-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let plan = Plan::new(vec!["fig11_fault_tolerance".to_string()], 3).unwrap();
    start_run(&out, &plan, GOLDEN_FLAGS, figures::build, 2).unwrap();
    assert!(!validate_dir(&out).unwrap().is_empty());

    // Injected dropped shard.
    std::fs::remove_file(out.join("fig11_fault_tolerance/shards/connectivity_loss.shard1of3.json"))
        .unwrap();
    assert_eq!(
        validate_dir(&out).unwrap_err().to_string(),
        "fig11_fault_tolerance: connectivity_loss: missing point index 1 (shard 1 dropped?)"
    );
    std::fs::remove_dir_all(&out).unwrap();
}

const DRIVER: &str = "fig14_cycle_time_scaling";

/// The driver registry's builder for the first `successes` jobs, then
/// a failure for everything — simulating a run killed partway through.
/// With one worker, exactly the first `successes` jobs in plan order
/// complete.
fn fail_after(
    successes: usize,
    started: &AtomicUsize,
) -> impl Fn(&str, &Ctx) -> Result<Vec<Table>, String> + Sync + '_ {
    move |driver, ctx| {
        if started.fetch_add(1, Ordering::SeqCst) >= successes {
            return Err("simulated kill".into());
        }
        figures::build(driver, ctx)
    }
}

/// The driver registry's builder, recording which jobs it actually ran
/// as `driver:i` — the proof that a re-run does not re-run completed
/// shards.
fn counting(
    ran: &Mutex<Vec<String>>,
) -> impl Fn(&str, &Ctx) -> Result<Vec<Table>, String> + Sync + '_ {
    move |driver, ctx| {
        let (i, _) = ctx.args.shard.expect("a job's context has its shard");
        ran.lock().unwrap().push(format!("{driver}:{i}"));
        figures::build(driver, ctx)
    }
}

/// The tables fig14 renders in an uninterrupted unsharded `--threads 1`
/// run.
fn reference() -> Vec<Table> {
    let (_, build) = figures::find(DRIVER).unwrap();
    build(&figures::golden_ctx(1))
}

/// Every merged CSV under `out` equals the uninterrupted reference's.
fn assert_merged_as(out: &std::path::Path, reference: &[Table]) {
    for t in reference {
        let csv =
            std::fs::read_to_string(out.join(DRIVER).join(format!("{}.csv", t.name))).unwrap();
        assert_eq!(
            csv,
            t.to_csv(),
            "{}: re-run merge differs from uninterrupted --threads 1 run",
            t.name
        );
    }
}

/// Run `plan` into `out` again, returning the jobs that ran as
/// `driver:i` and the report's re-run reasons in plan order.
fn rerun(out: &std::path::Path, plan: &Plan) -> (Vec<String>, Vec<(usize, String)>) {
    let ran = Mutex::default();
    let (report, _) = start_run(out, plan, GOLDEN_FLAGS, counting(&ran), 2).unwrap();
    let reasons = report
        .rerun
        .iter()
        .map(|r| (r.job.shard.0, r.reason.clone()));
    (ran.into_inner().unwrap(), reasons.collect())
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let out = std::env::temp_dir().join(format!("orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    out
}

/// fig14 has both a sweep table and a constant table: a 3-way split,
/// each job a closure over the driver registry, merges to the tables
/// of one unsharded run.
#[test]
fn sharded_fig14_merges_to_the_unsharded_tables() {
    let out = fresh_dir("fig14-3");
    let plan = Plan::new(vec![DRIVER.to_string()], 3).unwrap();
    let build = |driver: &str, ctx: &Ctx| figures::build(driver, ctx);
    let (report, _) = start_run(&out, &plan, GOLDEN_FLAGS, build, 2).unwrap();
    let mut reference = reference();
    reference.sort_by(|a, b| a.name.cmp(&b.name));
    let rendered = |tables: &[Table]| -> Vec<(String, String)> {
        tables
            .iter()
            .map(|t| (t.name.clone(), t.to_csv()))
            .collect()
    };
    assert_eq!(rendered(&report.drivers[0].merged), rendered(&reference));
    std::fs::remove_dir_all(&out).unwrap();
}

/// Kill a 3-shard run after 2 shards persist, run it
/// again, and the merged CSV is byte-identical to an uninterrupted
/// run — with the completed shards *not* re-run. Then corrupt one
/// persisted shard document and run again: the corruption is detected
/// and only that shard re-runs.
#[test]
fn interrupted_run_resumes_to_byte_identical_merge() {
    let out = fresh_dir("resume");
    let plan = Plan::new(vec![DRIVER.to_string()], 3).unwrap();
    let reference = reference();

    // Interrupted run: one worker, jobs in plan order, killed after 2
    // of 3 shards.
    let started = AtomicUsize::new(0);
    let killed = fail_after(2, &started);
    let err = start_run(&out, &plan, GOLDEN_FLAGS, killed, 1).unwrap_err();
    assert!(matches!(err, OrchestrateError::Job { .. }));

    // The two completed shards are already durable.
    for table in ["cycle_time", "bulk_threshold_mb"] {
        for shard in 0..2 {
            assert!(
                out.join(DRIVER)
                    .join(format!("shards/{table}.shard{shard}of3.json"))
                    .is_file(),
                "{table} shard {shard} should have been persisted before the kill"
            );
        }
    }
    assert!(!out.join(DRIVER).join("cycle_time.csv").exists());

    // The same run again: only shard 2 runs; the merge is
    // byte-identical to the uninterrupted reference.
    let (ran, reasons) = rerun(&out, &plan);
    assert_eq!(
        ran,
        [format!("{DRIVER}:2")],
        "a re-run must not re-run completed shards"
    );
    assert_eq!(reasons.len(), 1);
    assert_eq!(reasons[0].0, 2);
    assert_merged_as(&out, &reference);
    assert!(!validate_dir(&out).unwrap().is_empty());

    // Corrupt (truncate) one persisted shard document: a re-run must
    // detect it, re-run exactly that shard, and restore identical
    // bytes.
    let victim = out.join(DRIVER).join("shards/cycle_time.shard1of3.json");
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
    let (ran, reasons) = rerun(&out, &plan);
    assert_eq!(
        ran,
        [format!("{DRIVER}:1")],
        "only the corrupt shard re-runs"
    );
    assert_eq!(reasons.len(), 1);
    assert!(reasons[0].1.contains("corrupt"), "{}", reasons[0].1);
    assert_eq!(std::fs::read_to_string(&victim).unwrap(), text);
    assert_merged_as(&out, &reference);
    std::fs::remove_dir_all(&out).unwrap();
}

/// A 1-shard run's job has no sibling shard to name its tables, so the
/// merged `<table>.json` does: a table document deleted by hand re-runs
/// the job.
#[test]
fn a_hand_deleted_table_document_reruns_its_job() {
    let out = fresh_dir("deleted-table");
    let plan = Plan::new(vec![DRIVER.to_string()], 1).unwrap();
    start_run(&out, &plan, GOLDEN_FLAGS, figures::build, 1).unwrap();
    let victim = out.join(DRIVER).join("shards/cycle_time.shard0of1.json");
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::remove_file(&victim).unwrap();

    let (ran, reasons) = rerun(&out, &plan);
    assert_eq!(ran, [format!("{DRIVER}:0")]);
    assert_eq!(reasons.len(), 1);
    let reason = &reasons[0].1;
    assert!(
        reason.starts_with("missing shard document") && reason.contains("cycle_time.shard0of1"),
        "{reason}"
    );
    assert_eq!(std::fs::read_to_string(&victim).unwrap(), text);
    assert_merged_as(&out, &reference());
    std::fs::remove_dir_all(&out).unwrap();
}

/// A job killed between committing its two documents leaves one renamed
/// into place and the other still staged as `.tmp`: the job re-runs,
/// and the staged file is replaced by its committed document.
#[test]
fn a_job_left_with_a_staged_document_reruns() {
    let out = fresh_dir("staged");
    let plan = Plan::new(vec![DRIVER.to_string()], 2).unwrap();
    start_run(&out, &plan, GOLDEN_FLAGS, figures::build, 1).unwrap();
    let shards = out.join(DRIVER).join("shards");
    let doc = shards.join("cycle_time.shard1of2.json");
    let staged = shards.join("cycle_time.shard1of2.json.tmp");
    let text = std::fs::read_to_string(&doc).unwrap();
    std::fs::rename(&doc, &staged).unwrap();

    let (ran, reasons) = rerun(&out, &plan);
    assert_eq!(ran, [format!("{DRIVER}:1")]);
    assert_eq!(reasons.len(), 1);
    let reason = &reasons[0].1;
    assert!(
        reason.starts_with("staged shard document") && reason.contains("shard1of2.json.tmp"),
        "{reason}"
    );
    assert_eq!(std::fs::read_to_string(&doc).unwrap(), text);
    assert!(!staged.exists());
    assert_merged_as(&out, &reference());
    std::fs::remove_dir_all(&out).unwrap();
}
