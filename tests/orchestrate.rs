//! Tier-1 acceptance tests for the sweep orchestrator: merged sharded
//! output must be byte-identical to unsharded `--threads 1` runs for
//! **every** driver, an injected dropped shard must fail with the named
//! missing-point-index error, and an interrupted run must resume to a
//! byte-identical final merge — re-run jobs reproducing their shard
//! documents bit for bit — without re-running completed shards.

use bench::backend::LocalBackend;
use bench::figures::{self, GOLDEN_FLAGS};
use expt::orchestrate::{validate_dir, Backend, OrchestrateError, Plan, ShardJob};
use expt::output::MergeError;
use expt::runfile::{resume_run, start_run, RunManifest, RUN_FILE};
use expt::{Table, TableDoc};
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
    let plan = Plan {
        drivers: drivers.clone(),
        shards: 4,
    };
    let backend = LocalBackend::new(GOLDEN_FLAGS);
    let (report, _) =
        start_run(&out, &plan, GOLDEN_FLAGS, backend, 2).expect("orchestrated quick run succeeds");
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
                .find(|m| m.table.name == t.name)
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
/// validation with `MergeError::MissingPointIndex` naming the dropped
/// point — the self-validating half of the acceptance bar.
#[test]
fn dropped_shard_fails_with_missing_point_index() {
    let out = std::env::temp_dir().join(format!("orch-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let plan = Plan {
        drivers: vec!["fig11_fault_tolerance".to_string()],
        shards: 3,
    };
    let backend = LocalBackend::new(GOLDEN_FLAGS);
    start_run(&out, &plan, GOLDEN_FLAGS, backend, 2).unwrap();
    assert!(!validate_dir(&out).unwrap().is_empty());

    // Injected dropped shard.
    std::fs::remove_file(out.join("fig11_fault_tolerance/shards/connectivity_loss.shard1of3.json"))
        .unwrap();
    match validate_dir(&out).unwrap_err() {
        OrchestrateError::Merge {
            driver,
            error:
                MergeError::MissingPointIndex {
                    point,
                    expected_shard,
                    ..
                },
        } => {
            assert_eq!(driver, "fig11_fault_tolerance");
            assert_eq!(point, 1);
            assert_eq!(expected_shard, 1);
        }
        other => panic!("expected MissingPointIndex, got: {other}"),
    }
    std::fs::remove_dir_all(&out).unwrap();
}

const DRIVER: &str = "fig14_cycle_time_scaling";

/// Delegates to the real backend for the first `successes` jobs, then
/// fails everything — simulating a run killed partway through. With
/// one worker, exactly the first `successes` jobs in plan order
/// complete.
struct FailAfter {
    inner: LocalBackend,
    successes: usize,
    started: AtomicUsize,
}

impl Backend for FailAfter {
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
        if self.started.fetch_add(1, Ordering::SeqCst) >= self.successes {
            return Err("simulated kill".into());
        }
        self.inner.run_shard(job)
    }
}

/// Records which jobs it actually ran — the proof that resume does not
/// re-run completed shards.
struct CountingLocal {
    inner: LocalBackend,
    ran: Mutex<Vec<String>>,
}

impl CountingLocal {
    fn new() -> Self {
        CountingLocal {
            inner: LocalBackend::new(GOLDEN_FLAGS),
            ran: Mutex::new(Vec::new()),
        }
    }
}

impl Backend for CountingLocal {
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
        self.ran
            .lock()
            .unwrap()
            .push(format!("{}:{}", job.driver, job.shard.0));
        self.inner.run_shard(job)
    }
}

/// Satellite bar: kill a 3-shard run after 2 shards persist, `resume`,
/// and the merged CSV is byte-identical to an uninterrupted run — with
/// the completed shards *not* re-run. Then corrupt one persisted shard
/// document and resume again: the corruption is detected and only that
/// shard re-runs.
#[test]
fn interrupted_run_resumes_to_byte_identical_merge() {
    let out = std::env::temp_dir().join(format!("orch-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let plan = Plan {
        drivers: vec![DRIVER.to_string()],
        shards: 3,
    };

    // The reference: what an uninterrupted unsharded --threads 1 run
    // renders.
    let serial = figures::golden_ctx(1);
    let (_, build) = figures::all()
        .into_iter()
        .find(|(e, _)| e.name == DRIVER)
        .unwrap();
    let reference: Vec<Table> = build(&serial);

    // Interrupted run: one worker, jobs in plan order, killed after 2
    // of 3 shards.
    let killed = FailAfter {
        inner: LocalBackend::new(GOLDEN_FLAGS),
        successes: 2,
        started: AtomicUsize::new(0),
    };
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
    let manifest = RunManifest::read(&out.join(RUN_FILE)).unwrap();
    assert!(!manifest.complete);

    // Resume: only shard 2 runs; the merge is byte-identical to the
    // uninterrupted reference.
    let backend = CountingLocal::new();
    let report = resume_run(&out, &backend, 2).unwrap();
    assert_eq!(report.reused, 2);
    assert_eq!(report.rerun.len(), 1);
    assert_eq!(report.rerun[0].job.shard, (2, 3));
    assert_eq!(
        backend.ran.lock().unwrap().as_slice(),
        [format!("{DRIVER}:2")],
        "resume must not re-run completed shards"
    );
    for t in &reference {
        let csv =
            std::fs::read_to_string(out.join(DRIVER).join(format!("{}.csv", t.name))).unwrap();
        assert_eq!(
            csv,
            t.to_csv(),
            "{}: resumed merge differs from uninterrupted --threads 1 run",
            t.name
        );
    }
    assert!(!validate_dir(&out).unwrap().is_empty());
    assert!(RunManifest::read(&out.join(RUN_FILE)).unwrap().complete);

    // Corrupt (truncate) one persisted shard document: resume must
    // detect it, re-run exactly that shard, and restore identical
    // bytes.
    let victim = out.join(DRIVER).join("shards/cycle_time.shard1of3.json");
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
    let backend = CountingLocal::new();
    let report = resume_run(&out, &backend, 2).unwrap();
    assert_eq!(report.reused, 2);
    assert_eq!(report.rerun.len(), 1);
    assert_eq!(report.rerun[0].job.shard, (1, 3));
    assert_eq!(
        backend.ran.lock().unwrap().as_slice(),
        [format!("{DRIVER}:1")],
        "only the corrupt shard re-runs"
    );
    assert!(
        report.rerun[0].reason.contains("corrupt"),
        "{}",
        report.rerun[0].reason
    );
    assert_eq!(std::fs::read_to_string(&victim).unwrap(), text);
    for t in &reference {
        let csv =
            std::fs::read_to_string(out.join(DRIVER).join(format!("{}.csv", t.name))).unwrap();
        assert_eq!(csv, t.to_csv());
    }
    std::fs::remove_dir_all(&out).unwrap();
}
