//! Real-binary acceptance tests for [`bench::backend::SubprocessBackend`]:
//! a subprocess-orchestrated run must be byte-identical to the in-process
//! backend, and every child failure mode (non-zero exit, signal death,
//! missing documents, unparseable documents) must surface as a per-job
//! error rather than taking the sweep down.
//!
//! These live in the bench crate (not the root tests/) because cargo
//! only guarantees the `opera` binary is built — and exposes its path
//! via `CARGO_BIN_EXE_opera` — for the crate that defines it.

use bench::backend::{LocalBackend, SubprocessBackend};
use bench::figures::GOLDEN_FLAGS;
use expt::orchestrate::{Backend, OrchestrateError, Orchestrator, Plan, ShardJob};
use std::path::{Path, PathBuf};

const DRIVER: &str = "fig14_cycle_time_scaling";

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("orch-subproc-{tag}-{}", std::process::id()))
}

/// The headline guarantee: re-executing the real `opera` binary per
/// shard job merges to output byte-identical to the in-process backend (which
/// the tier-1 suite separately proves identical to unsharded
/// `--threads 1`).
#[test]
fn subprocess_run_is_byte_identical_to_local() {
    let plan = Plan {
        drivers: vec![DRIVER.to_string()],
        shards: 2,
        retries: 0,
    };
    let sub = Orchestrator::new(
        SubprocessBackend::new(GOLDEN_FLAGS, PathBuf::from(env!("CARGO_BIN_EXE_opera")))
            .with_scratch(scratch("ident")),
        2,
    );
    let sub_report = sub.run(&plan).expect("subprocess run succeeds");

    let local = Orchestrator::new(LocalBackend::new(GOLDEN_FLAGS), 2);
    let local_report = local.run(&plan).unwrap();

    let (s, l) = (&sub_report.drivers[0], &local_report.drivers[0]);
    assert_eq!(s.merged.len(), l.merged.len());
    for (sm, lm) in s.merged.iter().zip(&l.merged) {
        assert_eq!(sm.table.name, lm.table.name);
        assert_eq!(
            sm.to_csv(),
            lm.to_csv(),
            "{DRIVER}/{}: subprocess merge differs from local",
            sm.table.name
        );
    }
    // Stronger than CSV equality: the shard documents themselves are
    // byte-identical, so resume can mix backends freely.
    for (sd, ld) in s.shard_docs.iter().zip(&l.shard_docs) {
        assert_eq!(sd.len(), ld.len());
        for (a, b) in sd.iter().zip(ld) {
            assert_eq!(a.render(), b.render());
        }
    }
}

/// Install a fake `opera` shell script so the failure-mapping tests can
/// exercise exits the real binary never produces. Every fake first
/// checks it was invoked as `run <driver>` (exit 64 otherwise), then
/// runs `body`.
#[cfg(unix)]
fn fake_program(dir: &Path, driver: &str, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("opera");
    let script = format!(
        "#!/bin/sh\nif [ \"$1\" != run ] || [ \"$2\" != {driver} ]; then\n  \
         echo \"expected: run {driver}, got: $1 $2\" >&2\n  exit 64\nfi\n{body}\n"
    );
    std::fs::write(&path, script).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

#[cfg(unix)]
fn run_fake(name: &str, body: &str) -> Result<Vec<String>, String> {
    let dir = scratch(&format!("bin-{name}"));
    let program = fake_program(&dir, name, body);
    let b =
        SubprocessBackend::new(GOLDEN_FLAGS, program).with_scratch(scratch(&format!("job-{name}")));
    let res = b.run_shard(&ShardJob {
        driver: name.to_string(),
        shard: (0, 1),
    });
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// A non-zero exit maps to an error naming the exit status and carrying
/// the child's stderr tail.
#[cfg(unix)]
#[test]
fn nonzero_exit_names_status_and_stderr_tail() {
    let err = run_fake("fake_exit", "echo boom >&2\nexit 3").unwrap_err();
    assert!(err.contains("exit status: 3"), "{err}");
    assert!(err.contains("boom"), "stderr tail missing: {err}");
}

/// A child killed by a signal (segfault, abort, OOM) maps to an error
/// naming the signal.
#[cfg(unix)]
#[test]
fn signal_death_names_the_signal() {
    let err = run_fake("fake_sig", "kill -9 $$").unwrap_err();
    assert!(err.contains("killed by signal 9"), "{err}");
}

/// A child that exits 0 without writing shard documents is still a
/// job failure — silence is never success.
#[cfg(unix)]
#[test]
fn silent_success_without_documents_is_an_error() {
    let err = run_fake("fake_silent", "exit 0").unwrap_err();
    assert!(err.contains("wrote no shard documents"), "{err}");
}

/// A child that writes unparseable documents fails at the orchestrator's
/// validation layer, consuming retry budget like any other job error.
#[cfg(unix)]
#[test]
fn garbage_documents_are_a_job_failure() {
    let dir = scratch("bin-garbage");
    let program = fake_program(
        &dir,
        "fake_garbage",
        r#"out=""
while [ $# -gt 0 ]; do
  if [ "$1" = "--out" ]; then out="$2"; shift; fi
  shift
done
mkdir -p "$out/fake_garbage/shards"
printf '{ not json' > "$out/fake_garbage/shards/t.shard0of1.json""#,
    );
    let orch = Orchestrator::new(
        SubprocessBackend::new(GOLDEN_FLAGS, program).with_scratch(scratch("job-garbage")),
        1,
    );
    let err = orch
        .run(&Plan {
            drivers: vec!["fake_garbage".to_string()],
            shards: 1,
            retries: 0,
        })
        .unwrap_err();
    let _ = std::fs::remove_dir_all(&dir);
    match err {
        OrchestrateError::Job { job, error, .. } => {
            assert_eq!(job.driver, "fake_garbage");
            assert!(!error.is_empty());
            assert!(!error.contains("exit status: 64"), "{error}");
        }
        other => panic!("expected a job error, got: {other}"),
    }
}
