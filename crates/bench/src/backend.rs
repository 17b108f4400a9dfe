//! Orchestrator backends: in-process threads ([`LocalBackend`]) and
//! child processes ([`SubprocessBackend`]).
//!
//! The [`Backend`] trait is the seam where execution substrates slot
//! in: anything that can run `"opera run <driver> --shard i/n"`
//! somewhere and ship back the JSON table documents is a valid
//! implementation. `LocalBackend` calls the driver registry directly on
//! the worker thread — cheapest, but a crashing driver shares the
//! orchestrator's address space. `SubprocessBackend` re-executes the
//! `opera` binary per job, so a segfaulting or aborting driver is just
//! a non-zero exit status consuming retry budget — the
//! process-isolation robustness win — and the same spawn recipe extends
//! to a remote (ssh / job queue) runner later. Both backends pin
//! drivers to `--threads 1` and pass identical flags, so their merged
//! output is byte-identical.

use crate::figures;
use expt::orchestrate::{panic_message, Backend, ShardJob};
use expt::output::{table_json, RunMeta};
use expt::{Ctx, ExptArgs, RunFlags, Scale};
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs shard jobs in-process through the [`crate::figures`] registry.
///
/// Each job gets a fresh [`Ctx`] restricted to its shard and pinned to
/// **one worker thread** — parallelism comes from the orchestrator's
/// job pool, not from nesting thread pools (and the harness guarantees
/// thread count cannot change output anyway). Panics inside a driver
/// are caught and reported as job errors so the orchestrator's retry
/// and error paths see them like any remote failure.
#[derive(Debug, Clone)]
pub struct LocalBackend {
    /// The run's identity, shared by every job (shard and threads are
    /// set per job).
    pub flags: RunFlags,
}

impl LocalBackend {
    /// Backend running every job under `flags`.
    pub fn new(flags: RunFlags) -> Self {
        LocalBackend { flags }
    }
}

impl Backend for LocalBackend {
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<String>, String> {
        let (exp, build) =
            figures::find(&job.driver).ok_or_else(|| format!("unknown driver {:?}", job.driver))?;
        let ctx = Ctx::new(ExptArgs {
            shard: Some(job.shard),
            threads: 1,
            no_write: true,
            ..self.flags.expt_args()
        });
        let tables = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(&ctx)))
            .map_err(|payload| format!("{} panicked: {}", exp.name, panic_message(&*payload)))?;
        let meta = RunMeta::new(exp.name, &ctx.args);
        Ok(tables.iter().map(|t| table_json(t, &meta)).collect())
    }
}

/// Runs each shard job as a child process: spawns
/// `<program> run <driver> --quick/--full --threads 1 --seed S
/// --shard i/n --out <scratch>` and collects the shard documents the
/// child wrote.
///
/// Failure mapping — all per-job `Err`s, so the orchestrator's retry
/// budget applies and a dying child never takes the sweep down:
/// * spawn failure (missing binary) → named error,
/// * non-zero exit → exit status plus the child's stderr tail,
/// * signal death (segfault, abort, OOM kill) → the signal number,
/// * a child that exits 0 without writing documents → named error
///   (the orchestrator separately validates that documents parse and
///   match the job).
#[derive(Debug, Clone)]
pub struct SubprocessBackend {
    /// The run's identity; shard and threads are set per job.
    pub flags: RunFlags,
    /// The `opera` executable to spawn (the CLI passes its own
    /// `current_exe()`).
    pub program: PathBuf,
    /// Scratch root for per-job `--out` directories; each job cleans
    /// its own subdirectory up after collecting the documents.
    scratch: PathBuf,
}

impl SubprocessBackend {
    /// Backend spawning `<program> run <driver>` per job under `flags`.
    pub fn new(flags: RunFlags, program: PathBuf) -> Self {
        let scratch = std::env::temp_dir().join(format!("opera-orch-{}", std::process::id()));
        SubprocessBackend {
            flags,
            program,
            scratch,
        }
    }

    /// Override the scratch root (tests isolate theirs).
    pub fn with_scratch(mut self, scratch: PathBuf) -> Self {
        self.scratch = scratch;
        self
    }
}

impl Backend for SubprocessBackend {
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<String>, String> {
        let jobdir = self.scratch.join(format!(
            "{}.shard{}of{}",
            job.driver, job.shard.0, job.shard.1
        ));
        // A leftover dir from a killed earlier attempt must not leak
        // stale documents into this one.
        let _ = fs::remove_dir_all(&jobdir);
        fs::create_dir_all(&jobdir).map_err(|e| format!("{}: {e}", jobdir.display()))?;

        let mut cmd = Command::new(&self.program);
        cmd.arg("run").arg(&job.driver);
        match self.flags.scale {
            Scale::Quick => {
                cmd.arg("--quick");
            }
            Scale::Full => {
                cmd.arg("--full");
            }
            Scale::Default => {}
        }
        cmd.arg("--threads")
            .arg("1")
            .arg("--seed")
            .arg(self.flags.seed.to_string())
            .arg("--replicates")
            .arg(self.flags.replicates.to_string())
            .arg("--shard")
            .arg(format!("{}/{}", job.shard.0, job.shard.1))
            .arg("--out")
            .arg(&jobdir);
        if let Some(k) = self.flags.k {
            cmd.arg("--k").arg(k.to_string());
        }
        cmd.stdin(Stdio::null())
            // The child prints its whole CSV to stdout; discard it —
            // the shard documents on disk are the channel.
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let output = cmd
            .output()
            .map_err(|e| format!("failed to spawn {}: {e}", self.program.display()))?;
        if !output.status.success() {
            return Err(exit_error(&job.driver, &output.status, &output.stderr));
        }

        let dir = jobdir.join(&job.driver);
        let files = expt::output::shard_docs(&dir).map_err(|e| {
            let dir = dir.display();
            format!("{} wrote no shard documents ({dir}: {e})", job.driver)
        })?;
        let mut docs = Vec::with_capacity(files.len());
        for f in &files {
            docs.push(fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?);
        }
        if docs.is_empty() {
            return Err(format!(
                "{} exited successfully but wrote no shard documents under {}",
                job.driver,
                dir.display()
            ));
        }
        let _ = fs::remove_dir_all(&jobdir);
        Ok(docs)
    }
}

/// Describe a failed child exit: the signal that killed it on Unix,
/// the exit status otherwise, plus a tail of its stderr.
fn exit_error(driver: &str, status: &std::process::ExitStatus, stderr: &[u8]) -> String {
    let stderr = String::from_utf8_lossy(stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    let tail = if lines.is_empty() {
        String::new()
    } else {
        let keep = &lines[lines.len().saturating_sub(5)..];
        format!(": {}", keep.join(" | "))
    };
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("{driver} killed by signal {sig}{tail}");
        }
    }
    format!("{driver} {status}{tail}")
}

/// The backend registry behind the orchestrate CLI's `--backend` flag
/// and a manifest's recorded backend name: one enum so callers avoid
/// generics at the binary boundary.
#[derive(Debug, Clone)]
pub enum AnyBackend {
    /// In-process thread execution ([`LocalBackend`]).
    Local(LocalBackend),
    /// Child-process execution ([`SubprocessBackend`]).
    Subprocess(SubprocessBackend),
}

impl AnyBackend {
    /// Build a backend by name (`local` / `subprocess`); the
    /// subprocess backend re-executes the running binary.
    pub fn from_name(name: &str, flags: RunFlags) -> Result<AnyBackend, String> {
        match name {
            "local" => Ok(AnyBackend::Local(LocalBackend::new(flags))),
            "subprocess" => {
                let program = std::env::current_exe()
                    .map_err(|e| format!("cannot locate the running binary: {e}"))?;
                Ok(AnyBackend::Subprocess(SubprocessBackend::new(
                    flags, program,
                )))
            }
            other => Err(format!(
                "unknown backend {other:?} (want local or subprocess)"
            )),
        }
    }
}

impl Backend for AnyBackend {
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<String>, String> {
        match self {
            AnyBackend::Local(b) => b.run_shard(job),
            AnyBackend::Subprocess(b) => b.run_shard(job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::GOLDEN_FLAGS;
    use expt::orchestrate::{merge_driver_docs, Orchestrator, Plan};
    use expt::TableDoc;

    #[test]
    fn backend_registry_resolves_names() {
        let b = AnyBackend::from_name("local", GOLDEN_FLAGS).unwrap();
        assert!(matches!(b, AnyBackend::Local(_)));
        let b = AnyBackend::from_name("subprocess", GOLDEN_FLAGS).unwrap();
        assert!(matches!(b, AnyBackend::Subprocess(_)));
        assert!(AnyBackend::from_name("ssh", GOLDEN_FLAGS)
            .unwrap_err()
            .contains("unknown backend"));
    }

    #[test]
    fn missing_binary_is_a_spawn_error() {
        let b = SubprocessBackend::new(GOLDEN_FLAGS, PathBuf::from("/nonexistent/opera"))
            .with_scratch(
                std::env::temp_dir().join(format!("orch-missing-{}", std::process::id())),
            );
        let err = b
            .run_shard(&ShardJob {
                driver: "fig14_cycle_time_scaling".into(),
                shard: (0, 1),
            })
            .unwrap_err();
        assert!(err.contains("failed to spawn"), "{err}");
    }

    #[test]
    fn unknown_driver_is_an_error() {
        let b = LocalBackend::new(GOLDEN_FLAGS);
        let err = b
            .run_shard(&ShardJob {
                driver: "fig99_missing".into(),
                shard: (0, 1),
            })
            .unwrap_err();
        assert!(err.contains("unknown driver"));
    }

    #[test]
    fn sharded_fig14_merges_to_the_unsharded_tables() {
        // fig14 is cheap and has both a sweep table and a constant
        // table — a one-driver end-to-end of backend + merge.
        let b = LocalBackend::new(GOLDEN_FLAGS);
        let unsharded: Vec<TableDoc> = b
            .run_shard(&ShardJob {
                driver: "fig14_cycle_time_scaling".into(),
                shard: (0, 1),
            })
            .unwrap()
            .iter()
            .map(|d| TableDoc::parse(d).unwrap())
            .collect();

        let orch = Orchestrator::new(b, 2);
        let report = orch
            .run(&Plan {
                drivers: vec!["fig14_cycle_time_scaling".into()],
                shards: 3,
                retries: 0,
            })
            .unwrap();
        let merged = &report.drivers[0].merged;
        assert_eq!(merged.len(), unsharded.len());
        // Merged tables are in canonical sorted-by-name order; the raw
        // run_shard docs are in driver emission order. Match by name.
        for m in merged {
            let u = unsharded
                .iter()
                .find(|u| u.table.name == m.table.name)
                .unwrap();
            assert_eq!(m.to_csv(), u.to_csv());
        }
        // The grouped merge helper agrees with the orchestrator.
        let regrouped =
            merge_driver_docs("fig14_cycle_time_scaling", &report.drivers[0].shard_docs).unwrap();
        assert_eq!(regrouped.len(), merged.len());
    }
}
