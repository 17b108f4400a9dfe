//! Driver-level sweep orchestration: fan `driver × shard` jobs over a
//! worker pool, retry failures, and merge the per-shard table documents
//! with full validation.
//!
//! The per-driver `--shard i/n` flag (PR 3/4) lets one *driver* split
//! its sweep, but left scheduling and merging to the caller — and the
//! merge worked on rendered CSV, which cannot validate what each shard
//! actually produced. This module is the missing scheduler:
//!
//! * a [`Plan`] says which drivers to run, across how many shards, and
//!   how often to retry a failed shard,
//! * a [`Backend`] executes one [`ShardJob`] in process and returns its
//!   table documents — the one implementation lives in `bench` (it
//!   needs the driver registry); tests implement the trait to inject
//!   failures,
//! * the [`Orchestrator`] claims jobs across scoped worker threads,
//!   retries, then merges each driver's shard documents through
//!   [`crate::output::merge_shard_docs`], so every result set is
//!   *validated* — every point index present exactly once, schema and
//!   flags matching — before a merged CSV is rendered. Each job attempt
//!   is isolated: a panicking driver, or a backend returning
//!   misattributed documents, is a failed *attempt* consuming retry
//!   budget, never a dead worker thread taking the sweep down,
//! * a [`RunObserver`] hears each job's final outcome as it completes,
//!   from the worker thread that ran it — the seam
//!   [`crate::runfile::start_run`] uses to persist every shard document
//!   the moment its job finishes instead of once at the end of the run,
//! * [`validate_dir`] re-validates a directory such a run wrote (shard
//!   documents under `shards/`, merged CSV + JSON beside them) from
//!   disk — the CI merge-validation step, and the hook tests use to
//!   prove a dropped shard fails with a named
//!   [`MergeError::MissingPointIndex`].

use crate::cli::check_replicates;
use crate::json;
use crate::output::{self, merge_shard_docs, result_path, MergeError, ResultFile, TableDoc};
use crate::Scale;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One unit of work: one driver restricted to one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardJob {
    /// Driver (experiment) name.
    pub driver: String,
    /// The `(i, n)` shard this job runs.
    pub shard: (usize, usize),
}

/// Executes shard jobs. Implementations must be shareable across the
/// orchestrator's worker threads.
pub trait Backend: Sync {
    /// Run one shard job to completion, returning the table documents
    /// it produced (one per table). Errors are retried up to the
    /// orchestrator's retry budget.
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String>;
}

impl<B: Backend + ?Sized> Backend for &B {
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
        (**self).run_shard(job)
    }
}

/// What to run: the resolved driver list plus sharding and retry knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Drivers to run, in order.
    pub drivers: Vec<String>,
    /// Shards per driver (1 = unsharded).
    pub shards: usize,
    /// Extra attempts per failed shard job (0 = fail fast).
    pub retries: usize,
}

/// Plan-file overrides (JSON): any subset of
/// `{"drivers": [...], "shards": N, "retries": N, "workers": N,
/// "scale": "quick", "seed": S, "replicates": R}`.
/// Omitted fields keep their CLI/default values; `drivers` omitted (or
/// `"all"`) means every registered driver.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanFile {
    /// Driver subset, `None` = all.
    pub drivers: Option<Vec<String>>,
    /// Shards per driver.
    pub shards: Option<usize>,
    /// Retry budget per shard job.
    pub retries: Option<usize>,
    /// Orchestrator worker threads.
    pub workers: Option<usize>,
    /// Run scale (`quick` / `default` / `full`).
    pub scale: Option<Scale>,
    /// Base seed.
    pub seed: Option<u64>,
    /// Replicates per sweep point (at least 1).
    pub replicates: Option<usize>,
}

impl PlanFile {
    /// Parse a plan file.
    pub fn parse(text: &str) -> Result<PlanFile, String> {
        json::decode("plan", text, |f| {
            // `"all"` is the one string accepted in place of the array.
            let drivers = match f.opt::<String>("drivers") {
                Ok(None) => None,
                Ok(Some(all)) if all == "all" => None,
                _ => Some(
                    f.req::<Vec<String>>("drivers")
                        .map_err(|e| format!("{e} of driver names, or \"all\""))?,
                ),
            };
            Ok(PlanFile {
                drivers,
                shards: f.opt("shards")?,
                retries: f.opt("retries")?,
                workers: f.opt("workers")?,
                scale: f.opt("scale")?,
                seed: f.opt("seed")?,
                replicates: (f.opt("replicates")?)
                    .map(|n| check_replicates(n).map_err(|e| f.bad("replicates", e)))
                    .transpose()?,
            })
        })
    }
}

/// One driver's outcome within a completed run.
#[derive(Debug)]
pub struct DriverRun {
    /// Driver name.
    pub driver: String,
    /// Shard documents, grouped per shard in shard order
    /// (`shard_docs[i]` holds shard `i`'s documents).
    pub shard_docs: Vec<Vec<TableDoc>>,
    /// Validated merged documents, one per table.
    pub merged: Vec<TableDoc>,
    /// Shard-job attempts that failed and were retried.
    pub retried: usize,
}

/// A completed orchestrated run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-driver outcomes, in plan order.
    pub drivers: Vec<DriverRun>,
    /// Shards per driver.
    pub shards: usize,
    /// Total shard-job attempts, including retries.
    pub attempts: usize,
}

/// An orchestration failure.
#[derive(Debug)]
pub enum OrchestrateError {
    /// A shard job failed after exhausting its retry budget.
    Job {
        /// Failing job.
        job: ShardJob,
        /// Attempts made (1 + retries).
        attempts: usize,
        /// The last error.
        error: String,
    },
    /// A shard document on disk did not parse, or a shard merge failed
    /// validation.
    Merge {
        /// Driver whose results failed to merge.
        driver: String,
        /// The underlying merge error.
        error: MergeError,
    },
    /// Filesystem failure while persisting or validating a run.
    Io {
        /// Path involved.
        path: PathBuf,
        /// The underlying error.
        error: String,
    },
    /// A validated directory disagrees with its shard documents.
    Stale {
        /// The merged CSV that is out of date.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
    /// A `run.json` manifest is missing, unreadable, or inconsistent.
    Manifest {
        /// Manifest path involved.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Job {
                job,
                attempts,
                error,
            } => write!(
                f,
                "{} shard {}/{}: failed after {attempts} attempt(s): {error}",
                job.driver, job.shard.0, job.shard.1
            ),
            OrchestrateError::Merge { driver, error } => write!(f, "{driver}: {error}"),
            OrchestrateError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            OrchestrateError::Stale { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            OrchestrateError::Manifest { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for OrchestrateError {}

impl OrchestrateError {
    /// A filesystem failure at `path`.
    pub(crate) fn io(path: &Path, e: std::io::Error) -> OrchestrateError {
        OrchestrateError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        }
    }
}

/// Hears each job's final outcome the moment it completes, from the
/// worker thread that ran it. Implementations persist state
/// incrementally — the writer behind [`crate::runfile::start_run`]
/// writes the shard documents and updates `run.json` per completion —
/// or do nothing
/// ([`NoObserver`]). Completion order is scheduling-dependent; anything
/// derived from it must be keyed by job, not by arrival order.
pub trait RunObserver: Sync {
    /// Called exactly once per job with its final outcome (after the
    /// retry budget is spent or the job succeeds).
    fn job_done(&self, job: &ShardJob, attempts: usize, outcome: &Result<Vec<TableDoc>, String>);
}

/// Observer that ignores every completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl RunObserver for NoObserver {
    fn job_done(&self, _: &ShardJob, _: usize, _: &Result<Vec<TableDoc>, String>) {}
}

/// Final outcome of one shard job after retries.
#[derive(Debug)]
pub struct JobOutcome {
    /// Attempts made (1 + retries consumed).
    pub attempts: usize,
    /// Parsed table documents on success, the last error otherwise.
    pub result: Result<Vec<TableDoc>, String>,
}

impl JobOutcome {
    /// The documents of a job that succeeded, or the error naming the
    /// `job` that did not.
    pub fn into_docs(self, job: &ShardJob) -> Result<Vec<TableDoc>, OrchestrateError> {
        self.result.map_err(|error| OrchestrateError::Job {
            job: job.clone(),
            attempts: self.attempts,
            error,
        })
    }
}

/// `Err` unless `doc` is a document of `job`: a backend, or a results
/// directory, handing back some other job's document must fail that
/// job, not poison the merge.
pub(crate) fn check_owner(doc: &TableDoc, job: &ShardJob) -> Result<(), String> {
    if doc.meta.driver == job.driver && doc.meta.shard == Some(job.shard) {
        return Ok(());
    }
    Err(format!(
        "document of driver {:?} shard {:?} where driver {:?} shard {:?} was expected",
        doc.meta.driver, doc.meta.shard, job.driver, job.shard
    ))
}

/// What a caught panic said, for reporting it as a job error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("no panic message")
}

/// The `driver × shard` job list of a plan, driver-major in plan order.
pub fn plan_jobs(plan: &Plan) -> Vec<ShardJob> {
    plan.drivers
        .iter()
        .flat_map(|d| {
            (0..plan.shards).map(move |i| ShardJob {
                driver: d.clone(),
                shard: (i, plan.shards),
            })
        })
        .collect()
}

/// Schedules shard jobs over a worker pool and merges the results.
#[derive(Debug)]
pub struct Orchestrator<B> {
    backend: B,
    workers: usize,
}

impl<B: Backend> Orchestrator<B> {
    /// New orchestrator over `backend`. `workers == 0` means one worker
    /// per available core.
    pub fn new(backend: B, workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        Orchestrator { backend, workers }
    }

    /// Run every `driver × shard` job of `plan`, retrying each failed
    /// job up to `plan.retries` extra times, then merge and validate
    /// each driver's shard documents. Job scheduling is work-stealing
    /// and nondeterministic; results are keyed by (driver, shard), so
    /// the report — like everything in this harness — is independent of
    /// worker count.
    pub fn run(&self, plan: &Plan) -> Result<RunReport, OrchestrateError> {
        self.run_observed(plan, &NoObserver)
    }

    /// [`Orchestrator::run`] with a per-job completion observer: every
    /// job's final outcome is delivered to `observer` as it completes,
    /// before the end-of-run merge — the hook that lets
    /// [`crate::runfile::start_run`] persist each shard document the
    /// moment it exists, so a killed run keeps everything that
    /// finished.
    pub fn run_observed(
        &self,
        plan: &Plan,
        observer: &dyn RunObserver,
    ) -> Result<RunReport, OrchestrateError> {
        assert!(plan.shards >= 1, "plan needs at least one shard");
        let jobs = plan_jobs(plan);
        let outcomes = self.execute_jobs(&jobs, plan.retries, observer);

        let mut report = RunReport {
            drivers: Vec::with_capacity(plan.drivers.len()),
            shards: plan.shards,
            attempts: 0,
        };
        let mut outcomes = jobs.iter().zip(outcomes);
        for driver in &plan.drivers {
            let mut shard_docs: Vec<Vec<TableDoc>> = Vec::with_capacity(plan.shards);
            let mut retried = 0usize;
            for (job, outcome) in outcomes.by_ref().take(plan.shards) {
                report.attempts += outcome.attempts;
                retried += outcome.attempts - 1;
                shard_docs.push(outcome.into_docs(job)?);
            }
            let merged = merge_driver_docs(driver, &shard_docs)?;
            report.drivers.push(DriverRun {
                driver: driver.clone(),
                shard_docs,
                merged,
                retried,
            });
        }
        Ok(report)
    }

    /// The claim-loop core shared by fresh runs and
    /// [`crate::runfile::resume_run`]: run every job in `jobs` with up
    /// to `1 + retries` attempts each, delivering each job's final
    /// outcome to `observer` from the worker that ran it. Job failures
    /// are *recorded*, not propagated — every job runs regardless of
    /// how the others fare, so one permanently broken shard cannot stop
    /// the rest of a sweep from completing (and being persisted).
    /// Returns one outcome per job, in job order.
    pub fn execute_jobs(
        &self,
        jobs: &[ShardJob],
        retries: usize,
        observer: &dyn RunObserver,
    ) -> Vec<JobOutcome> {
        crate::runner::claim_slots(self.workers, jobs.len(), |slot| {
            let job = &jobs[slot];
            let mut outcome = JobOutcome {
                attempts: 0,
                result: Err("never attempted".into()),
            };
            for attempt in 1..=retries + 1 {
                outcome = JobOutcome {
                    attempts: attempt,
                    result: self.attempt(job),
                };
                if outcome.result.is_ok() {
                    break;
                }
            }
            observer.job_done(job, outcome.attempts, &outcome.result);
            outcome
        })
    }

    /// One attempt of one job. The backend call is isolated behind
    /// `catch_unwind`, so a panicking driver becomes a failed attempt
    /// consuming retry budget instead of a dead worker thread aborting
    /// the whole sweep; the returned documents are checked against the
    /// job, so misattributed output is likewise a retryable per-job
    /// failure.
    fn attempt(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
        let mut docs =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.backend.run_shard(job)))
                .map_err(|payload| {
                    format!("{} panicked: {}", job.driver, panic_message(&*payload))
                })??;
        for doc in &docs {
            check_owner(doc, job)?;
        }
        // Canonical table order, whatever order the driver emitted them
        // in: `run.json`'s table lists and the merged output follow it.
        docs.sort_by(|a, b| a.table.name.cmp(&b.table.name));
        Ok(docs)
    }
}

/// Group one driver's per-shard documents by table and merge each group
/// with validation. Tables are ordered as shard 0 produced them; every
/// shard must produce the same table set.
pub fn merge_driver_docs(
    driver: &str,
    shard_docs: &[Vec<TableDoc>],
) -> Result<Vec<TableDoc>, OrchestrateError> {
    let merr = |error| OrchestrateError::Merge {
        driver: driver.to_string(),
        error,
    };
    let first = shard_docs
        .first()
        .ok_or_else(|| merr(MergeError::NoShards))?;
    let mut merged = Vec::with_capacity(first.len());
    for lead in first {
        // Every shard must produce the table exactly once: a missing
        // copy is a short shard; a duplicate (e.g. a retry artifact
        // from a buggy backend) could silently shadow drifted rows if
        // only the first copy were taken.
        let mut group: Vec<TableDoc> = Vec::with_capacity(shard_docs.len());
        for (i, docs) in shard_docs.iter().enumerate() {
            let mut matches = docs.iter().filter(|d| d.table.name == lead.table.name);
            match (matches.next(), matches.next()) {
                (Some(one), None) => group.push(one.clone()),
                (found, _) => {
                    return Err(merr(MergeError::SchemaMismatch {
                        table: lead.table.name.clone(),
                        field: "table",
                        got: if found.is_none() {
                            format!("absent from shard {i}")
                        } else {
                            format!("duplicated in shard {i}")
                        },
                        want: "exactly one document per shard".to_string(),
                    }));
                }
            }
        }
        merged.push(merge_shard_docs(&group).map_err(merr)?);
    }
    // A shard producing extra tables is drift too.
    for (i, docs) in shard_docs.iter().enumerate() {
        if let Some(extra) = docs
            .iter()
            .find(|d| !first.iter().any(|l| l.table.name == d.table.name))
        {
            return Err(merr(MergeError::SchemaMismatch {
                table: extra.table.name.clone(),
                field: "table",
                got: format!("extra table in shard {i}"),
                want: "absent from shard 0".to_string(),
            }));
        }
    }
    Ok(merged)
}

/// One validated `(driver, table)` pair from [`validate_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatedTable {
    /// Driver directory name.
    pub driver: String,
    /// Table name.
    pub table: String,
    /// Shard documents found.
    pub shards: usize,
    /// Merged data-row count.
    pub rows: usize,
}

/// Re-validate an orchestrated results directory from disk: for every
/// `<dir>/<driver>/shards/*.json`, re-merge the shard documents (full
/// validation — missing or duplicated point indices fail here) and
/// check the committed merged CSV matches the re-merge byte-for-byte.
/// Returns the validated tables, or the first failure.
pub fn validate_dir(out: &Path) -> Result<Vec<ValidatedTable>, OrchestrateError> {
    let mut validated = Vec::new();
    let mut driver_dirs: Vec<PathBuf> = fs::read_dir(out)
        .map_err(|e| OrchestrateError::io(out, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join(output::SHARD_DIR).is_dir())
        .collect();
    driver_dirs.sort();
    for dir in driver_dirs {
        let driver = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let merr = |error| OrchestrateError::Merge {
            driver: driver.clone(),
            error,
        };
        let mut groups: BTreeMap<String, Vec<TableDoc>> = BTreeMap::new();
        let files = output::shard_docs(&dir).map_err(|e| OrchestrateError::io(&dir, e))?;
        for path in files {
            let text = fs::read_to_string(&path).map_err(|e| OrchestrateError::io(&path, e))?;
            let doc = TableDoc::parse(&text).map_err(|e| {
                let context = format!("{}: {e}", path.display());
                merr(MergeError::Parse { context })
            })?;
            groups.entry(doc.table.name.clone()).or_default().push(doc);
        }
        for (table, docs) in groups {
            let merged = merge_shard_docs(&docs).map_err(merr)?;
            let csv_path = result_path(&dir, &table, ResultFile::Csv);
            let committed =
                fs::read_to_string(&csv_path).map_err(|e| OrchestrateError::io(&csv_path, e))?;
            if committed != merged.to_csv() {
                return Err(OrchestrateError::Stale {
                    path: csv_path,
                    detail: "merged CSV does not match a re-merge of its shard documents"
                        .to_string(),
                });
            }
            validated.push(ValidatedTable {
                driver: driver.clone(),
                table,
                shards: docs.len(),
                rows: merged.table.len(),
            });
        }
    }
    Ok(validated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runfile::start_run;
    use crate::testutil::{fake_docs, tmp_dir, FakeBackend, QUICK};
    use std::sync::Mutex;

    fn plan(drivers: &[&str], shards: usize, retries: usize) -> Plan {
        Plan {
            drivers: drivers.iter().map(|s| s.to_string()).collect(),
            shards,
            retries,
        }
    }

    #[test]
    fn orchestrates_and_merges_across_workers() {
        let orch = Orchestrator::new(FakeBackend::default(), 3);
        let report = orch.run(&plan(&["a", "b"], 3, 0)).unwrap();
        assert_eq!(report.attempts, 6);
        assert_eq!(report.drivers.len(), 2);
        for run in &report.drivers {
            assert_eq!(run.retried, 0);
            assert_eq!(run.merged.len(), 1);
            // Merged equals what an unsharded run would render.
            let unsharded = &fake_docs(&run.driver, (0, 1))[0];
            assert_eq!(run.merged[0].to_csv(), unsharded.to_csv());
        }
    }

    #[test]
    fn retries_recover_transient_failures() {
        let orch = Orchestrator::new(FakeBackend::failing_first(1), 2);
        let report = orch.run(&plan(&["a"], 2, 2)).unwrap();
        // Each of the 2 jobs failed once, then succeeded.
        assert_eq!(report.attempts, 4);
        assert_eq!(report.drivers[0].retried, 2);
    }

    #[test]
    fn exhausted_retries_fail_with_the_job_named() {
        let orch = Orchestrator::new(FakeBackend::default(), 2);
        let err = orch.run(&plan(&["a", "always-broken"], 2, 1)).unwrap_err();
        match err {
            OrchestrateError::Job { job, attempts, .. } => {
                assert_eq!(job.driver, "always-broken");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected Job error, got {other}"),
        }
    }

    #[test]
    fn write_then_validate_round_trips_and_detects_drops() {
        let out = tmp_dir("orch-validate");
        let p = plan(&["a"], 3, 0);
        let (_, csvs) = start_run(&out, &p, QUICK, FakeBackend::default(), 2).unwrap();
        assert_eq!(csvs.len(), 1);
        let validated = validate_dir(&out).unwrap();
        assert_eq!(validated.len(), 1);
        assert_eq!(validated[0].shards, 3);

        // Injected dropped shard: deleting one shard document must fail
        // with the named missing-point-index error.
        fs::remove_file(out.join("a/shards/data.shard1of3.json")).unwrap();
        match validate_dir(&out).unwrap_err() {
            OrchestrateError::Merge {
                error: MergeError::MissingPointIndex { point, .. },
                ..
            } => assert_eq!(point, 1),
            other => panic!("expected MissingPointIndex, got {other}"),
        }

        // Duplicated shard: copying a shard in as another shard's file
        // fails as a duplicate point index.
        let text = fs::read_to_string(out.join("a/shards/data.shard0of3.json")).unwrap();
        fs::write(out.join("a/shards/data.shard1of3.json"), &text).unwrap();
        fs::write(out.join("a/shards/data.extra.json"), &text).unwrap();
        match validate_dir(&out).unwrap_err() {
            OrchestrateError::Merge {
                error: MergeError::DuplicatePointIndex { point, .. },
                ..
            } => assert_eq!(point, 0),
            other => panic!("expected DuplicatePointIndex, got {other}"),
        }
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn rewriting_a_run_prunes_stale_shard_docs() {
        let out = tmp_dir("orch-prune");
        // A 3-shard run followed by a 2-shard run into the same out dir:
        // without pruning, the leftover *of3 documents would make
        // validate_dir fail with a shard-count mismatch.
        for shards in [3, 2] {
            let p = plan(&["a"], shards, 0);
            start_run(&out, &p, QUICK, FakeBackend::default(), 2).unwrap();
        }
        let validated = validate_dir(&out).unwrap();
        assert_eq!(validated.len(), 1);
        assert_eq!(validated[0].shards, 2);
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn duplicate_table_within_a_shard_is_rejected() {
        let docs0 = fake_docs("a", (0, 2));
        let docs1 = fake_docs("a", (1, 2));
        // Shard 1 returns its table twice (e.g. a retry artifact).
        let doubled = vec![docs0, vec![docs1[0].clone(), docs1[0].clone()]];
        match merge_driver_docs("a", &doubled).unwrap_err() {
            OrchestrateError::Merge {
                error: MergeError::SchemaMismatch { got, .. },
                ..
            } => assert!(got.contains("duplicated in shard 1")),
            other => panic!("expected SchemaMismatch, got {other}"),
        }
    }

    #[test]
    fn tampered_merged_csv_is_stale() {
        let out = tmp_dir("orch-stale");
        let p = plan(&["a"], 2, 0);
        let (_, csvs) = start_run(&out, &p, QUICK, FakeBackend::default(), 1).unwrap();
        fs::write(&csvs[0], "point,sub\n9,9\n").unwrap();
        assert!(matches!(
            validate_dir(&out).unwrap_err(),
            OrchestrateError::Stale { .. }
        ));
        fs::remove_dir_all(&out).unwrap();
    }

    /// Panics on the first `panic_first` attempts of every job of the
    /// driver named `"panicky"`; everything else succeeds immediately.
    /// The call counter lock is released before panicking so the test
    /// exercises the orchestrator's isolation, not a poisoned test
    /// fixture.
    struct PanickyBackend {
        panic_first: usize,
        calls: std::sync::Mutex<std::collections::HashMap<String, usize>>,
    }

    impl Backend for PanickyBackend {
        fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
            let n = {
                let mut calls = self.calls.lock().unwrap();
                let entry = calls
                    .entry(format!("{}:{}", job.driver, job.shard.0))
                    .or_insert(0);
                *entry += 1;
                *entry
            };
            if job.driver == "panicky" && n <= self.panic_first {
                panic!("deliberate panic on attempt {n}");
            }
            Ok(fake_docs(&job.driver, job.shard))
        }
    }

    #[test]
    fn backend_panics_are_retryable_per_job_failures() {
        // A panic consumes one attempt; the retry recovers the job.
        let orch = Orchestrator::new(
            PanickyBackend {
                panic_first: 1,
                calls: Default::default(),
            },
            2,
        );
        let report = orch.run(&plan(&["panicky"], 2, 1)).unwrap();
        assert_eq!(report.drivers[0].retried, 2);
        assert_eq!(report.attempts, 4);
    }

    #[test]
    fn backend_panic_does_not_take_down_other_jobs() {
        // Regression: a panicking worker used to propagate through the
        // thread scope and abort the entire sweep. Now the panic is a
        // per-job failure and every other job still completes.
        let orch = Orchestrator::new(
            PanickyBackend {
                panic_first: usize::MAX,
                calls: Default::default(),
            },
            2,
        );
        let p = plan(&["panicky", "ok"], 2, 0);
        let outcomes = orch.execute_jobs(&plan_jobs(&p), p.retries, &NoObserver);
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes[..2] {
            let err = o.result.as_ref().unwrap_err();
            assert!(err.contains("panicky panicked: deliberate panic"), "{err}");
        }
        for o in &outcomes[2..] {
            assert!(o.result.is_ok());
        }
        // run() reports the panicking job as a named Job error.
        match orch.run(&p).unwrap_err() {
            OrchestrateError::Job { job, error, .. } => {
                assert_eq!(job.driver, "panicky");
                assert!(error.contains("panicky panicked"), "{error}");
            }
            other => panic!("expected Job error, got {other}"),
        }
    }

    #[test]
    fn misattributed_documents_are_job_failures() {
        // A backend shipping back some *other* job's documents (wrong
        // driver or wrong shard) must fail that job, not poison the
        // merge.
        struct WrongDriver;
        impl Backend for WrongDriver {
            fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
                Ok(fake_docs("impostor", job.shard))
            }
        }
        let orch = Orchestrator::new(WrongDriver, 1);
        match orch.run(&plan(&["a"], 1, 0)).unwrap_err() {
            OrchestrateError::Job { error, .. } => assert!(error.contains("impostor"), "{error}"),
            other => panic!("expected Job error, got {other}"),
        }

        struct WrongShard;
        impl Backend for WrongShard {
            fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
                Ok(fake_docs(&job.driver, (job.shard.0, job.shard.1 + 1)))
            }
        }
        let orch = Orchestrator::new(WrongShard, 1);
        match orch.run(&plan(&["a"], 2, 0)).unwrap_err() {
            OrchestrateError::Job { error, .. } => {
                assert!(error.contains("shard"), "{error}")
            }
            other => panic!("expected Job error, got {other}"),
        }
    }

    #[test]
    fn observer_hears_every_job_outcome() {
        struct Collect(Mutex<Vec<(String, usize, bool)>>);
        impl RunObserver for Collect {
            fn job_done(
                &self,
                job: &ShardJob,
                attempts: usize,
                outcome: &Result<Vec<TableDoc>, String>,
            ) {
                self.0.lock().unwrap().push((
                    format!("{}:{}", job.driver, job.shard.0),
                    attempts,
                    outcome.is_ok(),
                ));
            }
        }
        let orch = Orchestrator::new(FakeBackend::failing_first(1), 2);
        let collect = Collect(Mutex::new(Vec::new()));
        let report = orch
            .run_observed(&plan(&["a"], 3, 1), &collect)
            .expect("retries recover");
        assert_eq!(report.drivers[0].retried, 3);
        let mut seen = collect.0.into_inner().unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                ("a:0".to_string(), 2, true),
                ("a:1".to_string(), 2, true),
                ("a:2".to_string(), 2, true),
            ]
        );
    }

    #[test]
    fn plan_file_parsing() {
        let p = PlanFile::parse(
            r#"{"drivers": ["fig08"], "shards": 4, "retries": 1, "workers": 2,
                "scale": "quick", "seed": 7, "replicates": 2}"#,
        )
        .unwrap();
        assert_eq!(p.drivers.as_deref(), Some(&["fig08".to_string()][..]));
        assert_eq!(p.shards, Some(4));
        assert_eq!(p.retries, Some(1));
        assert_eq!(p.workers, Some(2));
        assert_eq!(p.scale, Some(Scale::Quick));
        assert_eq!(p.seed, Some(7));
        assert_eq!(p.replicates, Some(2));
        assert_eq!(
            PlanFile::parse(r#"{"drivers": "all"}"#).unwrap().drivers,
            None
        );
        assert_eq!(PlanFile::parse("{}").unwrap(), PlanFile::default());
        for (text, want) in [
            (
                r#"{"scale": "huge"}"#,
                "plan: scale: unknown scale \"huge\"",
            ),
            (
                r#"{"drivers": "fig08"}"#,
                "plan: drivers: expected an array of driver names",
            ),
            (
                r#"{"drivers": ["fig08", 3]}"#,
                "plan: drivers[1]: expected a string",
            ),
            (
                r#"{"shards": -1}"#,
                "plan: shards: expected a non-negative integer",
            ),
            (
                r#"{"shards": 2, "shards": 3}"#,
                "plan: duplicate key \"shards\" at byte 14",
            ),
            (
                r#"{"replicates": 0}"#,
                "plan: replicates: must be at least 1",
            ),
            ("[1]", "plan: expected an object"),
            ("{", "plan: expected '\"'"),
        ] {
            let err = PlanFile::parse(text).unwrap_err();
            assert!(err.starts_with(want), "{text}: {err}");
        }
        // The typo that used to run 2 shards and exit 0.
        assert_eq!(
            PlanFile::parse(r#"{"drivers": ["fig08"], "shard": 4}"#).unwrap_err(),
            "plan: unknown key \"shard\" (known: drivers, replicates, retries, scale, seed, \
             shards, workers)"
        );
    }
}
