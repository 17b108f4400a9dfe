//! Driver-level sweep orchestration: the job, plan and backend types
//! behind `opera orchestrate`, the one attempt a job gets, and the
//! validated merge of each driver's per-shard table documents.
//!
//! The per-driver `--shard i/n` flag lets one *driver* split its sweep,
//! but leaves scheduling and merging to the caller — and a merge of
//! rendered CSV cannot validate what each shard actually produced. This
//! module and [`crate::runfile`] are the scheduler:
//!
//! * a [`Plan`] says which drivers to run, across how many shards,
//! * a [`Backend`] executes one [`ShardJob`] in process and returns its
//!   table documents — the one implementation lives in `bench` (it
//!   needs the driver registry); tests implement the trait to inject
//!   failures,
//! * [`run_job`] runs one job once, isolated: a panicking driver, or a
//!   backend returning misattributed documents, is a failed *job*, never
//!   a dead worker thread taking the sweep down. A job is a pure function
//!   of (driver, shard, flags), so trying it again at once would fail the
//!   same way; `opera resume` re-runs it once the cause is fixed,
//! * [`crate::runfile::start_run`] fans the jobs over a worker pool,
//!   persisting each as it completes, then merges each driver's shard
//!   documents through [`merge_driver_docs`], so every result set is
//!   *validated* — every point index present exactly once, schema and
//!   flags matching — before a merged CSV is rendered,
//! * [`validate_dir`] re-validates a directory such a run wrote (shard
//!   documents under `shards/`, merged CSV + JSON beside them) from
//!   disk — the CI merge-validation step, and the hook tests use to
//!   prove a dropped shard fails with a named
//!   [`MergeError::MissingPointIndex`].

use crate::output::{self, merge_shard_docs, result_path, MergeError, ResultFile, TableDoc};
use std::collections::{BTreeMap, BTreeSet};
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
/// worker threads of a run.
pub trait Backend: Sync {
    /// Run one shard job to completion, returning the table documents
    /// it produced (one per table). An error fails the job.
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String>;
}

impl<B: Backend + ?Sized> Backend for &B {
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
        (**self).run_shard(job)
    }
}

/// What to run: the driver list and the shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Drivers to run, in order, each named once.
    pub drivers: Vec<String>,
    /// Shards per driver (1 = unsharded).
    pub shards: usize,
}

impl Plan {
    /// The first driver the plan names a second time, if any.
    pub fn repeated_driver(&self) -> Option<&str> {
        let mut seen = BTreeSet::new();
        self.drivers
            .iter()
            .find(|d| !seen.insert(d.as_str()))
            .map(String::as_str)
    }
}

/// One driver's outcome within a completed run.
#[derive(Debug)]
pub struct DriverRun {
    /// Driver name.
    pub driver: String,
    /// Validated merged documents, one per table.
    pub merged: Vec<TableDoc>,
}

/// A completed orchestrated run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-driver outcomes, in plan order.
    pub drivers: Vec<DriverRun>,
    /// Shards per driver.
    pub shards: usize,
}

/// An orchestration failure.
#[derive(Debug)]
pub enum OrchestrateError {
    /// A shard job failed.
    Job {
        /// Failing job.
        job: ShardJob,
        /// Its error.
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
            OrchestrateError::Job { job, error } => write!(
                f,
                "{} shard {}/{} failed: {error}",
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

/// Run `job` once on `backend`. The backend call is isolated behind
/// `catch_unwind`, so a panicking driver becomes a failed job instead of
/// a dead worker thread aborting the whole sweep; the returned documents
/// are checked against the job, so misattributed output fails the job
/// too. On success the documents are in canonical (table name) order.
pub fn run_job<B: Backend + ?Sized>(backend: &B, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
    let mut docs =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.run_shard(job)))
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
        // copy is a short shard; a duplicate (from a buggy backend)
        // could silently shadow drifted rows if only the first copy
        // were taken.
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
    use crate::runfile::{start_run, JobStatus, RunManifest, RUN_FILE};
    use crate::testutil::{fake_docs, tmp_dir, FakeBackend, QUICK};

    fn plan(drivers: &[&str], shards: usize) -> Plan {
        Plan {
            drivers: drivers.iter().map(|s| s.to_string()).collect(),
            shards,
        }
    }

    #[test]
    fn orchestrates_and_merges_across_workers() {
        let out = tmp_dir("orch-merge");
        let (report, csvs) = start_run(&out, &plan(&["a", "b"], 3), QUICK, FakeBackend, 3).unwrap();
        assert_eq!(report.drivers.len(), 2);
        assert_eq!(csvs.len(), 2);
        for run in &report.drivers {
            assert_eq!(run.merged.len(), 1);
            // Merged equals what an unsharded run would render.
            let unsharded = &fake_docs(&run.driver, (0, 1))[0];
            assert_eq!(run.merged[0].to_csv(), unsharded.to_csv());
        }
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn a_failed_job_fails_the_run_by_name_and_the_rest_persist() {
        let out = tmp_dir("orch-failed");
        let p = plan(&["a", "always-broken"], 2);
        match start_run(&out, &p, QUICK, FakeBackend, 2).unwrap_err() {
            OrchestrateError::Job { job, error } => {
                assert_eq!(job.driver, "always-broken");
                assert_eq!(error, "permanent failure");
            }
            other => panic!("expected Job error, got {other}"),
        }
        // Every job ran once and `run.json` records each outcome.
        let m = RunManifest::read(&out.join(RUN_FILE)).unwrap();
        assert!(!m.complete);
        for e in &m.jobs {
            if e.job.driver == "a" {
                assert_eq!((e.status, e.error.as_deref()), (JobStatus::Ok, None));
            } else {
                let failed = (JobStatus::Failed, Some("permanent failure"));
                assert_eq!((e.status, e.error.as_deref()), failed);
            }
        }
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn write_then_validate_round_trips_and_detects_drops() {
        let out = tmp_dir("orch-validate");
        let (_, csvs) = start_run(&out, &plan(&["a"], 3), QUICK, FakeBackend, 2).unwrap();
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
            start_run(&out, &plan(&["a"], shards), QUICK, FakeBackend, 2).unwrap();
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
        // Shard 1 returns its table twice (a buggy backend).
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
        let (_, csvs) = start_run(&out, &plan(&["a"], 2), QUICK, FakeBackend, 1).unwrap();
        fs::write(&csvs[0], "point,sub\n9,9\n").unwrap();
        assert!(matches!(
            validate_dir(&out).unwrap_err(),
            OrchestrateError::Stale { .. }
        ));
        fs::remove_dir_all(&out).unwrap();
    }

    /// Panics on every job of the driver named `"panicky"`; everything
    /// else succeeds.
    struct PanickyBackend;

    impl Backend for PanickyBackend {
        fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
            if job.driver == "panicky" {
                panic!("deliberate panic in shard {}", job.shard.0);
            }
            Ok(fake_docs(&job.driver, job.shard))
        }
    }

    #[test]
    fn backend_panic_does_not_take_down_other_jobs() {
        // Regression: a panicking worker used to propagate through the
        // thread scope and abort the entire sweep. Now the panic is a
        // per-job failure and every other job still completes.
        let out = tmp_dir("orch-panic");
        let p = plan(&["panicky", "ok"], 2);
        match start_run(&out, &p, QUICK, PanickyBackend, 2).unwrap_err() {
            OrchestrateError::Job { job, error } => {
                assert_eq!(job.driver, "panicky");
                assert!(
                    error.contains("panicky panicked: deliberate panic"),
                    "{error}"
                );
            }
            other => panic!("expected Job error, got {other}"),
        }
        let m = RunManifest::read(&out.join(RUN_FILE)).unwrap();
        for e in &m.jobs {
            if e.job.driver == "ok" {
                assert_eq!(e.status, JobStatus::Ok);
                let doc = format!("ok/shards/data.shard{}of2.json", e.job.shard.0);
                assert!(out.join(doc).is_file());
            } else {
                let error = e.error.as_deref().unwrap_or_default();
                assert!(error.contains("panicky panicked"), "{error}");
            }
        }
        fs::remove_dir_all(&out).unwrap();
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
        struct WrongShard;
        impl Backend for WrongShard {
            fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
                Ok(fake_docs(&job.driver, (job.shard.0, job.shard.1 + 1)))
            }
        }
        let job = &plan_jobs(&plan(&["a"], 2))[1];
        let error = run_job(&WrongDriver, job).unwrap_err();
        assert!(error.contains("impostor"), "{error}");
        let error = run_job(&WrongShard, job).unwrap_err();
        assert!(error.contains("shard Some((1, 3))"), "{error}");
    }
}
