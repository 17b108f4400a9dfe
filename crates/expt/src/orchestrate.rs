//! Driver-level sweep orchestration: the job, plan and backend types
//! behind `opera orchestrate`, the one attempt a job gets, the one way
//! a sweep runs ([`start_run`]), and the validated merge of each
//! driver's per-shard table documents.
//!
//! The per-driver `--shard i/n` flag lets one *driver* split its sweep,
//! but leaves scheduling and merging to the caller — and a merge of
//! rendered CSV cannot validate what each shard actually produced. This
//! module is the scheduler:
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
//!   same way; re-running the same `opera orchestrate` re-runs it once
//!   the cause is fixed,
//! * [`start_run`] keeps every job whose shard documents are already on
//!   disk, fans the rest over a worker pool, commits each job's
//!   documents to `<out>/<driver>/shards/` the moment it completes, then
//!   merges each driver's documents through [`merge_driver_docs`], so
//!   every result set is *validated* — every point index present exactly
//!   once, schema and flags matching — before a merged CSV is rendered.
//!   The results tree is its own record of the run: a killed sweep (a
//!   `--full` point takes minutes) keeps every job it finished, and
//!   running the same command again finishes it,
//! * [`validate_dir`] re-validates a directory such a run wrote (shard
//!   documents under `shards/`, merged CSV + JSON beside them) from
//!   disk — the CI merge-validation step, and the hook tests use to
//!   prove a dropped shard fails with a named
//!   [`MergeError::MissingPointIndex`].

use crate::output::{
    self, merge_shard_docs, result_path, MergeError, ResultFile, RunFlags, TableDoc,
};
use crate::runner::worker_count;
use simkit::pool::claim_slots;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
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

/// A planned job that ran although its driver already had documents
/// on disk, and why its own could not be kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rerun {
    /// The job.
    pub job: ShardJob,
    /// Why: a missing, corrupt, staged or misattributed shard document,
    /// named by path.
    pub reason: String,
}

/// A completed orchestrated run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-driver outcomes, in plan order.
    pub drivers: Vec<DriverRun>,
    /// Jobs whose shard documents were already on disk and were kept.
    pub reused: usize,
    /// Jobs re-run over documents that could not be kept, in plan
    /// order (a driver with no document on disk simply runs).
    pub rerun: Vec<Rerun>,
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
        /// The merged CSV that is out of date or has no shard documents.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
    /// The output tree holds a document of another run (other flags or
    /// shard count); nothing was run or written.
    OtherRun {
        /// The document.
        path: PathBuf,
        /// Which flag differs, and how.
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
            OrchestrateError::Stale { path, detail }
            | OrchestrateError::OtherRun { path, detail } => {
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
    // in: the merged output follows it.
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

/// Run `plan` under `flags` into `out` — what `opera orchestrate`
/// does — and return the report and the merged CSV paths.
///
/// What `out` holds of the plan's drivers is the run to finish: a job
/// is kept when its shard documents all parse, belong to it and cover
/// every table its driver's documents name (shard documents and merged
/// `<table>.json`), with none left staged. Every other job runs once on
/// `workers` threads (0 = one per core) and commits its documents as it
/// completes: all are staged as `<path>.tmp`, then renamed into place,
/// so a job killed mid-commit leaves a staged file and runs again. Then
/// each driver is merged and written. Per-point seeds derive from the
/// plan, so a finished re-run merges byte for byte as an uninterrupted
/// run does.
///
/// A document of another run (other flags or shard count) is
/// [`OrchestrateError::OtherRun`] before anything runs or is written.
/// A failed job does not stop the others; it is then the error, the
/// first in job order, and every job that completed stays on disk.
///
/// # Panics
/// Panics when `plan` names a driver twice.
pub fn start_run<B: Backend>(
    out: &Path,
    plan: &Plan,
    flags: RunFlags,
    backend: B,
    workers: usize,
) -> Result<(RunReport, Vec<PathBuf>), OrchestrateError> {
    if let Some(driver) = plan.repeated_driver() {
        panic!("plan names driver {driver:?} twice");
    }
    let mut found = BTreeMap::new();
    for driver in &plan.drivers {
        let dir = out.join(driver);
        found.insert(driver.as_str(), Found::scan(&dir, flags, plan.shards)?);
    }
    let (mut done, mut jobs, mut rerun) = (BTreeMap::new(), Vec::new(), Vec::new());
    for job in plan_jobs(plan) {
        match found.get_mut(job.driver.as_str()).and_then(Option::as_mut) {
            None => jobs.push(job),
            Some(found) => match found.take(&job) {
                Ok(docs) => {
                    done.insert((job.driver.clone(), job.shard.0), docs);
                }
                Err(reason) => {
                    rerun.push(Rerun {
                        job: job.clone(),
                        reason,
                    });
                    jobs.push(job);
                }
            },
        }
    }
    let reused = done.len();

    for driver in &plan.drivers {
        let sdir = out.join(driver).join(output::SHARD_DIR);
        fs::create_dir_all(&sdir).map_err(|e| OrchestrateError::io(&sdir, e))?;
    }
    let outcomes = claim_slots(worker_count(workers), jobs.len(), |slot| {
        let outcome = run_job(&backend, &jobs[slot]);
        let committed = match &outcome {
            Ok(docs) => commit(out, &jobs[slot], docs),
            Err(_) => Ok(()),
        };
        (outcome, committed)
    });
    for (job, (outcome, committed)) in jobs.iter().zip(outcomes) {
        committed?;
        let docs = outcome.map_err(|error| OrchestrateError::Job {
            job: job.clone(),
            error,
        })?;
        done.insert((job.driver.clone(), job.shard.0), docs);
    }

    let mut drivers = Vec::with_capacity(plan.drivers.len());
    for driver in &plan.drivers {
        let shard_docs: Vec<Vec<TableDoc>> = (0..plan.shards)
            .map(|i| {
                done.remove(&(driver.clone(), i))
                    .expect("every planned job was run or kept")
            })
            .collect();
        let merged = merge_driver_docs(driver, &shard_docs)?;
        drivers.push(DriverRun {
            driver: driver.clone(),
            merged,
        });
    }
    let mut csvs = Vec::new();
    for doc in drivers.iter().flat_map(|r| &r.merged) {
        let dir = out.join(&doc.meta.driver);
        let csv = result_path(&dir, &doc.table.name, ResultFile::Csv);
        write(&csv, &doc.to_csv())?;
        let json = result_path(&dir, &doc.table.name, ResultFile::Doc(None));
        write(&json, &doc.render())?;
        csvs.push(csv);
    }
    let report = RunReport {
        drivers,
        reused,
        rerun,
    };
    Ok((report, csvs))
}

/// [`output::write_atomic`] with the path in the error.
fn write(path: &Path, text: &str) -> Result<(), OrchestrateError> {
    output::write_atomic(path, text).map_err(|e| OrchestrateError::io(path, e))
}

/// Commit `job`'s documents under `out`: each is written to its staged
/// path ([`output::staged`]) and renamed into place only once every one
/// is written, so a kill at any point leaves the job's whole set, or a
/// staged file that marks the job unfinished.
fn commit(out: &Path, job: &ShardJob, docs: &[TableDoc]) -> Result<(), OrchestrateError> {
    let dir = out.join(&job.driver);
    let path = |d: &TableDoc| result_path(&dir, &d.table.name, ResultFile::Doc(Some(job.shard)));
    for doc in docs {
        let tmp = output::staged(&path(doc));
        fs::write(&tmp, doc.render()).map_err(|e| OrchestrateError::io(&tmp, e))?;
    }
    for path in docs.iter().map(path) {
        fs::rename(output::staged(&path), &path).map_err(|e| OrchestrateError::io(&path, e))?;
    }
    Ok(())
}

/// What a planned driver's results directory already holds.
#[derive(Default)]
struct Found {
    /// The directory.
    dir: PathBuf,
    /// Every table a document of the driver names.
    tables: BTreeSet<String>,
    /// Each shard document by table and shard: parsed, or why it cannot
    /// be kept (it does not parse, or it is still staged).
    docs: BTreeMap<(String, usize), Result<TableDoc, String>>,
}

impl Found {
    /// Read `dir`, the results directory of a driver planned `shards`
    /// ways under `flags`: `None` when it holds no document, an error
    /// when a document belongs to another run.
    fn scan(dir: &Path, flags: RunFlags, shards: usize) -> Result<Option<Found>, OrchestrateError> {
        let mut found = Found {
            dir: dir.to_path_buf(),
            ..Found::default()
        };
        for path in listing(&dir.join(output::SHARD_DIR))? {
            let Some((table, i, n, staged)) = shard_file(&path) else {
                continue;
            };
            if n != shards {
                let detail =
                    format!("a document of a {n}-shard run; this run has --shards {shards}");
                return Err(OrchestrateError::OtherRun { path, detail });
            }
            found.tables.insert(table.clone());
            let shown = path.display();
            if staged {
                let never = format!("staged shard document {shown} was never committed");
                found.docs.insert((table, i), Err(never));
            } else {
                let doc = read_doc(&path, flags)?;
                let doc = doc.map_err(|e| format!("corrupt shard document {shown}: {e}"));
                found.docs.entry((table, i)).or_insert(doc);
            }
        }
        for path in listing(dir)? {
            if let Some(table) = name(&path).strip_suffix(".json") {
                found.tables.insert(table.to_string());
                // An unreadable merged document is rewritten by the merge.
                read_doc(&path, flags)?.ok();
            }
        }
        Ok((!found.tables.is_empty()).then_some(found))
    }

    /// `job`'s documents, one per table the driver's documents name, if
    /// each is committed, parses and belongs to the job; else why the
    /// job runs again.
    fn take(&mut self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
        let mut docs = Vec::with_capacity(self.tables.len());
        for table in &self.tables {
            let path = result_path(&self.dir, table, ResultFile::Doc(Some(job.shard)));
            let doc = self
                .docs
                .remove(&(table.clone(), job.shard.0))
                .unwrap_or_else(|| Err(format!("missing shard document {}", path.display())))?;
            check_owner(&doc, job).map_err(|e| {
                let path = path.display();
                format!("shard document {path} belongs to another job: {e}")
            })?;
            if doc.table.name != *table {
                let (path, other) = (path.display(), &doc.table.name);
                return Err(format!("shard document {path} holds table {other:?}"));
            }
            docs.push(doc);
        }
        Ok(docs)
    }
}

/// The table document at `path`, or why it cannot be read; an error
/// naming the file and the flag if it was written under flags other
/// than `flags`.
fn read_doc(path: &Path, flags: RunFlags) -> Result<Result<TableDoc, String>, OrchestrateError> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string());
    let doc = text.and_then(|t| TableDoc::parse(&t).map_err(|e| e.to_string()));
    match doc
        .as_ref()
        .ok()
        .and_then(|d| d.meta.flags.first_difference(&flags))
    {
        None => Ok(doc),
        Some(d) => Err(OrchestrateError::OtherRun {
            path: path.to_path_buf(),
            detail: format!(
                "a document of another run, written under {} `{}`; this run has `{}`",
                d.flag, d.got, d.want
            ),
        }),
    }
}

/// `(table, i, n, staged)` of a shard document's path,
/// `shards/<table>.shard<i>of<n>.json` with [`output::STAGED`] appended
/// while it is staged; `None` for any other file.
fn shard_file(path: &Path) -> Option<(String, usize, usize, bool)> {
    let name = name(path);
    let (name, staged) = match name.strip_suffix(output::STAGED) {
        Some(name) => (name, true),
        None => (name, false),
    };
    let (table, shard) = name.strip_suffix(".json")?.rsplit_once(".shard")?;
    let (i, n) = shard.split_once("of")?;
    Some((table.to_string(), i.parse().ok()?, n.parse().ok()?, staged))
}

/// What is directly under `dir`, in path order; nothing when it does
/// not exist.
fn listing(dir: &Path) -> Result<Vec<PathBuf>, OrchestrateError> {
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        entries => entries.map_err(|e| OrchestrateError::io(dir, e))?,
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    Ok(paths)
}

/// The file name of `path`, or `""` when it is not UTF-8.
fn name(path: &Path) -> &str {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default()
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
/// check the committed merged CSV matches the re-merge byte-for-byte,
/// and that every merged CSV beside them still has shard documents.
/// Returns the validated tables, or the first failure.
pub fn validate_dir(out: &Path) -> Result<Vec<ValidatedTable>, OrchestrateError> {
    let mut validated = Vec::new();
    for dir in listing(out)? {
        let shards = dir.join(output::SHARD_DIR);
        if !shards.is_dir() {
            continue;
        }
        let driver = name(&dir).to_string();
        let merr = |error| OrchestrateError::Merge {
            driver: driver.clone(),
            error,
        };
        let mut groups: BTreeMap<String, Vec<TableDoc>> = BTreeMap::new();
        for path in listing(&shards)?
            .into_iter()
            .filter(|p| name(p).ends_with(".json"))
        {
            let text = fs::read_to_string(&path).map_err(|e| OrchestrateError::io(&path, e))?;
            let doc = TableDoc::parse(&text).map_err(|e| {
                let context = format!("{}: {e}", path.display());
                merr(MergeError::Parse { context })
            })?;
            groups.entry(doc.table.name.clone()).or_default().push(doc);
        }
        // A merged CSV whose shard documents are all gone merges from
        // nothing: it cannot be validated, so it is not valid.
        for path in listing(&dir)? {
            if name(&path)
                .strip_suffix(".csv")
                .is_some_and(|table| !groups.contains_key(table))
            {
                return Err(OrchestrateError::Stale {
                    path,
                    detail: "merged CSV has no shard documents".to_string(),
                });
            }
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
    use crate::testutil::{fake_docs, tmp_dir, FakeBackend, QUICK};
    use std::sync::Mutex;

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
        // Every job ran once: the good driver's documents are on disk,
        // the failed one's are absent, and nothing was merged.
        for i in 0..2 {
            assert!(out
                .join(format!("a/shards/data.shard{i}of2.json"))
                .is_file());
        }
        assert_eq!(
            fs::read_dir(out.join("always-broken/shards"))
                .unwrap()
                .count(),
            0
        );
        assert!(!out.join("a/data.csv").exists());
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

    /// Every file under `dir`, with its bytes, in path order.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(d) = pending.pop() {
            for path in fs::read_dir(d).unwrap().map(|e| e.unwrap().path()) {
                if path.is_dir() {
                    pending.push(path);
                } else {
                    files.push((path.clone(), fs::read(&path).unwrap()));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn another_shard_count_is_refused_and_the_tree_is_untouched() {
        // A 3-shard tree run again with 2 shards used to be pruned
        // silently. It is now refused, naming --shards and the file,
        // before anything runs or is written.
        let out = tmp_dir("orch-shards");
        start_run(&out, &plan(&["a"], 3), QUICK, FakeBackend, 2).unwrap();
        let before = snapshot(&out);
        match start_run(&out, &plan(&["a"], 2), QUICK, FakeBackend, 2).unwrap_err() {
            OrchestrateError::OtherRun { path, detail } => {
                assert!(path.ends_with("a/shards/data.shard0of3.json"), "{path:?}");
                assert!(detail.contains("this run has --shards 2"), "{detail}");
            }
            other => panic!("expected OtherRun, got {other}"),
        }
        assert_eq!(snapshot(&out), before);
        assert_eq!(validate_dir(&out).unwrap()[0].shards, 3);
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

    #[test]
    fn orphaned_merged_csv_is_stale() {
        // Every shard document of one driver's table deleted by hand:
        // its merged CSV used to pass unvalidated.
        let out = tmp_dir("orch-orphan");
        start_run(&out, &plan(&["a", "b"], 2), QUICK, FakeBackend, 2).unwrap();
        for i in 0..2 {
            fs::remove_file(out.join(format!("a/shards/data.shard{i}of2.json"))).unwrap();
        }
        match validate_dir(&out).unwrap_err() {
            OrchestrateError::Stale { path, detail } => {
                assert_eq!(path, out.join("a/data.csv"));
                assert_eq!(detail, "merged CSV has no shard documents");
            }
            other => panic!("expected Stale, got {other}"),
        }
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
        for i in 0..2 {
            assert!(out
                .join(format!("ok/shards/data.shard{i}of2.json"))
                .is_file());
        }
        assert_eq!(fs::read_dir(out.join("panicky/shards")).unwrap().count(), 0);
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

    /// [`FakeBackend`] that records the jobs it ran, as `driver:i`.
    #[derive(Default)]
    struct Counting(Mutex<Vec<String>>);

    impl Backend for Counting {
        fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
            let ran = format!("{}:{}", job.driver, job.shard.0);
            self.0.lock().unwrap().push(ran);
            Ok(fake_docs(&job.driver, job.shard))
        }
    }

    fn reruns(report: &RunReport) -> Vec<String> {
        let job = |r: &Rerun| format!("{}:{}", r.job.driver, r.job.shard.0);
        report.rerun.iter().map(job).collect()
    }

    #[test]
    fn a_job_commits_its_documents_together() {
        let out = tmp_dir("orch-commit");
        let job = &plan_jobs(&plan(&["a"], 2))[1];
        let mut docs = fake_docs("a", (1, 2));
        let mut other = docs[0].clone();
        other.table.name = "other".into();
        docs.push(other);
        fs::create_dir_all(out.join("a/shards")).unwrap();
        commit(&out, job, &docs).unwrap();
        let written: Vec<PathBuf> = snapshot(&out).into_iter().map(|(p, _)| p).collect();
        let want = ["data", "other"].map(|t| out.join(format!("a/shards/{t}.shard1of2.json")));
        assert_eq!(written, want, "both documents, and no staged file left");
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn a_rerun_runs_only_missing_and_corrupt_shards() {
        let out = tmp_dir("orch-rerun");
        let two = plan(&["a", "b"], 2);
        start_run(&out, &two, QUICK, FakeBackend, 2).unwrap();
        let reference = fs::read_to_string(out.join("a/data.csv")).unwrap();

        // Delete one shard document and truncate (corrupt) another.
        fs::remove_file(out.join("a/shards/data.shard1of2.json")).unwrap();
        let corrupt = out.join("b/shards/data.shard0of2.json");
        let text = fs::read_to_string(&corrupt).unwrap();
        fs::write(&corrupt, &text[..text.len() / 2]).unwrap();

        let backend = Counting::default();
        let (report, _) = start_run(&out, &two, QUICK, &backend, 2).unwrap();
        assert_eq!(report.reused, 2);
        assert_eq!(reruns(&report), ["a:1", "b:0"]);
        // Two workers: either job may start first.
        let mut ran = backend.0.lock().unwrap().clone();
        ran.sort();
        assert_eq!(ran, ["a:1", "b:0"]);
        assert!(report.rerun[0].reason.contains("missing shard document"));
        assert!(report.rerun[1].reason.contains("corrupt shard document"));

        // The re-run's merge is byte-identical and fully valid.
        assert_eq!(
            fs::read_to_string(out.join("a/data.csv")).unwrap(),
            reference
        );
        assert_eq!(validate_dir(&out).unwrap().len(), 2);

        // Nothing left to do: a third run keeps everything.
        let (report, _) = start_run(&out, &two, QUICK, FakeBackend, 2).unwrap();
        assert_eq!(report.reused, 4);
        assert!(report.rerun.is_empty());
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn a_rerun_runs_failed_and_unfinished_jobs_without_touching_done_ones() {
        // A run killed after one of a's two jobs committed.
        let out = tmp_dir("orch-killed");
        let job0 = &plan_jobs(&plan(&["a"], 2))[0];
        fs::create_dir_all(out.join("a/shards")).unwrap();
        commit(&out, job0, &fake_docs("a", (0, 2))).unwrap();
        let p = plan(&["a", "always-broken"], 2);
        // The first try also fails always-broken's jobs, which commit
        // nothing.
        let err = start_run(&out, &p, QUICK, FakeBackend, 1).unwrap_err();
        assert!(matches!(err, OrchestrateError::Job { .. }), "{err}");
        assert!(out.join("a/shards/data.shard1of2.json").is_file());

        let backend = Counting::default();
        let (report, _) = start_run(&out, &p, QUICK, &backend, 1).unwrap();
        assert_eq!(report.reused, 2, "a's two jobs are on disk now");
        assert!(report.rerun.is_empty(), "always-broken has no document");
        assert_eq!(
            *backend.0.lock().unwrap(),
            ["always-broken:0", "always-broken:1"]
        );
        assert_eq!(validate_dir(&out).unwrap().len(), 2);
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn documents_of_another_run_are_refused() {
        let out = tmp_dir("orch-drift");
        start_run(&out, &plan(&["a"], 2), QUICK, FakeBackend, 1).unwrap();
        // Overwrite shard 0's document with one of a different seed:
        // it parses, but it is another run's.
        let path = out.join("a/shards/data.shard0of2.json");
        let mut other = fake_docs("a", (0, 2)).remove(0);
        other.meta.flags.seed = 999;
        fs::write(&path, other.render()).unwrap();
        let before = snapshot(&out);
        let err = start_run(&out, &plan(&["a"], 2), QUICK, FakeBackend, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "{}: a document of another run, written under seed `999`; this run has `0`",
                path.display()
            )
        );
        assert_eq!(snapshot(&out), before, "nothing is run or written");

        // A document of the right run but the wrong job is named as such
        // and re-run.
        fs::write(&path, fake_docs("a", (1, 2))[0].render()).unwrap();
        let (report, _) = start_run(&out, &plan(&["a"], 2), QUICK, FakeBackend, 1).unwrap();
        assert_eq!(reruns(&report), ["a:0"]);
        let reason = &report.rerun[0].reason;
        assert!(reason.contains("belongs to another job"), "{reason}");
        assert_eq!(validate_dir(&out).unwrap().len(), 1);
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn a_rerun_surfaces_a_still_failing_job() {
        struct AlwaysFail;
        impl Backend for AlwaysFail {
            fn run_shard(&self, _: &ShardJob) -> Result<Vec<TableDoc>, String> {
                Err("still broken".into())
            }
        }
        let out = tmp_dir("still-failing");
        start_run(&out, &plan(&["a"], 2), QUICK, FakeBackend, 1).unwrap();
        let victim = out.join("a/shards/data.shard1of2.json");
        fs::remove_file(&victim).unwrap();
        match start_run(&out, &plan(&["a"], 2), QUICK, AlwaysFail, 1).unwrap_err() {
            OrchestrateError::Job { job, error } => {
                assert_eq!(job.shard, (1, 2));
                assert_eq!(error, "still broken");
            }
            other => panic!("expected Job error, got {other}"),
        }
        // The job's document stays absent, so the next run re-runs it.
        assert!(!victim.exists());
        let (report, _) = start_run(&out, &plan(&["a"], 2), QUICK, FakeBackend, 1).unwrap();
        assert_eq!(reruns(&report), ["a:1"]);
        fs::remove_dir_all(&out).unwrap();
    }
}
