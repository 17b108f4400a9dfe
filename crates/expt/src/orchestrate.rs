//! Driver-level sweep orchestration: the `driver × shard` jobs behind
//! `opera orchestrate`, and the one reader and merge of the shard
//! documents in a results tree.
//!
//! * [`start_run`] runs a [`Plan`]: it keeps every job whose shard
//!   documents are already on disk and runs the rest once each on a
//!   worker pool, through the table builder it is given — a closure from
//!   driver name and [`Ctx`] to tables (`bench` passes its driver
//!   registry; tests pass fakes that fail, panic or count). `expt`
//!   builds each job's context (its shard, one thread, no writes) and
//!   stamps its [`RunMeta`], so a job cannot hand back another job's
//!   documents. A panicking driver is a failed *job*, never a dead
//!   worker thread; a job is a pure function of (driver, shard, flags),
//!   so it is not retried at once, and re-running the same command
//!   re-runs it once the cause is fixed. Each job's documents are
//!   committed the moment it completes, then each driver's documents are
//!   merged through [`merge_driver_docs`] — every point index and every
//!   shard present exactly once, schema and flags matching — and
//!   written. Every file goes through [`output::write_tables`]. The tree
//!   is the run's only record: a killed sweep keeps every job it
//!   finished, and shard documents `opera run --shard i/n` wrote on other
//!   machines are jobs finished too.
//! * [`validate_dir`] re-validates such a tree from disk, reading its
//!   shard documents as [`start_run`] does and merging them through the
//!   same [`merge_driver_docs`]: CI's merge-validation step, and the
//!   hook tests use to prove a dropped shard is named: a `missing point
//!   index` or a `missing shard`.

use crate::output::{self, merge_shard_docs, result_path, ResultFile, RunFlags, TableDoc};
use crate::runner::worker_count;
use crate::{Ctx, ExptArgs, RunMeta, Table};
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

/// What to run: the driver list, each driver named once, and the shard
/// count, at least 1. [`Plan::new`] is the only way to build one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    drivers: Vec<String>,
    shards: usize,
}

impl Plan {
    /// The plan running `drivers`, in order, each in `shards` shards
    /// (1 = unsharded). A driver named twice or 0 shards is refused, in
    /// the words of the `opera orchestrate` flag that sets it.
    pub fn new(drivers: Vec<String>, shards: usize) -> Result<Plan, String> {
        if shards == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        let mut seen = BTreeSet::new();
        if let Some(d) = drivers.iter().find(|d| !seen.insert(d.as_str())) {
            return Err(format!("--drivers names driver {d:?} twice"));
        }
        Ok(Plan { drivers, shards })
    }
}

/// One driver's outcome within a completed run.
#[derive(Debug)]
pub struct DriverRun {
    /// Driver name.
    pub driver: String,
    /// Validated merged tables, in table-name order.
    pub merged: Vec<Table>,
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
        /// What did not parse, or which invariant the merge found
        /// broken ([`merge_shard_docs`]).
        error: String,
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
    fn io(path: &Path, e: std::io::Error) -> OrchestrateError {
        OrchestrateError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        }
    }
}

/// What a caught panic said, for reporting it as a job error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("no panic message")
}

/// Run `job` once under `flags` and commit its shard documents under
/// `out` (all of them, or none). Its context runs on **one thread**:
/// parallelism comes from the job pool, and thread count cannot change
/// output anyway. `build` runs behind `catch_unwind`, so a panicking
/// driver fails the job, not the sweep. The documents come back in
/// table-name order.
fn run_job<F>(
    out: &Path,
    build: &F,
    flags: RunFlags,
    job: &ShardJob,
) -> Result<Vec<TableDoc>, OrchestrateError>
where
    F: Fn(&str, &Ctx) -> Result<Vec<Table>, String>,
{
    let ctx = Ctx::new(ExptArgs {
        flags,
        threads: 1,
        shard: Some(job.shard),
        no_write: true,
        ..ExptArgs::default()
    });
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(&job.driver, &ctx)))
        .unwrap_or_else(|payload| {
            Err(format!(
                "{} panicked: {}",
                job.driver,
                panic_message(&*payload)
            ))
        });
    let mut tables = built.map_err(|error| OrchestrateError::Job {
        job: job.clone(),
        error,
    })?;
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    let meta = RunMeta::new(&job.driver, &ctx.args);
    let dir = out.join(&job.driver);
    output::write_tables(&dir, &tables, &meta).map_err(|e| OrchestrateError::io(&dir, e))?;
    let docs = tables.into_iter().map(|table| TableDoc {
        meta: meta.clone(),
        table,
    });
    Ok(docs.collect())
}

/// Merge one driver's shard documents table by table through
/// [`merge_shard_docs`], in table-name order: the one merge behind
/// [`start_run`] and [`validate_dir`]. A table a shard did not produce
/// is that table merge's `missing point index` or `missing shard`; one
/// it produced twice, its `duplicate point index` or `shard … has more
/// than one document`.
pub fn merge_driver_docs(
    driver: &str,
    docs: Vec<TableDoc>,
) -> Result<Vec<TableDoc>, OrchestrateError> {
    let mut tables: BTreeMap<String, Vec<TableDoc>> = BTreeMap::new();
    for doc in docs {
        tables.entry(doc.table.name.clone()).or_default().push(doc);
    }
    let merged = tables.into_values().map(|group| {
        merge_shard_docs(&group).map_err(|error| OrchestrateError::Merge {
            driver: driver.to_string(),
            error,
        })
    });
    merged.collect()
}

/// Run `plan` under `flags` into `out` — what `opera orchestrate`
/// does — building each job's tables with `build`, and return the
/// report and the merged CSV paths.
///
/// What `out` holds of the plan's drivers is the run to finish: a job
/// is kept when its shard documents all parse, belong to it and cover
/// every table its driver's documents name (shard documents and merged
/// `<table>.json`), with none left staged. Every other job runs once on
/// `workers` threads (0 = one per core) and commits its documents as it
/// completes, so a job killed mid-commit leaves a staged file and runs
/// again. Then each driver is merged and written. Per-point seeds
/// derive from the plan, so a finished re-run merges byte for byte as
/// an uninterrupted run does.
///
/// A document of another run (other flags or shard count) is
/// [`OrchestrateError::OtherRun`] before anything runs or is written.
/// A failed job does not stop the others; it is then the error, the
/// first in job order, and every job that completed stays on disk.
pub fn start_run<F>(
    out: &Path,
    plan: &Plan,
    flags: RunFlags,
    build: F,
    workers: usize,
) -> Result<(RunReport, Vec<PathBuf>), OrchestrateError>
where
    F: Fn(&str, &Ctx) -> Result<Vec<Table>, String> + Sync,
{
    // Every driver's tree is read, and a document of another run
    // refused, before anything runs.
    let (mut jobs, mut rerun) = (Vec::new(), Vec::new());
    for driver in &plan.drivers {
        let mut found = Found::scan(&out.join(driver), flags, plan.shards)?;
        for i in 0..plan.shards {
            let job = ShardJob {
                driver: driver.clone(),
                shard: (i, plan.shards),
            };
            // The job's documents when they are kept, else `None`.
            let kept = found.as_mut().map(|found| found.take(&job)).transpose();
            let kept = kept.unwrap_or_else(|reason| {
                rerun.push(Rerun {
                    job: job.clone(),
                    reason,
                });
                None
            });
            jobs.push((job, kept));
        }
    }
    let reused = jobs.iter().filter(|(_, kept)| kept.is_some()).count();

    // Every job's documents in plan order, so each driver's are its next
    // `shards` entries; the first failed job is the error.
    let outcomes = claim_slots(worker_count(workers), jobs.len(), |slot| {
        match &jobs[slot] {
            (_, Some(kept)) => Ok(kept.clone()),
            (job, None) => run_job(out, &build, flags, job),
        }
    });
    let done: Vec<Vec<TableDoc>> = outcomes.into_iter().collect::<Result<_, _>>()?;
    let mut done = done.into_iter();
    let mut drivers = Vec::with_capacity(plan.drivers.len());
    for driver in &plan.drivers {
        let docs = done.by_ref().take(plan.shards).flatten().collect();
        drivers.push(DriverRun {
            driver: driver.clone(),
            merged: (merge_driver_docs(driver, docs)?.into_iter())
                .map(|doc| doc.table)
                .collect(),
        });
    }
    let mut csvs = Vec::new();
    for run in &drivers {
        let dir = out.join(&run.driver);
        let meta = RunMeta {
            driver: run.driver.clone(),
            flags,
            shard: None,
        };
        let written = output::write_tables(&dir, &run.merged, &meta)
            .map_err(|e| OrchestrateError::io(&dir, e))?;
        csvs.extend(
            written
                .into_iter()
                .filter(|p| p.extension().is_some_and(|e| e == "csv")),
        );
    }
    let report = RunReport {
        drivers,
        reused,
        rerun,
    };
    Ok((report, csvs))
}

/// One file under a driver's `shards/`: its table and `(i, n)` shard as
/// its name spells them ([`result_path`]), whether it is still staged,
/// and its document, or why it cannot be kept.
struct ShardFile {
    path: PathBuf,
    table: String,
    shard: (usize, usize),
    staged: bool,
    doc: Result<TableDoc, String>,
}

/// Every shard document under `dir`, a driver's results directory, in
/// path order: the one reader of shard documents, behind both
/// [`start_run`] and [`validate_dir`]. Other files are skipped.
fn shard_files(dir: &Path) -> Result<Vec<ShardFile>, OrchestrateError> {
    let files = listing(&dir.join(output::SHARD_DIR))?.into_iter();
    Ok(files.filter_map(shard_file).collect())
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
        for file in shard_files(dir)? {
            let n = file.shard.1;
            if n != shards {
                let detail =
                    format!("a document of a {n}-shard run; this run has --shards {shards}");
                return Err(OrchestrateError::OtherRun {
                    path: file.path,
                    detail,
                });
            }
            if let Ok(doc) = &file.doc {
                other_run(&file.path, doc, flags)?;
            }
            found.tables.insert(file.table.clone());
            // A staged file follows its committed one in path order,
            // and marks the job unfinished.
            found.docs.insert((file.table, file.shard.0), file.doc);
        }
        for path in listing(dir)? {
            if let Some(table) = name(&path).strip_suffix(".json") {
                found.tables.insert(table.to_string());
                // An unreadable merged document is rewritten by the merge.
                if let Ok(doc) = read(&path) {
                    other_run(&path, &doc, flags)?;
                }
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
            check_file(&doc, &path, table, job)?;
            docs.push(doc);
        }
        Ok(docs)
    }
}

/// `Err` naming `path` unless `doc`, read from it, is `job`'s document
/// of `table`, as the file's name says: a document under another job's
/// name must not poison the merge.
fn check_file(doc: &TableDoc, path: &Path, table: &str, job: &ShardJob) -> Result<(), String> {
    let (path, meta) = (path.display(), &doc.meta);
    if meta.driver != job.driver || meta.shard != Some(job.shard) {
        return Err(format!(
            "shard document {path} belongs to another job: document of driver {:?} shard {:?} \
             where driver {:?} shard {:?} was expected",
            meta.driver, meta.shard, job.driver, job.shard
        ));
    }
    if doc.table.name != table {
        let other = &doc.table.name;
        return Err(format!("shard document {path} holds table {other:?}"));
    }
    Ok(())
}

/// The table document at `path`, or why it cannot be read.
fn read(path: &Path) -> Result<TableDoc, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    TableDoc::parse(&text)
}

/// [`OrchestrateError::OtherRun`] naming `path` and the flag if `doc`
/// was written under flags other than `flags`.
fn other_run(path: &Path, doc: &TableDoc, flags: RunFlags) -> Result<(), OrchestrateError> {
    match doc.meta.flags.first_difference(&flags) {
        None => Ok(()),
        Some(d) => Err(OrchestrateError::OtherRun {
            path: path.to_path_buf(),
            detail: format!(
                "a document of another run, written under {} `{}`; this run has `{}`",
                d.flag, d.got, d.want
            ),
        }),
    }
}

/// The shard document at `path`, named
/// `shards/<table>.shard<i>of<n>.json` with [`output::STAGED`] appended
/// while it is staged; `None` for any other file.
fn shard_file(path: PathBuf) -> Option<ShardFile> {
    let name = name(&path);
    let (name, staged) = match name.strip_suffix(output::STAGED) {
        Some(name) => (name, true),
        None => (name, false),
    };
    let (table, shard) = name.strip_suffix(".json")?.rsplit_once(".shard")?;
    let (i, n) = shard.split_once("of")?;
    let (table, shard) = (table.to_string(), (i.parse().ok()?, n.parse().ok()?));
    let shown = path.display();
    let doc = match staged {
        true => Err(format!("staged shard document {shown} was never committed")),
        false => read(&path).map_err(|e| format!("corrupt shard document {shown}: {e}")),
    };
    Some(ShardFile {
        table,
        shard,
        staged,
        doc,
        path,
    })
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
/// `<dir>/<driver>/shards/`, read the committed shard documents as
/// [`start_run`] does — each must parse and be the document its file
/// name says — and re-merge them through [`merge_driver_docs`] (full
/// validation: a missing or duplicated point index or shard fails
/// here); check each committed merged CSV and `<table>.json` matches
/// its re-merge byte-for-byte, and that every merged CSV beside them
/// still has shard documents. Returns the validated tables, or the
/// first failure.
pub fn validate_dir(out: &Path) -> Result<Vec<ValidatedTable>, OrchestrateError> {
    let mut validated = Vec::new();
    for dir in listing(out)? {
        if !dir.join(output::SHARD_DIR).is_dir() {
            continue;
        }
        let driver = name(&dir).to_string();
        let mut docs = Vec::new();
        let mut shards: BTreeMap<String, usize> = BTreeMap::new();
        for file in shard_files(&dir)?.into_iter().filter(|f| !f.staged) {
            let job = ShardJob {
                driver: driver.clone(),
                shard: file.shard,
            };
            let doc = (file.doc)
                .and_then(|doc| check_file(&doc, &file.path, &file.table, &job).map(|()| doc))
                .map_err(|error| OrchestrateError::Merge {
                    driver: driver.clone(),
                    error,
                })?;
            *shards.entry(file.table).or_default() += 1;
            docs.push(doc);
        }
        // A merged CSV whose shard documents are all gone merges from
        // nothing: it cannot be validated, so it is not valid.
        for path in listing(&dir)? {
            if name(&path)
                .strip_suffix(".csv")
                .is_some_and(|table| !shards.contains_key(table))
            {
                return Err(OrchestrateError::Stale {
                    path,
                    detail: "merged CSV has no shard documents".to_string(),
                });
            }
        }
        let merged = merge_driver_docs(&driver, docs)?;
        for (merged, (table, shards)) in merged.iter().zip(shards) {
            // The merged CSV and table document, as the merge renders them.
            for (file, text) in [
                (ResultFile::Csv, merged.to_csv()),
                (ResultFile::Doc(None), merged.render()),
            ] {
                let path = result_path(&dir, &table, file);
                let committed =
                    fs::read_to_string(&path).map_err(|e| OrchestrateError::io(&path, e))?;
                if committed != text {
                    let detail = "does not match a re-merge of its shard documents".to_string();
                    return Err(OrchestrateError::Stale { path, detail });
                }
            }
            validated.push(ValidatedTable {
                driver: driver.clone(),
                table,
                shards,
                rows: merged.table.len(),
            });
        }
    }
    Ok(validated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fake_build, fake_docs, fake_table, meta, tmp_dir, QUICK};
    use std::sync::Mutex;

    fn plan(drivers: &[&str], shards: usize) -> Plan {
        Plan::new(drivers.iter().map(|s| s.to_string()).collect(), shards).unwrap()
    }

    #[test]
    fn a_plan_names_each_driver_once_and_has_a_shard() {
        let drivers = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        let err = Plan::new(drivers(&["a", "b", "a"]), 2).unwrap_err();
        assert_eq!(err, "--drivers names driver \"a\" twice");
        let err = Plan::new(drivers(&["a"]), 0).unwrap_err();
        assert_eq!(err, "--shards must be at least 1");
        assert!(Plan::new(drivers(&["b", "a"]), 3).is_ok());
    }

    #[test]
    fn orchestrates_and_merges_across_workers() {
        let out = tmp_dir("orch-merge");
        let (report, csvs) = start_run(&out, &plan(&["a", "b"], 3), QUICK, fake_build, 3).unwrap();
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
        match start_run(&out, &p, QUICK, fake_build, 2).unwrap_err() {
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
        assert!(!out.join("always-broken").exists());
        assert!(!out.join("a/data.csv").exists());
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn write_then_validate_round_trips_and_detects_drops() {
        let out = tmp_dir("orch-validate");
        let (_, csvs) = start_run(&out, &plan(&["a"], 3), QUICK, fake_build, 2).unwrap();
        assert_eq!(csvs.len(), 1);
        let validated = validate_dir(&out).unwrap();
        assert_eq!(validated.len(), 1);
        assert_eq!(validated[0].shards, 3);

        // Injected dropped shard: deleting one shard document must fail
        // with the named missing-point-index error.
        fs::remove_file(out.join("a/shards/data.shard1of3.json")).unwrap();
        match validate_dir(&out).unwrap_err() {
            OrchestrateError::Merge { driver, error } => assert_eq!(
                (driver.as_str(), error.as_str()),
                ("a", "data: missing point index 1 (shard 1 dropped?)")
            ),
            other => panic!("expected a merge refusal, got {other}"),
        }

        // A shard's document copied in as another shard's file is
        // named by the file; under a second name of its own shard it is
        // a duplicate point index.
        let text = fs::read_to_string(out.join("a/shards/data.shard0of3.json")).unwrap();
        fs::write(out.join("a/shards/data.shard1of3.json"), &text).unwrap();
        let err = validate_dir(&out).unwrap_err().to_string();
        assert!(
            err.contains("data.shard1of3.json belongs to another job"),
            "{err}"
        );
        fs::write(
            out.join("a/shards/data.shard1of3.json"),
            fake_docs("a", (1, 3))[0].render(),
        )
        .unwrap();
        fs::write(out.join("a/shards/data.shard00of3.json"), &text).unwrap();
        fs::write(out.join("a/shards/data.extra.json"), &text).unwrap();
        match validate_dir(&out).unwrap_err() {
            OrchestrateError::Merge { error, .. } => assert_eq!(
                error,
                "data: duplicate point index 0 across shards (shard submitted twice?)"
            ),
            other => panic!("expected a merge refusal, got {other}"),
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
        start_run(&out, &plan(&["a"], 3), QUICK, fake_build, 2).unwrap();
        let before = snapshot(&out);
        match start_run(&out, &plan(&["a"], 2), QUICK, fake_build, 2).unwrap_err() {
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
    fn a_table_missing_or_doubled_in_a_shard_is_named() {
        // The shards that produced the sweep table `data`, and those
        // that produced the constant table `config`.
        let merged = |data: &[usize], config: &[usize]| {
            let mut docs: Vec<TableDoc> = (data.iter())
                .map(|&i| fake_docs("a", (i, 2)).remove(0))
                .collect();
            let mut table = Table::new("config", &["k"]);
            table.push(vec![crate::Cell::from(12u64)]);
            docs.extend(config.iter().map(|&i| TableDoc {
                meta: meta("a", Some((i, 2))),
                table: table.clone(),
            }));
            merge_driver_docs("a", docs)
        };
        assert_eq!(merged(&[0, 1], &[1, 0]).unwrap().len(), 2);
        assert_eq!(
            merged(&[0, 1, 1], &[0, 1]).unwrap_err().to_string(),
            "a: data: duplicate point index 1 across shards (shard submitted twice?)"
        );
        assert_eq!(
            merged(&[0, 1], &[0]).unwrap_err().to_string(),
            "a: config: missing shard 1 (its document dropped?)"
        );
    }

    #[test]
    fn tampered_merged_files_are_stale() {
        let out = tmp_dir("orch-stale");
        let (_, csvs) = start_run(&out, &plan(&["a"], 2), QUICK, fake_build, 1).unwrap();
        let csv = fs::read_to_string(&csvs[0]).unwrap();
        fs::write(&csvs[0], "point,sub\n9,9\n").unwrap();
        let stale = |want: &str| match validate_dir(&out).unwrap_err() {
            OrchestrateError::Stale { path, .. } => assert!(path.ends_with(want), "{path:?}"),
            other => panic!("expected Stale, got {other}"),
        };
        stale("a/data.csv");
        // A merged table document of another run used to pass, though
        // `start_run` refuses the tree for it.
        fs::write(&csvs[0], csv).unwrap();
        let json = out.join("a/data.json");
        let text = fs::read_to_string(&json).unwrap();
        fs::write(&json, text.replace("\"seed\": 0", "\"seed\": 7")).unwrap();
        stale("a/data.json");
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn orphaned_merged_csv_is_stale() {
        // Every shard document of one driver's table deleted by hand:
        // its merged CSV used to pass unvalidated.
        let out = tmp_dir("orch-orphan");
        start_run(&out, &plan(&["a", "b"], 2), QUICK, fake_build, 2).unwrap();
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

    #[test]
    fn backend_panic_does_not_take_down_other_jobs() {
        // Regression: a panicking worker used to propagate through the
        // thread scope and abort the entire sweep. Now the panic is a
        // per-job failure and every other job still completes.
        let out = tmp_dir("orch-panic");
        let p = plan(&["panicky", "ok"], 2);
        // Panics on every job of the driver named `"panicky"`.
        let panicky = |driver: &str, ctx: &Ctx| {
            if driver == "panicky" {
                panic!("deliberate panic in shard {:?}", ctx.args.shard);
            }
            fake_build(driver, ctx)
        };
        match start_run(&out, &p, QUICK, panicky, 2).unwrap_err() {
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
        assert!(!out.join("panicky").exists());
        fs::remove_dir_all(&out).unwrap();
    }

    /// A table builder that never fails and records each job it ran,
    /// as `driver:i`, in `ran`.
    fn counting(
        ran: &Mutex<Vec<String>>,
    ) -> impl Fn(&str, &Ctx) -> Result<Vec<Table>, String> + Sync + '_ {
        move |driver, ctx| {
            let shard = ctx.args.shard.expect("a job's context has its shard");
            ran.lock().unwrap().push(format!("{driver}:{}", shard.0));
            Ok(vec![fake_table(shard)])
        }
    }

    fn reruns(report: &RunReport) -> Vec<String> {
        let job = |r: &Rerun| format!("{}:{}", r.job.driver, r.job.shard.0);
        report.rerun.iter().map(job).collect()
    }

    #[test]
    fn a_rerun_runs_only_missing_and_corrupt_shards() {
        let out = tmp_dir("orch-rerun");
        let two = plan(&["a", "b"], 2);
        start_run(&out, &two, QUICK, fake_build, 2).unwrap();
        let reference = fs::read_to_string(out.join("a/data.csv")).unwrap();

        // Delete one shard document and truncate (corrupt) another.
        fs::remove_file(out.join("a/shards/data.shard1of2.json")).unwrap();
        let corrupt = out.join("b/shards/data.shard0of2.json");
        let text = fs::read_to_string(&corrupt).unwrap();
        fs::write(&corrupt, &text[..text.len() / 2]).unwrap();

        let ran = Mutex::default();
        let (report, _) = start_run(&out, &two, QUICK, counting(&ran), 2).unwrap();
        assert_eq!(report.reused, 2);
        assert_eq!(reruns(&report), ["a:1", "b:0"]);
        // Two workers: either job may start first.
        let mut ran = ran.into_inner().unwrap();
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
        let (report, _) = start_run(&out, &two, QUICK, fake_build, 2).unwrap();
        assert_eq!(report.reused, 4);
        assert!(report.rerun.is_empty());
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn a_rerun_runs_failed_and_unfinished_jobs_without_touching_done_ones() {
        // A run killed after one of a's two jobs committed.
        let out = tmp_dir("orch-killed");
        let tables = [fake_table((0, 2))];
        output::write_tables(&out.join("a"), &tables, &meta("a", Some((0, 2)))).unwrap();
        let p = plan(&["a", "always-broken"], 2);
        // The first try also fails always-broken's jobs, which commit
        // nothing.
        let err = start_run(&out, &p, QUICK, fake_build, 1).unwrap_err();
        assert!(matches!(err, OrchestrateError::Job { .. }), "{err}");
        assert!(out.join("a/shards/data.shard1of2.json").is_file());

        let ran = Mutex::default();
        let (report, _) = start_run(&out, &p, QUICK, counting(&ran), 1).unwrap();
        assert_eq!(report.reused, 2, "a's two jobs are on disk now");
        assert!(report.rerun.is_empty(), "always-broken has no document");
        assert_eq!(
            ran.into_inner().unwrap(),
            ["always-broken:0", "always-broken:1"]
        );
        assert_eq!(validate_dir(&out).unwrap().len(), 2);
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn documents_of_another_run_are_refused() {
        let out = tmp_dir("orch-drift");
        start_run(&out, &plan(&["a"], 2), QUICK, fake_build, 1).unwrap();
        // Overwrite shard 0's document with one of a different seed:
        // it parses, but it is another run's.
        let path = out.join("a/shards/data.shard0of2.json");
        let mut other = fake_docs("a", (0, 2)).remove(0);
        other.meta.flags.seed = 999;
        fs::write(&path, other.render()).unwrap();
        let before = snapshot(&out);
        let err = start_run(&out, &plan(&["a"], 2), QUICK, fake_build, 1).unwrap_err();
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
        let (report, _) = start_run(&out, &plan(&["a"], 2), QUICK, fake_build, 1).unwrap();
        assert_eq!(reruns(&report), ["a:0"]);
        let reason = &report.rerun[0].reason;
        assert!(reason.contains("belongs to another job"), "{reason}");
        assert_eq!(validate_dir(&out).unwrap().len(), 1);
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn a_rerun_surfaces_a_still_failing_job() {
        let out = tmp_dir("still-failing");
        start_run(&out, &plan(&["a"], 2), QUICK, fake_build, 1).unwrap();
        let victim = out.join("a/shards/data.shard1of2.json");
        fs::remove_file(&victim).unwrap();
        let always_fail = |_: &str, _: &Ctx| Err("still broken".to_string());
        match start_run(&out, &plan(&["a"], 2), QUICK, always_fail, 1).unwrap_err() {
            OrchestrateError::Job { job, error } => {
                assert_eq!(job.shard, (1, 2));
                assert_eq!(error, "still broken");
            }
            other => panic!("expected Job error, got {other}"),
        }
        // The job's document stays absent, so the next run re-runs it.
        assert!(!victim.exists());
        let (report, _) = start_run(&out, &plan(&["a"], 2), QUICK, fake_build, 1).unwrap();
        assert_eq!(reruns(&report), ["a:1"]);
        fs::remove_dir_all(&out).unwrap();
    }
}
