//! Durable run state: the `run.json` manifest, and the one way an
//! orchestrated sweep runs — [`start_run`], or [`resume_run`] to finish
//! one — so that a killed run keeps every shard it completed.
//!
//! A killed `--full` sweep (paper-scale points take minutes each) must
//! not lose its completed shards, so a run reaches disk job by job:
//!
//! * [`RunManifest`] — the plan, the run's identity
//!   ([`RunFlags`]), and per-job status (pending / ok / failed,
//!   persisted tables), serialized as `run.json` in the run
//!   directory and rewritten atomically after every job completion;
//!   read back, like every document, through [`crate::json::Fields`],
//! * [`start_run`] — the `opera orchestrate` body, and what the tests
//!   call: manifest first, then every job runs once on a pool of worker
//!   threads and its shard documents are written to
//!   `<out>/<driver>/shards/` *the moment it completes*, via
//!   [`crate::output::write_atomic`] (tmp file + rename) followed by a
//!   manifest update — so at any kill point the disk holds only
//!   complete documents plus an accurate account of what finished —
//!   and finally the merged tables,
//! * [`resume_run`] — reloads a manifest, re-validates every surviving
//!   shard document (parse + run identity against the manifest), and
//!   re-runs *only* the missing, corrupt, failed or never-completed jobs
//!   before re-merging. Because per-point seeds derive from the plan
//!   and not from when a job ran, the resumed merge is byte-identical
//!   to an uninterrupted run.

use crate::cli::at_least_one;
use crate::json::{self, Bad, Fields, FromJson, Json};
use crate::orchestrate::{
    check_owner, merge_driver_docs, plan_jobs, run_job, Backend, DriverRun, OrchestrateError, Plan,
    RunReport, ShardJob,
};
use crate::output::{self, result_path, ResultFile, RunFlags, TableDoc};
use crate::runner::{claim_slots, worker_count};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Manifest filename inside a run directory.
pub const RUN_FILE: &str = "run.json";

/// Format tag written into every manifest. Format 1 also recorded the
/// backend a run used; format 2 a retry budget and per-job attempt
/// counts.
const MANIFEST_FORMAT: u64 = 3;

/// Lifecycle state of one shard job within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Not yet completed (never ran, or the run was killed mid-job).
    Pending,
    /// Completed; its shard documents are on disk.
    Ok,
    /// Failed; its error is recorded.
    Failed,
}

impl JobStatus {
    fn name(self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
        }
    }
}

impl FromJson for JobStatus {
    fn from_json(j: &Json) -> Result<Self, Bad> {
        match String::from_json(j)?.as_str() {
            "pending" => Ok(JobStatus::Pending),
            "ok" => Ok(JobStatus::Ok),
            "failed" => Ok(JobStatus::Failed),
            other => Err(Bad::new(format!(
                "unknown job status {other:?} (want pending/ok/failed)"
            ))),
        }
    }
}

/// One shard job's entry in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEntry {
    /// The job: driver and `(i, n)` shard.
    pub job: ShardJob,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Last error, for failed jobs.
    pub error: Option<String>,
    /// Table names whose shard documents this job persisted — the
    /// exact files [`resume_run`] must find (and re-validate) to reuse
    /// the job.
    pub tables: Vec<String>,
}

/// The durable description of one orchestrated run: plan, run
/// identity and per-job status. Serialized as `run.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// What was planned: drivers in order, shards per driver.
    pub plan: Plan,
    /// The run's identity: what every shard document must carry, and
    /// what a resumed job must run under to reproduce the run
    /// bit-for-bit.
    pub flags: RunFlags,
    /// True once the run merged and wrote final CSVs.
    pub complete: bool,
    /// One entry per `driver × shard` job.
    pub jobs: Vec<JobEntry>,
}

impl RunManifest {
    /// A fresh manifest for `plan` run with `flags`: every job pending.
    pub fn new(plan: &Plan, flags: RunFlags) -> RunManifest {
        RunManifest {
            plan: plan.clone(),
            flags,
            complete: false,
            jobs: plan_jobs(plan)
                .into_iter()
                .map(|job| JobEntry {
                    job,
                    status: JobStatus::Pending,
                    error: None,
                    tables: Vec::new(),
                })
                .collect(),
        }
    }

    /// Render as `run.json` text.
    pub fn render(&self) -> String {
        let num = |n: usize| Json::Num(n.to_string());
        let strs = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        let job = |e: &JobEntry| {
            Json::obj([
                ("driver", Json::Str(e.job.driver.clone())),
                (
                    "shard",
                    Json::Arr(vec![num(e.job.shard.0), num(e.job.shard.1)]),
                ),
                ("status", Json::Str(e.status.name().to_string())),
                ("error", e.error.clone().map_or(Json::Null, Json::Str)),
                ("tables", strs(&e.tables)),
            ])
        };
        let doc = Json::obj([
            ("format", Json::Num(MANIFEST_FORMAT.to_string())),
            ("drivers", strs(&self.plan.drivers)),
            ("shards", num(self.plan.shards)),
            ("scale", Json::Str(self.flags.scale.to_string())),
            ("seed", Json::Num(self.flags.seed.to_string())),
            ("replicates", num(self.flags.replicates)),
            ("k", self.flags.k.map_or(Json::Null, num)),
            ("complete", Json::Bool(self.complete)),
            ("jobs", Json::Arr(self.jobs.iter().map(job).collect())),
        ]);
        doc.render() + "\n"
    }

    /// Parse and validate `run.json` text. Beyond shape, this checks
    /// the job list covers exactly `drivers × shards` — a manifest
    /// whose jobs disagree with its own plan cannot be resumed.
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        json::decode("run manifest", text, RunManifest::read_fields)
    }

    fn read_fields(f: &mut Fields<'_>) -> Result<RunManifest, String> {
        f.format(MANIFEST_FORMAT)?;
        let drivers = f.req("drivers")?;
        let shards = at_least_one(f.req("shards")?).map_err(|e| f.bad("shards", e))?;
        let plan = Plan { drivers, shards };
        let mut jobs = Vec::new();
        for mut e in f.req_objs("jobs")? {
            jobs.push(JobEntry {
                job: ShardJob {
                    driver: e.req("driver")?,
                    shard: e.req("shard")?,
                },
                status: e.req("status")?,
                error: e.opt::<Option<String>>("error")?.flatten(),
                tables: e.req("tables")?,
            });
            e.finish()?;
        }
        // The job list must cover exactly drivers × shards.
        let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
        for (i, ShardJob { driver, shard }) in jobs.iter().map(|e| &e.job).enumerate() {
            let what = if !plan.drivers.contains(driver) {
                format!("unplanned driver {driver:?}")
            } else if shard.1 != shards || shard.0 >= shards {
                format!("shard {shard:?} inconsistent with the {shards}-way plan")
            } else if !seen.insert((driver, shard.0)) {
                format!("duplicate job for driver {driver:?} shard {}", shard.0)
            } else {
                continue;
            };
            return Err(f.bad(&format!("jobs[{i}]"), what));
        }
        if Some(seen.len()) != plan.drivers.len().checked_mul(shards) {
            let (have, drivers) = (jobs.len(), plan.drivers.len());
            let what =
                format!("{have} job(s) do not cover {drivers} driver(s) × {shards} shard(s)");
            return Err(f.bad("jobs", what));
        }
        let flags = RunFlags::read(f)?;
        at_least_one(flags.replicates).map_err(|e| f.bad("replicates", e))?;
        Ok(RunManifest {
            plan,
            flags,
            complete: f.req("complete")?,
            jobs,
        })
    }

    /// Read and validate a `run.json` file.
    pub fn read(path: &Path) -> Result<RunManifest, OrchestrateError> {
        let manifest_err = |detail: String| OrchestrateError::Manifest {
            path: path.to_path_buf(),
            detail,
        };
        let text = fs::read_to_string(path).map_err(|e| manifest_err(e.to_string()))?;
        RunManifest::parse(&text).map_err(manifest_err)
    }
}

/// Persists a run as it happens: [`RunWriter::run`] runs jobs on a pool
/// of worker threads and [`RunWriter::record`]s each one the moment it
/// completes — its shard documents (atomic tmp-file + rename), then
/// `run.json` — and [`RunWriter::finish`] writes the merged tables and
/// marks the run complete.
#[derive(Debug)]
struct RunWriter {
    out: PathBuf,
    manifest: Mutex<RunManifest>,
}

/// The `expect` message of a [`RunWriter`]'s manifest lock, poisoned
/// only if a thread panicked while holding it: a bug.
const POISONED: &str = "a thread panicked while updating the run manifest";

/// [`output::write_atomic`] with the path in the error.
fn write(path: &Path, text: &str) -> Result<(), OrchestrateError> {
    output::write_atomic(path, text).map_err(|e| OrchestrateError::io(path, e))
}

impl RunWriter {
    /// Open `out` for `manifest`'s run and write the manifest. A `fresh`
    /// run first prunes every planned driver directory (stale shard
    /// documents from a previous run with a different shard count would
    /// poison a later validation); a resumed one keeps what is there —
    /// the surviving shard documents are the whole point — and only
    /// resets `complete`, since the merge must re-run.
    fn open(
        out: &Path,
        mut manifest: RunManifest,
        fresh: bool,
    ) -> Result<RunWriter, OrchestrateError> {
        fs::create_dir_all(out).map_err(|e| OrchestrateError::io(out, e))?;
        for driver in &manifest.plan.drivers {
            let dir = out.join(driver);
            if fresh && dir.exists() {
                fs::remove_dir_all(&dir).map_err(|e| OrchestrateError::io(&dir, e))?;
            }
            let sdir = dir.join(output::SHARD_DIR);
            fs::create_dir_all(&sdir).map_err(|e| OrchestrateError::io(&sdir, e))?;
        }
        manifest.complete = false;
        write(&out.join(RUN_FILE), &manifest.render())?;
        Ok(RunWriter {
            out: out.to_path_buf(),
            manifest: Mutex::new(manifest),
        })
    }

    /// Persist one job completion: shard documents first (each written
    /// atomically), then the manifest update — so the manifest never
    /// claims a document that is not already safely on disk.
    fn record(
        &self,
        job: &ShardJob,
        outcome: &Result<Vec<TableDoc>, String>,
    ) -> Result<(), OrchestrateError> {
        let mut manifest = self.manifest.lock().expect(POISONED);
        let entry = manifest
            .jobs
            .iter_mut()
            .find(|e| e.job == *job)
            .expect("a writer only hears jobs of the plan its manifest was made from");
        if let Ok(docs) = outcome {
            let dir = self.out.join(&job.driver);
            for doc in docs {
                let path = result_path(&dir, &doc.table.name, ResultFile::Doc(Some(job.shard)));
                write(&path, &doc.render())?;
            }
        }
        (entry.status, entry.error, entry.tables) = match outcome {
            Ok(docs) => (
                JobStatus::Ok,
                None,
                docs.iter().map(|d| d.table.name.clone()).collect(),
            ),
            Err(e) => (JobStatus::Failed, Some(e.clone()), Vec::new()),
        };
        write(&self.out.join(RUN_FILE), &manifest.render())
    }

    /// Run each of `jobs` once on `workers` threads (0 = one per core),
    /// recording each as it completes, then merge every planned driver
    /// from the documents in `done` plus the jobs' and finish the run.
    /// A failed job does not stop the others — every job runs and is
    /// persisted whatever the rest do — and is then the error, the first
    /// in job order.
    fn run<B: Backend>(
        &self,
        backend: B,
        workers: usize,
        jobs: &[ShardJob],
        mut done: BTreeMap<(String, usize), Vec<TableDoc>>,
    ) -> Result<(RunReport, Vec<PathBuf>), OrchestrateError> {
        let outcomes = claim_slots(worker_count(workers), jobs.len(), |slot| {
            let outcome = run_job(&backend, &jobs[slot]);
            let recorded = self.record(&jobs[slot], &outcome);
            (outcome, recorded)
        });
        for (job, (outcome, recorded)) in jobs.iter().zip(outcomes) {
            recorded?;
            let docs = outcome.map_err(|error| OrchestrateError::Job {
                job: job.clone(),
                error,
            })?;
            done.insert((job.driver.clone(), job.shard.0), docs);
        }

        let plan = self.manifest.lock().expect(POISONED).plan.clone();
        let mut drivers = Vec::with_capacity(plan.drivers.len());
        for driver in plan.drivers {
            let shard_docs: Vec<Vec<TableDoc>> = (0..plan.shards)
                .map(|i| {
                    done.remove(&(driver.clone(), i))
                        .expect("every planned job was run or reused")
                })
                .collect();
            let merged = merge_driver_docs(&driver, &shard_docs)?;
            drivers.push(DriverRun { driver, merged });
        }
        let csvs = self.finish(drivers.iter().flat_map(|r| &r.merged))?;
        let report = RunReport {
            drivers,
            shards: plan.shards,
        };
        Ok((report, csvs))
    }

    /// Finish the run: write each merged table under its driver's
    /// directory (`<table>.csv` + unsharded `<table>.json`, atomically),
    /// mark the manifest complete, and return the merged CSV paths.
    fn finish<'a>(
        &self,
        merged: impl IntoIterator<Item = &'a TableDoc>,
    ) -> Result<Vec<PathBuf>, OrchestrateError> {
        let mut manifest = self.manifest.lock().expect(POISONED);
        let mut csvs = Vec::new();
        for doc in merged {
            let dir = self.out.join(&doc.meta.driver);
            let csv = result_path(&dir, &doc.table.name, ResultFile::Csv);
            write(&csv, &doc.to_csv())?;
            let json = result_path(&dir, &doc.table.name, ResultFile::Doc(None));
            write(&json, &doc.render())?;
            csvs.push(csv);
        }
        manifest.complete = true;
        write(&self.out.join(RUN_FILE), &manifest.render())?;
        Ok(csvs)
    }
}

/// Run `plan` durably under `dir` — what `opera orchestrate` does: write
/// the all-pending `run.json` (pruning each planned driver's directory
/// of an earlier run's files), run every job once on `workers` threads
/// (0 = one per core), persisting its shard documents as it completes,
/// then write the validated merged tables and mark the manifest
/// complete. Returns the report and the merged CSV paths; on a job
/// failure everything that completed stays on disk for `resume`.
///
/// # Panics
/// Panics when `plan` names a driver twice.
pub fn start_run<B: Backend>(
    dir: &Path,
    plan: &Plan,
    flags: RunFlags,
    backend: B,
    workers: usize,
) -> Result<(RunReport, Vec<PathBuf>), OrchestrateError> {
    if let Some(driver) = plan.repeated_driver() {
        panic!("plan names driver {driver:?} twice");
    }
    let writer = RunWriter::open(dir, RunManifest::new(plan, flags), true)?;
    writer.run(backend, workers, &plan_jobs(plan), BTreeMap::new())
}

/// Why [`resume_run`] decided to re-run one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumedJob {
    /// The job being re-run.
    pub job: ShardJob,
    /// Human-readable reason (never completed / failed / missing or
    /// corrupt shard document / a document of a different run, naming
    /// the flag that differs).
    pub reason: String,
}

/// What a resumed run did.
#[derive(Debug)]
pub struct ResumeReport {
    /// Jobs whose persisted shard documents were reused as-is.
    pub reused: usize,
    /// Jobs that were re-run, with reasons, in plan order.
    pub rerun: Vec<ResumedJob>,
    /// Merged CSV paths, re-written either way.
    pub csvs: Vec<PathBuf>,
}

/// Resume an interrupted (or failed) run in `dir`: read `run.json`,
/// re-validate every completed job's shard documents on disk (a
/// half-written file fails to parse; a document from a different run
/// fails the identity check), re-run only the jobs that
/// cannot be reused, then re-merge and re-write the final CSVs.
/// Determinism makes this safe: a re-run job produces byte-identical
/// documents to the ones the interrupted run lost.
pub fn resume_run<B: Backend>(
    dir: &Path,
    backend: B,
    workers: usize,
) -> Result<ResumeReport, OrchestrateError> {
    let manifest = RunManifest::read(&dir.join(RUN_FILE))?;
    let mut docs_by_job: BTreeMap<(String, usize), Vec<TableDoc>> = BTreeMap::new();
    let mut rerun: Vec<ResumedJob> = Vec::new();
    for entry in &manifest.jobs {
        let reason = match entry.status {
            JobStatus::Ok => match load_job_docs(dir, &manifest, entry) {
                Ok(docs) => {
                    docs_by_job.insert((entry.job.driver.clone(), entry.job.shard.0), docs);
                    continue;
                }
                Err(reason) => reason,
            },
            JobStatus::Pending => "job never completed".to_string(),
            JobStatus::Failed => format!(
                "job failed: {}",
                entry.error.as_deref().unwrap_or("no error recorded")
            ),
        };
        rerun.push(ResumedJob {
            job: entry.job.clone(),
            reason,
        });
    }
    let reused = docs_by_job.len();
    let jobs: Vec<ShardJob> = rerun.iter().map(|r| r.job.clone()).collect();
    let writer = RunWriter::open(dir, manifest, false)?;
    let (_, csvs) = writer.run(backend, workers, &jobs, docs_by_job)?;
    Ok(ResumeReport {
        reused,
        rerun,
        csvs,
    })
}

/// Load and re-validate one completed job's persisted shard documents.
/// Any failure (missing file, parse error, a run identity other than
/// the manifest's) is a reason to re-run the job, not a fatal error —
/// determinism makes re-running always safe.
fn load_job_docs(
    dir: &Path,
    manifest: &RunManifest,
    entry: &JobEntry,
) -> Result<Vec<TableDoc>, String> {
    if entry.tables.is_empty() {
        return Err("no tables recorded for the job".to_string());
    }
    let dir = dir.join(&entry.job.driver);
    let mut docs = Vec::with_capacity(entry.tables.len());
    for table in &entry.tables {
        let path = result_path(&dir, table, ResultFile::Doc(Some(entry.job.shard)));
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("missing shard document {}: {e}", path.display()))?;
        let doc = TableDoc::parse(&text)
            .map_err(|e| format!("corrupt shard document {}: {e}", path.display()))?;
        check_owner(&doc, &entry.job).map_err(|e| {
            format!(
                "shard document {} belongs to another job: {e}",
                path.display()
            )
        })?;
        if doc.table.name != *table {
            let (path, other) = (path.display(), &doc.table.name);
            return Err(format!("shard document {path} holds table {other:?}"));
        }
        if let Some(d) = doc.meta.flags.first_difference(&manifest.flags) {
            return Err(format!(
                "shard document {} was written under {} `{}`, the run manifest records `{}`",
                path.display(),
                d.flag,
                d.got,
                d.want
            ));
        }
        docs.push(doc);
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrate::validate_dir;
    use crate::testutil::{fake_docs, tmp_dir, FakeBackend, QUICK};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn two_shard_plan(drivers: &[&str]) -> Plan {
        Plan {
            drivers: drivers.iter().map(|s| s.to_string()).collect(),
            shards: 2,
        }
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let mut m = RunManifest::new(&two_shard_plan(&["a", "b"]), QUICK);
        m.jobs[1].status = JobStatus::Ok;
        m.jobs[1].tables = vec!["data".into()];
        m.jobs[2].status = JobStatus::Failed;
        m.jobs[2].error = Some("exit status 1".into());
        let parsed = RunManifest::parse(&m.render()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.plan.drivers, vec!["a", "b"]);
        assert_eq!(parsed.flags, QUICK);

        // Named rejections.
        for (text, want) in [
            ("{", "run manifest: expected '\"'"),
            ("[1]", "run manifest: expected an object"),
            ("{}", "run manifest: format: missing (keys present: )"),
            (
                r#"{"shards": 2, "shards": 3}"#,
                "run manifest: duplicate key \"shards\" at byte 14",
            ),
        ] {
            let err = RunManifest::parse(text).unwrap_err();
            assert!(err.starts_with(want), "{text}: {err}");
        }
        let huge = m.render().replace("\"quick\"", "\"huge\"");
        assert!(RunManifest::parse(&huge)
            .unwrap_err()
            .starts_with("run manifest: scale: unknown scale \"huge\""));
        let bad_job = m
            .render()
            .replace("\"status\": \"failed\"", "\"status\": \"lost\"");
        assert!(RunManifest::parse(&bad_job)
            .unwrap_err()
            .starts_with("run manifest: jobs[2].status: unknown job status \"lost\""));
        let garbage = m.render().replace("\"format\": 3", "\"format\": 99");
        assert!(RunManifest::parse(&garbage)
            .unwrap_err()
            .contains("unsupported format"));
        for (field, n) in [("replicates", 3), ("shards", 2)] {
            let zero = m
                .render()
                .replace(&format!("\"{field}\": {n}"), &format!("\"{field}\": 0"));
            let err = RunManifest::parse(&zero).unwrap_err();
            assert_eq!(err, format!("run manifest: {field}: must be at least 1"));
        }
        // Dropping a job breaks drivers × shards coverage.
        let mut short = m.clone();
        short.jobs.pop();
        assert!(RunManifest::parse(&short.render())
            .unwrap_err()
            .contains("do not cover"));
        // Duplicating one is named too.
        let mut dup = m.clone();
        let copy = dup.jobs[0].clone();
        dup.jobs.push(copy);
        assert!(RunManifest::parse(&dup.render())
            .unwrap_err()
            .contains("duplicate job"));
    }

    #[test]
    fn writer_persists_each_job_as_it_completes() {
        let out = tmp_dir("incremental");
        let plan = two_shard_plan(&["a"]);
        let manifest = RunManifest::new(&plan, QUICK);
        let writer = RunWriter::open(&out, manifest, true).unwrap();

        // Before any job completes: manifest on disk, all pending.
        let m = RunManifest::read(&out.join(RUN_FILE)).unwrap();
        assert!(!m.complete);
        assert!(m.jobs.iter().all(|e| e.status == JobStatus::Pending));

        // First job completes: its document is on disk *now*, and the
        // manifest already records it — the kill-safety invariant.
        let job0 = ShardJob {
            driver: "a".into(),
            shard: (0, 2),
        };
        writer.record(&job0, &Ok(fake_docs("a", (0, 2)))).unwrap();
        assert!(out.join("a/shards/data.shard0of2.json").is_file());
        assert!(!out.join("a/shards/data.shard1of2.json").exists());
        let m = RunManifest::read(&out.join(RUN_FILE)).unwrap();
        let e0 = &m.jobs[0];
        assert_eq!(e0.status, JobStatus::Ok);
        assert_eq!(e0.tables, vec!["data".to_string()]);
        assert_eq!(m.jobs[1].status, JobStatus::Pending);

        // A failure is recorded with its error, consuming no documents.
        let job1 = ShardJob {
            driver: "a".into(),
            shard: (1, 2),
        };
        writer
            .record(&job1, &Err("driver panicked".into()))
            .unwrap();
        let m = RunManifest::read(&out.join(RUN_FILE)).unwrap();
        assert_eq!(m.jobs[1].status, JobStatus::Failed);
        assert_eq!(m.jobs[1].error.as_deref(), Some("driver panicked"));

        // Recorded again as a success (what a resume does), the job
        // replaces its failure; finish merges.
        writer.record(&job1, &Ok(fake_docs("a", (1, 2)))).unwrap();
        let shard_docs = vec![fake_docs("a", (0, 2)), fake_docs("a", (1, 2))];
        let merged = merge_driver_docs("a", &shard_docs).unwrap();
        let csvs = writer.finish(&merged).unwrap();
        assert_eq!(csvs.len(), 1);
        assert!(RunManifest::read(&out.join(RUN_FILE)).unwrap().complete);
        assert_eq!(validate_dir(&out).unwrap().len(), 1);
        fs::remove_dir_all(&out).unwrap();
    }

    /// A complete 2-shard run of `drivers`, returning the run dir.
    fn full_run(tag: &str, drivers: &[&str]) -> PathBuf {
        let out = tmp_dir(tag);
        let plan = two_shard_plan(drivers);
        start_run(&out, &plan, QUICK, FakeBackend, 2).unwrap();
        out
    }

    #[test]
    fn resume_reruns_only_missing_and_corrupt_shards() {
        let out = full_run("resume", &["a", "b"]);
        let reference = fs::read_to_string(out.join("a/data.csv")).unwrap();

        // Delete one shard document and truncate (corrupt) another.
        fs::remove_file(out.join("a/shards/data.shard1of2.json")).unwrap();
        let corrupt = out.join("b/shards/data.shard0of2.json");
        let text = fs::read_to_string(&corrupt).unwrap();
        fs::write(&corrupt, &text[..text.len() / 2]).unwrap();

        let backend = FakeBackend;
        let report = resume_run(&out, backend, 2).unwrap();
        assert_eq!(report.reused, 2);
        let rerun: Vec<String> = report
            .rerun
            .iter()
            .map(|r| format!("{}:{}", r.job.driver, r.job.shard.0))
            .collect();
        assert_eq!(rerun, vec!["a:1".to_string(), "b:0".to_string()]);
        assert!(report.rerun[0].reason.contains("missing shard document"));
        assert!(report.rerun[1].reason.contains("corrupt shard document"));

        // The resumed merge is byte-identical and fully valid.
        assert_eq!(
            fs::read_to_string(out.join("a/data.csv")).unwrap(),
            reference
        );
        assert_eq!(validate_dir(&out).unwrap().len(), 2);
        assert!(RunManifest::read(&out.join(RUN_FILE)).unwrap().complete);

        // Nothing left to do: a second resume reuses everything.
        let report = resume_run(&out, FakeBackend, 2).unwrap();
        assert_eq!(report.reused, 4);
        assert!(report.rerun.is_empty());
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn resume_reruns_failed_and_pending_jobs_without_touching_done_ones() {
        // Simulate a run killed after one of two jobs: job 0 persisted,
        // job 1 pending.
        let out = tmp_dir("killed");
        let plan = two_shard_plan(&["a"]);
        let writer = RunWriter::open(&out, RunManifest::new(&plan, QUICK), true).unwrap();
        let job0 = ShardJob {
            driver: "a".into(),
            shard: (0, 2),
        };
        writer.record(&job0, &Ok(fake_docs("a", (0, 2)))).unwrap();
        drop(writer); // the "kill": no finish, no job 1

        let backend = FakeBackend;
        let report = resume_run(&out, backend, 1).unwrap();
        assert_eq!(report.reused, 1);
        assert_eq!(report.rerun.len(), 1);
        assert!(report.rerun[0].reason.contains("never completed"));
        assert_eq!(validate_dir(&out).unwrap().len(), 1);
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn resume_rejects_documents_from_a_different_run() {
        let out = full_run("drift", &["a"]);
        // Overwrite shard 0's document with one from a different seed:
        // parses fine, but provenance disagrees with the manifest.
        let path = out.join("a/shards/data.shard0of2.json");
        let mut other = fake_docs("a", (0, 2)).remove(0);
        other.meta.flags.seed = 999;
        fs::write(&path, other.render()).unwrap();

        let report = resume_run(&out, FakeBackend, 1).unwrap();
        assert_eq!(report.rerun.len(), 1);
        let reason = &report.rerun[0].reason;
        assert!(
            reason.ends_with("was written under seed `999`, the run manifest records `0`"),
            "{reason}"
        );

        // A document of the right run but the wrong job is named as such.
        fs::write(&path, fake_docs("a", (1, 2))[0].render()).unwrap();
        let report = resume_run(&out, FakeBackend, 1).unwrap();
        assert!(
            report.rerun[0].reason.contains("belongs to another job"),
            "{}",
            report.rerun[0].reason
        );
        assert_eq!(validate_dir(&out).unwrap().len(), 1);
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn resume_surfaces_a_still_failing_job() {
        struct AlwaysFail(AtomicUsize);
        impl Backend for AlwaysFail {
            fn run_shard(&self, _: &ShardJob) -> Result<Vec<TableDoc>, String> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Err("still broken".into())
            }
        }
        let out = full_run("still-failing", &["a"]);
        fs::remove_file(out.join("a/shards/data.shard1of2.json")).unwrap();
        let backend = AlwaysFail(AtomicUsize::new(0));
        match resume_run(&out, backend, 1).unwrap_err() {
            OrchestrateError::Job { job, error, .. } => {
                assert_eq!(job.shard, (1, 2));
                assert!(error.contains("still broken"));
            }
            other => panic!("expected Job error, got {other}"),
        }
        // The failure is durably recorded for the next resume.
        let m = RunManifest::read(&out.join(RUN_FILE)).unwrap();
        assert!(!m.complete);
        let e = m
            .jobs
            .iter()
            .find(|e| e.job.shard == (1, 2))
            .expect("job entry");
        assert_eq!(e.status, JobStatus::Failed);
        assert_eq!(e.error.as_deref(), Some("still broken"));
        fs::remove_dir_all(&out).unwrap();
    }
}
