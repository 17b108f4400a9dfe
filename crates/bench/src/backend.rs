//! The orchestrator's job runner: [`LocalBackend`] runs each shard job
//! in process, through the [`crate::figures`] registry.
//!
//! The [`Backend`] trait is the seam tests use to inject failures; this
//! is its one production implementation. Each job runs once: a failed
//! job, or the jobs in flight when a driver aborts the process, are
//! re-run by running the same `opera orchestrate` again, which keeps
//! every finished shard already on disk.

use crate::figures;
use expt::orchestrate::{Backend, ShardJob};
use expt::{Ctx, ExptArgs, RunFlags, RunMeta, TableDoc};

/// Runs shard jobs in process through the [`crate::figures`] registry.
///
/// Each job gets a fresh [`Ctx`] restricted to its shard and pinned to
/// **one worker thread** — parallelism comes from the orchestrator's
/// job pool, not from nesting thread pools (and the harness guarantees
/// thread count cannot change output anyway). A panicking driver is
/// caught by [`expt::orchestrate::run_job`] and reported as a failed
/// job.
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
    fn run_shard(&self, job: &ShardJob) -> Result<Vec<TableDoc>, String> {
        let (exp, build) =
            figures::find(&job.driver).ok_or_else(|| format!("unknown driver {:?}", job.driver))?;
        let ctx = Ctx::new(ExptArgs {
            shard: Some(job.shard),
            threads: 1,
            no_write: true,
            ..self.flags.expt_args()
        });
        let meta = RunMeta::new(exp.name, &ctx.args);
        let docs = build(&ctx).into_iter().map(|table| TableDoc {
            meta: meta.clone(),
            table,
        });
        Ok(docs.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::GOLDEN_FLAGS;
    use expt::orchestrate::{merge_driver_docs, run_job};

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
        const DRIVER: &str = "fig14_cycle_time_scaling";
        let b = LocalBackend::new(GOLDEN_FLAGS);
        let job = |shard| ShardJob {
            driver: DRIVER.into(),
            shard,
        };
        let unsharded = b.run_shard(&job((0, 1))).unwrap();
        let shard_docs: Vec<Vec<TableDoc>> =
            (0..3).map(|i| run_job(&b, &job((i, 3))).unwrap()).collect();
        let merged = merge_driver_docs(DRIVER, &shard_docs).unwrap();
        assert_eq!(merged.len(), unsharded.len());
        // Merged tables are in canonical sorted-by-name order; the raw
        // run_shard docs are in driver emission order. Match by name.
        for m in &merged {
            let u = unsharded
                .iter()
                .find(|u| u.table.name == m.table.name)
                .unwrap();
            assert_eq!(m.to_csv(), u.to_csv());
        }
    }
}
