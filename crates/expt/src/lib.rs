//! `expt` — the shared experiment harness behind every figure driver.
//!
//! The paper's headline results are parameter sweeps (load × workload ×
//! topology × seed). Every point of such a sweep is an isolated,
//! deterministic `simkit` run, so a full reproduction is embarrassingly
//! parallel, and its tables merge across shards because every row
//! carries the sweep point that produced it. That tag is attached here,
//! where the row is produced; one pipeline carries a table to disk:
//!
//! * [`sweep::Sweep`] — a cartesian-grid builder that enumerates sweep
//!   points in a fixed row-major order,
//! * [`runner::Runner`] — fans points out over the claim loop that
//!   lives in `simkit` ([`simkit::pool::claim_slots`], also the
//!   orchestrator's job pool and the routing-table build's) with
//!   deterministic per-point seeding, `--shard i/n` point
//!   filtering and a replicate axis, and returns the results in sweep
//!   order, attached to their points ([`runner::Swept`]), so
//!   `--threads 8` output is byte-identical to `--threads 1`,
//! * [`replicate::RepTableBuilder`] — folds R observations per row into
//!   `mean`/`ci95` columns, reading each sweep row's point off the
//!   [`runner::Swept`] it came from,
//! * [`table::Table`] — the uniform result model (named columns × typed
//!   cells, per-row sweep-point provenance),
//! * [`output`] — the table document ([`TableDoc`]: a [`Table`] plus
//!   the [`RunMeta`] of its run) in CSV and JSON, the run identity
//!   ([`RunFlags`]: the one declaration of `(scale, seed,
//!   replicates)`, embedded in every document and compared by one
//!   function),
//!   [`output::result_path`], which places every result file, and the
//!   self-validating shard merge ([`output::merge_shard_docs`]),
//! * [`golden`] — committed baseline CSVs with provenance manifests, and
//!   the byte-exact comparison behind the tier-1 golden test,
//!   `opera golden` and `opera spot`, which names where a table first
//!   parts from its golden,
//! * [`orchestrate`] — the `driver × shard` jobs behind
//!   `opera orchestrate`: [`orchestrate::start_run`] keeps every job
//!   whose shard documents are already in the output tree, runs each
//!   other job once, in process, through the table builder it is
//!   given, on a worker pool, commits its shard documents the moment it
//!   completes, and merges each driver's documents with point-index
//!   validation through [`orchestrate::merge_driver_docs`], the merge
//!   [`orchestrate::validate_dir`] re-runs from disk. Every result file
//!   of a tree is written by [`output::write_tables`],
//! * [`json`] — the offline JSON parser (duplicate keys rejected,
//!   nesting bounded) and [`json::Fields`], the one strict decoder
//!   table documents, golden manifests and scenario files
//!   (`bench::scenario`) are read through: typed field reads, unknown
//!   keys rejected, every error `<document>: <path>: <what>`,
//! * [`cli::ExptArgs`] — the `--quick` / `--threads` / `--out` /
//!   `--full` / `--seed` / `--replicates` / `--shard` flags shared by
//!   all drivers, read through the [`cli::Args`] cursor every `opera`
//!   subcommand uses.
//!
//! # Writing a driver
//!
//! A figure driver is an [`Experiment`] (name + title) and a function
//! `fn(&Ctx) -> Vec<Table>`, registered in `bench::figures::all()`;
//! `opera run <name>` parses [`ExptArgs`], builds the tables and hands
//! them to [`emit`]. The function runs a sweep and says which rows each
//! point's results are — under `--shard i/n` it sees its share of the
//! points and its tables record which, with no code of its own:
//!
//! ```
//! use expt::{f2, Cell, Ctx, MetricFmt, RepTableBuilder, Sweep, Table};
//!
//! fn tables(ctx: &Ctx) -> Vec<Table> {
//!     let sweep = Sweep::grid1(&[0.1, 0.2], |load| load);
//!     let fcts = ctx.run_replicated(&sweep, |&load, rc| load * (1 + rc.seed % 3) as f64);
//!     let mut t = RepTableBuilder::new("fct", &["load"], &[("fct_us", f2 as MetricFmt)]);
//!     t.sweep_rows(&fcts, |&load, reps| {
//!         reps.iter().map(move |&fct| (vec![Cell::F64(load)], vec![fct]))
//!     });
//!     vec![t.build()] // seed-independent rows: `ctx.run` once, then `ctx.repeat(row)`
//! }
//! assert_eq!(tables(&Ctx::new(Default::default()))[0].len(), 2);
//! ```

// The harness reads files from outside the program: every failure is a
// named error, and every invariant is held by a type, so nothing here
// may abort.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod cli;
pub mod golden;
pub mod json;
pub mod orchestrate;
pub mod output;
pub mod replicate;
pub mod runner;
pub mod sweep;
pub mod table;

pub use cli::{Args, ExptArgs, Scale};
pub use output::{merge_shard_docs, RunFlags, RunMeta, TableDoc};
pub use replicate::{replicate_seed, MetricFmt, RepCtx, RepTableBuilder, Row};
pub use runner::{derive_seed, PointCtx, Runner, Swept};
pub use sweep::{Sweep, SweepRef};
pub use table::{f, f0, f2, f3, Cell, Table};

/// Static description of one figure/table driver.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `opera run` takes and the directory under `results/`.
    pub name: &'static str,
    /// One-line human title printed at the top of the output.
    pub title: &'static str,
}

/// Everything a figure definition needs at run time: the parsed CLI
/// arguments plus a ready-to-use parallel [`Runner`]. [`Ctx::run`] and
/// [`Ctx::run_replicated`] return the results of the points this run
/// owns as a [`Swept`], for [`RepTableBuilder::sweep_rows`] to turn
/// into rows that carry their points.
#[derive(Debug)]
pub struct Ctx {
    /// Parsed command-line arguments.
    pub args: ExptArgs,
    /// Parallel sweep runner (threads and base seed already set).
    pub runner: Runner,
}

impl Ctx {
    /// Build a context from parsed arguments.
    pub fn new(args: ExptArgs) -> Self {
        let runner = Runner::new(args.threads, args.flags.seed).with_shard(args.shard);
        Ctx { args, runner }
    }

    /// True in `--quick` smoke mode (tiny grids, fixed seed).
    pub fn quick(&self) -> bool {
        self.args.flags.scale == Scale::Quick
    }

    /// Run a sweep through the parallel runner: one result per owned
    /// point, in sweep order.
    pub fn run<'s, P, R, F>(&self, sweep: &'s Sweep<P>, f: F) -> Swept<'s, P, R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, &PointCtx) -> R + Sync,
    {
        self.runner.run(sweep, f)
    }

    /// Replicate seeds per sweep point (`--replicates`, at least 1).
    pub fn replicates(&self) -> usize {
        self.args.flags.replicates
    }

    /// Run a sweep with [`Ctx::replicates`] replicate seeds per point:
    /// per owned point, in sweep order, its results by replicate.
    pub fn run_replicated<'s, P, R, F>(&self, sweep: &'s Sweep<P>, f: F) -> Swept<'s, P, Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, &RepCtx) -> R + Sync,
    {
        self.runner.run_replicated(sweep, self.replicates(), f)
    }

    /// A seed-independent `row` as every replicate would observe it:
    /// [`Ctx::replicates`] copies of a value computed once (CI exactly 0).
    pub fn repeat<T: Clone>(&self, row: T) -> impl Iterator<Item = T> {
        std::iter::repeat_n(row, self.replicates())
    }

    /// Pick among three values by scale: quick / default / full.
    pub fn by_scale<T>(&self, quick: T, default: T, full: T) -> T {
        match self.args.flags.scale {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// Print tables as CSV to stdout and (unless `--no-write`) write CSV +
/// JSON files under `<out>/<experiment name>/`.
pub fn emit(exp: &Experiment, ctx: &Ctx, tables: &[Table]) -> std::io::Result<()> {
    println!("# {}", exp.title);
    let shard = match ctx.runner.shard() {
        Some((i, n)) => format!(" shard={i}/{n}"),
        None => String::new(),
    };
    println!(
        "# mode={} threads={} seed={} replicates={}{shard}",
        ctx.args.flags.scale,
        ctx.runner.threads(),
        ctx.args.flags.seed,
        ctx.args.flags.replicates
    );
    for t in tables {
        println!("table,{}", t.name);
        print!("{}", t.to_csv());
        println!();
    }
    if !ctx.args.no_write {
        let dir = ctx.args.out.join(exp.name);
        let meta = RunMeta::new(exp.name, &ctx.args);
        for p in output::write_tables(&dir, tables, &meta)? {
            println!("# wrote {}", p.display());
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Fixtures the unit tests of [`crate::output`] and
    //! [`crate::orchestrate`] share.

    use crate::{Cell, Ctx, RunFlags, RunMeta, Scale, SweepRef, Table, TableDoc};
    use std::path::PathBuf;

    /// The identity every fixture runs under.
    pub(crate) const QUICK: RunFlags = RunFlags {
        scale: Scale::Quick,
        seed: 0,
        replicates: 3,
    };

    /// A fresh (removed if present, not created) per-process scratch
    /// directory.
    pub(crate) fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("expt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    pub(crate) fn meta(driver: &str, shard: Option<(usize, usize)>) -> RunMeta {
        RunMeta {
            driver: driver.to_string(),
            flags: QUICK,
            shard,
        }
    }

    /// A deterministic fake driver's one table, `data`, as shard
    /// `shard` computes it: a 6-point sweep, 2 rows per point, one
    /// constant row.
    pub(crate) fn fake_table(shard: (usize, usize)) -> Table {
        let points = 6usize;
        let sweep = SweepRef {
            points,
            owned: (0..points).filter(|p| p % shard.1 == shard.0).collect(),
        };
        let mut t = Table::new("data", &["point", "sub"]).for_sweep(&sweep);
        t.push(vec![Cell::from("const"), Cell::from(0u64)]);
        for &p in &sweep.owned {
            for sub in 0..2usize {
                t.push_indexed(p, vec![Cell::from(p), Cell::from(sub)]);
            }
        }
        t
    }

    /// [`fake_table`] as `driver`'s document of `shard`.
    pub(crate) fn fake_docs(driver: &str, shard: (usize, usize)) -> Vec<TableDoc> {
        vec![TableDoc {
            meta: meta(driver, Some(shard)),
            table: fake_table(shard),
        }]
    }

    /// The table builder of the orchestrator's tests: [`fake_table`],
    /// except that every job of the driver `always-broken` fails.
    pub(crate) fn fake_build(driver: &str, ctx: &Ctx) -> Result<Vec<Table>, String> {
        if driver == "always-broken" {
            return Err("permanent failure".into());
        }
        let shard = ctx.args.shard.expect("a job's context has its shard");
        Ok(vec![fake_table(shard)])
    }
}
