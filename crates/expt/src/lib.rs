//! `expt` — the shared experiment harness behind every figure driver.
//!
//! The paper's headline results are parameter sweeps (load × workload ×
//! topology × seed). Every point of such a sweep is an isolated,
//! deterministic `simkit` run, which makes a full reproduction
//! embarrassingly parallel. This crate factors the machinery every
//! `crates/bench` binary used to re-implement by hand:
//!
//! * [`sweep::Sweep`] — a cartesian-grid builder that enumerates sweep
//!   points in a fixed row-major order,
//! * [`runner::Runner`] — fans points out over `std::thread::scope`
//!   workers with deterministic per-point seeding and collects results
//!   *in sweep order*, so `--threads 8` output is byte-identical to
//!   `--threads 1`; supports `--shard i/n` point filtering and a
//!   replicate axis ([`runner::Runner::run_replicated`]),
//! * [`replicate`] — per-point replicate seeds and the
//!   [`replicate::RepTableBuilder`] that folds R observations per row
//!   into `mean`/`ci95` columns,
//! * [`golden`] — committed quick-mode baseline CSVs with provenance
//!   manifests and the tolerance-aware diff engine behind the tier-1
//!   golden test,
//! * [`table::Table`] — the uniform result model (named columns × typed
//!   cells, per-row sweep-point provenance),
//! * [`output`] — CSV and JSON table-document writers into
//!   `results/<figure>/`, plus the self-validating shard merge
//!   ([`output::merge_shard_docs`]),
//! * [`orchestrate`] — the driver-level scheduler behind
//!   `opera orchestrate`: fans `driver × shard` jobs over a worker pool
//!   (pluggable [`orchestrate::Backend`]), retries failures, and merges
//!   shard documents with point-index validation,
//! * [`runfile`] — durable run state: the `run.json` manifest, the
//!   incremental [`runfile::RunWriter`] that persists each shard
//!   document the moment its job completes (atomic tmp-file + rename),
//!   and [`runfile::resume_run`], which re-runs only the missing or
//!   corrupt shards of an interrupted run,
//! * [`json`] — the minimal offline JSON reader the two modules above
//!   share,
//! * [`cli::ExptArgs`] — the `--quick` / `--threads` / `--out` /
//!   `--full` / `--seed` / `--replicates` / `--shard` flags shared by
//!   all drivers, read through the [`cli::Args`] cursor every `opera`
//!   subcommand uses,
//! * [`summary`] — percentile/CI summaries computed once here instead of
//!   per-binary.
//!
//! A figure driver is a declarative definition: an [`Experiment`]
//! (name + title) and a function `fn(&Ctx) -> Vec<Table>`, registered
//! in `bench::figures::all()`; `opera run <name>` parses [`ExptArgs`],
//! builds the tables and hands them to [`emit`].

pub mod cli;
pub mod golden;
pub mod json;
pub mod orchestrate;
pub mod output;
pub mod replicate;
pub mod runfile;
pub mod runner;
pub mod scenario;
pub mod summary;
pub mod sweep;
pub mod table;

pub use cli::{Args, ExptArgs, Scale};
pub use output::{merge_shard_docs, MergeError, RunMeta, TableDoc};
pub use replicate::{replicate_seed, MetricFmt, RepCtx, RepTableBuilder};
pub use runner::{derive_seed, PointCtx, Runner};
pub use summary::{summarize, Summary};
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
/// arguments plus a ready-to-use parallel [`Runner`].
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
        let runner = Runner::new(args.threads, args.seed).with_shard(args.shard);
        Ctx { args, runner }
    }

    /// True in `--quick` smoke mode (tiny grids, fixed seed).
    pub fn quick(&self) -> bool {
        self.args.scale == Scale::Quick
    }

    /// True at paper scale (`--full`).
    pub fn full(&self) -> bool {
        self.args.scale == Scale::Full
    }

    /// Run a sweep through the parallel runner (ordered results).
    pub fn run<P, R, F>(&self, sweep: &Sweep<P>, f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, &PointCtx) -> R + Sync,
    {
        self.runner.run(sweep, f)
    }

    /// Replicate seeds per sweep point (`--replicates`, at least 1).
    pub fn replicates(&self) -> usize {
        self.args.replicates
    }

    /// The sweep's shape as this runner sees it: total point count plus
    /// the global indices of the points this runner's shard owns.
    /// Figure builders zip owned results with `sweep_ref.owned` to
    /// recover global point indices, and pass the whole [`SweepRef`] to
    /// `Table::for_sweep` / `RepTableBuilder::for_sweep` so the shard
    /// merge can validate completeness.
    pub fn sweep_ref<P>(&self, sweep: &Sweep<P>) -> SweepRef {
        SweepRef {
            points: sweep.len(),
            owned: self.runner.owned_points(sweep.len()),
        }
    }

    /// Run a sweep with [`Ctx::replicates`] replicate seeds per point;
    /// `out[p][r]` is replicate `r` of owned point `p` in sweep order.
    pub fn run_replicated<P, R, F>(&self, sweep: &Sweep<P>, f: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, &RepCtx) -> R + Sync,
    {
        self.runner.run_replicated(sweep, self.args.replicates, f)
    }

    /// Pick among three values by scale: quick / default / full.
    pub fn by_scale<T>(&self, quick: T, default: T, full: T) -> T {
        match self.args.scale {
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
        ctx.args.scale,
        ctx.runner.threads(),
        ctx.args.seed,
        ctx.args.replicates
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
