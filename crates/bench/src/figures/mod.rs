//! Declarative figure/table definitions on top of the [`expt`] harness.
//!
//! Each module exports an [`expt::Experiment`] (whose `name` is what
//! `opera run` takes and the `results/<name>/` output directory) and a
//! `tables(&Ctx) -> Vec<Table>` builder. [`all`] is the registry: the
//! one place the set of drivers is written down, which `opera list`
//! prints and the CLI, CI and tests iterate.

pub mod ablate_design;
pub mod ablate_queue;
pub mod ablate_transport;
pub mod fig01;
pub mod fig04;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod table1;
pub mod table2;

use expt::golden::{bless_driver, compare_driver, Drift, GoldenSpec};
use expt::{
    Cell, Ctx, Experiment, ExptArgs, MetricFmt, RepTableBuilder, Row, RunFlags, RunMeta, Scale,
    Swept, Table,
};
use netsim::FlowTracker;
use opera::harness::FctStats;
use opera::PacketNet;
use simkit::SimTime;
use std::io;
use std::path::{Path, PathBuf};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::PoissonGen;

/// A figure's table builder.
pub type BuildFn = fn(&Ctx) -> Vec<Table>;

/// Every driver definition, in figure order.
pub fn all() -> Vec<(Experiment, BuildFn)> {
    vec![
        (fig01::EXPERIMENT, fig01::tables),
        (fig04::EXPERIMENT, fig04::tables),
        (fig07::EXPERIMENT, fig07::tables),
        (fig08::EXPERIMENT, fig08::tables),
        (fig09::EXPERIMENT, fig09::tables),
        (fig10::EXPERIMENT, fig10::tables),
        (fig11::EXPERIMENT, fig11::tables),
        (fig12::EXPERIMENT, fig12::tables),
        (fig13::EXPERIMENT, fig13::tables),
        (fig14::EXPERIMENT, fig14::tables),
        (fig16::EXPERIMENT, fig16::tables),
        (fig17::EXPERIMENT, fig17::tables),
        (fig18::EXPERIMENT, fig18::tables),
        (fig19::EXPERIMENT, fig19::tables),
        (fig20::EXPERIMENT, fig20::tables),
        (table1::EXPERIMENT, table1::tables),
        (table2::EXPERIMENT, table2::tables),
        (ablate_design::EXPERIMENT, ablate_design::tables),
        (ablate_queue::EXPERIMENT, ablate_queue::tables),
        (ablate_transport::EXPERIMENT, ablate_transport::tables),
    ]
}

/// The driver named `name`, if the registry has one.
pub fn find(name: &str) -> Option<(Experiment, BuildFn)> {
    all().into_iter().find(|(e, _)| e.name == name)
}

/// The tables of the driver named `driver` under `ctx`: the table
/// builder `opera orchestrate` hands every job
/// (`expt::orchestrate::start_run`).
pub fn build(driver: &str, ctx: &Ctx) -> Result<Vec<Table>, String> {
    let (_, build) = find(driver).ok_or_else(|| format!("unknown driver {driver:?}"))?;
    Ok(build(ctx))
}

/// The golden comparison spec of a driver: the same empty
/// [`GoldenSpec`] for every driver, since every golden is compared byte
/// for byte. It stays only because the benchmark passes its value to
/// [`compare_driver`] (ROADMAP 8b deletes both).
pub fn golden_spec(_driver: &str) -> GoldenSpec {
    GoldenSpec
}

/// The committed golden store: `goldens/` at the workspace root.
pub fn golden_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
}

/// The run identity goldens are recorded and checked under: quick
/// scale, base seed 0, 3 replicates.
pub const GOLDEN_FLAGS: RunFlags = RunFlags {
    scale: Scale::Quick,
    seed: 0,
    replicates: 3,
};

/// The canonical context of a golden run: [`GOLDEN_FLAGS`], no result
/// files. Thread count is free — the harness guarantees it cannot
/// affect output.
pub fn golden_ctx(threads: usize) -> Ctx {
    Ctx::new(ExptArgs {
        threads,
        no_write: true,
        ..GOLDEN_FLAGS.expt_args()
    })
}

/// Diff the `tables` of the run `meta` describes against the goldens
/// under `root/<meta.driver>/`, byte for byte (or re-record them when
/// `bless` is set; a bless returns no drifts). This is the one engine
/// behind the tier-1 `golden_figures` test, `opera golden` and
/// `opera spot`.
pub fn golden_run(
    tables: &[Table],
    meta: &RunMeta,
    root: &Path,
    bless: bool,
) -> io::Result<Vec<Drift>> {
    let driver = &meta.driver;
    if bless {
        bless_driver(driver, tables, root, meta)?;
        return Ok(Vec::new());
    }
    compare_driver(driver, tables, root, &golden_spec(driver), meta)
}

/// Key columns of the per-size-bin FCT tables (Figures 7 and 9).
const FCT_KEY_COLUMNS: [&str; 4] = ["system", "load", "size_lo", "size_hi"];

/// Metric columns of the per-size-bin FCT tables, aggregated over
/// replicate seeds.
const FCT_METRICS: [(&str, MetricFmt); 5] = [
    ("flows", expt::f2),
    ("unfinished", expt::f2),
    ("avg_us", expt::f2),
    ("p50_us", expt::f2),
    ("p99_us", expt::f2),
];

/// Metric columns of the completion-summary tables.
const COMPLETION_METRICS: [(&str, MetricFmt); 2] = [("completed", expt::f2), ("offered", expt::f2)];

/// Per-size-bin FCT observations for one `(system, load)` replicate:
/// `(key cells, metric values)` aligned with [`FCT_KEY_COLUMNS`] and
/// [`FCT_METRICS`].
fn fct_rows(system: &str, load: f64, tracker: &FlowTracker) -> Vec<Row> {
    let stats = FctStats::from_tracker(tracker, &FctStats::default_edges());
    stats
        .bins
        .iter()
        .filter(|b| b.count > 0 || b.unfinished > 0)
        .map(|b| {
            (
                vec![
                    Cell::from(system),
                    Cell::F64(load),
                    Cell::from(b.lo),
                    Cell::from(b.hi),
                ],
                vec![
                    b.count as f64,
                    b.unfinished as f64,
                    b.avg_us,
                    b.p50_us,
                    b.p99_us,
                ],
            )
        })
        .collect()
}

/// Completion-summary observation for one `(system, load)` replicate.
fn completion_row(system: &str, load: f64, tracker: &FlowTracker, offered: usize) -> Row {
    (
        vec![Cell::from(system), Cell::F64(load)],
        vec![tracker.completed() as f64, offered as f64],
    )
}

/// One replicate's [`fct_rows`] and [`completion_row`].
pub(crate) type FctPoint = (Vec<Row>, Row);

/// One `(system, load)` replicate of Figures 7 and 9 on any network:
/// Poisson arrivals of `workload` at `load` for `window` over the hosts
/// `cfg` describes, run until drained or else to `horizon`.
pub(crate) fn fct_point<N: PacketNet>(
    cfg: N::Config,
    workload: Workload,
    (system, load, seed): (&str, f64, u64),
    (window, horizon): (SimTime, SimTime),
) -> FctPoint {
    let flows = PoissonGen::new(FlowSizeDist::of(workload), N::hosts(&cfg), 10.0, load, seed)
        .flows_until(window);
    let offered = flows.len();
    let mut sim = N::build(cfg, flows);
    crate::run_net(
        &mut sim,
        horizon,
        format_args!("fct/{workload:?}/{system}/load {load}/seed {seed}"),
    );
    let t = sim.world.logic.tracker();
    (
        fct_rows(system, load, t),
        completion_row(system, load, t, offered),
    )
}

/// The `fct_by_size` and `completion` tables of Figures 7 and 9 from
/// every owned point's [`FctPoint`] per replicate.
pub(crate) fn fct_tables<P>(results: &Swept<'_, P, Vec<FctPoint>>) -> Vec<Table> {
    let mut fct = RepTableBuilder::new("fct_by_size", &FCT_KEY_COLUMNS, &FCT_METRICS);
    fct.sweep_rows(results, |_, reps| reps.iter().flat_map(|(rows, _)| rows));
    let mut completion =
        RepTableBuilder::new("completion", &["system", "load"], &COMPLETION_METRICS);
    completion.sweep_rows(results, |_, reps| reps.iter().map(|(_, row)| row));
    vec![fct.build(), completion.build()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let defs = all();
        assert_eq!(defs.len(), 20);
        let mut names: Vec<&str> = defs.iter().map(|(e, _)| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "duplicate experiment names");
        for (e, _) in &defs {
            assert!(!e.name.is_empty() && !e.title.is_empty());
        }
    }

    #[test]
    fn cheap_figures_produce_rows_in_quick_mode() {
        let ctx = golden_ctx(2);
        for build in [
            fig01::tables as BuildFn,
            fig14::tables,
            table1::tables,
            table2::tables,
        ] {
            let tables = build(&ctx);
            assert!(!tables.is_empty());
            assert!(tables.iter().any(|t| !t.is_empty()));
        }
    }

    #[test]
    fn parallel_quick_run_is_byte_identical_to_serial() {
        // The acceptance bar for the harness: --threads 8 output equals
        // --threads 1, byte for byte. fig11 exercises per-point RNG use.
        for build in [fig11::tables as BuildFn, fig14::tables] {
            let serial: Vec<String> = build(&golden_ctx(1)).iter().map(Table::to_csv).collect();
            let parallel: Vec<String> = build(&golden_ctx(8)).iter().map(Table::to_csv).collect();
            assert_eq!(serial, parallel);
        }
    }
}
