//! Figure 1: flow-count and byte CDFs of the three published workloads.

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use workloads::dists::{FlowSizeDist, Workload};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig01_flow_dists",
    title: "Figure 1: flow-size distributions (CDF of flows, CDF of bytes)",
};

/// Build the figure's tables. The CDFs are closed-form (no seed
/// dependence), so each workload is integrated once and recorded once
/// per replicate (`Ctx::repeat`): CIs are exactly zero, columns kept
/// for schema uniformity across figures.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    // Quantile-integration resolution for the byte CDF.
    let n: usize = ctx.by_scale(400, 4000, 4000);
    let size_step: usize = ctx.by_scale(2, 1, 1);
    let sizes: Vec<f64> = (4..=36)
        .step_by(size_step)
        .map(|i| 10f64.powf(i as f64 / 4.0))
        .collect();

    let sweep = Sweep::grid1(
        &[Workload::Datamining, Workload::Websearch, Workload::Hadoop],
        |w| w,
    );
    let per_workload = ctx.run(&sweep, |&w, _| {
        let d = FlowSizeDist::of(w);
        let total: f64 = (0..n)
            .map(|i| d.quantile((i as f64 + 0.5) / n as f64))
            .sum();
        let rows: Vec<(Vec<Cell>, Vec<f64>)> = sizes
            .iter()
            .map(|&s| {
                let flows = d.cdf(s);
                let bytes: f64 = (0..n)
                    .map(|i| d.quantile((i as f64 + 0.5) / n as f64))
                    .filter(|&q| q <= s)
                    .sum::<f64>()
                    / total;
                (
                    vec![Cell::from(format!("{w:?}")), Cell::from(format!("{s:.0}"))],
                    vec![flows, bytes],
                )
            })
            .collect();
        let summary = (
            vec![Cell::from(format!("{w:?}"))],
            vec![d.mean(), d.byte_fraction_above(15e6)],
        );
        (rows, summary)
    });

    let mut cdfs = RepTableBuilder::new(
        "flow_size_cdfs",
        &["workload", "size_bytes"],
        &[("cdf_flows", expt::f as MetricFmt), ("cdf_bytes", expt::f)],
    );
    cdfs.sweep_rows(&per_workload, |_, (rows, _)| {
        rows.iter().flat_map(|row| ctx.repeat(row))
    });
    let mut summary = RepTableBuilder::new(
        "byte_summary",
        &["workload"],
        &[
            ("mean_bytes", expt::f0 as MetricFmt),
            ("byte_share_above_15mb", expt::f3),
        ],
    );
    summary.sweep_rows(&per_workload, |_, (_, row)| ctx.repeat(row));
    vec![cdfs.build(), summary.build()]
}
