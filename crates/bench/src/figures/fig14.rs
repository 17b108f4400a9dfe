//! Figure 14: relative cycle time vs ToR radix, with and without
//! circuit-switch grouping (Appendix B).

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use opera::timing::{cycle_slices_grouped, cycle_slices_ungrouped, SliceTiming};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig14_cycle_time_scaling",
    title: "Figure 14: relative cycle time vs ToR radix (normalized to k=12)",
};

/// Build the figure's tables (closed-form timing arithmetic; replicate
/// CIs are exactly zero).
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let ks: Vec<usize> = if ctx.quick() {
        (12..=36).step_by(8).collect()
    } else {
        (12..=60).step_by(4).collect()
    };
    let base = cycle_slices_ungrouped(12) as f64;
    let t = SliceTiming::paper_default();

    let sweep = Sweep::grid1(&ks, |k| k);
    let rows = ctx.run(&sweep, |&k, _| {
        let ungrouped = cycle_slices_ungrouped(k);
        let grouped = cycle_slices_grouped(k, 6.min(k / 2));
        (
            vec![Cell::from(k), Cell::from(3 * k * k / 4)],
            vec![
                ungrouped as f64 / base,
                grouped as f64 / base,
                t.cycle(grouped).as_ms_f64(),
            ],
        )
    });

    let mut cycle = RepTableBuilder::new(
        "cycle_time",
        &["k", "racks"],
        &[
            ("no_groups", expt::f2 as MetricFmt),
            ("groups_of_6", expt::f2),
            ("cycle_ms_grouped", expt::f2),
        ],
    );
    cycle.sweep_rows(&rows, |_, row| ctx.repeat(row));

    // The k=64-class takeaway: grouped cycle grows ~6x from k=12
    // (paper: "factor of 6"), and the bulk threshold scales accordingly.
    let mut thresholds = RepTableBuilder::new(
        "bulk_threshold_mb",
        &["config"],
        &[("threshold_mb", expt::f0 as MetricFmt)],
    );
    for (config, slices) in [
        ("k60_grouped", cycle_slices_grouped(60, 6)),
        ("k12_ungrouped", cycle_slices_ungrouped(12)),
    ] {
        let mb = t.bulk_threshold_bytes(slices, 10.0) as f64 / 1e6;
        thresholds.extend(ctx.repeat((vec![Cell::from(config)], vec![mb])));
    }
    vec![cycle.build(), thresholds.build()]
}
