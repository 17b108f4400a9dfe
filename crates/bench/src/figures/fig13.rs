//! Figure 13: RTT CDF of the hardware prototype's ping-pong traffic,
//! with and without bulk background traffic (model of §6.1).

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use opera::prototype::{simulate_prototype_seeded, PrototypeParams};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig13_prototype_rtt",
    title: "Figure 13: prototype ping-pong RTT CDFs (us)",
};

/// Build the figure's tables: per-percentile RTT with mean/CI over the
/// traffic-seed replicates.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let n: usize = ctx.by_scale(10_000, 100_000, 100_000);
    let sweep = Sweep::from_points(vec![()]);
    let results = ctx.run_replicated(&sweep, |_, rc| {
        // Topology seed 7 stays fixed: not every seed yields an 8-rack
        // topology meeting the model's diameter <= 4 premise, so only
        // the traffic stream varies across replicates.
        let r = simulate_prototype_seeded(PrototypeParams::paper_default(), n, 7, rc.seed);
        let mut rows = Vec::new();
        for (label, mut s) in [("no_bulk", r.quiet), ("with_bulk", r.with_bulk)] {
            for q in 1..=100 {
                let v = s.quantile(q as f64 / 100.0).unwrap();
                rows.push((vec![Cell::from(label), Cell::from(q as u64)], vec![v]));
            }
        }
        rows
    });

    let mut t = RepTableBuilder::new(
        "rtt_cdfs",
        &["series", "percentile"],
        &[("rtt_us", expt::f2 as MetricFmt)],
    );
    t.sweep_rows(&results, |_, reps| reps.iter().flatten());
    vec![t.build()]
}
