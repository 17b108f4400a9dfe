//! Table 1: routing-state entries and switch-memory utilization for
//! Opera rulesets at various datacenter sizes (§6.2).

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use opera::ruleset::{ruleset_for, table1_rows};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "table1_ruleset",
    title: "Table 1: Opera ruleset sizes",
};

/// The paper's published (entries, utilization %) values, row-aligned
/// with [`table1_rows`].
const PAPER: [(u64, f64); 6] = [
    (12_096, 0.7),
    (65_268, 3.8),
    (276_120, 16.2),
    (600_576, 35.3),
    (1_032_192, 60.7),
    (1_461_600, 85.9),
];

/// Build the table. Ruleset sizes are closed-form (no seed dependence),
/// so each size is computed once and recorded once per replicate
/// (`Ctx::repeat`): CIs are exactly zero, columns kept for schema
/// uniformity across figures.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let sizes = table1_rows();
    let sweep = Sweep::grid1(&sizes, |rc| rc);
    let per_point = ctx.run(&sweep, |&(racks, uplinks), pt| {
        let r = ruleset_for(racks, uplinks);
        let (paper_entries, paper_util) = PAPER.get(pt.index).copied().unwrap_or((0, 0.0));
        (
            vec![Cell::from(r.racks), Cell::from(r.uplinks)],
            vec![
                r.entries as f64,
                r.utilization_pct,
                paper_entries as f64,
                paper_util,
            ],
        )
    });

    let mut t = RepTableBuilder::new(
        "ruleset_sizes",
        &["racks", "uplinks"],
        &[
            ("entries", expt::f0 as MetricFmt),
            ("util_pct", expt::f2),
            ("paper_entries", expt::f0),
            ("paper_util_pct", expt::f2),
        ],
    );
    t.sweep_rows(&per_point, |_, row| ctx.repeat(row));
    vec![t.build()]
}
