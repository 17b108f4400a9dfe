//! Figure 20 / Appendix E: connectivity loss and path stretch of the
//! u=7 static expander under link and ToR failures.

use crate::figures::fig19::static_failure_table;
use expt::{Ctx, Experiment, Table};
use topo::expander::{ExpanderParams, ExpanderTopology};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig20_expander_failures",
    title: "Figure 20: u=7 expander under failures",
};

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let params = ctx.by_scale(
        ExpanderParams {
            racks: 16,
            uplinks: 4,
            hosts_per_rack: 3,
        },
        ExpanderParams::example_650(),
        ExpanderParams::example_650(),
    );
    let exp = ExpanderTopology::generate(params, 20);
    let g = exp.graph();
    let tors: Vec<usize> = (0..exp.racks()).collect();
    // Undirected link domain.
    let mut domain = Vec::new();
    for a in 0..g.len() {
        for e in g.edges(a) {
            if a < e.to {
                domain.push((a, e.to));
            }
        }
    }
    vec![static_failure_table(
        ctx,
        "expander_failures",
        (g, &tors),
        &domain,
        ("tors", &tors),
    )]
}
