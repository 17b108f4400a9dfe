//! Figure 18 / Appendix E: average and worst-case Opera path length
//! under link, ToR, and circuit-switch failures.

use crate::figures::fig11::{failure_params, fractions, sample_failures, KINDS};
use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use topo::failures::{analyze_opera, opera_link_domain};
use topo::opera::OperaTopology;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig18_failure_stretch",
    title: "Figure 18: Opera path stretch under failures",
};

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let params = failure_params(ctx);
    let (topo, _) = OperaTopology::generate_validated(params, 3, 64);
    let domain = opera_link_domain(&topo);
    let fracs = fractions(ctx);

    let sweep = Sweep::grid2(&KINDS, fracs, |k, f| (k, f));
    let rows = ctx.run_replicated(&sweep, |&(kind, frac), rc| {
        let mut rng = rc.rng();
        let fails = sample_failures(&topo, &domain, kind, frac, &mut rng);
        let r = analyze_opera(&topo, &fails);
        (
            vec![Cell::from(kind), Cell::F64(frac)],
            vec![r.avg_path_len, r.max_path_len as f64],
        )
    });

    let mut t = RepTableBuilder::new(
        "path_stretch",
        &["failure_kind", "fraction"],
        &[
            ("avg_path", expt::f3 as MetricFmt),
            ("worst_path", expt::f2),
        ],
    );
    t.sweep_rows(&rows, |_, reps| reps);
    vec![t.build()]
}
