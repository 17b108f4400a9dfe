//! Figure 19 / Appendix E: connectivity loss and path stretch of the
//! 3:1 folded Clos under link and switch failures.

use crate::figures::fig11::fractions;
use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use simkit::SimRng;
use topo::clos::{ClosParams, ClosTopology};
use topo::failures::{analyze_static, clos_link_domain, FailureSet};
use topo::graph::Graph;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig19_clos_failures",
    title: "Figure 19: 3:1 folded Clos under failures",
};

/// `frac` of `pool`, drawn uniformly: a shuffle of the whole pool, then
/// its prefix (one RNG draw per element, whatever the fraction).
fn sample<T: Clone>(pool: &[T], frac: f64, rng: &mut SimRng) -> Vec<T> {
    let mut all = pool.to_vec();
    rng.shuffle(&mut all);
    all.truncate((frac * pool.len() as f64).round() as usize);
    all
}

/// The failure sweep Figures 19 and 20 share: connectivity loss and
/// path stretch among `tors` of a static `graph` as a growing fraction
/// of its links (drawn from `domain`) or of its `nodes` (the failure
/// kind the figure names `node_kind`) fails. Failure sets are sampled
/// per replicate seed, so the CI columns reflect genuine sampling
/// spread.
pub(crate) fn static_failure_table(
    ctx: &Ctx,
    table: &str,
    (graph, tors): (&Graph, &[usize]),
    domain: &[(usize, usize)],
    (node_kind, nodes): (&'static str, &[usize]),
) -> Table {
    let sweep = Sweep::grid2(&["links", node_kind], fractions(ctx), |k, f| (k, f));
    let rows = ctx.run_replicated(&sweep, |&(kind, frac), rc| {
        let mut rng = rc.rng();
        let fails = match kind {
            "links" => FailureSet {
                links: sample(domain, frac, &mut rng),
                ..Default::default()
            },
            // `analyze_static` removes a failed node whether it is
            // listed as a ToR or as a switch.
            _ => FailureSet {
                switches: sample(nodes, frac, &mut rng),
                ..Default::default()
            },
        };
        let r = analyze_static(graph, tors, &fails);
        (
            vec![Cell::from(kind), Cell::F64(frac)],
            vec![r.worst_slice_loss, r.avg_path_len, r.max_path_len as f64],
        )
    });

    let mut t = RepTableBuilder::new(
        table,
        &["failure_kind", "fraction"],
        &[
            ("connectivity_loss", expt::f as MetricFmt),
            ("avg_path", expt::f3),
            ("worst_path", expt::f2),
        ],
    );
    t.sweep_rows(&rows, |_, reps| reps);
    t.build()
}

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let params = ctx.by_scale(
        ClosParams {
            radix: 8,
            oversubscription: 3,
        },
        ClosParams::example_648(),
        ClosParams::example_648(),
    );
    let clos = ClosTopology::generate(params);
    let tors: Vec<usize> = (0..clos.tors()).collect();
    // Switch failures: sample among non-ToR switches (aggs + cores), as
    // the paper's ToR failures are separate.
    let aggs_cores: Vec<usize> = (clos.tors()..clos.graph().len()).collect();
    vec![static_failure_table(
        ctx,
        "clos_failures",
        (clos.graph(), &tors),
        &clos_link_domain(&clos),
        ("switches", &aggs_cores),
    )]
}
