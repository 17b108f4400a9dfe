//! Figure 11: connectivity loss of an Opera network under random link,
//! ToR, and circuit-switch failures (worst slice and integrated across
//! all slices).

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use simkit::SimRng;
use topo::failures::{analyze_opera, opera_link_domain, FailureSet};
use topo::opera::{OperaParams, OperaTopology};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig11_fault_tolerance",
    title: "Figure 11: Opera connectivity loss under failures",
};

/// Failure-injection kinds shared with Figure 18.
pub(crate) const KINDS: [&str; 3] = ["links", "tors", "switches"];

/// Opera topology parameters for a failure sweep at the given scale.
pub(crate) fn failure_params(ctx: &Ctx) -> OperaParams {
    ctx.by_scale(
        OperaParams {
            racks: 24,
            uplinks: 4,
            hosts_per_rack: 4,
            groups: 1,
        },
        // Same structure as the paper's network, fewer racks so the
        // slice sweep stays fast.
        OperaParams {
            racks: 48,
            uplinks: 6,
            hosts_per_rack: 6,
            groups: 1,
        },
        OperaParams::example_648(),
    )
}

/// Failure fractions for the given scale, shared by Figures 11 and 18–20.
pub(crate) fn fractions(ctx: &Ctx) -> &'static [f64] {
    ctx.by_scale(
        &[0.05, 0.20],
        &[0.01, 0.025, 0.05, 0.10, 0.20, 0.40],
        &[0.01, 0.025, 0.05, 0.10, 0.20, 0.40],
    )
}

/// Sample a failure set of the given kind and fraction.
pub(crate) fn sample_failures(
    topo: &OperaTopology,
    domain: &[(usize, usize)],
    kind: &str,
    frac: f64,
    rng: &mut SimRng,
) -> FailureSet {
    match kind {
        "links" => FailureSet::sample(
            rng,
            0,
            topo.racks(),
            0,
            topo.switches(),
            (frac * domain.len() as f64).round() as usize,
            domain,
        ),
        "tors" => FailureSet::sample(
            rng,
            (frac * topo.racks() as f64).round() as usize,
            topo.racks(),
            0,
            topo.switches(),
            0,
            domain,
        ),
        _ => FailureSet::sample(
            rng,
            0,
            topo.racks(),
            (frac * topo.switches() as f64).round() as usize,
            topo.switches(),
            0,
            domain,
        ),
    }
}

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
            vec![r.worst_slice_loss, r.all_slices_loss],
        )
    });

    let mut t = RepTableBuilder::new(
        "connectivity_loss",
        &["failure_kind", "fraction"],
        &[
            ("worst_slice_loss", expt::f as MetricFmt),
            ("all_slices_loss", expt::f),
        ],
    );
    t.sweep_rows(&rows, |_, reps| reps);
    vec![t.build()]
}
