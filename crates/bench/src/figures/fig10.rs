//! Figure 10: aggregate network throughput vs Websearch (low-latency)
//! load for a combined Websearch + Shuffle workload.
//!
//! The bulk component is a saturating all-to-all demand; the low-latency
//! component is Websearch at the given fraction of host capacity. We
//! report delivered throughput normalized to aggregate host capacity, per
//! network, using the flow-level models for the bulk plane (steady state)
//! and charging the static networks their measured bandwidth tax.

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use flowsim::models::Demand;
use flowsim::{clos_throughput, opera_model, McfSolver};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::opera::{OperaParams, OperaTopology};
use workloads::gen::ScenarioGen;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig10_mixed_throughput",
    title: "Figure 10: throughput vs Websearch load (Websearch+Shuffle mix)",
};

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let rate = 10.0;
    // Cost-equivalent trio at k = 12 (the paper's 648-host setting);
    // quick mode shrinks the networks and the solver iterations.
    let (opera_params, exp_params, mcf_iters) = if ctx.quick() {
        (
            OperaParams {
                racks: 27,
                uplinks: 3,
                hosts_per_rack: 3,
                groups: 1,
            },
            ExpanderParams {
                racks: 28,
                uplinks: 3,
                hosts_per_rack: 3,
            },
            15usize,
        )
    } else {
        (
            OperaParams::example_648(),
            ExpanderParams::example_650(),
            40,
        )
    };
    let opera = OperaTopology::generate(opera_params, 5);
    let exp = ExpanderTopology::generate(exp_params, 5);
    let d_o = opera_params.hosts_per_rack as f64;
    let d_e = exp_params.hosts_per_rack as f64;

    let ws_loads: &[f64] = ctx.by_scale(
        &[0.01, 0.05, 0.20],
        &[0.01, 0.025, 0.05, 0.10, 0.20, 0.40],
        &[0.01, 0.025, 0.05, 0.10, 0.20, 0.40],
    );

    // The expander's saturating all-to-all λ does not depend on the
    // Websearch load at all — the same solve used to run inside the
    // sweep closure for every point. Solve it exactly once up front.
    let racks_e = exp.racks();
    let a2a_e: Vec<Demand> =
        ScenarioGen::all_to_all_demands(racks_e, exp_params.hosts_per_rack, rate, 1.0);
    let tor_e: Vec<usize> = (0..racks_e).collect();
    let lam = McfSolver::new(exp.graph())
        .solve(&tor_e, &a2a_e, rate, d_e * rate, mcf_iters)
        .lambda;

    // The flow-level solves are deterministic (fixed topology seeds, no
    // RNG): each load is solved once and recorded once per replicate
    // (`Ctx::repeat`, zero CI).
    let sweep = Sweep::grid1(ws_loads, |w| w);
    let rows = ctx.run(&sweep, |&ws, _| {
        // Opera: low-latency traffic takes `ws` of each host's capacity
        // and pays the expander tax on the slice fabric (avg path ~3.2
        // hops); the remaining host capacity feeds tax-free direct
        // circuits. Opera admits at most ~10% low-latency load (§5.3).
        let ll_tax = 3.2; // average slice path length (Fig. 4)
        let admitted_ws_o = ws.min(0.10);
        let fabric_frac = admitted_ws_o * ll_tax * d_o / (opera.switches() as f64 - 1.0);
        let bulk_budget = (1.0 - fabric_frac).max(0.0);
        let a2a = ScenarioGen::all_to_all_demands(
            opera.racks(),
            opera_params.hosts_per_rack,
            rate,
            1.0 - admitted_ws_o,
        );
        let bulk_tp = opera_model(&opera, &a2a, rate * bulk_budget, 0.98, true)
            .throughput_fraction()
            * (1.0 - admitted_ws_o);
        let opera_total = admitted_ws_o + bulk_tp;

        // Expander: everything shares the fabric; bulk gets what's left
        // after Websearch, both paying the multipath tax (λ hoisted
        // above — it is load-independent).
        // Websearch load is served first (it is admissible while
        // ws <= lam); bulk gets the residual concurrent capacity.
        let ws_e = ws.min(lam);
        let bulk_e = (lam - ws_e).max(0.0);
        let exp_total = ws_e + bulk_e * (1.0 - ws_e).min(1.0);

        // Clos: admission bound 1/3 independent of mix.
        let clos_cap = clos_throughput(4.0 / 3.0);
        let ws_c = ws.min(clos_cap);
        let clos_total = ws_c + (clos_cap - ws_c);

        (
            vec![Cell::F64(ws)],
            vec![
                opera_total.min(1.0),
                exp_total.min(1.0),
                clos_total.min(1.0),
            ],
        )
    });

    let mut t = RepTableBuilder::new(
        "throughput_vs_websearch_load",
        &["websearch_load"],
        &[
            ("opera", expt::f as MetricFmt),
            ("expander", expt::f),
            ("clos", expt::f),
        ],
    );
    t.sweep_rows(&rows, |_, row| ctx.repeat(row));
    vec![t.build()]
}
