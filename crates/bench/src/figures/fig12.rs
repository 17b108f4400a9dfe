//! Figures 12 and 15, folded into one parameterized driver: throughput
//! vs relative cost α for hot-rack, skew[0.2,1], and permutation
//! workloads at ToR radix `k`, flow-level.
//!
//! Figure 12 is `k = 24` (5184 hosts), Figure 15 the `k = 12` (648-host)
//! version the paper's Appendix C shows to scale identically. Pass
//! `--k K` to select the radix explicitly; otherwise quick mode uses
//! `k = 8`, the default `k = 12`, and `--full` the paper's `k = 24`.

use crate::cost_equivalent_expander;
use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use flowsim::models::Demand;
use flowsim::{clos_throughput, max_concurrent_flow, opera_model};
use topo::expander::ExpanderTopology;
use topo::opera::{OperaParams, OperaTopology};
use workloads::gen::ScenarioGen;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig12_cost_sweep",
    title: "Figures 12/15: throughput vs relative cost alpha (flow-level)",
};

const WORKLOADS: [&str; 3] = ["hotrack", "skew02", "permutation"];

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let k = ctx.args.k.unwrap_or_else(|| ctx.by_scale(8, 12, 24));
    let rate = 10.0;
    let duty = 0.98;
    let d_opera = k / 2;
    let racks_opera = 3 * k * k / 4;
    let hosts = racks_opera * d_opera;
    let opera = OperaTopology::generate(OperaParams::from_radix(k, racks_opera), 5);
    let alphas: &[f64] = ctx.by_scale(
        &[1.0, 1.5, 2.0],
        &[1.0, 1.25, 1.5, 1.75, 2.0],
        &[1.0, 1.25, 1.5, 1.75, 2.0],
    );
    let mcf_iters: usize = ctx.by_scale(25, 60, 60);

    // Opera's α-independent throughput, computed once per (workload,
    // replicate): the demand matrices of the seeded workloads vary with
    // the replicate seed.
    let reps = ctx.replicates();
    let opera_side: Vec<Vec<f64>> = WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            (0..reps)
                .map(|rep| {
                    let mut rng = ctx.runner.point_ctx(i).replicate(rep).rng_stream(21);
                    let demands = match name {
                        "hotrack" => ScenarioGen::hotrack_demands(d_opera, rate),
                        "skew02" => {
                            ScenarioGen::skew_demands(racks_opera, 0.2, d_opera, rate, &mut rng)
                        }
                        _ => ScenarioGen::permutation_demands(racks_opera, d_opera, rate, &mut rng),
                    };
                    opera_model(&opera, &demands, rate, duty, true).throughput_fraction()
                })
                .collect()
        })
        .collect();

    // The cost-equivalent expander depends only on α (topology seed 7
    // is fixed), so build one instance per α instead of regenerating it
    // per (workload, α, replicate) inside the sweep closure.
    let expanders: Vec<ExpanderTopology> = alphas
        .iter()
        .map(|&alpha| cost_equivalent_expander(alpha, k, hosts, 7))
        .collect();

    // Hot-rack demands are closed-form (no RNG, replicate-independent)
    // and the expander is a function of its uplink count `u` alone, so
    // that workload's λ is solved once per distinct `u` and reused for
    // every α that repeats it.
    let mut solved: Vec<(usize, f64)> = Vec::new();
    let hot_lambda: Vec<f64> = expanders
        .iter()
        .map(|exp| {
            let (u, de) = (exp.params().uplinks, exp.params().hosts_per_rack);
            if let Some(&(_, lambda)) = solved.iter().find(|&&(v, _)| v == u) {
                return lambda;
            }
            let demands = ScenarioGen::hotrack_demands(de, rate);
            let tor: Vec<usize> = (0..exp.racks()).collect();
            let cap = de as f64 * rate;
            let lambda =
                max_concurrent_flow(exp.graph(), &tor, &demands, rate, cap, mcf_iters).lambda;
            solved.push((u, lambda));
            lambda
        })
        .collect();

    // The expensive part — one max-concurrent-flow solve per
    // (workload, α, replicate) — fans out over the runner.
    let alpha_idx: Vec<usize> = (0..alphas.len()).collect();
    let sweep = Sweep::grid2(&[0usize, 1, 2], &alpha_idx, |w, ai| (w, ai));
    let rows = ctx.run_replicated(&sweep, |&(wi, ai), rc| {
        let name = &WORKLOADS[wi];
        let alpha = alphas[ai];
        let o = &opera_side[wi][rc.rep];
        let exp = &expanders[ai];
        let de = exp.params().hosts_per_rack;
        let racks_e = exp.racks();
        let e = if *name == "hotrack" {
            hot_lambda[ai]
        } else {
            // Map the workload onto the expander's rack count.
            let mut rng_e = rc.rng_stream(31);
            let demands_e: Vec<Demand> = match *name {
                "skew02" => ScenarioGen::skew_demands(racks_e, 0.2, de, rate, &mut rng_e),
                _ => ScenarioGen::permutation_demands(racks_e, de, rate, &mut rng_e),
            };
            let tor: Vec<usize> = (0..racks_e).collect();
            max_concurrent_flow(
                exp.graph(),
                &tor,
                &demands_e,
                rate,
                de as f64 * rate,
                mcf_iters,
            )
            .lambda
        };
        let c = clos_throughput(alpha);
        (vec![Cell::from(*name), Cell::F64(alpha)], vec![*o, e, c])
    });

    let mut sweep_table = RepTableBuilder::new(
        "throughput_vs_alpha",
        &["workload", "alpha"],
        &[
            ("opera", expt::f as MetricFmt),
            ("expander", expt::f),
            ("clos", expt::f),
        ],
    );
    sweep_table.sweep_rows(&rows, |_, reps| reps);
    // Header metadata the old driver printed as a comment.
    let mut meta = Table::new("config", &["k", "racks", "hosts"]);
    meta.push(vec![
        Cell::from(k),
        Cell::from(racks_opera),
        Cell::from(hosts),
    ]);

    // All-to-all shuffle reference (Opera's direct-path advantage) —
    // closed-form demands, so one computation stands for every replicate.
    let a2a = ScenarioGen::all_to_all_demands(racks_opera, d_opera, rate, 1.0);
    let o = opera_model(&opera, &a2a, rate, duty, true).throughput_fraction();
    let mut reference = RepTableBuilder::new(
        "all_to_all_reference",
        &["workload", "network"],
        &[("throughput", expt::f as MetricFmt)],
    );
    reference.extend(ctx.repeat((vec![Cell::from("all_to_all"), Cell::from("opera")], vec![o])));

    vec![meta, sweep_table.build(), reference.build()]
}
