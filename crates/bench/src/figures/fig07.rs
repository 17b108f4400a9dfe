//! Figure 7: FCTs for the Datamining workload on the cost-equivalent
//! trio (Opera / u-expander / 3:1 Clos) plus non-hybrid and hybrid
//! RotorNet, across offered loads.

use crate::figures::{fct_point, fct_tables};
use crate::{clos_cfg, expander_cfg, opera_cfg};
use expt::{Ctx, Experiment, Sweep, Table};
use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use opera::RotorMode;
use simkit::SimTime;
use workloads::dists::Workload;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig07_datamining_fct",
    title: "Figure 7: Datamining FCTs across offered loads",
};

/// The five systems of the figure.
const SYSTEMS: [&str; 5] = [
    "opera",
    "rotornet-nonhybrid",
    "rotornet-hybrid",
    "expander",
    "folded-clos",
];

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let scale = ctx.args.flags.scale;
    let times = ctx.by_scale(
        (SimTime::from_ms(4), SimTime::from_ms(120)),
        (SimTime::from_ms(40), SimTime::from_ms(600)),
        (SimTime::from_ms(50), SimTime::from_ms(800)),
    );
    let loads: &[f64] = ctx.by_scale(&[0.10], &[0.01, 0.10, 0.25], &[0.01, 0.10, 0.25]);

    // Every system at a given load sees the same flow arrivals, so the
    // workload seed depends on the (load index, replicate) pair only.
    let sweep = Sweep::grid2(&SYSTEMS, loads, |s, l| (s, l));
    let results = ctx.run_replicated(&sweep, |&(system, load), rc| {
        let load_idx = rc.point.index % loads.len();
        let seed = expt::replicate_seed(
            expt::derive_seed(ctx.runner.base_seed() ^ 42, load_idx as u64),
            rc.rep,
        );
        let point = (system, load, seed);
        let rotor = |mode| {
            let mut cfg = opera_cfg(scale);
            cfg.mode = mode;
            fct_point::<OperaLogic>(cfg, Workload::Datamining, point, times)
        };
        match system {
            "opera" => rotor(RotorMode::Opera),
            "rotornet-nonhybrid" => rotor(RotorMode::RotorNonHybrid),
            "rotornet-hybrid" => rotor(RotorMode::RotorHybrid),
            "expander" => {
                fct_point::<StaticLogic>(expander_cfg(scale), Workload::Datamining, point, times)
            }
            _ => fct_point::<StaticLogic>(clos_cfg(scale), Workload::Datamining, point, times),
        }
    });

    fct_tables(&results)
}
