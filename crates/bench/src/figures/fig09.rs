//! Figure 9: FCTs for the Websearch workload — Opera's worst case, since
//! every flow is under the bulk threshold and rides indirect expander
//! paths paying the bandwidth tax.

use crate::figures::{fct_point, fct_tables};
use crate::{clos_cfg, expander_cfg, opera_cfg};
use expt::{Ctx, Experiment, Sweep, Table};
use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use simkit::SimTime;
use workloads::dists::Workload;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig09_websearch_fct",
    title: "Figure 9: Websearch FCTs (all flows low-latency in Opera)",
};

const SYSTEMS: [&str; 3] = ["opera", "expander", "folded-clos"];

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let scale = ctx.args.scale;
    let times = ctx.by_scale(
        (SimTime::from_ms(2), SimTime::from_ms(80)),
        (SimTime::from_ms(6), SimTime::from_ms(200)),
        (SimTime::from_ms(40), SimTime::from_ms(500)),
    );
    let loads: &[f64] = ctx.by_scale(&[0.05], &[0.01, 0.05, 0.10], &[0.01, 0.05, 0.10]);

    let sweep = Sweep::grid2(&SYSTEMS, loads, |s, l| (s, l));
    let results = ctx.run_replicated(&sweep, |&(system, load), rc| {
        let load_idx = rc.point.index % loads.len();
        let seed = expt::replicate_seed(
            expt::derive_seed(ctx.runner.base_seed() ^ 17, load_idx as u64),
            rc.rep,
        );
        let point = (system, load, seed);
        match system {
            "opera" => {
                let mut cfg = opera_cfg(scale);
                // Figure 9's premise: every Websearch flow sits below the
                // bulk threshold (15 MB at paper scale) and rides
                // indirect paths.
                cfg.bulk_threshold = 20_000_000;
                fct_point::<OperaLogic>(cfg, Workload::Websearch, point, times)
            }
            "expander" => {
                fct_point::<StaticLogic>(expander_cfg(scale), Workload::Websearch, point, times)
            }
            _ => fct_point::<StaticLogic>(clos_cfg(scale), Workload::Websearch, point, times),
        }
    });

    fct_tables(&results)
}
