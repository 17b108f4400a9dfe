//! Ablation: the switch-policy × transport matrix.
//!
//! The paper commits to one pairing — NDP over trimming switches for the
//! low-latency class (§4.2) — with a sentence of justification. This
//! ablation makes the alternatives concrete: every
//! [`netsim::SwitchPolicyKind`] (drop-tail, NDP trim, PFC, ECN marking)
//! crossed with every [`transport::TransportKind`] (NDP, DCTCP,
//! go-back-N) on three topologies (Opera's time-varying expander, a
//! static expander, a folded Clos), under the two workloads where the
//! pairing matters most:
//!
//! * **incast** — many senders converge on one host; the switch queue at
//!   the last hop is the whole story;
//! * **victim** — one moderate flow shares that congested region; its
//!   FCT shows collateral damage (PFC head-of-line blocking, drop-tail
//!   timeouts) that aggregate counters hide.
//!
//! Mismatched pairings are run on purpose: go-back-N over trimming
//! switches recovers trims only by timeout, DCTCP over drop-tail sees no
//! marks, NDP over PFC never trims. The `completed`/`dropped`/`trimmed`/
//! `marked` columns make each mechanism's fingerprint visible.

use crate::scenario::{
    self, policy_of, transport_of, workload_flows, KNOWN_POLICIES, KNOWN_TRANSPORTS,
};
use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use netsim::fabric::{FabricCounters, QueueConfig};
use netsim::{FlowTracker, SwitchPolicyKind};
use opera::opera_net::OperaLogic;
use opera::static_net::{StaticLogic, StaticNetConfig, StaticTopologyKind};
use opera::{OperaNetConfig, PacketNet};
use simkit::{SimRng, SimTime};
use topo::clos::ClosParams;
use transport::TransportKind;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablate_transport",
    title: "Ablation: switch policy x transport matrix (incast + victim workloads)",
};

/// One point of the matrix sweep.
type Combo = (
    &'static str,
    SwitchPolicyKind,
    &'static str,
    TransportKind,
    &'static str,
);

/// Every switch policy and every transport the scenario registry names.
fn policies() -> [(&'static str, SwitchPolicyKind); 4] {
    KNOWN_POLICIES.map(|name| (name, policy_of(name).expect("a known policy")))
}

fn transports() -> [(&'static str, TransportKind); 3] {
    KNOWN_TRANSPORTS.map(|name| (name, transport_of(name).expect("a known transport")))
}

const TOPOLOGIES: [&str; 3] = ["opera", "expander", "clos"];

/// Metrics of one simulated point, aligned with [`METRICS`].
fn metrics_of(tracker: &FlowTracker, counters: &FabricCounters, victim: bool) -> Vec<f64> {
    let m = scenario::metrics_of(tracker, counters);
    let victim_fct = if victim {
        tracker.get(0).fct().map(|t| t.as_us_f64())
    } else {
        None
    };
    // Absent values (no completions; victim column on incast rows) are 0,
    // not NaN: the replicate summarizer rejects NaN samples.
    vec![
        m.completed as f64,
        m.offered as f64,
        m.avg_fct_us,
        m.p99_fct_us,
        victim_fct.unwrap_or(0.0),
        m.dropped as f64,
        m.trimmed as f64,
        m.marked as f64,
    ]
}

/// One scenario on the network `N` that `cfg` describes, `quiet` adjusting
/// the built network: the [`metrics_of`] its 40 ms run.
fn run_scenario<N: PacketNet>(
    cfg: N::Config,
    quiet: impl FnOnce(&mut N),
    scenario: &str,
    (senders, size): (usize, u64),
    rng: &mut SimRng,
) -> Vec<f64> {
    let flows = workload_flows(scenario, N::hosts(&cfg), senders, size, rng);
    let mut sim = N::build(cfg, flows);
    quiet(&mut sim.world.logic);
    sim.run_until(SimTime::from_ms(40));
    metrics_of(
        sim.world.logic.tracker(),
        &sim.world.fabric.counters,
        scenario == "victim",
    )
}

/// Metric columns of the matrix table.
const METRICS: [(&str, MetricFmt); 8] = [
    ("completed", expt::f2),
    ("offered", expt::f2),
    ("avg_fct_us", expt::f2),
    ("p99_fct_us", expt::f2),
    ("victim_fct_us", expt::f2),
    ("dropped", expt::f2),
    ("trimmed", expt::f2),
    ("marked", expt::f2),
];

/// Build the matrix table: every policy × transport × topology point,
/// incast and victim scenarios as separate rows of the same point.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let senders: usize = ctx.by_scale(8, 16, 24);
    let size: u64 = ctx.by_scale(15_000, 30_000, 30_000);
    let racks: usize = ctx.by_scale(8, 8, 16);

    let mut combos: Vec<Combo> = Vec::new();
    for topo in TOPOLOGIES {
        for (pl, pk) in policies() {
            for (tl, tk) in transports() {
                combos.push((pl, pk, tl, tk, topo));
            }
        }
    }
    let sweep = Sweep::grid1(&combos, |c| c);
    let sref = ctx.sweep_ref(&sweep);

    let per_point = ctx.run_replicated(&sweep, |&(pl, pk, tl, tk, topo), rc| {
        let mut rows = Vec::new();
        for scenario in ["incast", "victim"] {
            let mut rng = rc.rng_stream(match scenario {
                "incast" => 5,
                _ => 6,
            });
            let key = vec![
                Cell::from(pl),
                Cell::from(tl),
                Cell::from(topo),
                Cell::from(scenario),
            ];
            let queues = QueueConfig::builder().policy(pk).build();
            let load = (senders, size);
            let metrics = match topo {
                "opera" => {
                    let mut cfg = OperaNetConfig::small_test();
                    cfg.params.racks = racks;
                    cfg.bulk_threshold = u64::MAX; // everything low-latency
                    cfg.queues = queues;
                    cfg.transport = tk;
                    let no_hellos = |net: &mut OperaLogic| net.set_hello_enabled(false);
                    run_scenario(cfg, no_hellos, scenario, load, &mut rng)
                }
                _ => {
                    let mut cfg = StaticNetConfig::small_expander();
                    if topo == "clos" {
                        cfg.kind = StaticTopologyKind::FoldedClos(ClosParams {
                            radix: 4,
                            oversubscription: 1,
                        });
                    }
                    cfg.queues = queues;
                    cfg.transport = tk;
                    run_scenario(cfg, |_: &mut StaticLogic| {}, scenario, load, &mut rng)
                }
            };
            rows.push((key, metrics));
        }
        rows
    });

    let mut out = RepTableBuilder::new(
        "matrix",
        &["policy", "transport", "topology", "scenario"],
        &METRICS,
    )
    .for_sweep(&sref);
    for (point, &p) in per_point.into_iter().zip(&sref.owned) {
        for rep in point {
            for (key, metrics) in rep {
                out.push_at(p, key, &metrics);
            }
        }
    }
    vec![out.build()]
}
