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

use crate::scenario::{self, run_named, KNOWN_POLICIES, KNOWN_TRANSPORTS};
use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use netsim::fabric::FabricCounters;
use netsim::FlowTracker;
use simkit::SimTime;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablate_transport",
    title: "Ablation: switch policy x transport matrix (incast + victim workloads)",
};

/// The scenario registry's small instance of each topology family.
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

    // Every switch policy and every transport the scenario registry
    // names, on every topology.
    let mut combos = Vec::new();
    for topo in TOPOLOGIES {
        for policy in KNOWN_POLICIES {
            for transport in KNOWN_TRANSPORTS {
                combos.push((policy, transport, topo));
            }
        }
    }
    let sweep = Sweep::grid1(&combos, |c| c);

    let per_point = ctx.run_replicated(&sweep, |&(policy, transport, topo), rc| {
        ["incast", "victim"].map(|scenario| {
            let mut rng = rc.rng_stream(match scenario {
                "incast" => 5,
                _ => 6,
            });
            let metrics = run_named(
                (topo, (topo == "opera").then_some(racks)),
                (policy, transport),
                (scenario, senders, size),
                SimTime::from_ms(40),
                &mut rng,
                None,
                |t, c| metrics_of(t, c, scenario == "victim"),
            )
            .expect("the matrix uses the registry's own names and no trace");
            let key = [policy, transport, topo, scenario].map(Cell::from);
            (key.to_vec(), metrics)
        })
    });

    let mut out = RepTableBuilder::new(
        "matrix",
        &["policy", "transport", "topology", "scenario"],
        &METRICS,
    );
    out.sweep_rows(&per_point, |_, reps| reps.iter().flatten());
    vec![out.build()]
}
