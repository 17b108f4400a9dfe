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

use crate::scenario::{self, run_point, ScenarioPoint, Topology, Workload};
use crate::RunRecord;
use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use netsim::FlowTracker;
use simkit::SimTime;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablate_transport",
    title: "Ablation: switch policy x transport matrix (incast + victim workloads)",
};

/// Metrics of one simulated point, aligned with [`METRICS`].
fn metrics_of(tracker: &FlowTracker, run: &RunRecord, victim: bool) -> Vec<f64> {
    let m = scenario::metrics_of(tracker);
    let counter = |name| run.counter(name).unwrap_or(0) as f64;
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
        counter("dropped"),
        counter("trimmed"),
        counter("ecn_marked"),
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

    // Every switch policy and every transport of the scenario
    // vocabulary, on its small instance of each topology family.
    let mut combos = Vec::new();
    for (name, mut topology) in scenario::topologies() {
        if !["opera", "expander", "clos"].contains(&name) {
            continue;
        }
        if let Topology::Rotor(cfg) = &mut topology {
            cfg.params.racks = racks;
        }
        for policy in scenario::policies() {
            for transport in scenario::transports() {
                combos.push((policy, transport, (name, topology.clone())));
            }
        }
    }
    let sweep = Sweep::grid1(&combos, |c| c);

    let per_point = ctx.run_replicated(&sweep, |(policy, transport, topology), rc| {
        scenario::workloads().map(|workload| {
            let mut rng = rc.rng_stream(match workload.1 {
                Workload::Incast => 5,
                Workload::Victim => 6,
            });
            let pt = ScenarioPoint {
                topology: topology.clone(),
                policy: *policy,
                transport: *transport,
                workload,
                senders,
                flow_bytes: size,
                duration: SimTime::from_ms(40),
            };
            let victim = workload.1 == Workload::Victim;
            let metrics = run_point(&pt, "", &mut rng, None, |t, r| metrics_of(t, &r, victim))
                .expect("an untraced run cannot fail");
            let key = [policy.0, transport.0, topology.0, workload.0].map(Cell::from);
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
