//! Nightly full-scale spot baselines: a handful of headline numbers at
//! the paper's 648-host configurations, recorded under `goldens/full/`.
//!
//! The quick-mode goldens exercise every code path but tiny networks;
//! the figures' *full* sweeps (fig08's all-to-all shuffle, fig09's
//! Websearch loads) are hours of packet simulation — too slow even for
//! a nightly job. The spot suite is the tractable middle: the **exact
//! paper-scale networks** (`Scale::Full`, 648 hosts, 90 µs slices) under
//! a **bounded spot workload** — a partial shuffle and a short
//! Websearch window — sized so the whole suite fits a nightly CI
//! budget. The headline metrics (shuffle completion time, Websearch
//! p99) regress through the same tolerance-aware golden machinery as
//! the quick baselines, manifest included:
//!
//! ```text
//! opera spot            # compare against goldens/full/
//! opera spot --bless    # re-record (commit the goldens/full/ diff)
//! ```

use crate::{clos_cfg, opera_cfg};
use expt::{f, f2, Cell, Scale, Table};
use flowsim::{clos_throughput, opera_model, McfSolver};
use netsim::FlowTracker;
use opera::opera_net::{self, OperaLogic};
use opera::static_net::StaticLogic;
use opera::PacketNet;
use simkit::SimTime;
use topo::cost::{expander_racks, expander_uplinks};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::opera::{OperaParams, OperaTopology};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::{PoissonGen, ScenarioGen};
use workloads::FlowSpec;

/// The golden "driver" directory spot baselines live under
/// (`goldens/full/`).
pub const DRIVER: &str = "full";

/// One spot point: a named table builder.
pub type SpotFn = fn() -> Table;

/// Every spot point, in suite order: `(table name, builder)`.
pub fn all() -> Vec<(&'static str, SpotFn)> {
    vec![
        ("shuffle_648", shuffle_648 as SpotFn),
        ("websearch_648", websearch_648 as SpotFn),
        ("fig12_k24", fig12_k24 as SpotFn),
    ]
}

fn fct_summary(tracker: &FlowTracker) -> (f64, f64, f64) {
    let s = expt::summarize(
        tracker
            .flows()
            .iter()
            .filter_map(|f| f.fct())
            .map(|x| x.as_ms_f64()),
    );
    (s.mean, s.p99, s.max)
}

/// Fig08's headline at paper scale: bulk shuffle time on the 648-host
/// Opera network, every flow over direct circuits. The spot workload is
/// a partial shuffle — each host sends 100 KB to its next
/// `SHUFFLE_PEERS` ring neighbors — so the run measures paper-scale
/// circuit scheduling without fig08's full 648 × 647 flow matrix.
fn shuffle_648() -> Table {
    const SHUFFLE_PEERS: usize = 16;
    const FLOW_SIZE: u64 = 100_000;
    let mut cfg = opera_cfg(Scale::Full);
    cfg.bulk_threshold = 0; // application tags everything bulk (§3.4)
    let hosts = cfg.hosts();
    let mut flows = Vec::with_capacity(hosts * SHUFFLE_PEERS);
    for src in 0..hosts {
        for k in 1..=SHUFFLE_PEERS {
            flows.push(FlowSpec {
                src,
                dst: (src + k * (hosts / SHUFFLE_PEERS + 1)) % hosts,
                size: FLOW_SIZE,
                start: SimTime::ZERO,
            });
        }
    }
    let offered = flows.len();
    let mut sim = opera_net::build(cfg, flows);
    crate::run_net(
        &mut sim,
        SimTime::from_ms(120),
        format_args!("spot/shuffle_648"),
    );
    let t = sim.world.logic.tracker();
    let (mean, p99, max) = fct_summary(t);
    let mut out = Table::new(
        "shuffle_648",
        &[
            "network",
            "flows",
            "completed",
            "shuffle_ms",
            "p99_fct_ms",
            "mean_fct_ms",
        ],
    );
    out.push(vec![
        Cell::from("opera-648"),
        Cell::from(offered),
        Cell::from(t.completed()),
        f2(max),
        f2(p99),
        f2(mean),
    ]);
    out
}

/// Fig12's headline at the paper's `k = 24` radix (5184 hosts): one
/// flow-level throughput point — the hot-rack workload at α = 1.0 —
/// through the same Opera duty-cycle model and expander
/// max-concurrent-flow solve as the figure's full sweep, plus the
/// figure's all-to-all reference (`opera_all_to_all`). The quick
/// goldens only ever solve `k = 8`; this pins the paper-scale solver
/// path (432-rack Opera, cost-equivalent expander MCF at 60
/// iterations) nightly. The hot-rack point never reaches the Valiant
/// phase's all-pairs routes; the all-to-all reference gives every one
/// of its 186 192 demands one. Both demand sets are closed-form, so the
/// point needs no RNG and is exactly reproducible.
fn fig12_k24() -> Table {
    const K: usize = 24;
    const ALPHA: f64 = 1.0;
    let rate = 10.0;
    let duty = 0.98;
    let d_opera = K / 2;
    let racks_opera = 3 * K * K / 4;
    let hosts = racks_opera * d_opera;

    let opera = OperaTopology::generate(OperaParams::from_radix(K, racks_opera), 5);
    let demands = ScenarioGen::hotrack_demands(d_opera, rate);
    let o = opera_model(&opera, &demands, rate, duty, true).throughput_fraction();
    let a2a = ScenarioGen::all_to_all_demands(racks_opera, d_opera, rate, 1.0);
    let o_a2a = opera_model(&opera, &a2a, rate, duty, true).throughput_fraction();

    // Cost-equivalent expander at α = 1.0, as fig12 builds it.
    let u = expander_uplinks(ALPHA, K).clamp(3, K - 1);
    let de = K - u;
    let racks_e = expander_racks(hosts, K, u);
    let exp = ExpanderTopology::generate(
        ExpanderParams {
            racks: racks_e,
            uplinks: u,
            hosts_per_rack: de,
        },
        7,
    );
    let demands_e = ScenarioGen::hotrack_demands(de, rate);
    let tor: Vec<usize> = (0..racks_e).collect();
    let e = McfSolver::new(exp.graph())
        .solve(&tor, &demands_e, rate, de as f64 * rate, 60)
        .lambda;
    let c = clos_throughput(ALPHA);

    let mut out = Table::new(
        "fig12_k24",
        &[
            "workload",
            "alpha",
            "k",
            "hosts",
            "opera",
            "expander",
            "clos",
            "opera_all_to_all",
        ],
    );
    out.push(vec![
        Cell::from("hotrack"),
        Cell::F64(ALPHA),
        Cell::from(K),
        Cell::from(hosts),
        f(o),
        f(e),
        f(c),
        f(o_a2a),
    ]);
    out
}

/// Fig09's headline at paper scale: Websearch p99 FCT on the 648-host
/// Opera network (every flow under the bulk threshold, riding indirect
/// expander paths) against the cost-equivalent 3:1 folded Clos. The
/// spot workload is one short Poisson window at 10% load.
fn websearch_648() -> Table {
    const LOAD: f64 = 0.10;
    fn row<N: PacketNet>(network: &str, cfg: N::Config) -> Vec<Cell> {
        let dist = FlowSizeDist::of(Workload::Websearch);
        let flows =
            PoissonGen::new(dist, N::hosts(&cfg), 10.0, LOAD, 0).flows_until(SimTime::from_ms(10));
        let offered = flows.len();
        let mut sim = N::build(cfg, flows);
        crate::run_net(
            &mut sim,
            SimTime::from_ms(60),
            format_args!("spot/websearch_648/{network}"),
        );
        let tracker = sim.world.logic.tracker();
        let (mean, p99, _) = fct_summary(tracker);
        vec![
            Cell::from(network),
            Cell::F64(LOAD),
            Cell::from(offered),
            Cell::from(tracker.completed()),
            f2(p99),
            f2(mean),
        ]
    }
    let mut out = Table::new(
        "websearch_648",
        &[
            "network",
            "load",
            "flows",
            "completed",
            "p99_fct_ms",
            "mean_fct_ms",
        ],
    );
    let mut opera = opera_cfg(Scale::Full);
    opera.bulk_threshold = 20_000_000; // fig09's premise: all low-latency
    out.push(row::<OperaLogic>("opera-648", opera));
    out.push(row::<StaticLogic>("folded-clos-648", clos_cfg(Scale::Full)));
    out
}
