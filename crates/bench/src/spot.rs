//! Nightly full-scale spot baselines: a handful of headline numbers at
//! the paper's 648-host configurations, recorded under `goldens/full/`.
//!
//! The quick-mode goldens exercise every code path but tiny networks;
//! most of the figures' *full* sweeps (fig09's Websearch loads, fig10,
//! fig14) are hours of packet simulation — too slow even for a nightly
//! job. The spot suite is the tractable middle: the **exact paper-scale
//! networks** (`Scale::Full`, 648 hosts, 90 µs slices) under **bounded
//! spot workloads** — a partial shuffle and a short Websearch window —
//! plus the one full figure arm that fits, fig08's Opera shuffle of all
//! 419 256 flows (tens of seconds). The headline metrics (shuffle
//! completion time, Websearch p99) regress through the same byte-exact
//! golden comparison as the quick baselines (`figures::golden_run`),
//! manifest included:
//!
//! ```text
//! opera spot            # compare against goldens/full/
//! opera spot --bless    # re-record (commit the goldens/full/ diff)
//! ```
//!
//! Each point also reports what it cost — wall time, events, packet-hops
//! and peak resident memory — on `opera spot`'s standard output, not in
//! its table, so the nightly log records what paper scale costs.

use crate::{clos_cfg, opera_cfg};
use expt::{f, f2, Cell, Scale, Table};
use flowsim::{clos_throughput, opera_model, McfSolver};
use netsim::{FlowTracker, NetWorld};
use opera::opera_net::{self, OperaLogic};
use opera::static_net::StaticLogic;
use opera::PacketNet;
use simkit::stats::nearest_rank;
use simkit::{SimTime, Simulator};
use topo::cost::{expander_racks, expander_uplinks};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::opera::{OperaParams, OperaTopology};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::{PoissonGen, ScenarioGen};
use workloads::FlowSpec;

/// The golden "driver" directory spot baselines live under
/// (`goldens/full/`).
pub const DRIVER: &str = "full";

/// What a spot point built: its table, and the events and packet-hops
/// (fabric deliveries) of its packet simulations, both zero for a
/// flow-level point.
#[derive(Debug)]
pub struct Spot {
    /// The point's golden table.
    pub table: Table,
    /// Simulator events processed.
    pub events: u64,
    /// Packets delivered over a link.
    pub pkt_hops: u64,
}

impl Spot {
    fn new(table: Table) -> Self {
        Spot {
            table,
            events: 0,
            pkt_hops: 0,
        }
    }

    /// Count `sim`'s events and packet-hops toward the point.
    fn count<N: PacketNet>(&mut self, sim: &Simulator<NetWorld<N>>) {
        self.events += sim.events_processed();
        self.pkt_hops += sim.world.fabric.counters.delivered;
    }
}

/// One spot point: a named table builder.
pub type SpotFn = fn() -> Spot;

/// Every spot point, in suite order: `(table name, builder)`.
pub fn all() -> Vec<(&'static str, SpotFn)> {
    vec![
        ("shuffle_648", shuffle_648 as SpotFn),
        ("fig08_opera_648", fig08_opera_648 as SpotFn),
        ("websearch_648", websearch_648 as SpotFn),
        ("fig12_k24", fig12_k24 as SpotFn),
    ]
}

/// Build one point and say what it cost: wall time, events, packet-hops
/// and peak resident memory (`VmHWM` from `/proc/self/status`, reset
/// before the point where the kernel allows it, and otherwise the
/// process's peak so far).
pub fn measure(build: SpotFn) -> (Spot, String) {
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let start = std::time::Instant::now();
    let spot = build();
    let wall = start.elapsed().as_secs_f64();
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.split_whitespace().next()?.parse::<u64>().ok()
        });
    let peak = match hwm_kb {
        Some(kb) if reset => format!("VmHWM {:.1} MiB", kb as f64 / 1024.0),
        Some(kb) => format!("VmHWM {:.1} MiB (process peak)", kb as f64 / 1024.0),
        None => "VmHWM unknown".to_string(),
    };
    let cost = format!(
        "{wall:.2} s wall, {} events, {} packet-hops, {peak}",
        spot.events, spot.pkt_hops
    );
    (spot, cost)
}

/// Mean, nearest-rank 99th percentile and maximum of the tracker's FCTs,
/// in ms, bit for bit what [`simkit::stats::summarize`] makes of them, read
/// in place rather than copied out to sort: the mean is summed in tracker
/// order, and the 99th percentile is bisected over the FCTs' nanoseconds
/// (`as_ms_f64` is monotone, so the rank-k count of nanoseconds is the
/// rank-k value in ms).
fn fct_summary(tracker: &FlowTracker) -> (f64, f64, f64) {
    let fcts = || tracker.flows().iter().filter_map(|f| f.fct());
    let n = fcts().count();
    let Some(max) = fcts().max() else {
        return (f64::NAN, f64::NAN, f64::NAN);
    };
    let mean = fcts().map(SimTime::as_ms_f64).sum::<f64>() / n as f64;
    let rank = nearest_rank(0.99, n);
    // The fewest nanoseconds at least `rank` FCTs are within.
    let (mut lo, mut hi) = (0, max.as_ns());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fcts().filter(|t| t.as_ns() <= mid).count() >= rank {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (mean, SimTime::from_ns(lo).as_ms_f64(), max.as_ms_f64())
}

/// Fig08's headline at paper scale: bulk shuffle time on the 648-host
/// Opera network, every flow over direct circuits. The spot workload is
/// a partial shuffle — each host sends 100 KB to its next
/// `SHUFFLE_PEERS` ring neighbors — so the run measures paper-scale
/// circuit scheduling without fig08's full 648 × 647 flow matrix.
fn shuffle_648() -> Spot {
    const SHUFFLE_PEERS: usize = 16;
    let sim = bulk_shuffle("shuffle_648", SimTime::from_ms(120), |hosts| {
        let mut flows = Vec::with_capacity(hosts * SHUFFLE_PEERS);
        for src in 0..hosts {
            for k in 1..=SHUFFLE_PEERS {
                flows.push(FlowSpec {
                    src,
                    dst: (src + k * (hosts / SHUFFLE_PEERS + 1)) % hosts,
                    size: 100_000,
                    start: SimTime::ZERO,
                });
            }
        }
        flows
    });
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
        Cell::from(t.len()),
        Cell::from(t.completed()),
        f2(max),
        f2(p99),
        f2(mean),
    ]);
    let mut spot = Spot::new(out);
    spot.count(&sim);
    spot
}

/// The paper's 648-host Opera network with every flow tagged bulk by the
/// application (§3.4), run on the flows `flows` draws for its host count,
/// all starting at once, until drained or `horizon`.
fn bulk_shuffle(
    name: &str,
    horizon: SimTime,
    flows: impl FnOnce(usize) -> Vec<FlowSpec>,
) -> opera_net::OperaNet {
    let mut cfg = opera_cfg(Scale::Full);
    cfg.bulk_threshold = 0;
    let flows = flows(cfg.hosts());
    let mut sim = opera_net::build(cfg, flows);
    crate::run_net(&mut sim, horizon, format_args!("spot/{name}"));
    sim
}

/// Fig08's Opera arm at paper scale, whole: every one of the 648 hosts
/// sends 100 KB to every other (419 256 flows), all tagged bulk and
/// starting together, to a 400 ms horizon. The point pins that RotorLB
/// completes every flow and that no packet is dropped anywhere, and
/// records the shuffle's completion time and the largest bulk backlog a
/// ToR's host port held (the last hop takes bulk past its queue cap).
fn fig08_opera_648() -> Spot {
    let sim = bulk_shuffle("fig08_opera_648", SimTime::from_ms(400), |hosts| {
        ScenarioGen::shuffle(hosts, 100_000, SimTime::ZERO)
    });
    let t = sim.world.logic.tracker();
    let (mean, p99, max) = fct_summary(t);
    let mut out = Table::new(
        "fig08_opera_648",
        &[
            "network",
            "flows",
            "completed",
            "dropped",
            "downlink_peak_kb",
            "shuffle_ms",
            "p99_fct_ms",
            "mean_fct_ms",
        ],
    );
    out.push(vec![
        Cell::from("opera-648"),
        Cell::from(t.len()),
        Cell::from(t.completed()),
        Cell::from(sim.world.fabric.counters.dropped as usize),
        f2(sim.world.logic.counters.bulk_downlink_peak as f64 / 1e3),
        f2(max),
        f2(p99),
        f2(mean),
    ]);
    let mut spot = Spot::new(out);
    spot.count(&sim);
    spot
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
fn fig12_k24() -> Spot {
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
    Spot::new(out)
}

/// Fig09's headline at paper scale: Websearch p99 FCT on the 648-host
/// Opera network (every flow under the bulk threshold, riding indirect
/// expander paths) against the cost-equivalent 3:1 folded Clos. The
/// spot workload is one short Poisson window at 10% load.
fn websearch_648() -> Spot {
    const LOAD: f64 = 0.10;
    fn row<N: PacketNet>(network: &str, cfg: N::Config, spot: &mut Spot) {
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
        spot.table.push(vec![
            Cell::from(network),
            Cell::F64(LOAD),
            Cell::from(offered),
            Cell::from(tracker.completed()),
            f2(p99),
            f2(mean),
        ]);
        spot.count(&sim);
    }
    let table = Table::new(
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
    let mut spot = Spot::new(table);
    let mut opera = opera_cfg(Scale::Full);
    opera.bulk_threshold = 20_000_000; // fig09's premise: all low-latency
    row::<OperaLogic>("opera-648", opera, &mut spot);
    row::<StaticLogic>("folded-clos-648", clos_cfg(Scale::Full), &mut spot);
    spot
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::FlowClass;
    use simkit::stats::summarize;
    use simkit::SimRng;

    /// The in-place summary equals `summarize` over the copied FCTs bit for
    /// bit: ties, unfinished flows, one flow, none, and 0-ns FCTs.
    #[test]
    fn fct_summary_is_the_summary_of_the_fcts() {
        let mut rng = SimRng::new(46);
        for flows in [0, 1, 2, 99, 100, 101, 1_000, 4_321] {
            let mut tracker = FlowTracker::new();
            for id in 0..flows {
                let start = SimTime::from_ns(rng.index(1_000) as u64);
                tracker.register(0, 1, 1, FlowClass::LowLatency, start);
                // Every fifth flow stays unfinished; FCTs repeat.
                if id % 5 != 4 {
                    let fct = SimTime::from_ns(rng.index(64) as u64 * 1_000_003);
                    tracker.deliver(id as u32, 1, start + fct);
                }
            }
            let want = summarize(
                tracker
                    .flows()
                    .iter()
                    .filter_map(|f| f.fct())
                    .map(SimTime::as_ms_f64),
            );
            let (mean, p99, max) = fct_summary(&tracker);
            let bits = |x: f64| x.to_bits();
            assert_eq!(
                [bits(mean), bits(p99), bits(max)],
                [bits(want.mean), bits(want.p99), bits(want.max)],
                "{flows} flows"
            );
        }
    }
}
