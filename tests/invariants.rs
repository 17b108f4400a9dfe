//! Physical-sanity invariants of the simulation layers the golden
//! baselines are built on. A golden diff says *what* moved; these say a
//! result was never physically meaningful in the first place:
//!
//! * packet-level (`netsim`/`transport` via `opera::opera_net`): FCTs
//!   are non-negative, finite, and no faster than line rate; received
//!   bytes are conserved (never exceed the flow size, exactly reach it
//!   on completion); a run stops drained, soon after its last flow,
//!   with no packet parked and no event pending but the rotor clock;
//! * fluid-level (`flowsim`): allocated rates are non-negative, never
//!   exceed the offered demand, and aggregate throughput never exceeds
//!   what the line rate admits.

use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use opera::{OperaNetConfig, PacketNet, RotorMode, StaticNetConfig, StaticTopologyKind};
use proptest::prelude::*;
use simkit::SimTime;
use topo::clos::ClosParams;
use topo::opera::{OperaParams, OperaTopology};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::PoissonGen;
use workloads::FlowSpec;

/// Line rate of every simulated link (Gb/s = bits/ns).
const GBPS: f64 = 10.0;

#[test]
fn packet_sim_fcts_are_physical() {
    let cfg = opera::OperaNetConfig::small_test();
    let hosts = cfg.hosts();
    let mut gen = PoissonGen::new(FlowSizeDist::of(Workload::Websearch), hosts, GBPS, 0.2, 7);
    // A Poisson batch for variety plus fixed small flows so at least
    // some completions are guaranteed inside the horizon.
    let mut flows = gen.flows_until(SimTime::from_ms(2));
    for i in 0..12 {
        flows.push(workloads::FlowSpec {
            src: i % hosts,
            dst: (i + hosts / 2) % hosts,
            size: 20_000 + 10_000 * i as u64,
            start: SimTime::from_us(5 * i as u64),
        });
    }
    let mut sim = opera::opera_net::build(cfg, flows);
    OperaLogic::run(&mut sim, SimTime::from_ms(200));
    let tracker = sim.world.logic.tracker();
    assert!(tracker.completed() > 0, "no flow completed");
    for f in tracker.flows() {
        // Byte conservation: delivered payload never exceeds the flow
        // size, and completion means exactly the full size arrived.
        assert!(f.received <= f.size, "over-delivered: {f:?}");
        match f.fct() {
            Some(fct) => {
                assert_eq!(f.received, f.size, "finished short: {f:?}");
                let ns = fct.as_ns() as f64;
                assert!(ns.is_finite() && ns >= 0.0, "unphysical FCT: {f:?}");
                // Throughput <= line rate: a flow cannot finish faster
                // than its payload serializes at 10 Gb/s on one link.
                let min_ns = f.size as f64 * 8.0 / GBPS;
                assert!(
                    ns >= min_ns,
                    "flow beat line rate: {ns} ns < {min_ns} ns for {f:?}"
                );
            }
            None => assert!(f.finish.is_none()),
        }
    }
}

/// The four packet networks: Opera, hybrid RotorNet (whose three rotor
/// uplinks must divide the rack count), the static expander and the
/// folded Clos.
fn opera() -> OperaNetConfig {
    OperaNetConfig::small_test()
}
fn hybrid() -> OperaNetConfig {
    let mut cfg = OperaNetConfig::small_test();
    cfg.params.racks = 24;
    cfg.mode = RotorMode::RotorHybrid;
    cfg
}
fn expander() -> StaticNetConfig {
    StaticNetConfig::small_expander()
}
fn clos() -> StaticNetConfig {
    StaticNetConfig {
        kind: StaticTopologyKind::FoldedClos(ClosParams {
            radix: 4,
            oversubscription: 3,
        }),
        ..StaticNetConfig::small_expander()
    }
}

/// The `at_sim_end` check, on the predicate [`PacketNet::run`] stops on:
/// once every flow has completed and the wires have drained, no packet is
/// left parked in the fabric's arena (a leak there would be an `Arrive`
/// nobody delivered, or a loss path that kept its slot) and the event
/// queue holds nothing but the network's `CLOCK_EVENTS`. And the predicate
/// fires when it should: the last thing a finished flow leaves queued is
/// its sender's final RTO check, so the run ends within one RTO of the
/// last completion, plus two `slice`s on a rotor network for the hello
/// exchange in progress; `slice` is zero for a static one.
fn drained<N: PacketNet>(name: &str, cfg: N::Config, slice: SimTime) {
    let hosts = N::hosts(&cfg);
    let flows = (0..24)
        .map(|i| FlowSpec {
            src: i % hosts,
            dst: (i + hosts / 2 + i / hosts) % hosts,
            // The largest cross Opera's bulk threshold.
            size: 3_000 + 47_000 * i as u64,
            // Far enough apart that flows rarely collide: a trimmed NDP
            // flow can leave its sender re-arming an idle RTO for ever
            // (ROADMAP 4b), and such a run never drains.
            start: SimTime::from_ms(i as u64),
        })
        .collect();
    let mut sim = N::build(cfg, flows);
    assert!(
        N::run(&mut sim, SimTime::from_ms(300)),
        "{name}: ran to the horizon"
    );
    assert!(N::drained(&sim), "{name}: stopped undrained");
    let tracker = sim.world.logic.tracker();
    assert!(tracker.all_done(), "{name}: not drained");
    assert!(sim.world.fabric.arena_peak_live() > 0);
    assert_eq!(sim.world.fabric.parked_packets(), 0, "{name}: leaked");
    assert_eq!(
        sim.pending(),
        N::CLOCK_EVENTS,
        "{name}: non-periodic events left"
    );
    let last = tracker.flows().iter().filter_map(|f| f.finish).max();
    let bound = last.expect("flows finished") + transport::ndp::RTO + slice + slice;
    assert!(
        sim.now() <= bound,
        "{name}: drained at {}, last flow finished at {last:?}",
        sim.now()
    );
}

#[test]
fn drained_runs_leave_nothing_parked() {
    drained::<OperaLogic>("opera", opera(), opera().timing.slice());
    drained::<OperaLogic>("hybrid rotornet", hybrid(), hybrid().timing.slice());
    drained::<StaticLogic>("expander", expander(), SimTime::ZERO);
    drained::<StaticLogic>("folded clos", clos(), SimTime::ZERO);
}

/// Flows handed to `build` in any order are injected, and so numbered, in
/// start order, flows with equal starts in the order given: flow ids are
/// dense and `get(i)` is the `i`-th arrival.
fn registered_in_start_order<N: PacketNet>(name: &str, cfg: N::Config) {
    let hosts = N::hosts(&cfg);
    let mut flows: Vec<FlowSpec> = (0..20)
        .map(|i| FlowSpec {
            src: i % hosts,
            dst: (i + hosts / 2) % hosts,
            size: 5_000 + 100 * i as u64,
            // Pairs of flows share a start.
            start: SimTime::from_us(10 * (i as u64 / 2)),
        })
        .collect();
    let mut rng = simkit::SimRng::new(11);
    for i in (1..flows.len()).rev() {
        flows.swap(i, rng.index(i + 1));
    }
    let mut expected = flows.clone();
    expected.sort_by_key(|f| f.start);
    assert_ne!(
        flows.iter().map(|f| f.size).collect::<Vec<_>>(),
        expected.iter().map(|f| f.size).collect::<Vec<_>>(),
        "the shuffle left the flows sorted"
    );

    let mut sim = N::build(cfg, flows);
    N::run(&mut sim, SimTime::from_ms(20));
    // A record keeps no hosts; the sizes are distinct, so (size, start)
    // names the flow.
    let t = sim.world.logic.tracker();
    assert_eq!(t.len(), expected.len(), "{name}");
    for (id, want) in expected.iter().enumerate() {
        let got = t.get(id as u32);
        assert_eq!(
            (got.size, got.start),
            (want.size, want.start),
            "{name}: flow {id}"
        );
    }
}

#[test]
fn shuffled_flows_are_registered_in_start_order() {
    registered_in_start_order::<OperaLogic>("opera", opera());
    registered_in_start_order::<OperaLogic>("hybrid rotornet", hybrid());
    registered_in_start_order::<StaticLogic>("expander", expander());
    registered_in_start_order::<StaticLogic>("folded clos", clos());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fluid allocations are conservative for arbitrary demand matrices:
    /// every demand gets a non-negative rate no larger than it asked
    /// for, and nothing is created out of thin air in aggregate.
    #[test]
    fn fluid_model_conserves_flow(
        nflows in 1usize..24,
        racks_mult in 2usize..5,
        amount in 0.5f64..40.0,
        seed in 0u64..500,
    ) {
        let u = 4;
        let params = OperaParams {
            racks: u * racks_mult,
            uplinks: u,
            hosts_per_rack: 2,
            groups: 1,
        };
        let topo = OperaTopology::generate(params, seed);
        let mut rng = simkit::SimRng::new(seed ^ 0xF00D);
        let n = topo.racks();
        let demands: Vec<flowsim::Demand> = (0..nflows)
            .map(|_| {
                let src = rng.index(n);
                let dst = (src + 1 + rng.index(n - 1)) % n;
                flowsim::Demand { src, dst, amount }
            })
            .collect();
        for allow_vlb in [false, true] {
            let r = flowsim::opera_model(&topo, &demands, GBPS, 1.0, allow_vlb);
            prop_assert_eq!(r.rates.len(), demands.len());
            let mut delivered = 0.0;
            let mut offered = 0.0;
            for (rate, d) in r.rates.iter().zip(&demands) {
                prop_assert!(rate.is_finite() && *rate >= 0.0, "negative rate {rate}");
                prop_assert!(*rate <= d.amount + 1e-9, "rate {rate} > demand {}", d.amount);
                delivered += rate;
                offered += d.amount;
            }
            // Aggregate conservation and the line-rate ceiling: each
            // rack's hosts inject at most hosts_per_rack * line rate.
            prop_assert!(delivered <= offered + 1e-9);
            prop_assert!(r.throughput_fraction() <= 1.0 + 1e-9);
            prop_assert!(delivered <= (n * 2) as f64 * GBPS + 1e-9);
        }
    }

    /// The same conservation bounds hold for the static-network models
    /// (ECMP / disjoint-path routing on the expander graph).
    #[test]
    fn static_model_respects_line_rate(
        nflows in 1usize..16,
        amount in 0.5f64..30.0,
        seed in 0u64..500,
    ) {
        use topo::expander::{ExpanderParams, ExpanderTopology};
        let exp = ExpanderTopology::generate(
            ExpanderParams {
                racks: 16,
                uplinks: 4,
                hosts_per_rack: 3,
            },
            seed,
        );
        let mut rng = simkit::SimRng::new(seed ^ 0xBEEF);
        let n = exp.racks();
        let demands: Vec<flowsim::Demand> = (0..nflows)
            .map(|_| {
                let src = rng.index(n);
                let dst = (src + 1 + rng.index(n - 1)) % n;
                flowsim::Demand { src, dst, amount }
            })
            .collect();
        let tors: Vec<usize> = (0..n).collect();
        let r = flowsim::expander_model(exp.graph(), &tors, &demands, GBPS, 3.0 * GBPS);
        let delivered: f64 = r.rates.iter().sum();
        let offered: f64 = demands.iter().map(|d| d.amount).sum();
        for (rate, d) in r.rates.iter().zip(&demands) {
            prop_assert!(rate.is_finite() && *rate >= 0.0);
            prop_assert!(*rate <= d.amount + 1e-9);
        }
        prop_assert!(delivered <= offered + 1e-9);
        prop_assert!(r.min_fraction() >= 0.0 && r.min_fraction() <= 1.0 + 1e-9);
    }
}
