//! Physical-sanity invariants of the simulation layers the golden
//! baselines are built on. A golden diff says *what* moved; these say a
//! result was never physically meaningful in the first place:
//!
//! * packet-level (`netsim`/`transport` via `opera::opera_net`): FCTs
//!   are non-negative, finite, and no faster than line rate; received
//!   bytes are conserved (never exceed the flow size, exactly reach it
//!   on completion); a drained run leaves no packet parked and no
//!   event pending but the rotor clock;
//! * fluid-level (`flowsim`): allocated rates are non-negative, never
//!   exceed the offered demand, and aggregate throughput never exceeds
//!   what the line rate admits.

use proptest::prelude::*;
use simkit::SimTime;
use topo::opera::{OperaParams, OperaTopology};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::PoissonGen;

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
    sim.run_until(SimTime::from_ms(200));
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

/// The `at_sim_end` check: once every flow has completed and the wires
/// have drained, no packet is left parked in the fabric's arena (a leak
/// there would be an `Arrive` nobody delivered, or a loss path that kept
/// its slot) and the event queue holds nothing but the rotor clock.
#[test]
fn drained_runs_leave_nothing_parked() {
    let flows = |hosts: usize| -> Vec<workloads::FlowSpec> {
        (0..24)
            .map(|i| workloads::FlowSpec {
                src: i % hosts,
                dst: (i + hosts / 2 + i / hosts) % hosts,
                // The largest cross Opera's bulk threshold.
                size: 3_000 + 47_000 * i as u64,
                // Far enough apart that flows rarely collide: a trimmed NDP
                // flow can leave its sender re-arming an idle RTO for ever
                // (ROADMAP, correctness), one more pending event each.
                start: SimTime::from_ms(i as u64),
            })
            .collect()
    };
    // Mid-slice, after the hello exchange and before the switches go
    // dark: the only events left are the periodic pair that is the rotor
    // clock (this slice's go-dark timer and the next slice boundary).
    let mid_slice = SimTime::from_ms(300) + SimTime::from_us(5);

    let cfg = opera::OperaNetConfig::small_test();
    let mut sim = opera::opera_net::build(cfg, flows(cfg.hosts()));
    sim.run_until(mid_slice);
    assert!(
        sim.world.logic.tracker().all_done(),
        "opera run not drained"
    );
    assert!(sim.world.fabric.arena_peak_live() > 0);
    assert_eq!(sim.world.fabric.parked_packets(), 0, "opera leaked packets");
    assert_eq!(sim.pending(), 2, "opera: non-periodic events left over");

    let cfg = opera::StaticNetConfig::small_expander();
    let mut sim = opera::static_net::build(cfg, flows(32));
    sim.run_until(mid_slice);
    assert!(
        sim.world.logic.tracker().all_done(),
        "static run not drained"
    );
    assert!(sim.world.fabric.arena_peak_live() > 0);
    assert_eq!(
        sim.world.fabric.parked_packets(),
        0,
        "static leaked packets"
    );
    assert_eq!(sim.pending(), 0, "static: events left over");
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
