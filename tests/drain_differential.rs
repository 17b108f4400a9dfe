//! Stopping a drained network is unobservable, shown differentially: a
//! seeded generator of small scenarios, each run twice on the same network,
//! once by [`PacketNet::run`] (which returns when the network has drained)
//! and once by `Simulator::run_until` to the same horizon, must leave the
//! same flow records and the same fabric counters behind.
//!
//! The scenarios cover the four packet networks (Opera, hybrid RotorNet,
//! static expander, folded Clos) × every transport × every switch policy
//! of the scenario vocabulary (`bench::scenario`), 0 to 24 flows with
//! sizes on both sides of Opera's bulk threshold, with and without random
//! loss, with and without the rotor's hello protocol. What an idle rotor
//! network keeps doing for the rest of the horizon is exchange hellos, so
//! on a network that sends them `queued`, `delivered` and (under random
//! loss) `failed_drops` are compared as *at most* the full run's;
//! everything else is exact.

use bench::scenario::{policies, transports};
use netsim::fabric::QueueConfig;
use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use opera::{OperaNetConfig, PacketNet, RotorMode, StaticNetConfig, StaticTopologyKind};
use simkit::{SimRng, SimTime};
use topo::clos::ClosParams;
use transport::TransportKind;
use workloads::FlowSpec;

/// Long enough that a drawn scenario usually drains (flows start inside
/// the first millisecond and the slowest RTO is a few ms), short enough
/// that ticking an idle rotor to it stays cheap in a debug build.
const HORIZON: SimTime = SimTime::from_ms(12);

/// What a driver can read off a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(start, received, finish)` per flow, in flow-id order.
    flows: Vec<(SimTime, u64, Option<SimTime>)>,
    /// `trimmed`, `dropped`, `dark_drops`, `ecn_marked`, `pause_frames`.
    exact: [u64; 5],
    /// `queued`, `delivered`, `failed_drops`: what a hello also moves.
    hello_borne: [u64; 3],
}

/// One drawn scenario; the network it runs on is the caller's.
struct Case {
    flows: Vec<FlowSpec>,
    loss: Option<(f64, u64)>,
    /// Leave the rotor's hello protocol on (ignored by a static network).
    hellos: bool,
}

fn draw(rng: &mut SimRng, hosts: usize) -> Case {
    let flows = (0..rng.index(25))
        .map(|_| {
            let src = rng.index(hosts);
            FlowSpec {
                src,
                dst: (src + 1 + rng.index(hosts - 1)) % hosts,
                // One in six straddles `small_test`'s 500 KB bulk threshold.
                size: if rng.chance(0.17) {
                    400_000 + rng.below(200_000)
                } else {
                    1 + rng.below(60_000)
                },
                start: SimTime::from_us(rng.below(1_000)),
            }
        })
        .collect();
    Case {
        flows,
        loss: rng
            .chance(0.5)
            .then(|| (0.0005 + 0.002 * rng.f64(), rng.below(1 << 32))),
        hellos: rng.chance(0.5),
    }
}

/// Run `case` on the network `cfg` describes, to `HORIZON` or (`drain`)
/// until drained; whether it drained, when it ended and what it left.
fn outcome<N: PacketNet>(
    cfg: N::Config,
    case: &Case,
    quiet: Option<fn(&mut N)>,
    drain: bool,
) -> (bool, SimTime, Outcome) {
    let mut sim = N::build(cfg, case.flows.clone());
    if let (false, Some(quiet)) = (case.hellos, quiet) {
        quiet(&mut sim.world.logic);
    }
    if let Some((p, seed)) = case.loss {
        sim.world.fabric.set_random_loss(p, seed);
    }
    let drained = if drain {
        N::run(&mut sim, HORIZON)
    } else {
        sim.run_until(HORIZON);
        false
    };
    let c = sim.world.fabric.counters;
    let flows = sim.world.logic.tracker().flows();
    let outcome = Outcome {
        flows: flows
            .iter()
            .map(|f| (f.start, f.received, f.finish))
            .collect(),
        exact: [
            c.trimmed,
            c.dropped,
            c.dark_drops,
            c.ecn_marked,
            c.pause_frames,
        ],
        hello_borne: [c.queued, c.delivered, c.failed_drops],
    };
    (drained, sim.now(), outcome)
}

/// `seeds` scenarios on each transport × policy of the network `cfg`
/// builds, of which at least `drained_at_least` must stop early; `quiet`
/// silences what the network sends of its own accord, and is `None` for a
/// network that sends nothing to begin with.
fn differential<N: PacketNet>(
    name: &str,
    cfg: impl Fn(TransportKind, QueueConfig) -> N::Config,
    quiet: Option<fn(&mut N)>,
    seeds: u64,
    drained_at_least: u64,
) {
    let mut drained_runs = 0;
    for (t, (transport, kind)) in transports().into_iter().enumerate() {
        for (p, (policy, switch)) in policies().into_iter().enumerate() {
            for seed in 0..seeds {
                let build = || cfg(kind, QueueConfig::builder().policy(switch).build());
                let mut rng = SimRng::new(seed << 8 | (t as u64) << 4 | p as u64);
                let case = draw(&mut rng, N::hosts(&build()));
                let tag = format!(
                    "{name}/{transport}/{policy}/seed {seed}: {} flows, loss {:?}, hellos {}",
                    case.flows.len(),
                    case.loss,
                    case.hellos
                );
                let (_, end, full) = outcome::<N>(build(), &case, quiet, false);
                let (drained, stop, early) = outcome::<N>(build(), &case, quiet, true);
                assert_eq!(end, HORIZON, "{tag}");
                assert_eq!(early.flows, full.flows, "{tag}");
                assert_eq!(early.exact, full.exact, "{tag}");
                if quiet.is_none() || !case.hellos {
                    assert_eq!(early.hello_borne, full.hello_borne, "{tag}");
                } else {
                    for (e, f) in early.hello_borne.iter().zip(full.hello_borne) {
                        assert!(*e <= f, "{tag}: {early:?} vs {full:?}");
                    }
                }
                let unfinished = full.flows.iter().any(|f| f.2.is_none());
                if case.flows.is_empty() {
                    assert!(drained && stop == SimTime::ZERO, "{tag}: stopped at {stop}");
                } else if unfinished {
                    assert!(!drained && stop == HORIZON, "{tag}: stopped at {stop}");
                }
                drained_runs += u64::from(drained);
            }
        }
    }
    // The comparison is vacuous if nothing ever stops early. The bound is
    // the count measured once the last hop stopped dropping bulk (ROADMAP
    // 4a); what keeps a drawn rotor run from draining now is a bulk flow
    // that needs more than `HORIZON` (up to 20 ms on 8 racks), or a bulk
    // byte the wire corrupted, which RotorLB never sends again.
    let runs = (transports().len() * policies().len()) as u64 * seeds;
    assert!(
        drained_runs >= drained_at_least,
        "{name}: only {drained_runs} of {runs} runs drained, not {drained_at_least}"
    );
}

fn rotor(mode: RotorMode, racks: usize) -> impl Fn(TransportKind, QueueConfig) -> OperaNetConfig {
    move |transport, queues| {
        let mut cfg = OperaNetConfig::small_test();
        cfg.params.racks = racks;
        cfg.mode = mode;
        cfg.transport = transport;
        cfg.queues = queues;
        cfg
    }
}

fn no_hellos(net: &mut OperaLogic) {
    net.set_hello_enabled(false);
}

#[test]
fn opera_drained_equals_horizon() {
    differential::<OperaLogic>("opera", rotor(RotorMode::Opera, 8), Some(no_hellos), 2, 12);
}

/// Hybrid RotorNet's three rotor uplinks must divide the rack count.
#[test]
fn hybrid_rotornet_drained_equals_horizon() {
    let cfg = rotor(RotorMode::RotorHybrid, 12);
    differential::<OperaLogic>("hybrid rotornet", cfg, Some(no_hellos), 2, 16);
}

#[test]
fn expander_drained_equals_horizon() {
    let cfg = |transport, queues| StaticNetConfig {
        transport,
        queues,
        ..StaticNetConfig::small_expander()
    };
    differential::<StaticLogic>("expander", cfg, None, 4, 37);
}

#[test]
fn folded_clos_drained_equals_horizon() {
    let cfg = |transport, queues| StaticNetConfig {
        kind: StaticTopologyKind::FoldedClos(ClosParams {
            radix: 4,
            oversubscription: 3,
        }),
        transport,
        queues,
        ..StaticNetConfig::small_expander()
    };
    differential::<StaticLogic>("folded clos", cfg, None, 4, 34);
}

/// A flow that cannot finish inside the horizon: the run ends there, with
/// the clock exactly where `run_until` leaves it.
#[test]
fn an_unfinished_flow_runs_to_the_horizon() {
    fn check<N: PacketNet>(cfg: N::Config) {
        let flows = vec![FlowSpec {
            src: 0,
            dst: N::hosts(&cfg) - 1,
            size: 400_000, // 320 µs at line rate
            start: SimTime::ZERO,
        }];
        let mut sim = N::build(cfg, flows);
        let horizon = SimTime::from_us(100);
        assert!(!N::run(&mut sim, horizon));
        assert_eq!(sim.now(), horizon);
        assert!(!sim.world.logic.tracker().all_done());
    }
    check::<OperaLogic>(OperaNetConfig::small_test());
    check::<StaticLogic>(StaticNetConfig::small_expander());
}

/// A flow that starts after the horizon is not "every flow complete": no
/// flow is registered yet, and the run still goes to the horizon.
#[test]
fn a_flow_still_to_come_is_not_drained() {
    fn check<N: PacketNet>(cfg: N::Config) {
        let flows = vec![FlowSpec {
            src: 0,
            dst: 1,
            size: 1_000,
            start: SimTime::from_ms(5),
        }];
        let mut sim = N::build(cfg, flows);
        assert!(!N::run(&mut sim, SimTime::from_ms(1)));
        assert_eq!(sim.now(), SimTime::from_ms(1));
        assert!(sim.world.logic.tracker().is_empty());
        assert!(N::run(&mut sim, SimTime::from_ms(50)), "resumable");
        assert!(sim.world.logic.tracker().all_done());
        assert!(sim.now() < SimTime::from_ms(10));
    }
    check::<OperaLogic>(OperaNetConfig::small_test());
    check::<StaticLogic>(StaticNetConfig::small_expander());
}
