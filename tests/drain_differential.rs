//! Stopping a drained network is unobservable, shown differentially: small
//! scenarios drawn through `simkit::cases::run` (a failing one is printed
//! with its seed, minimised), each run twice on the same network,
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
//! everything else is exact. Both runs must also balance their packet
//! ledger ([`PacketNet::ledger`]).
//!
//! The first scenario of each network × transport × policy also runs with
//! the ties between simultaneous events drawn at random
//! (`Simulator::step_shuffled`, ROADMAP 25), and must come out as its
//! first-in-first-out run does ([`tie_shuffled`]); what does not is
//! listed in `TIE_DEPENDENT`.

use bench::scenario::{policies, transports};
use netsim::fabric::QueueConfig;
use netsim::NetWorld;
use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use opera::{OperaNetConfig, PacketNet, RotorMode, StaticNetConfig, StaticTopologyKind};
use simkit::cases::{self, Draw};
use simkit::{SimRng, SimTime, Simulator};
use std::collections::BTreeSet;
use topo::clos::ClosParams;
use transport::TransportKind;
use workloads::FlowSpec;

/// Long enough that a drawn scenario usually drains (flows start inside
/// the first millisecond and the slowest RTO is a few ms), short enough
/// that ticking an idle rotor to it stays cheap in a debug build.
const HORIZON: SimTime = SimTime::from_ms(12);

/// Where a run with shuffled ties stops if it has not drained: far enough
/// past `HORIZON` that a flow a draw delays past it still finishes (the
/// latest, a drop-tail DCTCP flow on the folded Clos, at 47.6 ms).
const TIE_HORIZON: SimTime = SimTime::from_ms(60);

/// What a driver can read off a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(start, received, finish)` per flow, in flow-id order.
    flows: Vec<(SimTime, u64, Option<SimTime>)>,
    /// `trimmed`, `dropped`, `dark_drops`, `ecn_marked`, `pause_frames`.
    exact: [u64; 5],
    /// `queued`, `delivered`, `failed_drops`: what a hello also moves.
    hello_borne: [u64; 3],
    /// The run's packet ledger.
    ledger: Result<(), String>,
    /// Every counter by name, as the census reads them.
    counters: Vec<(&'static str, u64)>,
}

/// One drawn scenario; the network it runs on is the caller's.
#[derive(Debug)]
struct Case {
    flows: Vec<FlowSpec>,
    loss: Option<(f64, u64)>,
    /// Leave the rotor's hello protocol on (ignored by a static network).
    hellos: bool,
}

fn draw(d: &mut Draw, hosts: usize) -> Case {
    let chance = |d: &mut Draw, p: f64| d.f64(0.0..1.0) < p;
    Case {
        flows: d.vec(0..25, |d| {
            let src = d.usize(0..hosts);
            FlowSpec {
                src,
                dst: (src + 1 + d.usize(0..hosts - 1)) % hosts,
                // One in six straddles `small_test`'s 500 KB bulk threshold.
                size: if chance(d, 0.17) {
                    400_000 + d.u64(0..200_000)
                } else {
                    1 + d.u64(0..60_000)
                },
                start: SimTime::from_us(d.u64(0..1_000)),
            }
        }),
        loss: chance(d, 0.5).then(|| (0.0005 + 0.002 * d.f64(0.0..1.0), d.u64(0..1 << 32))),
        hellos: chance(d, 0.5),
    }
}

/// Run `case` on the network `cfg` describes with `run`, which says
/// whether it drained; that, when it ended and what it left.
fn outcome<N: PacketNet>(
    cfg: N::Config,
    case: &Case,
    quiet: Option<fn(&mut N)>,
    run: impl FnOnce(&mut Simulator<NetWorld<N>>) -> bool,
) -> (bool, SimTime, Outcome) {
    let mut sim = N::build(cfg, case.flows.clone());
    if let (false, Some(quiet)) = (case.hellos, quiet) {
        quiet(&mut sim.world.logic);
    }
    if let Some((p, seed)) = case.loss {
        sim.world.fabric.set_random_loss(p, seed);
    }
    let drained = run(&mut sim);
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
        ledger: N::ledger(&sim),
        counters: N::counters(&sim),
    };
    (drained, sim.now(), outcome)
}

/// [`PacketNet::run`] to `HORIZON`.
fn drain<N: PacketNet>(sim: &mut Simulator<NetWorld<N>>) -> bool {
    N::run(sim, HORIZON)
}

/// `seeds` scenarios on each transport × policy of the network `cfg`
/// builds, of which at least `drained_at_least` must stop early; `quiet`
/// silences what the network sends of its own accord, and is `None` for a
/// network that sends nothing to begin with. Scenario 0 of each is also
/// run with its ties shuffled ([`tie_shuffled`]).
fn differential<N: PacketNet>(
    name: &str,
    cfg: impl Fn(TransportKind, QueueConfig) -> N::Config,
    quiet: Option<fn(&mut N)>,
    seeds: u64,
    drained_at_least: u64,
) {
    let (mut drained_runs, mut ties_off) = (0, Vec::new());
    for (t, (transport, kind)) in transports().into_iter().enumerate() {
        for (p, (policy, switch)) in policies().into_iter().enumerate() {
            for seed in 0..seeds {
                let build = || cfg(kind, QueueConfig::builder().policy(switch).build());
                let hosts = N::hosts(&build());
                let scenario = format!("{name}/{transport}/{policy}/seed {seed}");
                let case_seed = seed << 8 | (t as u64) << 4 | p as u64;
                let check = |case: Case| {
                    let tag = format!(
                        "{scenario}: {} flows, loss {:?}, hellos {}",
                        case.flows.len(),
                        case.loss,
                        case.hellos
                    );
                    let to_horizon = |sim: &mut Simulator<NetWorld<N>>| {
                        sim.run_until(HORIZON);
                        false
                    };
                    let (_, end, full) = outcome::<N>(build(), &case, quiet, to_horizon);
                    let (drained, stop, early) = outcome::<N>(build(), &case, quiet, drain::<N>);
                    assert_eq!(end, HORIZON, "{tag}");
                    assert_eq!(full.ledger, Ok(()), "{tag}");
                    assert_eq!(early.ledger, Ok(()), "{tag}");
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
                    if seed == 0 {
                        let fifo = (drained, &early);
                        ties_off.extend(tie_shuffled(&scenario, build, &case, quiet, fifo));
                    }
                };
                cases::run(&scenario, case_seed, |d| draw(d, hosts), check);
            }
        }
    }
    let ties_off = tie_dependent(name, ties_off);
    assert!(
        ties_off.is_empty(),
        "{} tie finding(s):\n  {}",
        ties_off.len(),
        ties_off.join("\n  ")
    );
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

/// Outcomes that depend on the order of simultaneous events, as
/// [`tie_shuffled`] names them. A fix deletes its line; none may be added.
const TIE_DEPENDENT: [&str; 2] = [
    // A bulk flow (above the 500 KB threshold) loses a packet to the
    // random loss and never completes: RotorLB does not send a bulk byte
    // again. Which packets meet the loss draw follows the event order, and
    // in FIFO order the draw spares the flow's packets. The census's
    // `bulk_lost_bytes` row counts that packet's bytes (ROADMAP 27).
    "opera/gbn/pfc/seed 0/ties 1: flow 5: unfinished, where FIFO ties finish it",
    "opera/gbn/pfc/seed 0/ties 1: bulk_lost_bytes",
];

/// Draws of the tie order each scenario is run under.
const TIE_SEEDS: u64 = 2;

/// The census's findings on the run `name` left `out`, by check alone
/// (`ledger`, `drained` or a counter): the values under random loss move
/// with the order packets meet the loss draw.
fn census_checks(name: &str, drained: bool, out: &Outcome) -> BTreeSet<String> {
    let record = bench::RunRecord {
        name: name.into(),
        counters: out.counters.clone(),
        finished: out.flows.iter().all(|f| f.2.is_some()),
        drained,
        ledger: out.ledger.clone(),
    };
    let found = bench::census(bench::COUNTER_CENSUS, &[record], false);
    // A finding reads `<run>: <check>: <what was read>`.
    found
        .iter()
        .map(|f| f.split(": ").nth(1).unwrap_or(f).to_string())
        .collect()
}

/// [`PacketNet::run`] with every tie between simultaneous events drawn
/// from `seed` (`Simulator::step_shuffled`). It stops when drained, or
/// past `HORIZON` once `enough` holds, or past `TIE_HORIZON`.
fn drain_shuffled<N: PacketNet>(
    sim: &mut Simulator<NetWorld<N>>,
    seed: u64,
    enough: impl Fn(&Simulator<NetWorld<N>>) -> bool,
) -> bool {
    let mut ties = SimRng::new(seed);
    loop {
        if N::drained(sim) {
            return true;
        }
        let now = sim.now();
        let stop = now > TIE_HORIZON || now > HORIZON && enough(sim);
        if stop || !sim.step_shuffled(&mut ties) {
            return false;
        }
    }
}

/// ROADMAP 25 (b): `case` (drawn for `scenario`) run on `build()` until
/// drained with its simultaneous events in `TIE_SEEDS` drawn orders, next
/// to `fifo`, its first-in-first-out run, which drained if `fifo_drained`.
/// Each draw must balance its ledger, drain if the FIFO run drained,
/// complete every flow that run completed, and be off the counter census
/// (its `zero` rows, ledger and "finished ⇒ drained") by no check that
/// run is not: the generator's random loss counts `failed_drops`, and a
/// flow finished late may not drain by the horizon, either way. A draw
/// may delay a flow past `HORIZON`, so a run goes on to `TIE_HORIZON`,
/// or, where the FIFO run did not drain, until it has completed what that
/// run completed and not every flow. Returns each way a draw was off,
/// naming the scenario and the draw.
fn tie_shuffled<N: PacketNet>(
    scenario: &str,
    build: impl Fn() -> N::Config,
    case: &Case,
    quiet: Option<fn(&mut N)>,
    (fifo_drained, fifo): (bool, &Outcome),
) -> Vec<String> {
    let fifo_off = census_checks(scenario, fifo_drained, fifo);
    // Short of finishing every flow (then it must drain).
    let caught_up = |sim: &Simulator<NetWorld<N>>| {
        let flows = sim.world.logic.tracker().flows();
        !fifo_drained
            && !sim.world.logic.ends().finished()
            && fifo
                .flows
                .iter()
                .zip(flows)
                .all(|(f, g)| f.2.is_none() || g.finish.is_some())
    };
    let mut off = Vec::new();
    for ties in 0..TIE_SEEDS {
        let run = format!("{scenario}/ties {ties}");
        let shuffled = |sim: &mut _| drain_shuffled(sim, ties, caught_up);
        let (drained, _, got) = outcome::<N>(build(), case, quiet, shuffled);
        let checks = census_checks(scenario, drained, &got);
        off.extend(checks.difference(&fifo_off).map(|c| format!("{run}: {c}")));
        if fifo_drained && !drained {
            off.push(format!("{run}: drained: no, where FIFO ties drain"));
        }
        for (id, (f, g)) in fifo.flows.iter().zip(&got.flows).enumerate() {
            if f.2.is_some() && g.2.is_none() {
                off.push(format!(
                    "{run}: flow {id}: unfinished, where FIFO ties finish it"
                ));
            }
        }
    }
    off
}

/// `found` ([`tie_shuffled`] findings on the network `name`) less its
/// lines of `TIE_DEPENDENT`, each excusing one finding, then each of
/// those lines no finding used.
fn tie_dependent(name: &str, mut found: Vec<String>) -> Vec<String> {
    let prefix = format!("{name}/");
    let mut known: Vec<&str> = TIE_DEPENDENT
        .into_iter()
        .filter(|k| k.starts_with(&prefix))
        .collect();
    found.retain(|f| match known.iter().position(|k| k == f) {
        Some(i) => {
            known.swap_remove(i);
            false
        }
        None => true,
    });
    found.extend(
        known
            .iter()
            .map(|k| format!("{k}: no longer found; delete it from TIE_DEPENDENT")),
    );
    found
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
