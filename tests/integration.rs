//! Cross-crate integration tests: whole-system behaviours spanning the
//! topology generator, packet fabric, transports, and network models.

use opera::opera_net::{self, OperaLogic};
use opera::static_net::StaticLogic;
use opera::{OperaNetConfig, PacketNet, RotorMode, StaticNetConfig};
use simkit::{SimRng, SimTime};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::{PoissonGen, ScenarioGen};
use workloads::FlowSpec;

/// Mean FCT, µs, of a Hadoop mix at 5% load on any network, every flow
/// of which must complete.
fn light_load_avg_fct_us<N: PacketNet>(name: &str, cfg: N::Config) -> f64 {
    let mut g = PoissonGen::new(
        FlowSizeDist::of(Workload::Hadoop),
        N::hosts(&cfg),
        10.0,
        0.05,
        5,
    );
    let flows = g
        .flows_until(SimTime::from_ms(2))
        .into_iter()
        .filter(|f| f.size < 400_000)
        .collect();
    let mut sim = N::build(cfg, flows);
    N::run(&mut sim, SimTime::from_ms(120));
    let t = sim.world.logic.tracker();
    assert!(t.all_done(), "{name}: {}/{}", t.completed(), t.len());
    avg_fct_us(t)
}

/// At light load every flow on every network completes, and Opera's
/// low-latency FCTs are in the same range as the static networks'.
#[test]
fn light_load_equivalence() {
    let opera_avg = light_load_avg_fct_us::<OperaLogic>("opera", OperaNetConfig::small_test());
    let exp_avg =
        light_load_avg_fct_us::<StaticLogic>("expander", StaticNetConfig::small_expander());
    // Same order of magnitude (paper: equivalent FCTs at low load).
    assert!(
        opera_avg < 5.0 * exp_avg && exp_avg < 5.0 * opera_avg,
        "opera {opera_avg}us vs expander {exp_avg}us"
    );
}

fn avg_fct_us(t: &netsim::FlowTracker) -> f64 {
    let v: Vec<f64> = t
        .flows()
        .iter()
        .filter_map(|f| f.fct())
        .map(|x| x.as_us_f64())
        .collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// The full stack is deterministic: identical seeds give identical FCTs.
#[test]
fn full_stack_deterministic() {
    let run = || {
        let mut rng = SimRng::new(77);
        let mut flows = Vec::new();
        for _ in 0..30 {
            let src = rng.index(32);
            let mut dst = rng.index(31);
            if dst >= src {
                dst += 1;
            }
            flows.push(FlowSpec {
                src,
                dst,
                size: 1000 + rng.below(800_000),
                start: SimTime::from_us(rng.below(400)),
            });
        }
        let mut sim = opera_net::build(OperaNetConfig::small_test(), flows);
        OperaLogic::run(&mut sim, SimTime::from_ms(80));
        sim.world
            .logic
            .tracker()
            .flows()
            .iter()
            .map(|f| f.fct().map(|t| t.as_ns()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Bulk traffic pays (nearly) zero bandwidth tax: the bytes put on inter-
/// rack links by a bulk flow are within a few percent of the flow size,
/// while a low-latency flow pays the multi-hop tax.
#[test]
fn bulk_traffic_is_tax_free() {
    // One 2MB bulk flow: packets traverse exactly one inter-rack circuit,
    // so ToR-to-ToR deliveries ≈ packet count, not path_len × packets.
    let mut cfg = OperaNetConfig::small_test();
    cfg.bulk_threshold = 0;
    let flows = vec![FlowSpec {
        src: 0,
        dst: 31,
        size: 2_000_000,
        start: SimTime::ZERO,
    }];
    let mut sim = opera_net::build(cfg, flows);
    // Meter only data-plane packets: silence the hello protocol.
    sim.world.logic.set_hello_enabled(false);
    sim.run_until(SimTime::from_ms(60));
    let t = sim.world.logic.tracker();
    assert!(t.all_done());
    // Each data packet is delivered: host->ToR, ToR->ToR (possibly 2 for
    // VLB), ToR->host = 3..4 fabric deliveries. A taxed path would be 5+.
    let packets = 2_000_000 / 1436 + 1;
    let deliveries = sim.world.fabric.counters.delivered;
    let per_packet = deliveries as f64 / packets as f64;
    assert!(
        per_packet < 4.5,
        "bulk bytes look taxed: {per_packet:.2} deliveries/packet"
    );
}

/// RotorNet (non-hybrid) completes the same shuffle as Opera — the bulk
/// plane is shared machinery — but strands short flows for circuit waits.
#[test]
fn rotornet_shares_bulk_plane() {
    let shuffle = ScenarioGen::shuffle(16, 50_000, SimTime::ZERO);
    for mode in [RotorMode::Opera, RotorMode::RotorNonHybrid] {
        let mut cfg = OperaNetConfig::small_test();
        cfg.params.racks = 4;
        cfg.mode = mode;
        cfg.bulk_threshold = 0;
        let mut sim = opera_net::build(cfg, shuffle.clone());
        OperaLogic::run(&mut sim, SimTime::from_ms(120));
        let t = sim.world.logic.tracker();
        assert!(
            t.all_done(),
            "{mode:?}: {}/{} done, counters {:?}",
            t.completed(),
            t.len(),
            sim.world.logic.counters
        );
    }
}

/// A Websearch-style flow mix among the first 64 hosts of any network
/// completes, and `unrouted` (the network's own count of packets it had
/// no route for) stays zero.
fn delivers_websearch<N: PacketNet>(cfg: N::Config, unrouted: impl FnOnce(&N) -> u64) {
    let hosts = N::hosts(&cfg).min(64);
    let mut g = PoissonGen::new(FlowSizeDist::of(Workload::Websearch), hosts, 10.0, 0.03, 9);
    let mut sim = N::build(cfg, g.flows_until(SimTime::from_ms(1)));
    N::run(&mut sim, SimTime::from_ms(150));
    let t = sim.world.logic.tracker();
    assert!(t.all_done(), "{}/{}", t.completed(), t.len());
    assert_eq!(unrouted(&sim.world.logic), 0);
}

/// Clos, expander, and Opera all deliver a Websearch-style flow mix with
/// zero unexplained packet loss.
#[test]
fn no_unexplained_loss_across_networks() {
    let mut cfg = OperaNetConfig::small_test();
    cfg.bulk_threshold = u64::MAX;
    delivers_websearch(cfg, |net: &OperaLogic| net.counters.hop_limit_drops);
    for cfg in [
        StaticNetConfig::small_expander(),
        StaticNetConfig::paper_clos_648(),
    ] {
        delivers_websearch(cfg, |net: &StaticLogic| net.routing_drops);
    }
}

/// NDP's trimming + NACK + RTO machinery recovers from random physical
/// loss: flows complete even when 2% of all transmissions are corrupted.
#[test]
fn ndp_survives_random_loss() {
    let mut cfg = OperaNetConfig::small_test();
    cfg.bulk_threshold = u64::MAX; // all NDP
    let mut flows = Vec::new();
    let mut rng = SimRng::new(31);
    for _ in 0..15 {
        let src = rng.index(32);
        let mut dst = rng.index(31);
        if dst >= src {
            dst += 1;
        }
        flows.push(FlowSpec {
            src,
            dst,
            size: 40_000,
            start: SimTime::from_us(rng.below(300)),
        });
    }
    let mut sim = opera_net::build(cfg, flows);
    sim.world.fabric.set_random_loss(0.02, 5);
    OperaLogic::run(&mut sim, SimTime::from_ms(150));
    let t = sim.world.logic.tracker();
    assert!(
        t.all_done(),
        "flows lost to corruption: {}/{}",
        t.completed(),
        t.len()
    );
}

/// The flow-level Opera model and the packet simulation agree on the
/// direction of the headline result: Opera's bulk plane beats its own
/// low-latency plane for all-to-all traffic.
#[test]
fn flow_model_and_packet_sim_agree_on_shuffle_win() {
    use flowsim::opera_model;
    use topo::opera::{OperaParams, OperaTopology};

    let topo = OperaTopology::generate(
        OperaParams {
            racks: 24,
            uplinks: 4,
            hosts_per_rack: 4,
            groups: 1,
        },
        3,
    );
    let demands = ScenarioGen::all_to_all_demands(24, 4, 10.0, 1.0);
    let direct = opera_model(&topo, &demands, 10.0, 0.98, true).throughput_fraction();
    // Indirect (expander) service of the same demand pays ~3x tax with
    // only u-1 usable uplinks: bounded by (u-1)/d / avg_path.
    let taxed_bound = 3.0 / (4.0 * 2.2);
    assert!(
        direct > taxed_bound,
        "direct {direct:.3} should beat taxed bound {taxed_bound:.3}"
    );
}

/// Table 1's closed form against the tables every ToR of the paper's
/// network holds. `ruleset_for` counts `u − 1` bulk rules in each of the
/// `N` slices; but each rack is self-paired in exactly one of the `N`
/// matchings, and that matching is live for `u − 1` slices, so every ToR
/// holds `N · (N − 1)` low-latency rules and `u − 1` fewer bulk ones.
#[test]
fn paper_tors_hold_table1_rules_less_their_self_pairing() {
    use opera::tables::{BulkTables, LowLatencyTables};
    use topo::opera::OperaTopology;

    let cfg = OperaNetConfig::paper_648();
    let topo = OperaTopology::generate_validated(cfg.params, cfg.seed, 64).0;
    let (racks, uplinks, slices) = (topo.racks(), topo.switches(), topo.slices_per_cycle());
    let bulk = BulkTables::build(&topo);
    let low_latency = LowLatencyTables::build(&topo);
    let expected = opera::ruleset_for(racks, uplinks).entries - (uplinks as u64 - 1);
    assert_eq!(expected, 12_096 - 5);
    for tor in 0..racks {
        let ll_rules = (0..slices)
            .map(|s| {
                (0..racks)
                    .filter(|&dst| !low_latency.next_hops(s, tor, dst).is_empty())
                    .count()
            })
            .sum::<usize>();
        let bulk_rules = (0..slices)
            .map(|s| bulk.circuits_of(s, tor).len())
            .sum::<usize>();
        assert_eq!((ll_rules, bulk_rules), (11_556, 535), "ToR {tor}");
        assert_eq!((ll_rules + bulk_rules) as u64, expected, "ToR {tor}");
    }
}

/// ROADMAP 17's premise, measured: RotorLB's two-hop Valiant indirection
/// never fires on a uniform shuffle, so its stragglers are all direct
/// packets that reached their ToR after the slice advanced; it fires on
/// `ablate_design`'s hot-rack drain (`vlb_under_skew`) with VLB on, and
/// never with VLB off.
#[test]
fn valiant_hops_only_under_skew_with_vlb_on() {
    let mut cfg = OperaNetConfig::small_test();
    cfg.bulk_threshold = 0;
    let shuffle = ScenarioGen::shuffle(cfg.hosts(), 100_000, SimTime::ZERO);
    let mut sim = opera_net::build(cfg, shuffle);
    assert!(
        OperaLogic::run(&mut sim, SimTime::from_ms(100)),
        "shuffle undrained"
    );
    let c = sim.world.logic.counters;
    assert_eq!(c.valiant_first_hops, 0, "a uniform shuffle went Valiant");
    assert!(c.bulk_stragglers > 0, "no straggler to speak for");

    // Rack 0's four hosts send 1 MB to each host of rack 1.
    let skew = |allow_vlb| {
        let mut cfg = OperaNetConfig::small_test();
        cfg.allow_vlb = allow_vlb;
        cfg.bulk_threshold = 0;
        let mut rng = SimRng::new(4);
        let flows = (0..16)
            .map(|i| FlowSpec {
                src: i / 4,
                dst: 4 + i % 4,
                size: 1_000_000,
                start: SimTime::from_us(rng.below(100)),
            })
            .collect();
        let mut sim = opera_net::build(cfg, flows);
        OperaLogic::run(&mut sim, SimTime::from_ms(40));
        sim.world.logic.counters.valiant_first_hops
    };
    let (on, off) = (skew(true), skew(false));
    assert!(on > 0, "VLB on sent no Valiant packet under skew");
    assert_eq!(off, 0, "VLB off sent Valiant packets");
}
