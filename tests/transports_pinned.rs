//! Three transports, same bytes: NDP, DCTCP and go-back-N on the small
//! Opera network and the small static expander, every run pinned to the
//! event count, the fabric counters and the sorted flow completion times
//! that commit `7fa3e65` produced — recorded there, before the transports'
//! per-flow containers were replaced, so a change to a transport's
//! lookup structures that moves one packet shows here. (The quick goldens
//! see the three transports only through `ablate_transport`'s aggregates.)
//!
//! The load is one fixed 40-flow Websearch draw (sizes capped at 2 MB so
//! the runs stay short) with every destination folded onto four hosts,
//! over trimming switches with 0.2 % random loss on every link, so each
//! run takes both recovery paths: trimmed headers (NACKs for NDP and
//! DCTCP) and packets lost outright, which only a retransmission timeout
//! re-sends.

use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use opera::{OperaNetConfig, PacketNet, StaticNetConfig};
use simkit::SimTime;
use transport::{DctcpParams, TransportKind};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::PoissonGen;
use workloads::FlowSpec;

/// What a run is pinned to.
#[derive(Debug, PartialEq)]
struct Pin {
    events: u64,
    /// `FabricCounters`: queued, trimmed, dropped, dark_drops,
    /// failed_drops, delivered, ecn_marked, pause_frames.
    counters: [u64; 8],
    /// Flow completion times, ns, ascending.
    fcts_ns: Vec<u64>,
}

/// The fixed draw: 40 Websearch flows at full load (arrivals packed into
/// the first ≈ 1.4 ms), capped at 2 MB, destinations folded onto hosts
/// 0–3.
fn flows(hosts: usize) -> Vec<FlowSpec> {
    let mut gen = PoissonGen::new(FlowSizeDist::of(Workload::Websearch), hosts, 10.0, 1.0, 18);
    (0..40)
        .map(|_| {
            let mut f = gen.next_flow();
            f.dst %= 4;
            f.size = f.size.min(2_000_000);
            if f.dst == f.src {
                f.dst = (f.dst + 1) % 4;
            }
            f
        })
        .collect()
}

fn run<N: PacketNet>(cfg: N::Config) -> Pin {
    let hosts = N::hosts(&cfg);
    let mut sim = N::build(cfg, flows(hosts));
    sim.world.fabric.set_random_loss(0.002, 9);
    sim.run_until(SimTime::from_ms(400));
    let tracker = sim.world.logic.tracker();
    let mut fcts_ns: Vec<u64> = tracker
        .flows()
        .iter()
        .filter_map(|f| f.fct())
        .map(|fct| fct.as_ns())
        .collect();
    fcts_ns.sort_unstable();
    let c = sim.world.fabric.counters;
    Pin {
        events: sim.events_processed(),
        counters: [
            c.queued,
            c.trimmed,
            c.dropped,
            c.dark_drops,
            c.failed_drops,
            c.delivered,
            c.ecn_marked,
            c.pause_frames,
        ],
        fcts_ns,
    }
}

fn transports() -> [(&'static str, TransportKind); 3] {
    [
        ("ndp", TransportKind::Ndp),
        ("dctcp", TransportKind::Dctcp(DctcpParams::paper_default())),
        ("go_back_n", TransportKind::GoBackN),
    ]
}

fn opera(transport: TransportKind) -> Pin {
    let mut cfg = OperaNetConfig::small_test();
    cfg.bulk_threshold = u64::MAX; // every flow on the transport under test
    cfg.transport = transport;
    run::<OperaLogic>(cfg)
}

fn expander(transport: TransportKind) -> Pin {
    let mut cfg = StaticNetConfig::small_expander();
    cfg.transport = transport;
    run::<StaticLogic>(cfg)
}

/// The values commit `7fa3e65` produces. `failed_drops` (fifth counter)
/// is the random loss; NDP on Opera finishes 39 of its 40 flows inside the
/// horizon (a sender whose window has decayed to nothing under loss is
/// clocked by its 2 ms timeout alone), every other run all 40.
fn pinned(net: &str, transport: &str) -> Pin {
    match (net, transport) {
        ("opera", "ndp") => Pin {
            events: 2532156,
            counters: [1074954, 660, 0, 15, 2166, 1073417, 0, 0],
            fcts_ns: vec![
                10847, 17020, 20390, 27872, 56319, 57055, 61835, 108232, 122245, 152973, 181816,
                239392, 303909, 1180852, 2060951, 2119355, 2259138, 2423491, 2463454, 4623616,
                5199851, 13823790, 16207469, 18789478, 19097657, 20679118, 23235815, 24684527,
                33219495, 43098346, 43595431, 45932433, 49649471, 50912497, 53353102, 64364490,
                65269531, 68847711, 68977323,
            ],
        },
        ("expander", "ndp") => Pin {
            events: 464427,
            counters: [220377, 377, 0, 0, 451, 220303, 0, 0],
            fcts_ns: vec![
                11347, 16873, 18273, 20702, 22895, 38558, 56592, 62219, 118193, 119318, 138454,
                139330, 177415, 193421, 215770, 228728, 301866, 750204, 1199309, 9061572, 12115440,
                16900258, 18724155, 20899066, 21800192, 24265912, 28506555, 29314729, 34341378,
                35436546, 36812920, 39451789, 39891631, 40150445, 40668380, 44906898, 46991909,
                51298293, 52131220, 56458610,
            ],
        },
        ("opera", "dctcp") => Pin {
            events: 2368255,
            counters: [1004197, 592, 0, 8, 2032, 1002733, 0, 0],
            fcts_ns: vec![
                10847, 15848, 20026, 24572, 27928, 27972, 39904, 42319, 53144, 62951, 76378, 83872,
                122141, 210857, 658104, 2206279, 4121378, 4133454, 4563054, 7391122, 9506286,
                10483951, 14329326, 15817869, 17937749, 21144243, 24101774, 26611471, 27009477,
                29851947, 30034519, 39008461, 42561437, 42741960, 45152098, 48625265, 48631019,
                54608175, 58750108, 60875747,
            ],
        },
        ("expander", "dctcp") => Pin {
            events: 298188,
            counters: [148301, 606, 0, 0, 297, 148610, 0, 0],
            fcts_ns: vec![
                12294, 17520, 20182, 27233, 38316, 38344, 39684, 57917, 77148, 97422, 107234,
                128730, 134099, 151921, 164348, 172302, 644921, 2111178, 2441881, 4798897,
                12308395, 13355296, 13514836, 14574670, 15229445, 16137070, 19440161, 21840631,
                22389216, 22953707, 23584447, 27887329, 28511657, 38295303, 38622503, 40158141,
                47118827, 50478352, 56418379, 56889186,
            ],
        },
        ("opera", "go_back_n") => Pin {
            events: 2520641,
            counters: [1079548, 574, 0, 1, 2175, 1077930, 0, 0],
            fcts_ns: vec![
                10101, 11020, 19558, 22832, 37372, 1019216, 1025277, 2028930, 2040030, 2054967,
                2057448, 2089261, 3067588, 3107379, 3107536, 3110971, 4115765, 7281999, 8260215,
                22852553, 23583931, 29016958, 29112749, 38107836, 40310062, 41073678, 43262920,
                50664515, 53947203, 55768154, 67361154, 70438085, 76734651, 83674956, 84682645,
                85928045, 90491797, 90999750, 92887687, 110158611,
            ],
        },
        ("expander", "go_back_n") => Pin {
            events: 413342,
            counters: [203716, 2036, 0, 0, 422, 205330, 0, 0],
            fcts_ns: vec![
                9472, 11347, 12177, 12720, 16226, 20286, 22052, 33656, 37996, 64603, 1027150,
                1088005, 2096017, 3055143, 3073958, 6212122, 7140349, 9176400, 9346961, 16957918,
                16959135, 20892145, 26531475, 26967895, 28014521, 29363859, 35033441, 37041589,
                38236713, 38255881, 38716228, 41222842, 42045379, 69554995, 74764501, 84895085,
                86423499, 86710154, 132708789, 135269391,
            ],
        },
        _ => unreachable!("no pin for {transport} on {net}"),
    }
}

#[test]
fn three_transports_reproduce_the_parent_commit() {
    for (name, kind) in transports() {
        for (net, got) in [("opera", opera(kind)), ("expander", expander(kind))] {
            // Both recovery paths ran: trimmed headers, and random loss
            // that only a retransmission timeout repairs.
            assert!(got.counters[1] > 0, "{name} on {net}: nothing trimmed");
            assert!(got.counters[4] > 0, "{name} on {net}: nothing lost");
            assert!(got.fcts_ns.len() >= 39, "{name} on {net}: {got:?}");
            assert_eq!(got, pinned(net, name), "{name} on {net}");
        }
    }
}
