//! Shuffle race: the paper's §5.2 scenario in miniature — an all-to-all
//! shuffle (MapReduce-style) raced on Opera and on a cost-equivalent
//! static expander. Opera carries every byte over zero-tax direct
//! circuits; the expander pays the multi-hop bandwidth tax.
//!
//! Run with: `cargo run --release --example shuffle_race`

use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use opera::{OperaNetConfig, PacketNet, StaticNetConfig, StaticTopologyKind};
use simkit::{SimRng, SimTime};
use topo::expander::ExpanderParams;
use workloads::gen::ScenarioGen;
use workloads::FlowSpec;

const FLOW_SIZE: u64 = 100_000; // 100 KB, Facebook Hadoop's median inter-rack flow

/// Run one shuffle over the hosts of `cfg`, for 200 ms at most, and report it.
fn race<N: PacketNet>(label: &str, cfg: N::Config, shuffle: impl FnOnce(usize) -> Vec<FlowSpec>) {
    let flows = shuffle(N::hosts(&cfg));
    let mut sim = N::build(cfg, flows);
    N::run(&mut sim, SimTime::from_ms(200));
    report(label, sim.world.logic.tracker());
}

fn main() {
    // --- Opera: 48 racks x 4 hosts. The application tags shuffle flows
    // as bulk (threshold 0), so everything takes direct circuits.
    let mut cfg = OperaNetConfig::small_test();
    cfg.params.racks = 48;
    cfg.bulk_threshold = 0;
    let hosts = cfg.hosts();
    println!(
        "shuffle: {} hosts, {} flows x {} KB",
        hosts,
        hosts * (hosts - 1),
        FLOW_SIZE / 1000
    );
    race::<OperaLogic>("opera (direct circuits)", cfg, |hosts| {
        ScenarioGen::shuffle(hosts, FLOW_SIZE, SimTime::ZERO)
    });

    // --- Cost-equivalent static expander: 64 racks x 3 hosts, u = 5.
    let cfg = StaticNetConfig {
        kind: StaticTopologyKind::Expander(ExpanderParams {
            racks: 64,
            uplinks: 5,
            hosts_per_rack: 3,
        }),
        ..StaticNetConfig::small_expander()
    };
    let mut rng = SimRng::new(1);
    race::<StaticLogic>("expander (multi-hop, taxed)", cfg, |hosts| {
        ScenarioGen::shuffle_staggered(hosts, FLOW_SIZE, SimTime::from_ms(10), &mut rng)
    });
}

fn report(label: &str, tracker: &netsim::FlowTracker) {
    let mut fcts: Vec<f64> = tracker
        .flows()
        .iter()
        .filter_map(|f| f.fct())
        .map(|t| t.as_ms_f64())
        .collect();
    fcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = if fcts.is_empty() {
        f64::NAN
    } else {
        fcts[(fcts.len() * 99 / 100).min(fcts.len() - 1)]
    };
    println!(
        "{label:<30} {}/{} flows done, 99%-tile FCT {:.1} ms",
        tracker.completed(),
        tracker.len(),
        p99,
    );
}
