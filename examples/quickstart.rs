//! Quickstart: build a small Opera network, send a low-latency flow and a
//! bulk flow, and inspect what the dynamic topology did with each.
//!
//! Run with: `cargo run --release --example quickstart`

use opera::opera_net::{self, OperaLogic};
use opera::{OperaNetConfig, PacketNet};
use simkit::SimTime;
use workloads::FlowSpec;

fn main() {
    // A 32-host Opera network: 8 racks × 4 hosts, 4 rotor circuit
    // switches, 10 µs topology slices. Flows ≥ 500 KB are bulk.
    let cfg = OperaNetConfig::small_test();
    println!(
        "Opera network: {} racks x {} hosts, {} circuit switches, slice {}",
        cfg.params.racks,
        cfg.params.hosts_per_rack,
        cfg.params.uplinks,
        cfg.timing.slice(),
    );

    // Two flows from host 1 (rack 0) to host 30 (rack 7):
    //   * 20 KB   -> low-latency class: forwarded immediately over the
    //                current expander, paying a small bandwidth tax;
    //   * 2 MB    -> bulk class: buffered by RotorLB until direct circuits
    //                to rack 7 come around, paying zero bandwidth tax.
    let flows = vec![
        FlowSpec {
            src: 1,
            dst: 30,
            size: 20_000,
            start: SimTime::ZERO,
        },
        FlowSpec {
            src: 1,
            dst: 30,
            size: 2_000_000,
            start: SimTime::ZERO,
        },
    ];

    let mut sim = opera_net::build(cfg, flows);
    // Until both flows are done and the network has drained (a rotor
    // network is never event-free: its switches keep reconfiguring and
    // exchanging hellos), or else for 100 ms.
    let drained = OperaLogic::run(&mut sim, SimTime::from_ms(100));
    println!(
        "run ended at {} ({})",
        sim.now(),
        if drained { "drained" } else { "horizon" }
    );

    let tracker = sim.world.logic.tracker();
    for (i, f) in tracker.flows().iter().enumerate() {
        println!(
            "flow {i}: {:>9} bytes, class {:?}, FCT = {}",
            f.size,
            f.class,
            f.fct()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "unfinished".into()),
        );
    }
    println!(
        "events processed: {}, packets delivered: {}",
        sim.events_processed(),
        sim.world.fabric.counters.delivered,
    );

    // The topology itself is inspectable: which slices give rack 0 a
    // direct circuit to rack 7?
    let topo = sim.world.logic.topology();
    println!(
        "slices with a direct rack0->rack7 circuit (cycle of {}): {:?}",
        topo.slices_per_cycle(),
        topo.direct_slices(0, 7),
    );
}
