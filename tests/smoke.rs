//! Workspace smoke test: the exact flow of the doc example in
//! `crates/opera/src/lib.rs` must keep working, since it is the first
//! thing a new user runs. Kept as a named test (not only a doc-test) so
//! a failure is visible in plain `cargo test` output and easy to bisect.

use opera::opera_net::{self, OperaLogic};
use opera::{OperaNetConfig, PacketNet};
use simkit::SimTime;
use workloads::FlowSpec;

#[test]
fn small_test_network_runs_to_completion() {
    let cfg = OperaNetConfig::small_test();
    let flows = vec![FlowSpec {
        src: 1,
        dst: 30,
        size: 20_000,
        start: SimTime::ZERO,
    }];
    let mut sim = opera_net::build(cfg, flows);
    assert!(
        OperaLogic::run(&mut sim, SimTime::from_ms(5)),
        "network did not drain within 5 ms"
    );

    let tracker = sim.world.logic.tracker();
    assert!(tracker.all_done(), "flow did not complete within 5 ms");
    let fct = tracker.get(0).fct().expect("flow completed");
    assert!(
        fct < SimTime::from_us(100),
        "low-latency FCT regressed: {fct}"
    );
    assert!(sim.events_processed() > 0);
}
