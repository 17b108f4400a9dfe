//! Packet-level failure handling, driven through the fabric's one
//! link-change path: a scheduled [`NetEvent::LinkChange`] fails one ToR
//! transceiver of a `small_test` Opera network mid-run, and the hello
//! protocol (§3.6.2) must find it and route around it. The check reads
//! what the network sends, from a trace, not only its tables: a table
//! builder that ignored bad transceivers would still agree with itself.

use netsim::{
    KindTag, LinkSignal, MemorySink, NetEvent, PacketMeta, TraceEvent, TraceRecord, TraceSink,
};
use opera::opera_net::{self, OperaLogic};
use opera::static_net::{self, StaticLogic};
use opera::{OperaNetConfig, PacketNet, StaticNetConfig};
use simkit::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::FlowSpec;

/// A [`MemorySink`] the test can still read once the fabric owns the sink.
#[derive(Debug, Default, Clone)]
struct Shared(Rc<RefCell<MemorySink>>);

impl TraceSink for Shared {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.borrow_mut().record(rec);
    }
}

/// Rack 2's transceiver on uplink 1 fails 20 µs in, while every host of
/// rack 2 is sending; more flows leave the rack after detection.
#[test]
fn a_failed_transceiver_is_found_and_routed_around() {
    let (rack, uplink) = (2, 1);
    let cfg = OperaNetConfig::small_test();
    let flow = |src, dst, size, start_us| FlowSpec {
        src,
        dst,
        size,
        start: SimTime::from_us(start_us),
    };
    // RotorLB neither resends a bulk packet the failed transceiver lost
    // nor moves a rack pair whose one circuit it lost (ROADMAP 3 (c)), so
    // the bulk flow starts after detection, to a rack that rack 2 reaches
    // over another switch.
    let bulk_rack = {
        let sim = opera_net::build(cfg, vec![]);
        let topo = sim.world.logic.topology();
        let home = |r| topo.locate_pair(rack, r).expect("distinct racks").0;
        (0..cfg.params.racks).find(|&r| r != rack && home(r) != uplink)
    };
    let bulk_dst = bulk_rack.expect("another switch reaches rack 2") * 4 + 1;
    // Hosts 8..12 are rack 2's; 600 KB is bulk (the threshold is 500 KB).
    let flows = vec![
        flow(8, 30, 200_000, 0),
        flow(9, 20, 200_000, 0),
        flow(10, 4, 200_000, 0),
        flow(11, 14, 200_000, 0),
        flow(8, 25, 50_000, 300),
        flow(9, 1, 50_000, 300),
        flow(10, bulk_dst, 600_000, 300),
    ];
    let mut sim = opera_net::build(cfg, flows);
    let trace = Shared::default();
    sim.world.fabric.set_trace(Box::new(trace.clone()));
    let (node, port) = sim.world.logic.uplink_addr(rack, uplink);
    let fail = NetEvent::LinkChange {
        node: node as u32,
        port: port as u32,
        change: LinkSignal::Failed(true),
    };
    sim.schedule_at(SimTime::from_us(20), fail);

    // The hello protocol marks the transceiver bad within two cycles.
    while !sim.world.logic.bad_links().contains(&(rack, uplink)) {
        assert!(sim.step(), "ran out of events before detection");
        assert!(sim.now() < SimTime::from_us(200), "failure undetected");
    }
    let detected = sim.now().as_ns();
    assert!(sim.world.fabric.link(node, port).failed);
    let drained = OperaLogic::run(&mut sim, SimTime::from_ms(20));

    // What the failed port sent, hellos left out: before detection the
    // tables route over it; after, only packets already queued there at
    // detection may still leave it.
    let (mut queued, mut sent_before) = (Vec::<PacketMeta>::new(), 0);
    let records = trace.0.borrow().records.clone();
    for r in records.iter().filter(|r| r.node == node && r.port == port) {
        let Some(meta) = r.packet else { continue };
        match r.event {
            TraceEvent::Enqueue | TraceEvent::Mark | TraceEvent::Trim if r.t_ns <= detected => {
                queued.push(meta)
            }
            TraceEvent::Tx if meta.kind != KindTag::Hello => {
                let i = queued.iter().position(|&q| q == meta);
                let i = i.unwrap_or_else(|| panic!("{meta:?} left the bad port at {} ns", r.t_ns));
                queued.swap_remove(i);
                sent_before += usize::from(r.t_ns < detected);
            }
            _ => {}
        }
    }
    assert!(sent_before > 0, "the port carried nothing to fail");

    // Every flow completes, those of the affected rack among them.
    let tracker = sim.world.logic.tracker();
    let done = (tracker.completed(), tracker.len());
    assert!(drained && done.0 == done.1, "{done:?} flows done");
    assert!(
        sim.world.fabric.counters.failed_drops > 0,
        "the failure bit nothing"
    );
    assert_eq!(sim.world.fabric.ledger(), Ok(()));
}

/// NDP's retransmission timeout, read off one recovery (ROADMAP 20): a
/// one-packet flow loses its only data packet (its sender's link is
/// failed for the first transmission, then healed), the RTO sends it
/// again `ndp::RTO` = 2 ms after the start, and it completes one delivery
/// later: two hops of 1 352 ns, host to ToR to host.
#[test]
fn a_lost_packet_is_sent_again_after_the_rto() {
    let fct = |lose_it: bool| {
        let flow = FlowSpec {
            src: 0,
            dst: 1,
            size: 1_000,
            start: SimTime::from_us(1),
        };
        let mut sim = static_net::build(StaticNetConfig::small_expander(), vec![flow]);
        let link = |failed| NetEvent::LinkChange {
            node: 0,
            port: 0,
            change: LinkSignal::Failed(failed),
        };
        if lose_it {
            sim.schedule_at(SimTime::ZERO, link(true));
            sim.schedule_at(SimTime::from_us(500), link(false));
        }
        assert!(StaticLogic::run(&mut sim, SimTime::from_ms(10)));
        let lost = sim.world.fabric.counters.failed_drops;
        assert_eq!(lost, u64::from(lose_it));
        sim.world
            .logic
            .tracker()
            .get(0)
            .fct()
            .expect("the flow completes")
    };
    assert_eq!(fct(false), SimTime::from_ns(2 * 1_352));
    assert_eq!(fct(true), SimTime::from_ms(2) + fct(false));
}
