//! The policy layer: [`NetLogic`] and the [`NetWorld`] event-loop adapter.
//!
//! A `NetLogic` decides what happens when packets arrive and when timers
//! fire; the [`Fabric`] handles queueing and wire timing. `NetWorld` glues
//! the two into a [`simkit::EventHandler`] so a `simkit::Simulator` can
//! drive the whole network.

use crate::fabric::{Fabric, LinkChange, NetEvent, NodeId, PortId};
use crate::packet::Packet;
use simkit::engine::{EventContext, EventHandler};
use simkit::{SimTime, Simulator};

/// Network policy: routing, transports, schedulers.
pub trait NetLogic {
    /// A packet fully arrived at `node` through `port`.
    fn on_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        node: NodeId,
        port: PortId,
        packet: Packet,
    );

    /// A timer scheduled with token `token` fired.
    fn on_timer(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, token: u64);
}

/// A fabric plus its logic: the complete simulated world.
pub struct NetWorld<L: NetLogic> {
    /// The data plane.
    pub fabric: Fabric,
    /// The policy layer.
    pub logic: L,
}

impl<L: NetLogic> NetWorld<L> {
    /// Assemble a world.
    pub fn new(fabric: Fabric, logic: L) -> Self {
        NetWorld { fabric, logic }
    }

    /// Wrap in a simulator, scheduling an initial timer with `token` 0 at
    /// time zero so the logic can bootstrap (start flows, start slices).
    pub fn into_sim(self) -> Simulator<Self> {
        let mut sim = Simulator::new(self);
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim
    }
}

impl<L: NetLogic> EventHandler for NetWorld<L> {
    type Event = NetEvent;

    fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
        match ev {
            NetEvent::Arrive { node, port, packet } => {
                let packet = self.fabric.deliver(packet);
                self.logic
                    .on_arrive(&mut self.fabric, ctx, node as usize, port as usize, packet);
            }
            NetEvent::PortFree { node, port } => {
                self.fabric.on_port_free(ctx, node, port);
            }
            NetEvent::LinkChange { node, port, change } => {
                let change = LinkChange::Signal(change);
                self.fabric
                    .set_link(ctx, node as usize, port as usize, change);
            }
            NetEvent::Timer { token } => {
                self.logic.on_timer(&mut self.fabric, ctx, token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{LinkSpec, QueueConfig};
    use crate::packet::{PacketKind, MTU};

    /// Echo logic: host 1 bounces every data packet back to host 0.
    struct Echo {
        got_at_0: Vec<Packet>,
    }

    impl NetLogic for Echo {
        fn on_arrive(
            &mut self,
            fabric: &mut Fabric,
            ctx: &mut EventContext<'_, NetEvent>,
            node: NodeId,
            _port: PortId,
            packet: Packet,
        ) {
            if node == 1 {
                let reply = Packet::control(packet.flow, 1, packet.src, PacketKind::Ack { seq: 0 });
                fabric.send(ctx, 1, 0, reply);
            } else {
                self.got_at_0.push(packet);
            }
        }

        fn on_timer(
            &mut self,
            fabric: &mut Fabric,
            ctx: &mut EventContext<'_, NetEvent>,
            token: u64,
        ) {
            if token == 0 {
                fabric.send(ctx, 0, 0, Packet::data(0, 0, 1, 0, MTU));
            }
        }
    }

    #[test]
    fn echo_roundtrip() {
        let mut fabric = Fabric::new();
        let a = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        let b = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        fabric.connect(a, 0, b, 0);
        let mut sim = NetWorld::new(fabric, Echo { got_at_0: vec![] }).into_sim();
        sim.run();
        assert_eq!(sim.world.logic.got_at_0.len(), 1);
        assert!(matches!(
            sim.world.logic.got_at_0[0].kind,
            PacketKind::Ack { .. }
        ));
        // data: 1200+500 = 1700; ack: 52 ser + 500 prop = 2252ns total.
        assert_eq!(sim.now().as_ns(), 2252);
    }
}
