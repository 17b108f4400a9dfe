//! The packet model.
//!
//! Packets carry semantic header fields only — no payload bytes exist in
//! the simulation; all timing is computed from the declared wire size.
//! Sizes follow the paper: 1500-byte MTU data packets and 64-byte headers
//! (control packets and trimmed data headers).

use crate::flows::FlowId;

/// Full-size data packet on the wire, bytes (the paper's MTU).
pub const MTU: u32 = 1500;
/// Header-only packet size, bytes (control packets, trimmed data).
pub const HEADER_SIZE: u32 = 64;

/// Strict priority levels at every output port, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Control traffic and trimmed headers: ACK/NACK/PULL, hellos.
    Control = 0,
    /// Low-latency (NDP) data.
    LowLatency = 1,
    /// Bulk (RotorLB) data.
    Bulk = 2,
}

/// Number of priority levels.
pub const PRIORITY_LEVELS: usize = 3;

/// What a packet *is*, from the transport protocols' perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// NDP data segment `seq` of its flow. `trimmed` means the payload was
    /// cut at an overloaded queue and only the header is in flight.
    Data {
        /// Sequence number of this segment within its flow.
        seq: u32,
        /// The payload was cut at an overloaded queue; only the header flies.
        trimmed: bool,
    },
    /// NDP acknowledgment of segment `seq`.
    Ack {
        /// Acknowledged segment sequence number.
        seq: u32,
    },
    /// NDP negative acknowledgment of segment `seq` (generated from a
    /// trimmed header at the receiver).
    Nack {
        /// Negatively acknowledged segment sequence number.
        seq: u32,
    },
    /// NDP pull: receiver-paced credit for one more data packet.
    Pull {
        /// Cumulative pull counter pacing the sender.
        count: u32,
    },
    /// RotorLB bulk data segment. `relay` is `Some(final_rack)` while the
    /// packet is on the first hop of a two-hop Valiant path.
    BulkData {
        /// Sequence number of this bulk segment within its flow.
        seq: u32,
        /// `Some(final_rack)` on the first hop of a two-hop Valiant path.
        relay: Option<u32>,
    },
    /// RotorLB bulk NACK: ToR could not forward the segment within its
    /// transmission window (§4.2.2); sender must requeue it.
    BulkNack {
        /// Sequence number the sender must requeue.
        seq: u32,
    },
    /// Fault-detection hello exchanged when a new circuit is established
    /// (§3.6.2).
    Hello,
}

/// A slab handle to a [`Packet`] parked in a [`PacketArena`].
///
/// Four bytes instead of the 48-byte packet itself: port queues and
/// in-flight [`NetEvent::Arrive`](crate::NetEvent::Arrive) events store
/// these, and the packet body stays put from enqueue to delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

/// Slab storage for queued and in-flight packets with a free list.
///
/// The hot path of the simulation parks every enqueued packet here and
/// reclaims the slot when the packet is delivered (or lost on the wire),
/// so steady-state forwarding performs no per-packet allocation: slots
/// recycle through the free list and the slab only grows to the
/// high-water mark of simultaneously parked packets. A free slot holds
/// `None`, so a stale [`PacketRef`] — a double release, a read after
/// release — panics instead of yielding whichever packet reused the slot.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    /// Packets ever parked.
    allocated: u64,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park a packet, returning its slab handle.
    pub fn alloc(&mut self, packet: Packet) -> PacketRef {
        self.allocated += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(packet);
                PacketRef(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("over 4G packets parked");
                self.slots.push(Some(packet));
                PacketRef(i)
            }
        }
    }

    /// Read a parked packet. Panics when `r`'s slot has been released.
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("stale PacketRef: slot already released")
    }

    /// Remove a parked packet, recycling its slot. Panics when `r`'s slot
    /// has already been released.
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let packet = self.slots[r.0 as usize]
            .take()
            .expect("stale PacketRef: slot already released");
        self.free.push(r.0);
        packet
    }

    /// Packets currently parked.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Packets ever parked, however many have been released since.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Slots ever created: the high-water mark of simultaneously parked
    /// packets.
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }
}

/// A simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow this packet belongs to (`FlowId::MAX` for control traffic that
    /// has no flow, e.g. hellos).
    pub flow: FlowId,
    /// Source host (node id).
    pub src: usize,
    /// Destination host (node id).
    pub dst: usize,
    /// Bytes on the wire (payload + header).
    pub size: u32,
    /// Queueing priority class.
    pub prio: Priority,
    /// Transport semantics.
    pub kind: PacketKind,
    /// ToR-to-ToR hops taken so far (for path-length accounting and loop
    /// suppression).
    pub hops: u8,
    /// ECN congestion-experienced: set by an
    /// [`EcnMark`](crate::policy::EcnMark) switch on enqueue, echoed by
    /// DCTCP receivers on the matching ACK.
    pub ecn_ce: bool,
}

impl Packet {
    /// A full-size NDP data packet (size may be less than MTU for the tail
    /// segment of a flow).
    pub fn data(flow: FlowId, src: usize, dst: usize, seq: u32, size: u32) -> Self {
        Packet {
            flow,
            src,
            dst,
            size,
            prio: Priority::LowLatency,
            kind: PacketKind::Data {
                seq,
                trimmed: false,
            },
            hops: 0,
            ecn_ce: false,
        }
    }

    /// A bulk (RotorLB) data packet.
    pub fn bulk(flow: FlowId, src: usize, dst: usize, seq: u32, size: u32) -> Self {
        Packet {
            flow,
            src,
            dst,
            size,
            prio: Priority::Bulk,
            kind: PacketKind::BulkData { seq, relay: None },
            hops: 0,
            ecn_ce: false,
        }
    }

    /// A 64-byte control packet of the given kind from `src` to `dst`.
    pub fn control(flow: FlowId, src: usize, dst: usize, kind: PacketKind) -> Self {
        Packet {
            flow,
            src,
            dst,
            size: HEADER_SIZE,
            prio: Priority::Control,
            kind,
            hops: 0,
            ecn_ce: false,
        }
    }

    /// Payload bytes this packet carries (0 for control/trimmed packets).
    pub fn payload(&self) -> u32 {
        match self.kind {
            PacketKind::Data { trimmed: false, .. } | PacketKind::BulkData { .. } => {
                self.size.saturating_sub(HEADER_SIZE)
            }
            _ => 0,
        }
    }

    /// Trim this packet to its header (NDP §4.2.1): the payload is
    /// discarded, the header continues at control priority.
    ///
    /// # Panics
    /// Panics when called on a non-data packet — trimming control traffic
    /// is a logic error.
    pub fn trim(mut self) -> Packet {
        match self.kind {
            PacketKind::Data { seq, .. } => {
                self.kind = PacketKind::Data { seq, trimmed: true };
                self.size = HEADER_SIZE;
                self.prio = Priority::Control;
                self
            }
            _ => panic!("trim() on non-NDP-data packet {:?}", self.kind),
        }
    }

    /// True for data packets whose payload has been trimmed away.
    pub fn is_trimmed(&self) -> bool {
        matches!(self.kind, PacketKind::Data { trimmed: true, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_payload() {
        let p = Packet::data(1, 0, 5, 3, MTU);
        assert_eq!(p.payload(), MTU - HEADER_SIZE);
        assert_eq!(p.prio, Priority::LowLatency);
        assert!(!p.is_trimmed());
    }

    #[test]
    fn trim_moves_to_control() {
        let p = Packet::data(1, 0, 5, 3, MTU).trim();
        assert!(p.is_trimmed());
        assert_eq!(p.size, HEADER_SIZE);
        assert_eq!(p.prio, Priority::Control);
        assert_eq!(p.payload(), 0);
        match p.kind {
            PacketKind::Data { seq, trimmed } => {
                assert_eq!(seq, 3);
                assert!(trimmed);
            }
            _ => panic!("kind changed"),
        }
    }

    #[test]
    #[should_panic(expected = "non-NDP-data")]
    fn trim_control_panics() {
        Packet::control(0, 0, 1, PacketKind::Hello).trim();
    }

    #[test]
    fn control_sizes() {
        let p = Packet::control(2, 1, 4, PacketKind::Pull { count: 7 });
        assert_eq!(p.size, HEADER_SIZE);
        assert_eq!(p.prio, Priority::Control);
        assert_eq!(p.payload(), 0);
    }

    #[test]
    fn priority_order() {
        assert!(Priority::Control < Priority::LowLatency);
        assert!(Priority::LowLatency < Priority::Bulk);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(Packet::data(1, 0, 1, 0, MTU));
        let b = arena.alloc(Packet::data(2, 0, 1, 1, MTU));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).flow, 1);
        assert_eq!(arena.take(a).flow, 1);
        assert_eq!(arena.live(), 1);
        // The freed slot is reused: no slab growth.
        let c = arena.alloc(Packet::data(3, 0, 1, 2, MTU));
        assert_eq!(arena.slab_len(), 2);
        assert_eq!(arena.get(c).flow, 3);
        assert_eq!(arena.take(b).flow, 2);
        assert_eq!(arena.take(c).flow, 3);
        assert_eq!(arena.live(), 0);
        // The occupied flag is the packet's own niche: no bytes added.
        assert_eq!(
            std::mem::size_of::<Option<Packet>>(),
            std::mem::size_of::<Packet>()
        );
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn arena_double_release_panics() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(Packet::data(1, 0, 1, 0, MTU));
        arena.take(a);
        arena.take(a);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn arena_get_after_release_panics() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(Packet::data(1, 0, 1, 0, MTU));
        arena.take(a);
        arena.get(a);
    }
}
