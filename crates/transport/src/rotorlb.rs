//! RotorLB: edge-buffered bulk transport over cyclic direct circuits
//! (§4.2.2, RotorNet §4).
//!
//! Bulk bytes wait at the edge (per source rack) until a direct circuit to
//! the destination rack is up, then drain at line rate — paying zero
//! bandwidth tax. Under skewed demand, spare capacity on a circuit is spent
//! on *two-hop Valiant paths*: a packet rides the current circuit to an
//! intermediate rack, is stored there, and rides a later direct circuit to
//! its destination (100% bandwidth tax, used only when direct capacity is
//! insufficient).
//!
//! This module is the queueing brain only. The enclosing network model
//! drives it: on every slice it asks, packet by packet
//! ([`RackBulk::next_packet`]), what to send on each active circuit, and
//! returns packets that missed their window ([`RackBulk::requeue`], the
//! paper's ToR NACK path — we shortcut the NACK's wire round-trip, which
//! only shifts retried bytes by microseconds).
//!
//! One simplification, recorded here and nowhere else: the paper buffers
//! bulk bytes in end hosts and has ToRs poll them (§3.5); we keep the
//! per-rack queues in one `RackBulk` object per rack and charge the
//! host→ToR hop in the data plane. The queueing discipline and admission
//! times are the same; only the identity of the RAM holding the bytes
//! differs. The poll is honest about the host, though: a chunk whose
//! source host cannot take a packet now is not popped ([`Offer::HostBusy`]),
//! so nothing leaves the queue only to be put back.
//!
//! One chunk per flow: a direct queue never holds two chunks of one flow.
//! A packet that comes back merges its bytes into its flow's queued chunk,
//! or, if the chunk has gone out whole, starts the flow's only chunk again,
//! and the bytes go out under sequence numbers the flow has not used (see
//! [`RackBulk::requeue`]). So a requeue is never a one-packet fragment with
//! a round-robin turn of its own, and a flow's `seq`s never repeat.
//!
//! Cost model: every backlog the slice clock reads — bytes per
//! destination (direct and relay), total direct bytes, total relay bytes —
//! is a running sum kept at the five places a queue changes (`enqueue`,
//! `pop_from_relay`, `pop_direct_at`, `store_relay`, `requeue`), so
//! [`RackBulk::pending_to`] and [`RackBulk::total_direct_backlog`] are
//! loads and a feeder tick never walks a queue. A requeue walks its one
//! destination's queue for the flow's chunk: one compare per flow sharing
//! the rack pair (16 on `opera_shuffle`, 36 at paper scale).
//!
//! Memory: the queues are the network's edge buffer and the largest thing
//! a shuffle holds. A queued chunk is 16 bytes — bytes and sequence number
//! as `u32`, host ids as `u16`, bytes and hosts checked where they enter —
//! and a full queue grows by a quarter of its length, not by doubling.
//! With one chunk per flow the queues hold no more chunks than there are
//! flows with bytes in them: on `opera_shuffle` at seed 0 at most 36 096
//! live chunks (its cross-rack flows) in 36 096 slots, 0.58 MB, where
//! requeued one-packet fragments once took them to 143 872 live chunks in
//! 186 305 slots, 3.0 MB; fig08's paper-scale shuffle peaks at 416 016 in
//! 439 128 slots.
//!
//! What a rack holds per destination — a 32-byte `VecDeque` and an 8-byte
//! sum, once for direct and once for relay chunks — is allocated by the
//! first chunk of its kind: the direct half by the rack's first
//! [`RackBulk::enqueue`] or [`RackBulk::requeue`], the relay half by its
//! first [`RackBulk::store_relay`] that keeps its packet, and every reader
//! takes a half not yet allocated as empty. That is 80 bytes per (rack,
//! destination), 0.93 MB on the paper's 108 racks, which a run without
//! bulk flows never allocates and a uniform shuffle, which sends nothing
//! Valiant, allocates half of.

use crate::PAYLOAD_PER_PACKET;
use netsim::{FlowId, Packet, PacketKind, HEADER_SIZE};
use std::collections::VecDeque;

/// RotorLB tuning. Bulk packets are [`netsim::MTU`]-sized like every other.
#[derive(Debug, Clone, Copy)]
pub struct RotorLbParams {
    /// Maximum bytes of two-hop (Valiant) traffic stored at this rack for
    /// later relay.
    pub relay_capacity: u64,
    /// Only offer a destination's backlog to Valiant indirection beyond
    /// this many queued bytes (direct circuits will serve small backlogs
    /// within a cycle anyway).
    pub vlb_threshold: u64,
}

impl RotorLbParams {
    /// Defaults: 50 MB relay store, VLB beyond 1 MB backlog.
    pub fn paper_default() -> Self {
        RotorLbParams {
            relay_capacity: 50_000_000,
            vlb_threshold: 1_000_000,
        }
    }
}

/// A new bulk flow, queued whole at its source rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkChunk {
    /// Owning flow.
    pub flow: FlowId,
    /// Source host NIC.
    pub src_host: usize,
    /// Destination host NIC.
    pub dst_host: usize,
    /// Destination rack.
    pub dst_rack: usize,
    /// Payload bytes.
    pub bytes: u64,
}

/// A queued [`BulkChunk`]: the destination rack is the queue's index, bytes
/// and sequence number are `u32` and host ids `u16` (bytes and hosts
/// checked where they enter), so a chunk is 16 bytes. A chunk never holds
/// more than its flow's bytes, so what merges into it fits too.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    flow: FlowId,
    bytes: u32,
    next_seq: u32,
    src: u16,
    dst: u16,
}

impl Chunk {
    fn new(flow: FlowId, src_host: usize, dst_host: usize, bytes: u64, next_seq: u32) -> Self {
        let host = |h: usize| {
            u16::try_from(h).expect("host id must fit u16 (a network of at most 65 536 hosts)")
        };
        Chunk {
            flow,
            bytes: u32::try_from(bytes)
                .expect("bulk chunk bytes must fit u32 (a flow of at most 4 294 967 295 B)"),
            next_seq,
            src: host(src_host),
            dst: host(dst_host),
        }
    }
}

/// The first sequence number of a chunk that a returned packet restarts:
/// a flow's first chunk counts from 0 and stays below it (that would take
/// 2^31 packets, where a flow of `u32::MAX` bytes is about 3 M), and every
/// restarted chunk counts on from where the rack's last one stopped.
const RESTART_SEQ: u32 = 1 << 31;

/// How a full queue grows: by a `1 / GROWTH` share of its length, and by at
/// least `GROWTH` slots, instead of doubling. Queues never shrink, so a
/// doubled queue may spend up to half its slots empty for the rest of the
/// run.
const GROWTH: usize = 4;

/// Room for one more chunk in `q`, grown by the [`GROWTH`] step if full.
fn make_room(q: &mut VecDeque<Chunk>) {
    if q.len() == q.capacity() {
        q.reserve_exact((q.len() / GROWTH).max(GROWTH));
    }
}

/// What [`RackBulk::next_packet`] offers a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The packet to send.
    Packet(Packet),
    /// The chunk whose turn it was belongs to a source host that cannot
    /// take a packet now: nothing was popped, and the turn passed.
    HostBusy,
    /// Nothing useful can ride this circuit.
    Idle,
}

/// A queue toward every destination rack and its payload bytes, allocated
/// by the first chunk queued: until then every queue reads as empty.
#[derive(Debug, Default)]
struct Queues {
    /// `chunks[r]`: the chunks bound for rack `r`; empty before allocation.
    chunks: Vec<VecDeque<Chunk>>,
    /// `bytes[r]`: payload bytes queued in `chunks[r]`; empty before
    /// allocation.
    bytes: Vec<u64>,
    /// Sum of `bytes`.
    total: u64,
}

impl Queues {
    /// Give each of `racks` racks its queue and byte sum, unless done.
    fn allocate(&mut self, racks: usize) {
        if self.chunks.is_empty() {
            self.chunks = vec![VecDeque::new(); racks];
            self.bytes = vec![0; racks];
        }
    }

    /// Payload bytes queued for rack `r`.
    fn bytes_to(&self, r: usize) -> u64 {
        if self.bytes.is_empty() {
            0
        } else {
            self.bytes[r]
        }
    }

    /// Chunks queued for rack `r`.
    fn len(&self, r: usize) -> usize {
        if self.chunks.is_empty() {
            0
        } else {
            self.chunks[r].len()
        }
    }
}

/// Per-rack RotorLB state: direct and relay queues.
#[derive(Debug)]
pub struct RackBulk {
    rack: usize,
    /// Racks in the network: the length of each allocated [`Queues`].
    racks: usize,
    params: RotorLbParams,
    /// Chunks originating here, by destination rack, at most one per flow;
    /// allocated by the first [`RackBulk::enqueue`] or [`RackBulk::requeue`].
    direct: Queues,
    /// Chunks stored here mid-Valiant, by final destination rack; allocated
    /// by the first [`RackBulk::store_relay`] that keeps its packet.
    relay: Queues,
    /// Round-robin cursor so concurrent flows to one rack share the
    /// circuit fairly.
    rr_cursor: usize,
    /// The first sequence number of the next restarted chunk: at or past
    /// every one a restarted chunk that has gone out whole had reached.
    restart_seq: u32,
}

impl RackBulk {
    /// Fresh state for `rack` in a network of `racks` racks.
    pub fn new(rack: usize, racks: usize, params: RotorLbParams) -> Self {
        // A VLB packet names its final rack in a `u32` header field.
        u32::try_from(racks).expect("rack count must fit u32");
        RackBulk {
            rack,
            racks,
            params,
            direct: Queues::default(),
            relay: Queues::default(),
            rr_cursor: 0,
            restart_seq: RESTART_SEQ,
        }
    }

    /// Queue a new bulk flow for transmission; its packets count their
    /// sequence numbers from 0.
    pub fn enqueue(&mut self, chunk: BulkChunk) {
        debug_assert_ne!(chunk.dst_rack, self.rack, "bulk to own rack");
        self.direct.allocate(self.racks);
        let q = &mut self.direct.chunks[chunk.dst_rack];
        debug_assert!(
            q.iter().all(|c| c.flow != chunk.flow),
            "flow {} enqueued twice",
            chunk.flow
        );
        make_room(q);
        q.push_back(Chunk::new(
            chunk.flow,
            chunk.src_host,
            chunk.dst_host,
            chunk.bytes,
            0,
        ));
        self.direct.bytes[chunk.dst_rack] += chunk.bytes;
        self.direct.total += chunk.bytes;
    }

    /// Payload bytes queued for rack `r` (direct + stored relay).
    pub fn pending_to(&self, r: usize) -> u64 {
        self.direct.bytes_to(r) + self.relay.bytes_to(r)
    }

    /// Total direct backlog across all destinations.
    pub fn total_direct_backlog(&self) -> u64 {
        self.direct.total
    }

    /// Bytes stored for relay.
    pub fn relay_bytes(&self) -> u64 {
        self.relay.total
    }

    /// Produce the next bulk packet to send on the active circuit to
    /// `circuit_dst`. Priority: stored relay traffic (it has already paid
    /// one hop), then direct traffic, then — if `allow_vlb` — new Valiant
    /// traffic for a congested *other* destination, relayed via
    /// `circuit_dst`.
    ///
    /// A direct or Valiant packet is emitted by its source host, so it is
    /// popped only if `host_ready(src_host)`; otherwise the offer is
    /// [`Offer::HostBusy`] and the chunk keeps its bytes (a direct chunk's
    /// round-robin turn passes). Stored relay bytes are already at this
    /// rack and ask no host.
    pub fn next_packet(
        &mut self,
        circuit_dst: usize,
        allow_vlb: bool,
        host_ready: impl Fn(usize) -> bool,
    ) -> Offer {
        debug_assert_ne!(circuit_dst, self.rack);
        if let Some(pkt) = self.pop_from_relay(circuit_dst) {
            return Offer::Packet(pkt);
        }
        let len = self.direct.len(circuit_dst);
        if len > 0 {
            // Round-robin across chunks (flows) sharing this circuit.
            let idx = self.rr_cursor % len;
            self.rr_cursor = self.rr_cursor.wrapping_add(1);
            return self.pop_direct_at(circuit_dst, idx, None, host_ready);
        }
        if allow_vlb {
            if let Some(dst) = self.vlb_destination(circuit_dst) {
                return self.pop_direct_at(dst, 0, Some(dst as u32), host_ready);
            }
        }
        Offer::Idle
    }

    fn emit(chunk: &mut Chunk, relay: Option<u32>) -> Packet {
        let payload = chunk.bytes.min(PAYLOAD_PER_PACKET);
        let seq = chunk.next_seq;
        chunk.next_seq = seq
            .checked_add(1)
            .expect("a rack's restarted chunks used every sequence number");
        debug_assert!(
            seq != RESTART_SEQ - 1,
            "a first chunk reached the restart sequence numbers"
        );
        chunk.bytes -= payload;
        Packet {
            flow: chunk.flow,
            src: chunk.src as usize,
            dst: chunk.dst as usize,
            size: HEADER_SIZE + payload,
            prio: netsim::Priority::Bulk,
            kind: PacketKind::BulkData { seq, relay },
            hops: 0,
            ecn_ce: false,
        }
    }

    fn pop_from_relay(&mut self, dst: usize) -> Option<Packet> {
        if self.relay.len(dst) == 0 {
            return None;
        }
        let q = &mut self.relay.chunks[dst];
        let chunk = q.front_mut()?;
        let pkt = Self::emit(chunk, None);
        if chunk.bytes == 0 {
            q.pop_front();
        }
        self.relay.bytes[dst] -= pkt.payload() as u64;
        self.relay.total -= pkt.payload() as u64;
        Some(pkt)
    }

    /// Emit one packet from chunk `idx` of `direct[dst]` if its source host
    /// is ready, dropping the chunk once it is empty.
    fn pop_direct_at(
        &mut self,
        dst: usize,
        idx: usize,
        relay: Option<u32>,
        host_ready: impl Fn(usize) -> bool,
    ) -> Offer {
        let q = &mut self.direct.chunks[dst];
        let chunk = &mut q[idx];
        if !host_ready(chunk.src as usize) {
            return Offer::HostBusy;
        }
        let pkt = Self::emit(chunk, relay);
        if chunk.bytes == 0 {
            // A first chunk's numbers are all below `restart_seq`.
            self.restart_seq = self.restart_seq.max(chunk.next_seq);
            q.remove(idx);
        }
        self.direct.bytes[dst] -= pkt.payload() as u64;
        self.direct.total -= pkt.payload() as u64;
        Offer::Packet(pkt)
    }

    /// The most-backlogged other destination over the VLB threshold, whose
    /// packets may take a first Valiant hop via `via`.
    fn vlb_destination(&self, via: usize) -> Option<usize> {
        // No single destination can exceed the threshold unless the sum
        // does, and an unallocated `direct` sums to 0.
        if self.direct.total <= self.params.vlb_threshold {
            return None;
        }
        let (dst, &backlog) = self
            .direct
            .bytes
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != via && r != self.rack)
            .max_by_key(|&(_, &b)| b)?;
        (backlog > self.params.vlb_threshold).then_some(dst)
    }

    /// Accept a Valiant packet stored at this rack for later relay to its
    /// final destination. Returns `false` (and discards nothing — caller
    /// keeps the packet conceptually in flight) when the relay store is
    /// full; the enclosing model then treats it like a missed window and
    /// requeues at the *source*.
    pub fn store_relay(&mut self, pkt: &Packet, final_dst_rack: usize) -> bool {
        let payload = pkt.payload() as u64;
        if self.relay.total + payload > self.params.relay_capacity {
            return false;
        }
        self.relay.allocate(self.racks);
        self.relay.total += payload;
        self.relay.bytes[final_dst_rack] += payload;
        // Coalesce consecutive packets of one flow into a chunk.
        let q = &mut self.relay.chunks[final_dst_rack];
        match q.back_mut() {
            Some(last) if last.flow == pkt.flow => last.bytes += pkt.payload(),
            _ => {
                make_room(q);
                q.push_back(Chunk::new(pkt.flow, pkt.src, pkt.dst, payload, 0));
            }
        }
        true
    }

    /// Take back a packet that did not make it out: one the ToR drained
    /// from its bulk queue when the window closed (§4.2.2), a straggler
    /// that found its circuit gone, or a send a port refused. `dst_rack` is
    /// the rack of `pkt.dst` (known to the caller, which owns the
    /// host→rack mapping); a first-hop Valiant packet goes back to its
    /// final rack's queue.
    ///
    /// The bytes merge into the flow's queued chunk, which goes on with the
    /// sequence numbers it has not used yet. If the flow has no chunk left
    /// (it all went out), they start its only one, at sequence numbers past
    /// every restarted chunk this rack has finished: a flow's first chunk
    /// counts from 0 and stays below 2^31, where restarted ones begin, and
    /// a flow's chunks follow one another, so no `seq` of the flow is ever
    /// emitted twice.
    pub fn requeue(&mut self, pkt: &Packet, dst_rack: usize) {
        let payload = pkt.payload();
        if payload == 0 {
            return;
        }
        let final_rack = match pkt.kind {
            PacketKind::BulkData { relay: Some(r), .. } => r as usize,
            PacketKind::BulkData { relay: None, .. } => dst_rack,
            _ => return,
        };
        self.direct.allocate(self.racks);
        self.direct.bytes[final_rack] += payload as u64;
        self.direct.total += payload as u64;
        let q = &mut self.direct.chunks[final_rack];
        match q.iter_mut().find(|c| c.flow == pkt.flow) {
            Some(chunk) => chunk.bytes += payload,
            None => {
                make_room(q);
                let restart =
                    Chunk::new(pkt.flow, pkt.src, pkt.dst, payload as u64, self.restart_seq);
                q.push_back(restart);
            }
        }
    }
}

/// The pre-running-sum implementation, kept as the test oracle.
#[cfg(test)]
mod oracle {
    use super::{BulkChunk, Offer, RotorLbParams, RESTART_SEQ};
    use crate::PAYLOAD_PER_PACKET;
    use netsim::{FlowId, Packet, PacketKind, HEADER_SIZE};

    /// A queued chunk, all fields at full width.
    #[derive(Debug, Clone, Copy)]
    struct Chunk {
        flow: FlowId,
        src_host: usize,
        dst_host: usize,
        bytes: u64,
        next_seq: u32,
    }

    /// `RackBulk` as it was before the running sums: `Vec` queues of wide
    /// chunks, every backlog a scan. The reference the property test holds the
    /// live implementation to.
    #[derive(Debug)]
    pub struct RackBulk {
        rack: usize,
        params: RotorLbParams,
        /// `direct[r]`: chunks originating here, destined to rack `r`.
        direct: Vec<Vec<Chunk>>,
        /// `relay[r]`: chunks stored here mid-Valiant, final destination `r`.
        relay: Vec<Vec<Chunk>>,
        /// Bytes currently stored across all relay queues.
        relay_bytes: u64,
        /// Round-robin cursor so concurrent flows to one rack share the
        /// circuit fairly.
        rr_cursor: usize,
        /// Sequence numbers every restarted chunk that went out whole
        /// reached, from which the next restarted chunk counts on.
        restarted_ends: Vec<u32>,
    }

    impl RackBulk {
        /// Fresh state for `rack` in a network of `racks` racks.
        pub fn new(rack: usize, racks: usize, params: RotorLbParams) -> Self {
            RackBulk {
                rack,
                params,
                direct: vec![Vec::new(); racks],
                relay: vec![Vec::new(); racks],
                relay_bytes: 0,
                rr_cursor: 0,
                restarted_ends: Vec::new(),
            }
        }

        /// Queue a new bulk flow for transmission.
        pub fn enqueue(&mut self, c: BulkChunk) {
            debug_assert_ne!(c.dst_rack, self.rack, "bulk to own rack");
            self.direct[c.dst_rack].push(Chunk {
                flow: c.flow,
                src_host: c.src_host,
                dst_host: c.dst_host,
                bytes: c.bytes,
                next_seq: 0,
            });
        }

        /// Payload bytes queued for rack `r` (direct + stored relay).
        pub fn pending_to(&self, r: usize) -> u64 {
            self.direct[r].iter().map(|c| c.bytes).sum::<u64>()
                + self.relay[r].iter().map(|c| c.bytes).sum::<u64>()
        }

        /// Total direct backlog across all destinations.
        pub fn total_direct_backlog(&self) -> u64 {
            self.direct
                .iter()
                .flat_map(|q| q.iter().map(|c| c.bytes))
                .sum()
        }

        /// Bytes stored for relay.
        pub fn relay_bytes(&self) -> u64 {
            self.relay_bytes
        }

        /// The flows of `direct[r]`'s chunks, in queue order.
        pub fn direct_flows(&self, r: usize) -> Vec<FlowId> {
            self.direct[r].iter().map(|c| c.flow).collect()
        }

        /// Produce the next bulk packet to send on the active circuit to
        /// `circuit_dst`. Priority: stored relay traffic (it has already paid
        /// one hop), then direct traffic, then — if `allow_vlb` — new Valiant
        /// traffic for a congested *other* destination, relayed via
        /// `circuit_dst`. A direct or Valiant chunk whose source host is not
        /// ready keeps its bytes.
        pub fn next_packet(
            &mut self,
            circuit_dst: usize,
            allow_vlb: bool,
            host_ready: impl Fn(usize) -> bool,
        ) -> Offer {
            debug_assert_ne!(circuit_dst, self.rack);
            if let Some(pkt) = self.pop_from_relay(circuit_dst) {
                return Offer::Packet(pkt);
            }
            if !self.direct[circuit_dst].is_empty() {
                // Round-robin across chunks (flows) sharing this circuit.
                let idx = self.rr_cursor % self.direct[circuit_dst].len();
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                return self.pop_direct(circuit_dst, idx, None, host_ready);
            }
            if allow_vlb {
                return self.pop_for_vlb(circuit_dst, host_ready);
            }
            Offer::Idle
        }

        fn emit(chunk: &mut Chunk, relay: Option<u32>) -> Packet {
            let payload = chunk.bytes.min(PAYLOAD_PER_PACKET as u64) as u32;
            let seq = chunk.next_seq;
            chunk.next_seq += 1;
            chunk.bytes -= payload as u64;
            Packet {
                flow: chunk.flow,
                src: chunk.src_host,
                dst: chunk.dst_host,
                size: HEADER_SIZE + payload,
                prio: netsim::Priority::Bulk,
                kind: PacketKind::BulkData { seq, relay },
                hops: 0,
                ecn_ce: false,
            }
        }

        fn pop_from_relay(&mut self, dst: usize) -> Option<Packet> {
            let q = &mut self.relay[dst];
            let chunk = q.first_mut()?;
            let pkt = Self::emit(chunk, None);
            self.relay_bytes -= pkt.payload() as u64;
            if chunk.bytes == 0 {
                q.remove(0);
            }
            Some(pkt)
        }

        fn pop_direct(
            &mut self,
            dst: usize,
            idx: usize,
            relay: Option<u32>,
            host_ready: impl Fn(usize) -> bool,
        ) -> Offer {
            let chunk = &mut self.direct[dst][idx];
            if !host_ready(chunk.src_host) {
                return Offer::HostBusy;
            }
            let pkt = Self::emit(chunk, relay);
            if chunk.bytes == 0 {
                if chunk.next_seq > RESTART_SEQ {
                    self.restarted_ends.push(chunk.next_seq);
                }
                self.direct[dst].remove(idx);
            }
            Offer::Packet(pkt)
        }

        /// Pick the most-backlogged other destination over the VLB threshold
        /// and send one of its packets via `via` (first Valiant hop).
        fn pop_for_vlb(&mut self, via: usize, host_ready: impl Fn(usize) -> bool) -> Offer {
            let Some((dst, backlog)) = self
                .direct
                .iter()
                .enumerate()
                .filter(|&(r, _)| r != via && r != self.rack)
                .map(|(r, q)| (r, q.iter().map(|c| c.bytes).sum::<u64>()))
                .max_by_key(|&(_, b)| b)
            else {
                return Offer::Idle;
            };
            if backlog <= self.params.vlb_threshold {
                return Offer::Idle;
            }
            self.pop_direct(dst, 0, Some(dst as u32), host_ready)
        }

        /// Accept a Valiant packet stored at this rack for later relay to its
        /// final destination. Returns `false` (and discards nothing — caller
        /// keeps the packet conceptually in flight) when the relay store is
        /// full; the enclosing model then treats it like a missed window and
        /// requeues at the *source*.
        pub fn store_relay(&mut self, pkt: &Packet, final_dst_rack: usize) -> bool {
            let payload = pkt.payload() as u64;
            if self.relay_bytes + payload > self.params.relay_capacity {
                return false;
            }
            self.relay_bytes += payload;
            // Coalesce consecutive packets of one flow into a chunk.
            if let Some(last) = self.relay[final_dst_rack].last_mut() {
                if last.flow == pkt.flow {
                    last.bytes += payload;
                    return true;
                }
            }
            self.relay[final_dst_rack].push(Chunk {
                flow: pkt.flow,
                src_host: pkt.src,
                dst_host: pkt.dst,
                bytes: payload,
                next_seq: 0,
            });
            true
        }

        /// Take back a packet that did not make it out: its bytes join its
        /// flow's chunk in its final rack's queue, or start a chunk at the
        /// back, numbered past every restarted chunk that went out whole.
        pub fn requeue(&mut self, pkt: &Packet, dst_rack: usize) {
            let payload = pkt.payload() as u64;
            if payload == 0 {
                return;
            }
            let final_rack = match pkt.kind {
                PacketKind::BulkData { relay: Some(r), .. } => r as usize,
                PacketKind::BulkData { relay: None, .. } => dst_rack,
                _ => return,
            };
            let q = &mut self.direct[final_rack];
            if let Some(chunk) = q.iter_mut().find(|c| c.flow == pkt.flow) {
                chunk.bytes += payload;
                return;
            }
            let next_seq = self
                .restarted_ends
                .iter()
                .copied()
                .fold(RESTART_SEQ, u32::max);
            q.push(Chunk {
                flow: pkt.flow,
                src_host: pkt.src,
                dst_host: pkt.dst,
                bytes: payload,
                next_seq,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::MTU;
    use simkit::cases::{self, Draw};

    fn chunk(flow: FlowId, dst_rack: usize, bytes: u64) -> BulkChunk {
        BulkChunk {
            flow,
            src_host: 100 + flow as usize,
            dst_host: 200 + flow as usize,
            dst_rack,
            bytes,
        }
    }

    /// The next packet for `dst` with every source host ready.
    fn take(rb: &mut RackBulk, dst: usize, vlb: bool) -> Option<Packet> {
        match rb.next_packet(dst, vlb, |_| true) {
            Offer::Packet(p) => Some(p),
            Offer::HostBusy => panic!("every host is ready"),
            Offer::Idle => None,
        }
    }

    #[test]
    fn direct_drain_order_and_sizes() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, 3000));
        assert_eq!(rb.pending_to(2), 3000);
        let p1 = take(&mut rb, 2, false).unwrap();
        assert_eq!(p1.payload(), 1436);
        let p2 = take(&mut rb, 2, false).unwrap();
        assert_eq!(p2.payload(), 1436);
        let p3 = take(&mut rb, 2, false).unwrap();
        assert_eq!(p3.payload(), 128);
        assert!(take(&mut rb, 2, false).is_none());
        assert_eq!(rb.pending_to(2), 0);
        // Sequence numbers increase.
        let seqs: Vec<u32> = [p1, p2, p3]
            .iter()
            .map(|p| match p.kind {
                PacketKind::BulkData { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn round_robin_between_flows() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, 10_000));
        rb.enqueue(chunk(2, 2, 10_000));
        let flows: Vec<FlowId> = (0..4)
            .map(|_| take(&mut rb, 2, false).unwrap().flow)
            .collect();
        assert!(flows.contains(&1) && flows.contains(&2));
        // strict alternation from the rotating cursor
        assert_ne!(flows[0], flows[1]);
        assert_ne!(flows[1], flows[2]);
    }

    #[test]
    fn no_vlb_below_threshold() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, 1000)); // small backlog to rack 2
        assert!(
            take(&mut rb, 3, true).is_none(),
            "small backlogs must wait for their direct circuit"
        );
    }

    #[test]
    fn vlb_offloads_large_backlog() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, 5_000_000)); // hot destination
        let p = take(&mut rb, 3, true).unwrap();
        match p.kind {
            PacketKind::BulkData { relay: Some(r), .. } => assert_eq!(r, 2),
            k => panic!("expected VLB packet, got {k:?}"),
        }
        // Without VLB permission nothing flows to rack 3.
        assert!(take(&mut rb, 3, false).is_none());
    }

    #[test]
    fn relay_store_and_forward() {
        let mut rb_mid = RackBulk::new(1, 4, RotorLbParams::paper_default());
        // A VLB packet for final rack 3 arrives at intermediate rack 1.
        let mut src = RackBulk::new(0, 4, RotorLbParams::paper_default());
        src.enqueue(chunk(7, 3, 5_000_000));
        let pkt = take(&mut src, 1, true).unwrap();
        let final_rack = match pkt.kind {
            PacketKind::BulkData { relay: Some(r), .. } => r as usize,
            _ => unreachable!(),
        };
        assert!(rb_mid.store_relay(&pkt, final_rack));
        assert_eq!(rb_mid.relay_bytes(), pkt.payload() as u64);
        // When rack 1's circuit to rack 3 comes up, relay drains first.
        let out = take(&mut rb_mid, 3, false).unwrap();
        assert_eq!(out.flow, 7);
        match out.kind {
            PacketKind::BulkData { relay, .. } => assert_eq!(relay, None),
            _ => unreachable!(),
        }
        assert_eq!(rb_mid.relay_bytes(), 0);
    }

    #[test]
    fn relay_capacity_enforced() {
        let params = RotorLbParams {
            relay_capacity: 1000,
            ..RotorLbParams::paper_default()
        };
        let mut rb = RackBulk::new(1, 4, params);
        let pkt = Packet::bulk(9, 100, 200, 0, 1500);
        assert!(!rb.store_relay(&pkt, 3), "1436B > 1000B capacity");
        assert_eq!(rb.relay_bytes(), 0);
    }

    fn seq(p: &Packet) -> u32 {
        match p.kind {
            PacketKind::BulkData { seq, .. } => seq,
            k => panic!("not bulk: {k:?}"),
        }
    }

    /// A returned packet's bytes join its flow's queued chunk, which goes
    /// on numbering where it was: no second chunk, no repeated `seq`.
    #[test]
    fn requeue_merges_into_the_flows_chunk() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, 2872)); // 2 packets
        rb.enqueue(chunk(2, 2, 1436));
        let p1 = take(&mut rb, 2, false).unwrap();
        assert_eq!((p1.flow, seq(&p1)), (1, 0));
        assert_eq!(rb.pending_to(2), 2872);
        rb.requeue(&p1, 2);
        assert_eq!(rb.pending_to(2), 4308);
        assert_eq!(rb.direct.len(2), 2, "merged, not a fragment");
        // Drains fully afterwards, flow 1 under seqs 1 and 2.
        let out: Vec<(FlowId, u32)> = std::iter::from_fn(|| take(&mut rb, 2, false))
            .map(|p| (p.flow, seq(&p)))
            .collect();
        assert_eq!(out, vec![(2, 0), (1, 1), (1, 2)]);
    }

    /// A packet of a flow whose chunk has gone out whole starts the flow's
    /// only chunk again, numbered past anything the flow and the rack's
    /// finished restarted chunks have used.
    #[test]
    fn a_flow_sent_whole_restarts_past_its_used_seqs() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, 2872));
        rb.enqueue(chunk(2, 3, 1436));
        let (a, b) = (
            take(&mut rb, 2, false).unwrap(),
            take(&mut rb, 2, false).unwrap(),
        );
        let c = take(&mut rb, 3, false).unwrap();
        assert_eq!((seq(&a), seq(&b), seq(&c)), (0, 1, 0));
        rb.requeue(&b, 2);
        rb.requeue(&a, 2);
        rb.requeue(&c, 3);
        assert_eq!((rb.direct.len(2), rb.direct.len(3)), (1, 1));
        // Both restarted chunks start at the restart base; flow 1's goes
        // out first, so flow 2 is numbered as before and the rack's next
        // restart starts past flow 1's.
        let again: Vec<u32> = [2, 2, 3]
            .map(|dst| seq(&take(&mut rb, dst, false).unwrap()))
            .into();
        assert_eq!(again, vec![RESTART_SEQ, RESTART_SEQ + 1, RESTART_SEQ]);
        rb.requeue(&c, 3);
        rb.requeue(&a, 2);
        let last: Vec<u32> = [3, 2]
            .map(|dst| seq(&take(&mut rb, dst, false).unwrap()))
            .into();
        assert_eq!(last, vec![RESTART_SEQ + 2, RESTART_SEQ + 2]);
    }

    /// A chunk whose source host is busy keeps its bytes and loses its
    /// turn; the next flow's chunk goes on the next poll.
    #[test]
    fn a_busy_host_passes_its_turn() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, 1436));
        rb.enqueue(chunk(2, 2, 1436));
        let busy = chunk(1, 2, 0).src_host;
        assert_eq!(rb.next_packet(2, false, |h| h != busy), Offer::HostBusy);
        assert_eq!(rb.pending_to(2), 2872);
        match rb.next_packet(2, false, |h| h != busy) {
            Offer::Packet(p) => assert_eq!(p.flow, 2),
            o => panic!("{o:?}"),
        }
        assert_eq!(rb.next_packet(2, false, |h| h != busy), Offer::HostBusy);
        assert_eq!(take(&mut rb, 2, false).map(|p| p.flow), Some(1));
        assert_eq!(rb.next_packet(2, false, |_| true), Offer::Idle);
    }

    #[test]
    fn relay_priority_over_direct() {
        let mut rb = RackBulk::new(1, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(5, 3, 1436));
        let vlb_pkt = Packet {
            kind: PacketKind::BulkData {
                seq: 0,
                relay: Some(3),
            },
            ..Packet::bulk(6, 100, 200, 0, 1500)
        };
        assert!(rb.store_relay(&vlb_pkt, 3));
        let first = take(&mut rb, 3, false).unwrap();
        assert_eq!(first.flow, 6, "stored relay bytes drain before direct");
    }

    /// A rack that never queues holds nothing per destination, whatever it
    /// is asked and whatever store it refuses; one whose first call is a
    /// `requeue` or a `store_relay` allocates that half alone, and answers
    /// `pending_to` and `next_packet` as the eager oracle does.
    #[test]
    fn per_destination_state_waits_for_the_first_chunk() {
        let racks = 108;
        let params = RotorLbParams {
            relay_capacity: 1000,
            ..RotorLbParams::paper_default()
        };
        let mut idle = RackBulk::new(0, racks, params);
        for r in 1..racks {
            assert_eq!(idle.pending_to(r), 0);
            assert_eq!(idle.next_packet(r, true, |_| true), Offer::Idle);
        }
        assert!(!idle.store_relay(&Packet::bulk(9, 100, 200, 0, MTU), 3));
        assert_eq!((idle.total_direct_backlog(), idle.relay_bytes()), (0, 0));
        let held = [&idle.direct, &idle.relay].map(|q| q.chunks.capacity() + q.bytes.capacity());
        assert_eq!(held, [0, 0], "slots held per destination");

        let params = RotorLbParams::paper_default();
        let first_hop = |relay| Packet {
            kind: PacketKind::BulkData { seq: 4, relay },
            ..Packet::bulk(7, 100, 200, 0, MTU)
        };
        // A direct packet and a first-hop Valiant one requeued, and a
        // packet stored for relay.
        let cases = [
            (true, first_hop(None)),
            (true, first_hop(Some(3))),
            (false, first_hop(None)),
        ];
        for (requeue, pkt) in cases {
            let mut live = RackBulk::new(1, racks, params);
            let mut old = oracle::RackBulk::new(1, racks, params);
            if requeue {
                live.requeue(&pkt, 2);
                old.requeue(&pkt, 2);
            } else {
                assert!(live.store_relay(&pkt, 3) && old.store_relay(&pkt, 3));
            }
            let allocated = (
                !live.direct.chunks.is_empty(),
                !live.relay.chunks.is_empty(),
            );
            assert_eq!(allocated, (requeue, !requeue), "{:?}", pkt.kind);
            loop {
                for r in 0..racks {
                    assert_eq!(live.pending_to(r), old.pending_to(r), "pending_to({r})");
                }
                assert_eq!(live.total_direct_backlog(), old.total_direct_backlog());
                assert_eq!(live.relay_bytes(), old.relay_bytes());
                let offers: Vec<Offer> = (0..racks)
                    .filter(|&r| r != 1)
                    .map(|r| {
                        let got = live.next_packet(r, true, |_| true);
                        assert_eq!(got, old.next_packet(r, true, |_| true), "rack {r}");
                        got
                    })
                    .collect();
                if offers.iter().all(|o| *o == Offer::Idle) {
                    break;
                }
            }
        }
    }

    #[test]
    fn queued_chunk_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Chunk>(), 16);
    }

    /// The largest host id and chunk that fit are taken whole: packets
    /// carry the host ids back out, and a packet that missed its window
    /// coalesces back into its chunk up to the byte limit.
    #[test]
    fn largest_host_id_and_chunk_are_accepted() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(BulkChunk {
            src_host: 65_535,
            dst_host: 65_535,
            ..chunk(1, 2, u32::MAX as u64)
        });
        let p = take(&mut rb, 2, false).unwrap();
        assert_eq!((p.src, p.dst, p.payload()), (65_535, 65_535, 1436));
        assert_eq!(rb.pending_to(2), u32::MAX as u64 - 1436);
        rb.requeue(&p, 2);
        assert_eq!(rb.pending_to(2), u32::MAX as u64);
        assert_eq!(rb.direct.len(2), 1, "coalesced, not a second chunk");
    }

    #[test]
    #[should_panic(expected = "host id must fit u16 (a network of at most 65 536 hosts)")]
    fn oversized_host_id_is_refused_at_the_door() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(BulkChunk {
            src_host: 65_536,
            ..chunk(1, 2, 1000)
        });
    }

    #[test]
    #[should_panic(expected = "bulk chunk bytes must fit u32 (a flow of at most 4 294 967 295 B)")]
    fn oversized_chunk_is_refused_at_the_door() {
        let mut rb = RackBulk::new(0, 4, RotorLbParams::paper_default());
        rb.enqueue(chunk(1, 2, u32::MAX as u64 + 1));
    }

    /// Whatever the order of pushes and pops, no queue's
    /// capacity is ever more than one [`GROWTH`] step past the longest it
    /// has been (doubling would allow twice that length). Rounds of mostly
    /// pushes and mostly pops alternate, so queues grow, drain and regrow.
    #[test]
    fn capacity_stays_within_one_growth_step_of_the_longest() {
        let step = |n: usize| (n / GROWTH).max(GROWTH);
        let racks = 3;
        let mut rb = RackBulk::new(0, racks, RotorLbParams::paper_default());
        let mut rng = simkit::SimRng::new(27);
        let mut longest = [0usize; 6];
        let mut flow: FlowId = 0;
        for round in 0..8 {
            let pushes_in_four = if round % 2 == 0 { 3 } else { 1 };
            for _ in 0..4_000 {
                // A new flow each time, so nothing coalesces and every push
                // is a new chunk; one-packet chunks, so every pop frees one.
                // Pops take relay chunks first, so half the pushes go there.
                flow += 1;
                let to = 1 + rng.index(racks - 1);
                let pkt = Packet::bulk(flow, 1, 2, 0, MTU);
                if rng.below(4) < pushes_in_four {
                    match rng.below(4) {
                        0 => rb.enqueue(chunk(flow, to, 1436)),
                        1 => rb.requeue(&pkt, to),
                        _ => assert!(rb.store_relay(&pkt, to)),
                    }
                } else {
                    take(&mut rb, to, false);
                }
                // Queue `i`: direct to rack `i`, relay to rack `i - racks`;
                // an unallocated half has none to check.
                let direct = rb.direct.chunks.iter().enumerate();
                let relay = rb.relay.chunks.iter().enumerate();
                for (i, q) in direct.chain(relay.map(|(r, q)| (racks + r, q))) {
                    longest[i] = longest[i].max(q.len());
                    assert!(
                        q.capacity() <= longest[i] + step(longest[i]),
                        "queue {i}: capacity {} for a longest of {}",
                        q.capacity(),
                        longest[i]
                    );
                }
            }
        }
        // Every queue but the two to rack 0 itself went through a dozen
        // growth steps or more (4, 8, 12, 16, 20, 25, … 112).
        assert_eq!((longest[0], longest[3]), (0, 0));
        assert!(
            [1, 2, 4, 5].iter().all(|&i| longest[i] > 100),
            "{longest:?}"
        );
    }

    /// A rack other than `rack`, chosen by `bits`.
    fn other_rack(rack: usize, racks: usize, bits: u64) -> usize {
        (rack + 1 + bits as usize % (racks - 1)) % racks
    }

    /// Random traffic through the live `RackBulk` and the scanning
    /// oracle side by side: every offer, every refusal, every backlog
    /// reading and every queue's flows in order agree after every step.
    /// Eight direct flows, each queued once to one of three hot racks,
    /// and eight flows that only pass through the relay store. The VLB
    /// threshold is two packets and most sizes are whole packets, so
    /// VLB fires and its arg-max sees ties; the relay store holds six
    /// packets, so it overflows; one poll in two finds one flow's
    /// source host busy. Host ids are drawn from the whole `u16`
    /// range, and one flow in eight takes all of its `u32` byte budget,
    /// so a packet that comes back merges up to the byte limit. Returned
    /// packets are ones really emitted (relay ones land in the direct
    /// queue as a foreign flow's chunk, as at a Valiant intermediate)
    /// or new bytes of a direct flow. Throughout, a direct queue holds
    /// at most one chunk per flow, and a direct flow never emits one
    /// `seq` twice.
    #[test]
    fn matches_the_scanning_oracle() {
        let draw = |d: &mut Draw| {
            (
                d.vec(0..300, |d| d.u64(0..u64::MAX)),
                d.usize(2..7),
                d.u64(0..6),
            )
        };
        cases::check(
            "matches_the_scanning_oracle",
            64,
            draw,
            |(ops, racks, rack_bits)| {
                let params = RotorLbParams {
                    relay_capacity: 6 * 1436,
                    vlb_threshold: 2 * 1436,
                };
                let rack = rack_bits as usize % racks;
                let mut live = RackBulk::new(rack, racks, params);
                let mut old = oracle::RackBulk::new(rack, racks, params);
                // Packets emitted so far and not yet returned, with the rack
                // of the circuit that carried them (the realistic requeue: a
                // packet that missed its window comes back).
                let mut in_flight: Vec<(Packet, usize)> = Vec::new();
                let mut emitted = std::collections::HashSet::new();
                let mut enqueued = [false; 8];
                // Bytes each flow may still bring in. A chunk holds no more
                // than its flow has brought, as in a network, where a flow's
                // bytes are all it has.
                let mut budget = [u32::MAX as u64; 16];
                // A direct flow's hosts and hot rack.
                let hosts = |f: u64| {
                    let mixed = (f + rack_bits * 8).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    ((mixed >> 32) as u16 as usize, (mixed >> 48) as u16 as usize)
                };
                let hot = |f: u64| other_rack(rack, racks, f % 3);
                for bits in ops {
                    let f = (bits >> 8) & 0x7;
                    let (src, dst) = hosts(f);
                    // Whole packets seven times in eight, so per-destination
                    // backlogs stay multiples of 1436 and tie often.
                    let packets = 1 + ((bits >> 16) % 3) as u32;
                    let payload = match (bits >> 18) & 0x7 {
                        0 => 1 + ((bits >> 24) % 2000) as u32,
                        _ => 1436 * packets,
                    };
                    match bits % 4 {
                        0 if !enqueued[f as usize] => {
                            let left = &mut budget[f as usize];
                            let bytes = match (bits >> 21) & 0x7 {
                                0 => *left,
                                _ => payload as u64,
                            };
                            *left -= bytes;
                            enqueued[f as usize] = true;
                            let c = BulkChunk {
                                src_host: src,
                                dst_host: dst,
                                ..chunk(f as FlowId, hot(f), bytes)
                            };
                            live.enqueue(c);
                            old.enqueue(c);
                        }
                        0 | 1 => {
                            // Pops ask for any rack, so circuits to cold racks
                            // carry VLB and level the hot backlogs into ties.
                            let to = other_rack(rack, racks, bits >> 11);
                            let vlb = (bits >> 20) & 1 == 1;
                            let busy = ((bits >> 21) & 1 == 1).then(|| hosts((bits >> 22) & 0x7).0);
                            let ready = |h: usize| Some(h) != busy;
                            let got = live.next_packet(to, vlb, ready);
                            assert_eq!(got, old.next_packet(to, vlb, ready));
                            if let Offer::Packet(p) = got {
                                if let (true, PacketKind::BulkData { seq, .. }) =
                                    (p.flow < 8, p.kind)
                                {
                                    assert!(
                                        emitted.insert((p.flow, seq)),
                                        "flow {} seq {} twice",
                                        p.flow,
                                        seq
                                    );
                                }
                                in_flight.push((p, to));
                            }
                        }
                        2 => {
                            // A relay flow's packet, stored for its final rack.
                            let left = &mut budget[8 + f as usize];
                            let pkt = Packet::bulk(
                                8 + f as FlowId,
                                dst,
                                src,
                                0,
                                HEADER_SIZE + payload.min(1436),
                            );
                            let to = other_rack(rack, racks, bits >> 11);
                            if *left >= pkt.payload() as u64 {
                                *left -= pkt.payload() as u64;
                                assert_eq!(live.store_relay(&pkt, to), old.store_relay(&pkt, to));
                            }
                        }
                        _ => {
                            // Either a packet that was really emitted, or new
                            // bytes of a direct flow, direct or first-hop VLB
                            // (`relay: Some`).
                            let (pkt, to, brought) = match in_flight.pop() {
                                Some((p, to)) if (bits >> 20) & 1 == 1 => (p, to, 0),
                                _ => {
                                    let p = Packet {
                                        kind: PacketKind::BulkData {
                                            seq: 0,
                                            relay: ((bits >> 21) & 1 == 1).then(|| hot(f) as u32),
                                        },
                                        ..Packet::bulk(
                                            f as FlowId,
                                            src,
                                            dst,
                                            0,
                                            HEADER_SIZE + payload.min(1436),
                                        )
                                    };
                                    (p, hot(f), p.payload() as u64)
                                }
                            };
                            let left = &mut budget[pkt.flow as usize];
                            // A flow's bytes come back only once it is queued.
                            if *left >= brought && (brought == 0 || enqueued[f as usize]) {
                                *left -= brought;
                                live.requeue(&pkt, to);
                                old.requeue(&pkt, to);
                            }
                        }
                    }
                    for r in 0..racks {
                        assert_eq!(live.pending_to(r), old.pending_to(r), "pending_to({})", r);
                        let flows: Vec<FlowId> = live
                            .direct
                            .chunks
                            .get(r)
                            .into_iter()
                            .flatten()
                            .map(|c| c.flow)
                            .collect();
                        assert_eq!(&flows, &old.direct_flows(r), "direct[{}]", r);
                        let mut distinct = flows.clone();
                        distinct.sort_unstable();
                        distinct.dedup();
                        assert_eq!(
                            distinct.len(),
                            flows.len(),
                            "two chunks of a flow in direct[{}]",
                            r
                        );
                    }
                    assert_eq!(live.total_direct_backlog(), old.total_direct_backlog());
                    assert_eq!(live.relay_bytes(), old.relay_bytes());
                }
            },
        );
    }
}
