//! Per-flow state the sequence-number transports share: the map from a
//! flow id to its state ([`FlowMap`]), the set of segment numbers a flow
//! has outstanding or has received ([`SeqSet`]), and the sender half of a
//! selective-ACK window ([`SendWindow`], NDP's and DCTCP's).
//!
//! Both containers are looked up for every data packet and every ACK, so
//! both are an index and a word, not a hash of bytes or a tree walk — see
//! the crate docs for what that assumes about flow ids.

use crate::{packets_for, wire_size};
use netsim::fabric::{Fabric, NetEvent};
use netsim::{FlowId, Packet, HEADER_SIZE};
use simkit::engine::EventContext;
use simkit::SimTime;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Per-flow state keyed by flow id. Iterated only for
/// [`crate::Transport::acked`], whose order is unspecified.
pub(crate) type FlowMap<T> = HashMap<FlowId, T, BuildHasherDefault<FlowIdHasher>>;

/// One multiply for a `u32` flow id. Flow ids are the tracker's dense
/// counter — keys this program makes itself, so there is no crafted
/// collision to defend against.
#[derive(Default)]
pub(crate) struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a FlowMap key is one u32 flow id");
    }

    fn write_u32(&mut self, id: u32) {
        // The product's good bits are its high ones; the table indexes
        // buckets by the low ones and tags entries by the top seven, so
        // swap the halves.
        self.0 = u64::from(id)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of segment numbers of one flow: a bitmap over `0..total` with a
/// member count. Behaves as an ordered set of `u32` restricted to that range.
#[derive(Debug)]
pub(crate) struct SeqSet {
    words: Vec<u64>,
    total: u32,
    len: u32,
    /// Index of the word holding the smallest member; no meaning while
    /// the set is empty.
    low: usize,
}

impl SeqSet {
    /// The empty set over segments `0..total`.
    pub fn new(total: u32) -> Self {
        SeqSet {
            words: vec![0; (total as usize).div_ceil(64)],
            total,
            len: 0,
            low: 0,
        }
    }

    /// Add `seq`; true when it was not a member.
    ///
    /// # Panics
    /// Panics if `seq` is not a segment of the flow.
    pub fn insert(&mut self, seq: u32) -> bool {
        assert!(seq < self.total, "segment {seq} of {}", self.total);
        let (w, bit) = (seq as usize / 64, 1u64 << (seq % 64));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        if self.len == 0 || w < self.low {
            self.low = w;
        }
        self.len += 1;
        true
    }

    /// Remove `seq`; true when it was a member (a `seq` outside the flow
    /// never is).
    pub fn remove(&mut self, seq: u32) -> bool {
        let (w, bit) = (seq as usize / 64, 1u64 << (seq % 64));
        if seq >= self.total || self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        self.len -= 1;
        if self.len > 0 {
            // A member is left, so this stops at its word.
            while self.words[self.low] == 0 {
                self.low += 1;
            }
        }
        true
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True with no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `seq` is a member.
    pub fn contains(&self, seq: u32) -> bool {
        seq < self.total && self.words[seq as usize / 64] & 1 << (seq % 64) != 0
    }

    /// True when every segment of the flow is a member. A receiver that
    /// delivers each segment once, as it joins the set, has the whole flow
    /// exactly when this holds.
    pub fn is_full(&self) -> bool {
        self.len == self.total
    }

    /// The smallest member.
    pub fn first(&self) -> Option<u32> {
        (self.len > 0).then(|| self.low as u32 * 64 + self.words[self.low].trailing_zeros())
    }
}

/// Sender-side state of one flow whose segments are acknowledged one by
/// one: what NDP and DCTCP keep, whatever clocks the next segment out.
#[derive(Debug)]
pub(crate) struct SendWindow {
    flow: FlowId,
    /// Sending NIC node, which is also the node packets leave from.
    src: usize,
    nic_port: usize,
    dst: usize,
    size: u64,
    total: u32,
    /// Next never-sent segment.
    next_new: u32,
    /// Segments NACKed and awaiting retransmission.
    rtx: VecDeque<u32>,
    /// Sent but not yet ACKed.
    pub unacked: SeqSet,
    /// Time of the last useful event (send/ack/nack/pull).
    pub last_activity: SimTime,
    /// An RTO check is pending ([`SendWindow::check_rto`], [`SendWindow::rearm`]).
    rto_armed: bool,
}

impl SendWindow {
    /// Nothing sent yet of `flow`: `size` payload bytes from NIC `src`
    /// (out of `nic_port`) to `dst`.
    pub fn new(
        flow: FlowId,
        src: usize,
        nic_port: usize,
        dst: usize,
        size: u64,
        now: SimTime,
    ) -> Self {
        let total = packets_for(size);
        SendWindow {
            flow,
            src,
            nic_port,
            dst,
            size,
            total,
            next_new: 0,
            rtx: VecDeque::new(),
            unacked: SeqSet::new(total),
            last_activity: now,
            rto_armed: true,
        }
    }

    /// Every segment sent and acknowledged.
    pub fn done(&self) -> bool {
        self.next_new >= self.total && self.rtx.is_empty() && self.unacked.is_empty()
    }

    /// Payload bytes of the segments sent and acknowledged since: those
    /// below the next new one that are neither unacknowledged nor queued
    /// to be sent again.
    pub fn acked_bytes(&self) -> u64 {
        (0..self.next_new)
            .filter(|&s| !self.unacked.contains(s) && !self.rtx.contains(&s))
            .map(|s| (wire_size(self.size, s) - HEADER_SIZE) as u64)
            .sum()
    }

    /// `seq` was acknowledged: it is neither outstanding nor to be sent
    /// again, though a NACK of another copy queued it.
    pub fn ack(&mut self, seq: u32) {
        self.unacked.remove(seq);
        self.rtx.retain(|&s| s != seq);
    }

    /// Queue `seq` for retransmission (once, however often it is NACKed).
    pub fn nack(&mut self, seq: u32) {
        if !self.rtx.contains(&seq) {
            self.rtx.push_back(seq);
        }
    }

    fn send(&self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, seq: u32) {
        let size = wire_size(self.size, seq);
        let pkt = Packet::data(self.flow, self.src, self.dst, seq, size);
        fabric.send(ctx, self.src, self.nic_port, pkt);
    }

    /// Send the next pending segment — a retransmission first, then the
    /// next new one. False when nothing is left to clock out.
    pub fn emit_next(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>) -> bool {
        let seq = if let Some(seq) = self.rtx.pop_front() {
            seq
        } else if self.next_new < self.total {
            self.next_new += 1;
            self.next_new - 1
        } else {
            return false;
        };
        self.unacked.insert(seq);
        self.last_activity = ctx.now();
        self.send(fabric, ctx, seq);
        true
    }

    /// The retransmission-timeout check: after `rto` without activity the
    /// flow has stalled, and the oldest unacked segment is sent again.
    /// Returns when to check next and whether the flow had stalled; no
    /// next check once every segment is sent and acknowledged, where a
    /// check could send nothing. Such a sender is not `done` only when
    /// NDP holds a stale NACK, one that arrived after its segment's ACK
    /// ([`SendWindow::ack`] drops one that came before); a pull may still
    /// send it again, and [`SendWindow::rearm`] then arms the check for
    /// it. (DCTCP takes a NACKed segment out of `unacked` and sends it
    /// again at once, so its senders are `done` before this.)
    pub fn check_rto(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        rto: SimTime,
    ) -> (Option<SimTime>, bool) {
        if self.next_new >= self.total && self.unacked.is_empty() {
            self.rto_armed = false;
            return (None, false);
        }
        let deadline = self.last_activity + rto;
        if ctx.now() < deadline {
            return (Some(deadline), false);
        }
        if let Some(seq) = self.unacked.first() {
            self.last_activity = ctx.now();
            self.send(fabric, ctx, seq);
        }
        (Some(ctx.now() + rto), true)
    }

    /// When to check the RTO after a send, if [`SendWindow::check_rto`]
    /// had stopped arming checks: `rto` after it, where the checks it
    /// stopped would have found the segment stalled.
    pub fn rearm(&mut self, now: SimTime, rto: SimTime) -> Option<SimTime> {
        if self.rto_armed || self.unacked.is_empty() {
            return None;
        }
        self.rto_armed = true;
        Some(now + rto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::cases::{self, Draw};
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    /// Chains of at most 8 in the buckets a table of `ids.len()` entries
    /// has (load factor 7/8, rounded up to a power of two), indexed the
    /// way `hashbrown` does: by the low bits of the hash.
    fn spreads_over_buckets(ids: impl Iterator<Item = u32>) {
        let ids: Vec<u32> = ids.collect();
        let buckets = (ids.len() * 8 / 7).next_power_of_two();
        let mut chain = vec![0u32; buckets];
        let mut tags = BTreeSet::new();
        let hasher = BuildHasherDefault::<FlowIdHasher>::default();
        for id in ids {
            let h = hasher.hash_one(id);
            chain[h as usize & (buckets - 1)] += 1;
            tags.insert(h >> 57);
        }
        let longest = chain.iter().max().unwrap();
        assert!(*longest <= 8, "a bucket chain of {longest}");
        assert_eq!(tags.len(), 128, "the 7-bit tag takes every value");
    }

    #[test]
    fn flow_ids_spread_over_the_buckets() {
        spreads_over_buckets(0..10_000);
        // One flow in 192: what a host sees of a shuffle's id space.
        spreads_over_buckets((0..10_000).map(|i| 7 + 192 * i));
    }

    /// `SeqSet` against the `BTreeSet<u32>` it replaced, under the
    /// same random operations: `insert` of a segment, `remove` of
    /// anything (absent and out-of-range numbers included), with
    /// `len`, `is_empty`, `is_full` and `first` compared after each.
    #[test]
    fn seq_set_equals_a_btree_set() {
        let draw = |d: &mut Draw| (d.usize(0..5), d.u64(0..1_000_000), d.usize(1..400));
        cases::check(
            "seq_set_equals_a_btree_set",
            64,
            draw,
            |(which, seed, ops)| {
                let total = [1u32, 63, 64, 65, 20_891][which];
                let mut rng = simkit::SimRng::new(seed);
                let mut set = SeqSet::new(total);
                let mut oracle = BTreeSet::new();
                // Keep the action inside a window so that inserts and removes
                // meet, and slide it so every word is visited.
                let span = total.min(1 + rng.below(200) as u32);
                for _ in 0..ops {
                    let base = rng.below(u64::from(total - span) + 1) as u32;
                    let seq = base + rng.below(u64::from(span)) as u32;
                    match rng.below(5) {
                        0 | 1 => assert_eq!(set.insert(seq), oracle.insert(seq)),
                        2 | 3 => assert_eq!(set.remove(seq), oracle.remove(&seq)),
                        _ => {
                            let beyond = total + rng.below(130) as u32;
                            assert!(!set.remove(beyond));
                            assert!(!set.remove(u32::MAX));
                        }
                    }
                    assert_eq!(set.len(), oracle.len());
                    assert_eq!(set.is_empty(), oracle.is_empty());
                    assert_eq!(set.is_full(), oracle.len() == total as usize);
                    assert_eq!(set.first(), oracle.iter().next().copied());
                }
                // Drain from the bottom, so `first` has to move up each time.
                while let Some(bottom) = oracle.pop_first() {
                    assert!(set.remove(bottom));
                    assert_eq!(set.first(), oracle.iter().next().copied());
                }
                assert!(set.is_empty());
            },
        );
    }

    /// Acknowledged bytes are the sent segments neither unacknowledged
    /// nor queued to be sent again, the flow's short last one at its own
    /// size, and a segment both NACKed and unacknowledged counted once.
    #[test]
    fn acked_bytes_are_the_sent_segments_settled() {
        // Three full segments and a last one of 100 bytes.
        let mut w = SendWindow::new(0, 0, 0, 1, 3 * 1436 + 100, SimTime::ZERO);
        assert_eq!(w.acked_bytes(), 0);
        w.next_new = 4;
        (0..4).for_each(|s| assert!(w.unacked.insert(s)));
        assert_eq!(w.acked_bytes(), 0);
        w.unacked.remove(3);
        assert_eq!(w.acked_bytes(), 100);
        w.unacked.remove(0);
        w.unacked.remove(1);
        // NACKed and out of `unacked`, as DCTCP keeps it.
        w.rtx.push_back(1);
        assert_eq!(w.acked_bytes(), 1436 + 100);
        // NACKed and still unacknowledged, as NDP keeps it.
        w.rtx.push_back(2);
        assert_eq!(w.acked_bytes(), 1436 + 100);
        w.unacked.remove(2);
        w.rtx.clear();
        assert_eq!(w.acked_bytes(), 3 * 1436 + 100);
    }

    #[test]
    #[should_panic(expected = "segment 64 of 64")]
    fn seq_set_refuses_a_segment_past_the_flow() {
        SeqSet::new(64).insert(64);
    }
}
