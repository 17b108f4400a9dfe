//! Switch queueing policies: what a port does with a packet that wants in.
//!
//! The decision the fabric used to hard-code — trim over-capacity NDP data
//! to headers — is one point in a design space the paper never explores.
//! [`SwitchPolicy`] makes it pluggable: a policy classifies every packet at
//! enqueue time ([`SwitchPolicy::admit`]) and, for lossless operation, asks
//! the fabric to propagate pause/resume frames to upstream peers
//! ([`SwitchPolicy::should_pause`] / [`SwitchPolicy::should_resume`]).
//!
//! Four implementations ship:
//!
//! * [`DropTail`] — classic lossy FIFO: full queue drops.
//! * [`NdpTrim`] — the paper's datapath (§4.2.1) and the default: cut the
//!   payload of over-capacity low-latency data, forward the header at
//!   control priority, drop only when the header queue is also full.
//! * [`Pfc`] — priority flow control: never drop; when a port's queues
//!   cross `pause_bytes` the node pauses every upstream peer, resuming
//!   below `resume_bytes`. Lossless by construction (queues may exceed
//!   their nominal caps by the in-flight headroom).
//! * [`EcnMark`] — drop-tail plus DCTCP-style threshold marking: data
//!   enqueued above `mark_bytes` of standing queue gets its
//!   congestion-experienced bit set for the receiver to echo.
//!
//! To add a policy: implement [`SwitchPolicy`] on a small `Copy` struct,
//! add a [`SwitchPolicyKind`] variant wrapping it (ports store configs by
//! value), and give the variant an arm in the `dispatch!` macro behind
//! `impl SwitchPolicy for SwitchPolicyKind`.

use crate::packet::{Packet, Priority, HEADER_SIZE, PRIORITY_LEVELS};

/// A port's queue occupancy and capacity, as visible to a policy.
#[derive(Debug, Clone, Copy)]
pub struct QueueView<'a> {
    /// Bytes currently queued per priority level.
    pub queued_bytes: &'a [u64; PRIORITY_LEVELS],
    /// Nominal capacity per priority level.
    pub cap_bytes: &'a [u64; PRIORITY_LEVELS],
}

impl QueueView<'_> {
    /// Bytes queued across all priority levels.
    pub fn total(&self) -> u64 {
        self.queued_bytes.iter().sum()
    }

    /// True when `packet` fits its own priority level's queue.
    pub fn fits(&self, packet: &Packet) -> bool {
        let lvl = packet.prio as usize;
        self.queued_bytes[lvl] + packet.size as u64 <= self.cap_bytes[lvl]
    }
}

/// A policy's classification of one packet at enqueue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Enqueue as-is.
    Enqueue,
    /// Enqueue with the ECN congestion-experienced bit set.
    Mark,
    /// Cut the payload; enqueue the header at control priority.
    Trim,
    /// Drop the packet.
    Drop,
}

/// The queueing decision at every output port.
///
/// Policies are consulted by [`crate::Fabric::send`] before a packet joins
/// a queue, and (for PFC) after enqueues/dequeues to drive pause frames.
pub trait SwitchPolicy: std::fmt::Debug {
    /// Classify `packet` against the port state `q`.
    fn admit(&self, q: QueueView<'_>, packet: &Packet) -> Verdict;

    /// After an enqueue left the port in state `q`: should this node pause
    /// its upstream peers? The fabric latches the answer per port and only
    /// re-asks after a resume.
    fn should_pause(&self, _q: QueueView<'_>) -> bool {
        false
    }

    /// After a dequeue left a pausing port in state `q`: may the node's
    /// upstream peers resume?
    fn should_resume(&self, _q: QueueView<'_>) -> bool {
        true
    }
}

/// Lossy FIFO: a packet that does not fit its queue is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropTail;

impl SwitchPolicy for DropTail {
    fn admit(&self, q: QueueView<'_>, packet: &Packet) -> Verdict {
        if q.fits(packet) {
            Verdict::Enqueue
        } else {
            Verdict::Drop
        }
    }
}

/// The paper's NDP datapath (§4.2.1): over-capacity low-latency data is
/// trimmed to its header and forwarded at control priority; everything
/// else drop-tails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NdpTrim;

impl SwitchPolicy for NdpTrim {
    fn admit(&self, q: QueueView<'_>, packet: &Packet) -> Verdict {
        if q.fits(packet) {
            Verdict::Enqueue
        } else if packet.prio == Priority::LowLatency && packet.payload() > 0 {
            let clvl = Priority::Control as usize;
            if q.queued_bytes[clvl] + HEADER_SIZE as u64 <= q.cap_bytes[clvl] {
                Verdict::Trim
            } else {
                Verdict::Drop
            }
        } else {
            Verdict::Drop
        }
    }
}

/// Priority flow control: lossless hop-by-hop backpressure.
///
/// Never drops. When a port's total standing queue crosses `pause_bytes`
/// the owning node sends pause frames to the peers of *all* its ports
/// (traffic can ingress anywhere); once every congested queue drains below
/// `resume_bytes` it sends resumes. Queues may exceed their nominal caps
/// by the pause-propagation headroom — that slack is the price of zero
/// loss, exactly as in real PFC buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pfc {
    /// Pause upstream when a port's total queue reaches this many bytes.
    pub pause_bytes: u64,
    /// Resume upstream when the queue drains below this many bytes.
    pub resume_bytes: u64,
}

impl Pfc {
    /// Defaults sized for the paper's 12 KB data queues: pause at 24 KB of
    /// standing queue, resume below 12 KB.
    pub fn paper_default() -> Self {
        Pfc {
            pause_bytes: 24_000,
            resume_bytes: 12_000,
        }
    }
}

impl SwitchPolicy for Pfc {
    fn admit(&self, _q: QueueView<'_>, _packet: &Packet) -> Verdict {
        Verdict::Enqueue
    }

    fn should_pause(&self, q: QueueView<'_>) -> bool {
        q.total() >= self.pause_bytes
    }

    fn should_resume(&self, q: QueueView<'_>) -> bool {
        q.total() < self.resume_bytes
    }
}

/// Drop-tail with DCTCP-style ECN threshold marking: data enqueued onto a
/// standing queue of `mark_bytes` or more gets its congestion-experienced
/// bit set; receivers echo it and senders back off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcnMark {
    /// Mark data when its priority level already holds this many bytes.
    pub mark_bytes: u64,
}

impl EcnMark {
    /// Default marking threshold: one third of the paper's combined
    /// low-latency capacity — early enough to keep standing queues short.
    pub fn paper_default() -> Self {
        EcnMark { mark_bytes: 9_000 }
    }
}

impl SwitchPolicy for EcnMark {
    fn admit(&self, q: QueueView<'_>, packet: &Packet) -> Verdict {
        if !q.fits(packet) {
            Verdict::Drop
        } else if packet.payload() > 0 && q.queued_bytes[packet.prio as usize] >= self.mark_bytes {
            Verdict::Mark
        } else {
            Verdict::Enqueue
        }
    }
}

/// The closed set of policies a port config can carry by value.
///
/// Ports store their [`crate::QueueConfig`] inline (configs are `Copy` and
/// replicated across hundreds of ports), so the policy is an enum of the
/// concrete implementations rather than a boxed trait object, and the
/// enum's own [`SwitchPolicy`] impl dispatches by `match`: the three
/// per-hop policy questions compile to direct, inlinable calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPolicyKind {
    /// [`DropTail`].
    DropTail(DropTail),
    /// [`NdpTrim`] (the default).
    NdpTrim(NdpTrim),
    /// [`Pfc`].
    Pfc(Pfc),
    /// [`EcnMark`].
    EcnMark(EcnMark),
}

/// Forward one [`SwitchPolicy`] method to the wrapped policy.
macro_rules! dispatch {
    ($kind:expr, $p:ident => $call:expr) => {
        match $kind {
            SwitchPolicyKind::DropTail($p) => $call,
            SwitchPolicyKind::NdpTrim($p) => $call,
            SwitchPolicyKind::Pfc($p) => $call,
            SwitchPolicyKind::EcnMark($p) => $call,
        }
    };
}

impl SwitchPolicy for SwitchPolicyKind {
    #[inline]
    fn admit(&self, q: QueueView<'_>, packet: &Packet) -> Verdict {
        dispatch!(self, p => p.admit(q, packet))
    }

    #[inline]
    fn should_pause(&self, q: QueueView<'_>) -> bool {
        dispatch!(self, p => p.should_pause(q))
    }

    #[inline]
    fn should_resume(&self, q: QueueView<'_>) -> bool {
        dispatch!(self, p => p.should_resume(q))
    }
}

impl Default for SwitchPolicyKind {
    fn default() -> Self {
        SwitchPolicyKind::NdpTrim(NdpTrim)
    }
}

impl From<DropTail> for SwitchPolicyKind {
    fn from(p: DropTail) -> Self {
        SwitchPolicyKind::DropTail(p)
    }
}

impl From<NdpTrim> for SwitchPolicyKind {
    fn from(p: NdpTrim) -> Self {
        SwitchPolicyKind::NdpTrim(p)
    }
}

impl From<Pfc> for SwitchPolicyKind {
    fn from(p: Pfc) -> Self {
        SwitchPolicyKind::Pfc(p)
    }
}

impl From<EcnMark> for SwitchPolicyKind {
    fn from(p: EcnMark) -> Self {
        SwitchPolicyKind::EcnMark(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind, MTU};

    fn view<'a>(
        queued: &'a [u64; PRIORITY_LEVELS],
        caps: &'a [u64; PRIORITY_LEVELS],
    ) -> QueueView<'a> {
        QueueView {
            queued_bytes: queued,
            cap_bytes: caps,
        }
    }

    #[test]
    fn drop_tail_drops_at_capacity() {
        let caps = [1_000, 2_000, 3_000];
        let pkt = Packet::data(0, 0, 1, 0, MTU);
        assert_eq!(
            DropTail.admit(view(&[0, 0, 0], &caps), &pkt),
            Verdict::Enqueue
        );
        assert_eq!(
            DropTail.admit(view(&[0, 1_000, 0], &caps), &pkt),
            Verdict::Drop
        );
    }

    #[test]
    fn ndp_trim_matches_legacy_decision_table() {
        let caps = [12_000, 12_000, 24_000];
        let data = Packet::data(0, 0, 1, 0, MTU);
        let trim = NdpTrim;
        // Fits: enqueue.
        assert_eq!(trim.admit(view(&[0, 0, 0], &caps), &data), Verdict::Enqueue);
        // Data queue full, control queue open: trim.
        assert_eq!(
            trim.admit(view(&[0, 12_000, 0], &caps), &data),
            Verdict::Trim
        );
        // Both full: drop.
        assert_eq!(
            trim.admit(view(&[12_000, 12_000, 0], &caps), &data),
            Verdict::Drop
        );
        // Control traffic never trims.
        let ctl = Packet::control(0, 0, 1, PacketKind::Hello);
        assert_eq!(
            trim.admit(view(&[12_000, 0, 0], &caps), &ctl),
            Verdict::Drop
        );
        // Bulk never trims.
        let bulk = Packet::bulk(0, 0, 1, 0, MTU);
        assert_eq!(
            trim.admit(view(&[0, 0, 24_000], &caps), &bulk),
            Verdict::Drop
        );
        // An already-trimmed header (payload 0) at low-latency would drop,
        // but trimmed headers travel at control priority by construction.
    }

    #[test]
    fn pfc_never_drops_and_tracks_thresholds() {
        let caps = [12_000, 12_000, 24_000];
        let pfc = Pfc {
            pause_bytes: 10_000,
            resume_bytes: 5_000,
        };
        let pkt = Packet::data(0, 0, 1, 0, MTU);
        // Over nominal capacity: still enqueued.
        assert_eq!(
            pfc.admit(view(&[0, 50_000, 0], &caps), &pkt),
            Verdict::Enqueue
        );
        assert!(!pfc.should_pause(view(&[0, 9_999, 0], &caps)));
        assert!(pfc.should_pause(view(&[0, 10_000, 0], &caps)));
        assert!(!pfc.should_resume(view(&[0, 5_000, 0], &caps)));
        assert!(pfc.should_resume(view(&[0, 4_999, 0], &caps)));
    }

    #[test]
    fn ecn_marks_above_threshold_only() {
        let caps = [12_000, 48_000, 24_000];
        let ecn = EcnMark { mark_bytes: 9_000 };
        let pkt = Packet::data(0, 0, 1, 0, MTU);
        assert_eq!(
            ecn.admit(view(&[0, 8_999, 0], &caps), &pkt),
            Verdict::Enqueue
        );
        assert_eq!(ecn.admit(view(&[0, 9_000, 0], &caps), &pkt), Verdict::Mark);
        // Full queue still drop-tails.
        assert_eq!(ecn.admit(view(&[0, 47_000, 0], &caps), &pkt), Verdict::Drop);
        // Control packets are never marked.
        let ctl = Packet::control(0, 0, 1, PacketKind::Hello);
        assert_eq!(
            ecn.admit(view(&[9_000, 9_000, 0], &caps), &ctl),
            Verdict::Enqueue
        );
    }

    #[test]
    fn kind_default_is_ndp_trim() {
        assert_eq!(
            SwitchPolicyKind::default(),
            SwitchPolicyKind::NdpTrim(NdpTrim)
        );
    }
}
