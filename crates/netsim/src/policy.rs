//! Switch queueing policies: what a port does with a packet that wants in.
//!
//! The decision the fabric used to hard-code — trim over-capacity NDP data
//! to headers — is one point in a design space the paper never explores.
//! [`SwitchPolicyKind`] is that space as a closed enum: a policy classifies
//! every packet at enqueue time ([`SwitchPolicyKind::admit`]) and, for
//! lossless operation, asks the fabric to propagate pause/resume frames to
//! upstream peers ([`SwitchPolicyKind::should_pause`] /
//! [`SwitchPolicyKind::should_resume`]).
//!
//! Four policies ship, each a variant carrying its parameters:
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
//! To add a policy: add a [`SwitchPolicyKind`] variant wrapping a small
//! `Copy` parameter struct (ports store configs by value), and give it an
//! arm in each of the three `match`es below.

use crate::packet::{Packet, Priority, HEADER_SIZE, PRIORITY_LEVELS};

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

/// Lossy FIFO: a packet that does not fit its queue is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropTail;

/// The paper's NDP datapath (§4.2.1): over-capacity low-latency data is
/// trimmed to its header and forwarded at control priority; everything
/// else drop-tails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NdpTrim;

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

/// The queueing decision at every output port: the closed set of policies
/// a port config carries by value.
///
/// Ports store their [`crate::QueueConfig`] inline (configs are `Copy` and
/// replicated across hundreds of ports). [`crate::Fabric::send`] consults
/// the policy before a packet joins a queue, and (for PFC) after enqueues
/// and dequeues to drive pause frames; each question is one `match`, so
/// the per-hop decisions compile to direct, inlinable code. `queued` and
/// `caps` are the port's bytes queued and nominal capacity per priority
/// level.
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

impl SwitchPolicyKind {
    /// Classify `packet` against the port state.
    #[inline]
    pub fn admit(
        &self,
        queued: &[u64; PRIORITY_LEVELS],
        caps: &[u64; PRIORITY_LEVELS],
        packet: &Packet,
    ) -> Verdict {
        let lvl = packet.prio as usize;
        // True when `packet` fits its own priority level's queue.
        let fits = || queued[lvl] + packet.size as u64 <= caps[lvl];
        match *self {
            SwitchPolicyKind::DropTail(_) if fits() => Verdict::Enqueue,
            SwitchPolicyKind::DropTail(_) => Verdict::Drop,
            SwitchPolicyKind::NdpTrim(_) if fits() => Verdict::Enqueue,
            SwitchPolicyKind::NdpTrim(_) => {
                let clvl = Priority::Control as usize;
                let trimmable = packet.prio == Priority::LowLatency && packet.payload() > 0;
                if trimmable && queued[clvl] + HEADER_SIZE as u64 <= caps[clvl] {
                    Verdict::Trim
                } else {
                    Verdict::Drop
                }
            }
            SwitchPolicyKind::Pfc(_) => Verdict::Enqueue,
            SwitchPolicyKind::EcnMark(_) if !fits() => Verdict::Drop,
            SwitchPolicyKind::EcnMark(ecn)
                if packet.payload() > 0 && queued[lvl] >= ecn.mark_bytes =>
            {
                Verdict::Mark
            }
            SwitchPolicyKind::EcnMark(_) => Verdict::Enqueue,
        }
    }

    /// After an enqueue left the port holding `queued`: should this node
    /// pause its upstream peers? The fabric latches the answer per port
    /// and only re-asks after a resume.
    #[inline]
    pub fn should_pause(&self, queued: &[u64; PRIORITY_LEVELS]) -> bool {
        match *self {
            SwitchPolicyKind::Pfc(pfc) => queued.iter().sum::<u64>() >= pfc.pause_bytes,
            SwitchPolicyKind::DropTail(_)
            | SwitchPolicyKind::NdpTrim(_)
            | SwitchPolicyKind::EcnMark(_) => false,
        }
    }

    /// After a dequeue left a pausing port holding `queued`: may the
    /// node's upstream peers resume?
    #[inline]
    pub fn should_resume(&self, queued: &[u64; PRIORITY_LEVELS]) -> bool {
        match *self {
            SwitchPolicyKind::Pfc(pfc) => queued.iter().sum::<u64>() < pfc.resume_bytes,
            SwitchPolicyKind::DropTail(_)
            | SwitchPolicyKind::NdpTrim(_)
            | SwitchPolicyKind::EcnMark(_) => true,
        }
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

    #[test]
    fn drop_tail_drops_at_capacity() {
        let caps = [1_000, 2_000, 3_000];
        let pkt = Packet::data(0, 0, 1, 0, MTU);
        let drop_tail = SwitchPolicyKind::from(DropTail);
        assert_eq!(drop_tail.admit(&[0, 0, 0], &caps, &pkt), Verdict::Enqueue);
        assert_eq!(drop_tail.admit(&[0, 1_000, 0], &caps, &pkt), Verdict::Drop);
    }

    #[test]
    fn ndp_trim_matches_legacy_decision_table() {
        let caps = [12_000, 12_000, 24_000];
        let data = Packet::data(0, 0, 1, 0, MTU);
        let trim = SwitchPolicyKind::from(NdpTrim);
        // Fits: enqueue.
        assert_eq!(trim.admit(&[0, 0, 0], &caps, &data), Verdict::Enqueue);
        // Data queue full, control queue open: trim.
        assert_eq!(trim.admit(&[0, 12_000, 0], &caps, &data), Verdict::Trim);
        // Both full: drop.
        assert_eq!(
            trim.admit(&[12_000, 12_000, 0], &caps, &data),
            Verdict::Drop
        );
        // Control traffic never trims.
        let ctl = Packet::control(0, 0, 1, PacketKind::Hello);
        assert_eq!(trim.admit(&[12_000, 0, 0], &caps, &ctl), Verdict::Drop);
        // Bulk never trims.
        let bulk = Packet::bulk(0, 0, 1, 0, MTU);
        assert_eq!(trim.admit(&[0, 0, 24_000], &caps, &bulk), Verdict::Drop);
        // An already-trimmed header (payload 0) at low-latency would drop,
        // but trimmed headers travel at control priority by construction.
    }

    #[test]
    fn pfc_never_drops_and_tracks_thresholds() {
        let caps = [12_000, 12_000, 24_000];
        let pfc = SwitchPolicyKind::from(Pfc {
            pause_bytes: 10_000,
            resume_bytes: 5_000,
        });
        let pkt = Packet::data(0, 0, 1, 0, MTU);
        // Over nominal capacity: still enqueued.
        assert_eq!(pfc.admit(&[0, 50_000, 0], &caps, &pkt), Verdict::Enqueue);
        assert!(!pfc.should_pause(&[0, 9_999, 0]));
        assert!(pfc.should_pause(&[0, 10_000, 0]));
        assert!(!pfc.should_resume(&[0, 5_000, 0]));
        assert!(pfc.should_resume(&[0, 4_999, 0]));
    }

    #[test]
    fn ecn_marks_above_threshold_only() {
        let caps = [12_000, 48_000, 24_000];
        let ecn = SwitchPolicyKind::from(EcnMark { mark_bytes: 9_000 });
        let pkt = Packet::data(0, 0, 1, 0, MTU);
        assert_eq!(ecn.admit(&[0, 8_999, 0], &caps, &pkt), Verdict::Enqueue);
        assert_eq!(ecn.admit(&[0, 9_000, 0], &caps, &pkt), Verdict::Mark);
        // Full queue still drop-tails.
        assert_eq!(ecn.admit(&[0, 47_000, 0], &caps, &pkt), Verdict::Drop);
        // Control packets are never marked.
        let ctl = Packet::control(0, 0, 1, PacketKind::Hello);
        assert_eq!(ecn.admit(&[9_000, 9_000, 0], &caps, &ctl), Verdict::Enqueue);
    }

    #[test]
    fn kind_default_is_ndp_trim() {
        assert_eq!(
            SwitchPolicyKind::default(),
            SwitchPolicyKind::NdpTrim(NdpTrim)
        );
    }
}
