//! Opt-in structured per-link event tracing.
//!
//! A [`TraceSink`] installed on a [`Fabric`](crate::Fabric) with
//! [`Fabric::set_trace`](crate::Fabric::set_trace) receives one
//! [`TraceRecord`] per observable event on the fabric's hot paths —
//! enqueue / ECN mark / trim / drop verdicts, wire transmissions, PFC
//! pause and resume, plus transport-level ACK receipt and timer firings
//! recorded by the hosts. With no sink installed every hook is a single
//! `Option` check, and tracing is pure observation: installing a sink
//! never changes simulation behavior, so golden outputs stay
//! byte-identical whether or not a trace is captured.
//!
//! Two concrete sinks ship: [`JsonlSink`] (one JSON object per line, the
//! whole event stream) and [`crate::pcapng::PcapngSink`] (wire
//! transmissions only, as a pcapng capture openable in Wireshark).
//! [`MultiSink`] fans one stream out to several sinks, and
//! [`MemorySink`] buffers records in memory for tests.
//!
//! Cost model: [`JsonlSink`] encodes each record into one reused buffer
//! and hands it, newline included, to its writer in a single `write_all`
//! — no allocation and no `core::fmt` per record — so give it a `File`
//! through a `BufWriter` (as [`JsonlSink::create`] does), not bare.
//! [`jsonl_line`] is that same encoder returning a `String`.

use crate::fabric::{NodeId, PortId};
use crate::packet::{Packet, PacketKind, Priority};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// What happened at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Packet admitted to an output queue unchanged.
    Enqueue,
    /// Packet admitted with the ECN congestion-experienced bit set.
    Mark,
    /// Packet trimmed to a header and admitted at control priority.
    Trim,
    /// Packet rejected at a full queue.
    Drop,
    /// Packet dequeued and put on the wire.
    Tx,
    /// A PFC pause frame took effect at this port.
    Pause,
    /// A PFC resume frame took effect at this port.
    Resume,
    /// A transport processed an acknowledgment at its NIC.
    Ack,
    /// A transport timer fired at this host.
    Timer,
}

impl TraceEvent {
    /// Stable lowercase name used in the JSON-lines encoding.
    pub fn name(self) -> &'static str {
        match self {
            TraceEvent::Enqueue => "enqueue",
            TraceEvent::Mark => "mark",
            TraceEvent::Trim => "trim",
            TraceEvent::Drop => "drop",
            TraceEvent::Tx => "tx",
            TraceEvent::Pause => "pause",
            TraceEvent::Resume => "resume",
            TraceEvent::Ack => "ack",
            TraceEvent::Timer => "timer",
        }
    }
}

/// Which [`PacketKind`] a traced packet is, without the variant's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KindTag {
    /// NDP / window data.
    Data = 1,
    /// Cumulative acknowledgment.
    Ack = 2,
    /// NDP negative acknowledgment of a trimmed packet.
    Nack = 3,
    /// NDP pull.
    Pull = 4,
    /// RotorLB bulk data.
    Bulk = 5,
    /// RotorLB bulk negative acknowledgment.
    BulkNack = 6,
    /// Opera per-circuit hello.
    Hello = 7,
}

impl KindTag {
    /// Stable lowercase name used in the JSON-lines encoding.
    pub fn name(self) -> &'static str {
        match self {
            KindTag::Data => "data",
            KindTag::Ack => "ack",
            KindTag::Nack => "nack",
            KindTag::Pull => "pull",
            KindTag::Bulk => "bulk",
            KindTag::BulkNack => "bulk_nack",
            KindTag::Hello => "hello",
        }
    }

    /// Stable one-byte code used in the pcapng metadata capsule.
    pub fn code(self) -> u8 {
        self as u8
    }
}

/// Packet fields captured in a trace record (a flat, owned projection of
/// [`Packet`], so records outlive the arena slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Flow id (`u32::MAX` for flow-less control traffic).
    pub flow: u32,
    /// Source host node id.
    pub src: usize,
    /// Destination host node id.
    pub dst: usize,
    /// Sequence number (pull counter for `Pull`, 0 for `Hello`).
    pub seq: u32,
    /// Bytes on the wire.
    pub size: u32,
    /// Queueing priority class.
    pub prio: Priority,
    /// Packet kind.
    pub kind: KindTag,
    /// The payload was trimmed at an overloaded queue.
    pub trimmed: bool,
    /// ECN congestion-experienced bit.
    pub ce: bool,
}

impl PacketMeta {
    /// Capture the traced fields of `p`.
    pub fn of(p: &Packet) -> Self {
        let (kind, seq, trimmed) = match p.kind {
            PacketKind::Data { seq, trimmed } => (KindTag::Data, seq, trimmed),
            PacketKind::Ack { seq } => (KindTag::Ack, seq, false),
            PacketKind::Nack { seq } => (KindTag::Nack, seq, false),
            PacketKind::Pull { count } => (KindTag::Pull, count, false),
            PacketKind::BulkData { seq, .. } => (KindTag::Bulk, seq, false),
            PacketKind::BulkNack { seq } => (KindTag::BulkNack, seq, false),
            PacketKind::Hello => (KindTag::Hello, 0, false),
        };
        PacketMeta {
            flow: p.flow,
            src: p.src,
            dst: p.dst,
            seq,
            size: p.size,
            prio: p.prio,
            kind,
            trimmed,
            ce: p.ecn_ce,
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// Node where the event happened (the transmitting/queueing side for
    /// packet events; the paused port's owner for pause/resume; the host
    /// NIC for ack/timer).
    pub node: NodeId,
    /// Port within `node`.
    pub port: PortId,
    /// What happened.
    pub event: TraceEvent,
    /// The packet involved, if any (`None` for pause/resume/timer).
    pub packet: Option<PacketMeta>,
}

/// Receiver of trace records.
///
/// `Debug` is required so a fabric holding a sink stays debuggable.
pub trait TraceSink: fmt::Debug {
    /// Observe one event. Sinks must not panic on I/O trouble — stash
    /// the error and surface it from [`TraceSink::finish`].
    fn record(&mut self, rec: &TraceRecord);

    /// Flush and report any deferred error. Called once, at end of run.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// In-memory sink: buffers every record. For tests and programmatic
/// inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every record observed, in order.
    pub records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(*rec);
    }
}

/// Fan one event stream out to several sinks.
#[derive(Debug, Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl MultiSink {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sink; returns `self` for chaining.
    pub fn with(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for MultiSink {
    fn record(&mut self, rec: &TraceRecord) {
        for s in &mut self.sinks {
            s.record(rec);
        }
    }

    /// Finishes every sink, whatever the earlier ones returned, and
    /// reports the first failure (with the count of further ones).
    fn finish(&mut self) -> Result<(), String> {
        let mut errors = Vec::new();
        for s in &mut self.sinks {
            errors.extend(s.finish().err());
        }
        let more = errors.len().saturating_sub(1);
        match errors.into_iter().next() {
            None => Ok(()),
            Some(first) if more == 0 => Err(first),
            Some(first) => Err(format!("{first} (and {more} more sink(s) failed)")),
        }
    }
}

/// JSON-lines sink: one JSON object per record, stable key order, no
/// external dependencies. The full event stream (every [`TraceEvent`]).
pub struct JsonlSink<W: Write> {
    out: W,
    /// The current line, reused from record to record.
    buf: Vec<u8>,
    lines: u64,
    error: Option<String>,
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish()
    }
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) `path` and write records to it, buffered.
    pub fn create(path: &Path) -> Result<Self, String> {
        let f = File::create(path).map_err(|e| format!("trace jsonl {}: {e}", path.display()))?;
        Ok(JsonlSink::new(BufWriter::new(f)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap any writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: Vec::new(),
            lines: 0,
            error: None,
        }
    }

    /// Records written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Consume the sink and return the inner writer (tests).
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Append `v` in decimal.
fn push_uint(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

fn push_bool(buf: &mut Vec<u8>, v: bool) {
    buf.extend_from_slice(if v { b"true" } else { b"false" });
}

/// Append one record's JSON-lines object (no trailing newline): the one
/// encoder behind [`JsonlSink`] and [`jsonl_line`]. Every value is an
/// unsigned integer, a boolean or a fixed ASCII name, so nothing needs
/// escaping.
fn push_jsonl(buf: &mut Vec<u8>, rec: &TraceRecord) {
    buf.extend_from_slice(b"{\"t\":");
    push_uint(buf, rec.t_ns);
    buf.extend_from_slice(b",\"event\":\"");
    buf.extend_from_slice(rec.event.name().as_bytes());
    buf.extend_from_slice(b"\",\"node\":");
    push_uint(buf, rec.node as u64);
    buf.extend_from_slice(b",\"port\":");
    push_uint(buf, rec.port as u64);
    if let Some(m) = &rec.packet {
        buf.extend_from_slice(b",\"flow\":");
        push_uint(buf, u64::from(m.flow));
        buf.extend_from_slice(b",\"src\":");
        push_uint(buf, m.src as u64);
        buf.extend_from_slice(b",\"dst\":");
        push_uint(buf, m.dst as u64);
        buf.extend_from_slice(b",\"seq\":");
        push_uint(buf, u64::from(m.seq));
        buf.extend_from_slice(b",\"size\":");
        push_uint(buf, u64::from(m.size));
        buf.extend_from_slice(b",\"prio\":");
        push_uint(buf, m.prio as u64);
        buf.extend_from_slice(b",\"kind\":\"");
        buf.extend_from_slice(m.kind.name().as_bytes());
        buf.extend_from_slice(b"\",\"trimmed\":");
        push_bool(buf, m.trimmed);
        buf.extend_from_slice(b",\"ce\":");
        push_bool(buf, m.ce);
    }
    buf.push(b'}');
}

/// Render one record as its JSON-lines object (no trailing newline).
/// Key order is part of the format: `t`, `event`, `node`, `port`, then —
/// for packet events — `flow`, `src`, `dst`, `seq`, `size`, `prio`,
/// `kind`, `trimmed`, `ce`.
pub fn jsonl_line(rec: &TraceRecord) -> String {
    let mut buf = Vec::new();
    push_jsonl(&mut buf, rec);
    String::from_utf8(buf).expect("the encoder emits ASCII only")
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        push_jsonl(&mut self.buf, rec);
        self.buf.push(b'\n');
        if let Err(e) = self.out.write_all(&self.buf) {
            self.error = Some(format!("trace jsonl write: {e}"));
            return;
        }
        self.lines += 1;
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out
            .flush()
            .map_err(|e| format!("trace jsonl flush: {e}"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// The `format!`-based encoder this module shipped before the
    /// allocation-free one: the reference [`push_jsonl`] must match.
    fn jsonl_line_oracle(rec: &TraceRecord) -> String {
        let mut s = format!(
            "{{\"t\":{},\"event\":\"{}\",\"node\":{},\"port\":{}",
            rec.t_ns,
            rec.event.name(),
            rec.node,
            rec.port
        );
        if let Some(m) = &rec.packet {
            use std::fmt::Write as _;
            let _ = write!(
                s,
                ",\"flow\":{},\"src\":{},\"dst\":{},\"seq\":{},\"size\":{},\"prio\":{},\
                 \"kind\":\"{}\",\"trimmed\":{},\"ce\":{}",
                m.flow,
                m.src,
                m.dst,
                m.seq,
                m.size,
                m.prio as u8,
                m.kind.name(),
                m.trimmed,
                m.ce
            );
        }
        s.push('}');
        s
    }

    /// A value at a digit-count or integer-width boundary (0, 9 / 10,
    /// 99 / 100, the flow-less `u32::MAX`, one past it, `u64::MAX`), or
    /// `raw` itself, chosen by `sel`.
    fn edge(sel: u64, raw: u64) -> u64 {
        match sel % 10 {
            0 => 0,
            1 => 9,
            2 => 10,
            3 => 99,
            4 => 100,
            5 => u64::from(u32::MAX),
            6 => u64::from(u32::MAX) + 1,
            7 => u64::MAX,
            8 => raw & 0xFFFF,
            _ => raw,
        }
    }

    /// Bit-slice three random words into a record: `sel` picks the event,
    /// kind, priority, flags and which fields sit on an [`edge`].
    pub(crate) fn record_of(sel: u64, a: u64, b: u64) -> TraceRecord {
        use TraceEvent::*;
        let event = [Enqueue, Mark, Trim, Drop, Tx, Pause, Resume, Ack, Timer][(sel % 9) as usize];
        let kind = match (sel >> 4) % 7 {
            0 => KindTag::Data,
            1 => KindTag::Ack,
            2 => KindTag::Nack,
            3 => KindTag::Pull,
            4 => KindTag::Bulk,
            5 => KindTag::BulkNack,
            _ => KindTag::Hello,
        };
        let prio = match (sel >> 8) % 3 {
            0 => Priority::Control,
            1 => Priority::LowLatency,
            _ => Priority::Bulk,
        };
        let meta = PacketMeta {
            flow: edge(sel >> 16, a >> 32) as u32,
            src: edge(sel >> 20, a) as usize,
            dst: edge(sel >> 24, b) as usize,
            seq: edge(sel >> 28, b >> 32) as u32,
            size: edge(sel >> 32, a >> 16) as u32,
            prio,
            kind,
            trimmed: (sel >> 10) & 1 == 1,
            ce: (sel >> 11) & 1 == 1,
        };
        TraceRecord {
            t_ns: edge(sel >> 36, a ^ b),
            node: edge(sel >> 40, a.rotate_left(17)) as usize,
            port: edge(sel >> 44, b.rotate_left(29)) as usize,
            event,
            // One record in four is port-only, whatever its event.
            packet: ((sel >> 12) & 3 != 0).then_some(meta),
        }
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The reused-buffer encoder emits exactly the bytes the
        /// `format!` encoder did, from the sink and from `jsonl_line`.
        #[test]
        fn jsonl_encoder_matches_format_oracle(
            words in prop::collection::vec(0u64..u64::MAX, 3..150),
        ) {
            let mut sink = JsonlSink::new(Vec::new());
            let mut expect = String::new();
            for w in words.chunks_exact(3) {
                let rec = record_of(w[0], w[1], w[2]);
                let line = jsonl_line_oracle(&rec);
                prop_assert_eq!(&jsonl_line(&rec), &line);
                sink.record(&rec);
                expect.push_str(&line);
                expect.push('\n');
            }
            sink.finish().unwrap();
            prop_assert_eq!(sink.lines(), (words.len() / 3) as u64);
            prop_assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expect);
        }
    }

    #[test]
    fn uint_writer_covers_every_digit_count() {
        let mut v = 1u64;
        let mut cases = vec![0, u64::MAX];
        while let Some(next) = v.checked_mul(10) {
            cases.extend([v - 1, v, v + 1]);
            v = next;
        }
        cases.extend([v - 1, v, v + 1]); // 10^19
        for n in cases {
            let mut buf = Vec::new();
            push_uint(&mut buf, n);
            assert_eq!(String::from_utf8(buf).unwrap(), n.to_string());
        }
    }

    #[test]
    fn jsonl_sink_issues_one_write_per_record() {
        let mut sink = JsonlSink::new(CountingWriter::default());
        let n = 300u64;
        for i in 0..n {
            sink.record(&record_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i, !i));
        }
        sink.finish().unwrap();
        let writes = sink.into_inner().writes;
        assert_eq!(writes.len() as u64, n);
        for w in &writes {
            assert_eq!(w.iter().position(|&b| b == b'\n'), Some(w.len() - 1));
        }
    }

    /// Counts `finish` calls and fails them when `fail` is set.
    #[derive(Debug)]
    struct FinishProbe {
        fail: Option<&'static str>,
        finished: Rc<Cell<u32>>,
    }

    impl TraceSink for FinishProbe {
        fn record(&mut self, _: &TraceRecord) {}

        fn finish(&mut self) -> Result<(), String> {
            self.finished.set(self.finished.get() + 1);
            self.fail.map_or(Ok(()), |e| Err(e.to_string()))
        }
    }

    #[test]
    fn multi_sink_finishes_every_sink_after_a_failure() {
        let finished = Rc::new(Cell::new(0));
        let probe = |fail| {
            Box::new(FinishProbe {
                fail,
                finished: finished.clone(),
            })
        };
        let mut multi = MultiSink::new()
            .with(probe(Some("disk full")))
            .with(probe(None));
        assert_eq!(multi.finish().unwrap_err(), "disk full");
        assert_eq!(
            finished.get(),
            2,
            "the sink after the failing one was not finished"
        );

        let mut multi = MultiSink::new()
            .with(probe(Some("disk full")))
            .with(probe(None))
            .with(probe(Some("closed pipe")))
            .with(probe(Some("closed pipe")));
        let err = multi.finish().unwrap_err();
        assert_eq!(err, "disk full (and 2 more sink(s) failed)");
        assert_eq!(finished.get(), 6);
    }

    fn rec(event: TraceEvent, packet: Option<PacketMeta>) -> TraceRecord {
        TraceRecord {
            t_ns: 1700,
            node: 2,
            port: 1,
            event,
            packet,
        }
    }

    #[test]
    fn jsonl_packet_line_is_stable() {
        let p = Packet::data(7, 0, 3, 5, 1500);
        let line = jsonl_line(&rec(TraceEvent::Tx, Some(PacketMeta::of(&p))));
        assert_eq!(
            line,
            "{\"t\":1700,\"event\":\"tx\",\"node\":2,\"port\":1,\"flow\":7,\"src\":0,\
             \"dst\":3,\"seq\":5,\"size\":1500,\"prio\":1,\"kind\":\"data\",\
             \"trimmed\":false,\"ce\":false}"
        );
    }

    #[test]
    fn jsonl_portonly_line_omits_packet_keys() {
        let line = jsonl_line(&rec(TraceEvent::Pause, None));
        assert_eq!(
            line,
            "{\"t\":1700,\"event\":\"pause\",\"node\":2,\"port\":1}"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        let p = Packet::data(1, 0, 1, 0, 64);
        sink.record(&rec(TraceEvent::Enqueue, Some(PacketMeta::of(&p))));
        sink.record(&rec(TraceEvent::Timer, None));
        sink.finish().unwrap();
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for l in text.lines() {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn multi_sink_fans_out() {
        let multi = MultiSink::new()
            .with(Box::new(MemorySink::new()))
            .with(Box::new(MemorySink::new()));
        assert_eq!(multi.len(), 2);
        let mut multi = multi;
        multi.record(&rec(TraceEvent::Drop, None));
        multi.finish().unwrap();
        let dbg = format!("{multi:?}");
        assert!(dbg.contains("MemorySink"));
    }

    #[test]
    fn meta_captures_kind_names() {
        let kinds = [
            (
                PacketKind::Data {
                    seq: 3,
                    trimmed: true,
                },
                "data",
                3,
                true,
            ),
            (PacketKind::Ack { seq: 9 }, "ack", 9, false),
            (PacketKind::Nack { seq: 2 }, "nack", 2, false),
            (PacketKind::Pull { count: 4 }, "pull", 4, false),
            (PacketKind::Hello, "hello", 0, false),
        ];
        for (kind, name, seq, trimmed) in kinds {
            let mut p = Packet::data(1, 0, 1, 0, 64);
            p.kind = kind;
            let m = PacketMeta::of(&p);
            assert_eq!((m.kind.name(), m.seq, m.trimmed), (name, seq, trimmed));
        }
    }
}
