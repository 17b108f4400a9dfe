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
//! Cost model: [`JsonlSink`] writes each record once, into a fixed
//! line it owns — keys as constant-length copies, names from padded
//! tables, integers two digits a step into a place sized by counting the
//! digits first — and hands the line, newline included, to its writer in
//! a single `write_all`: no allocation, no `core::fmt` and no `Vec`
//! growth check per record, 30–40 ns of encoding on the benchmark's host
//! (README, "The trace encoders"). The writer sees one small write a
//! record, so give the sink a `File` through a `BufWriter` (as
//! [`JsonlSink::create`] does), not bare. [`jsonl_line`] is that same
//! encoder returning a `String`.

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
    /// Every event, in discriminant order.
    pub const ALL: [TraceEvent; 9] = [
        TraceEvent::Enqueue,
        TraceEvent::Mark,
        TraceEvent::Trim,
        TraceEvent::Drop,
        TraceEvent::Tx,
        TraceEvent::Pause,
        TraceEvent::Resume,
        TraceEvent::Ack,
        TraceEvent::Timer,
    ];

    /// The event whose [`name`](Self::name) is `name`, if there is one.
    pub fn from_name(name: &str) -> Option<TraceEvent> {
        Self::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Stable lowercase name used in the JSON-lines encoding.
    pub const fn name(self) -> &'static str {
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
    /// Every kind, in code order.
    pub const ALL: [KindTag; 7] = [
        KindTag::Data,
        KindTag::Ack,
        KindTag::Nack,
        KindTag::Pull,
        KindTag::Bulk,
        KindTag::BulkNack,
        KindTag::Hello,
    ];

    /// Stable lowercase name used in the JSON-lines encoding.
    pub const fn name(self) -> &'static str {
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

/// A name padded to [`NAME_PAD`] bytes: the encoder copies the fixed
/// width and advances by `len`.
#[derive(Clone, Copy)]
struct Padded {
    bytes: [u8; NAME_PAD],
    len: usize,
}

/// Copy width of a name; the bytes after the longest line's last name
/// (`","trimmed":false…`) outnumber the padding, so the copy stays inside
/// [`LINE_MAX`] wherever the name lands.
const NAME_PAD: usize = 16;

const fn padded(name: &str) -> Padded {
    let mut bytes = [0; NAME_PAD];
    let mut i = 0;
    while i < name.len() {
        bytes[i] = name.as_bytes()[i];
        i += 1;
    }
    Padded {
        bytes,
        len: name.len(),
    }
}

/// [`TraceEvent::name`] by discriminant.
static EVENT_NAMES: [Padded; TraceEvent::ALL.len()] = {
    let mut names = [padded(""); TraceEvent::ALL.len()];
    let mut i = 0;
    while i < names.len() {
        names[TraceEvent::ALL[i] as usize] = padded(TraceEvent::ALL[i].name());
        i += 1;
    }
    names
};

/// [`KindTag::name`] by [`KindTag::code`] − 1.
static KIND_NAMES: [Padded; KindTag::ALL.len()] = {
    let mut names = [padded(""); KindTag::ALL.len()];
    let mut i = 0;
    while i < names.len() {
        names[KindTag::ALL[i] as usize - 1] = padded(KindTag::ALL[i].name());
        i += 1;
    }
    names
};

/// `"00"`, `"01"`, … `"99"`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Bytes of the longest line, newline included: 104 of keys and
/// punctuation, `t` / `node` / `port` / `src` / `dst` at 20 digits, `flow`
/// / `seq` / `size` at 10, `prio` at one, `enqueue`, `bulk_nack`, `false`
/// twice, `}` and the newline (`longest_line_fills_the_buffer` builds it).
const LINE_MAX: usize = 104 + 5 * 20 + 3 * 10 + 1 + 7 + 9 + 2 * 5 + 2;

/// One JSON-lines record, newline included, in a fixed buffer: the one
/// encoder behind [`JsonlSink`] and [`jsonl_line`]. Every value is an
/// unsigned integer, a boolean or a fixed ASCII name, so nothing needs
/// escaping.
struct Line {
    bytes: [u8; LINE_MAX],
    len: usize,
}

impl Line {
    fn new() -> Self {
        Line {
            bytes: [0; LINE_MAX],
            len: 0,
        }
    }

    fn lit<const N: usize>(&mut self, s: &[u8; N]) {
        self.bytes[self.len..self.len + N].copy_from_slice(s);
        self.len += N;
    }

    fn name(&mut self, name: &Padded) {
        self.bytes[self.len..self.len + NAME_PAD].copy_from_slice(&name.bytes);
        self.len += name.len;
    }

    fn flag(&mut self, v: bool) {
        if v {
            self.lit(b"true");
        } else {
            self.lit(b"false");
        }
    }

    /// Store `pair`, below 100, as two digits at `at`.
    fn pair(&mut self, at: usize, pair: u32) {
        let pair = 2 * pair as usize;
        self.bytes[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }

    /// `v` in decimal: its digits counted, then stored from the last pair
    /// back. Inlined, so the cursor stays in a register from key to key.
    #[inline(always)]
    fn uint(&mut self, v: u64) {
        // Times and ids fit 32 bits in any run short of 4.29 simulated
        // seconds.
        let Ok(mut v) = u32::try_from(v) else {
            return self.uint_wide(v);
        };
        // `v | 1` has as many digits as `v`, and a logarithm at 0.
        let end = self.len + (v | 1).ilog10() as usize + 1;
        let mut at = end;
        while v >= 100 {
            at -= 2;
            self.pair(at, v % 100);
            v /= 100;
        }
        if v >= 10 {
            self.pair(at - 2, v);
        } else {
            self.bytes[at - 1] = b'0' + v as u8;
        }
        self.len = end;
    }

    /// [`uint`](Self::uint) past 32 bits: the eight low digits are four
    /// pairs, and what is above them is `uint`'s again (`u64::MAX` splits
    /// twice).
    #[cold]
    fn uint_wide(&mut self, v: u64) {
        self.uint(v / 100_000_000);
        let mut low = (v % 100_000_000) as u32;
        self.len += 8;
        for back in [2, 4, 6, 8] {
            self.pair(self.len - back, low % 100);
            low /= 100;
        }
    }

    /// Overwrite the line with `rec`'s and return it.
    fn encode(&mut self, rec: &TraceRecord) -> &[u8] {
        self.len = 0;
        self.lit(b"{\"t\":");
        self.uint(rec.t_ns);
        self.lit(b",\"event\":\"");
        self.name(&EVENT_NAMES[rec.event as usize]);
        self.lit(b"\",\"node\":");
        self.uint(rec.node as u64);
        self.lit(b",\"port\":");
        self.uint(rec.port as u64);
        if let Some(m) = &rec.packet {
            self.lit(b",\"flow\":");
            self.uint(u64::from(m.flow));
            self.lit(b",\"src\":");
            self.uint(m.src as u64);
            self.lit(b",\"dst\":");
            self.uint(m.dst as u64);
            self.lit(b",\"seq\":");
            self.uint(u64::from(m.seq));
            self.lit(b",\"size\":");
            self.uint(u64::from(m.size));
            self.lit(b",\"prio\":");
            self.uint(m.prio as u64);
            self.lit(b",\"kind\":\"");
            self.name(&KIND_NAMES[m.kind as usize - 1]);
            self.lit(b"\",\"trimmed\":");
            self.flag(m.trimmed);
            self.lit(b",\"ce\":");
            self.flag(m.ce);
        }
        self.lit(b"}\n");
        &self.bytes[..self.len]
    }
}

/// JSON-lines sink: one JSON object per record, stable key order, no
/// external dependencies. The full event stream (every [`TraceEvent`]).
pub struct JsonlSink<W: Write> {
    out: W,
    /// The current line, overwritten record by record.
    line: Line,
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
            line: Line::new(),
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

/// Render one record as its JSON-lines object (no trailing newline).
/// Key order is part of the format: `t`, `event`, `node`, `port`, then —
/// for packet events — `flow`, `src`, `dst`, `seq`, `size`, `prio`,
/// `kind`, `trimmed`, `ce`.
pub fn jsonl_line(rec: &TraceRecord) -> String {
    let mut line = Line::new();
    let object = line
        .encode(rec)
        .strip_suffix(b"\n")
        .expect("a line ends in its newline");
    String::from_utf8(object.to_vec()).expect("the encoder emits ASCII only")
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(self.line.encode(rec)) {
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
    use simkit::cases::{self, Draw};
    use std::cell::Cell;
    use std::rc::Rc;

    /// The `format!`-based encoder this module first shipped: the
    /// reference [`Line::encode`] must match.
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
        let event = TraceEvent::ALL[(sel % 9) as usize];
        let kind = KindTag::ALL[((sel >> 4) % 7) as usize];
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

    /// The reused-buffer encoder emits exactly the bytes the
    /// `format!` encoder did, from the sink and from `jsonl_line`.
    #[test]
    fn jsonl_encoder_matches_format_oracle() {
        let draw = |d: &mut Draw| d.vec(3..150, |d| d.u64(0..u64::MAX));
        cases::check("jsonl_encoder_matches_format_oracle", 64, draw, |words| {
            let mut sink = JsonlSink::new(Vec::new());
            let mut expect = String::new();
            for w in words.chunks_exact(3) {
                let rec = record_of(w[0], w[1], w[2]);
                let line = jsonl_line_oracle(&rec);
                assert_eq!(&jsonl_line(&rec), &line);
                sink.record(&rec);
                expect.push_str(&line);
                expect.push('\n');
            }
            sink.finish().unwrap();
            assert_eq!(sink.lines(), (words.len() / 3) as u64);
            assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expect);
        });
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
        let mut line = Line::new();
        for n in cases {
            line.len = 0;
            line.uint(n);
            assert_eq!(&line.bytes[..line.len], n.to_string().as_bytes());
        }
    }

    /// Sink and `jsonl_line` both against the `format!` oracle.
    fn assert_matches_oracle(sink: &mut JsonlSink<Vec<u8>>, rec: &TraceRecord) {
        let line = jsonl_line_oracle(rec);
        assert_eq!(jsonl_line(rec), line, "{rec:?}");
        let before = sink.out.len();
        sink.record(rec);
        assert_eq!(
            &sink.out[before..],
            format!("{line}\n").as_bytes(),
            "{rec:?}"
        );
    }

    /// Every event × kind × priority × flag pair, with and without a
    /// packet, over one reused line (so a shorter record follows a longer
    /// one and must not show its tail).
    #[test]
    fn jsonl_encoder_matches_format_oracle_on_the_whole_grid() {
        let mut sink = JsonlSink::new(Vec::new());
        let mut n = 0u32;
        for event in TraceEvent::ALL {
            for kind in KindTag::ALL {
                for prio in [Priority::Control, Priority::LowLatency, Priority::Bulk] {
                    for flags in 0..4 {
                        n += 1;
                        let meta = PacketMeta {
                            flow: n,
                            src: 3 * n as usize,
                            dst: 1 << (n % 40),
                            seq: u32::MAX / n,
                            size: 64 + n,
                            prio,
                            kind,
                            trimmed: flags & 1 != 0,
                            ce: flags & 2 != 0,
                        };
                        for packet in [Some(meta), None] {
                            let rec = TraceRecord {
                                t_ns: u64::from(n) * 1_234_567,
                                node: n as usize % 108,
                                port: n as usize % 12,
                                event,
                                packet,
                            };
                            assert_matches_oracle(&mut sink, &rec);
                        }
                    }
                }
            }
        }
        assert_eq!(sink.lines(), 2 * 9 * 7 * 3 * 4);
    }

    /// `LINE_MAX` is the longest line and not a byte more: every number
    /// at its type's maximum (`usize` as wide as `u64`), the longest names,
    /// both flags `false`.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn longest_line_fills_the_buffer() {
        let event = TraceEvent::ALL.into_iter().max_by_key(|e| e.name().len());
        let kind = KindTag::ALL.into_iter().max_by_key(|k| k.name().len());
        let rec = TraceRecord {
            t_ns: u64::MAX,
            node: usize::MAX,
            port: usize::MAX,
            event: event.unwrap(),
            packet: Some(PacketMeta {
                flow: u32::MAX,
                src: usize::MAX,
                dst: usize::MAX,
                seq: u32::MAX,
                size: u32::MAX,
                prio: Priority::Bulk,
                kind: kind.unwrap(),
                trimmed: false,
                ce: false,
            }),
        };
        let line = jsonl_line(&rec);
        assert_eq!(line, jsonl_line_oracle(&rec));
        assert_eq!(line.len() + 1, LINE_MAX);
    }

    /// `ALL` lists every variant in discriminant order, the encoder's
    /// padded tables hold their names, and the names are the format's:
    /// pinned here.
    #[test]
    fn name_tables_cover_every_variant_in_order() {
        let events = [
            "enqueue", "mark", "trim", "drop", "tx", "pause", "resume", "ack", "timer",
        ];
        for (i, e) in TraceEvent::ALL.into_iter().enumerate() {
            assert_eq!((e as usize, e.name()), (i, events[i]));
            let entry = &EVENT_NAMES[i];
            assert_eq!(&entry.bytes[..entry.len], e.name().as_bytes());
            assert_eq!(TraceEvent::from_name(e.name()), Some(e));
        }
        assert_eq!(TraceEvent::from_name("bogus"), None);
        let kinds = ["data", "ack", "nack", "pull", "bulk", "bulk_nack", "hello"];
        for (i, k) in KindTag::ALL.into_iter().enumerate() {
            assert_eq!((k.code() as usize, k.name()), (i + 1, kinds[i]));
            let entry = &KIND_NAMES[i];
            assert_eq!(&entry.bytes[..entry.len], k.name().as_bytes());
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
