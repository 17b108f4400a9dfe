//! Self-contained pcapng writer and reader.
//!
//! The writer emits a little-endian pcapng file — one Section Header
//! Block, one Interface Description Block per fabric link (registered
//! lazily, in first-transmission order; interleaving IDBs with packet
//! blocks is legal pcapng), and one Enhanced Packet Block per wire
//! transmission. Timestamps are raw simulation nanoseconds
//! (`if_tsresol = 9`). Since the simulator carries no payload bytes,
//! each EPB holds a synthesized Ethernet + IPv4 + UDP frame whose
//! addresses encode the fabric node ids and whose UDP payload is a
//! fixed-layout metadata capsule (flow, seq, kind, priority, flags,
//! simulated wire size) — enough for Wireshark to dissect and for the
//! [`read`] function to reconstruct every traced field exactly.
//!
//! The reader validates structure as it parses (magic, version, block
//! length framing, interface references, timestamp resolution, monotone
//! timestamps) and returns the decoded packets; round-tripping through
//! [`PcapngWriter`] then [`read`] is lossless for every
//! [`PacketMeta`] field. [`PcapngSink`] adapts the writer to the
//! [`TraceSink`] interface, keeping only [`TraceEvent::Tx`] records —
//! a capture file shows what was on the wire, not queue bookkeeping.

use crate::fabric::{NodeId, PortId};
use crate::packet::Priority;
use crate::trace::{KindTag, PacketMeta, TraceEvent, TraceRecord, TraceSink};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// pcapng Section Header Block type.
const SHB: u32 = 0x0A0D_0D0A;
/// pcapng Interface Description Block type.
const IDB: u32 = 0x0000_0001;
/// pcapng Enhanced Packet Block type.
const EPB: u32 = 0x0000_0006;
/// Little-endian byte-order magic.
const MAGIC: u32 = 0x1A2B_3C4D;
/// LINKTYPE_ETHERNET.
const LINKTYPE: u16 = 1;
/// UDP destination port marking synthesized opera-repro frames
/// (`0x4F50` = ASCII "OP").
pub const UDP_PORT: u16 = 0x4F50;
/// Magic prefix of the metadata capsule carried as UDP payload.
const CAPSULE_MAGIC: &[u8; 4] = b"OPRA";
/// Capsule layout version.
const CAPSULE_VERSION: u8 = 1;
/// Capsule length: magic + version/kind/prio/flags + 5 × u32.
const CAPSULE_LEN: usize = 4 + 4 + 20;
/// Synthesized frame length: Ethernet(14) + IPv4(20) + UDP(8) + capsule.
const FRAME_LEN: usize = 14 + 20 + 8 + CAPSULE_LEN;
/// Enhanced Packet Block length: type + length, the 20-byte EPB prefix,
/// the frame padded to 32 bits, the length trailer.
const EPB_LEN: usize = 8 + 20 + FRAME_LEN.next_multiple_of(4) + 4;
/// `by_link` entry of a link without an interface yet.
const UNREGISTERED: u32 = u32::MAX;

/// Capsule flag bits the writer sets: CE and trimmed.
const CAPSULE_FLAGS: u8 = 0b11;

/// Inverse of [`KindTag::code`].
fn kind_of(code: u8) -> Option<KindTag> {
    KindTag::ALL.into_iter().find(|k| k.code() == code)
}

/// Inverse of `Priority as u8`.
fn prio_of(code: u8) -> Option<Priority> {
    match code {
        0 => Some(Priority::Control),
        1 => Some(Priority::LowLatency),
        2 => Some(Priority::Bulk),
        _ => None,
    }
}

/// Append one pcapng option (code, padded value) to `body`.
fn push_option(body: &mut Vec<u8>, code: u16, value: &[u8]) {
    body.extend_from_slice(&code.to_le_bytes());
    body.extend_from_slice(&(value.len() as u16).to_le_bytes());
    body.extend_from_slice(value);
    while !body.len().is_multiple_of(4) {
        body.push(0);
    }
}

/// A locally-administered MAC encoding a fabric node id.
fn mac_of(node: usize) -> [u8; 6] {
    let n = node as u32;
    [
        0x02,
        0x00,
        (n >> 24) as u8,
        (n >> 16) as u8,
        (n >> 8) as u8,
        n as u8,
    ]
}

/// `10.a.b.c` encoding the low 24 bits of a fabric node id.
fn ip_of(node: usize) -> [u8; 4] {
    let n = node as u32;
    [10, (n >> 16) as u8, (n >> 8) as u8, n as u8]
}

/// RFC 1071 ones-complement checksum over `bytes` (even length).
fn ipv4_checksum(bytes: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for pair in bytes.chunks(2) {
        sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Build the synthesized Ethernet/IPv4/UDP frame for one transmission.
fn synth_frame(meta: &PacketMeta) -> [u8; FRAME_LEN] {
    let mut f = [0u8; FRAME_LEN];
    // Ethernet II.
    f[0..6].copy_from_slice(&mac_of(meta.dst));
    f[6..12].copy_from_slice(&mac_of(meta.src));
    f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    // IPv4 header (ECN CE in the low TOS bits, UDP, no fragmentation:
    // flags + fragment offset stay 0).
    f[14] = 0x45;
    f[15] = if meta.ce { 0x03 } else { 0x00 };
    f[16..18].copy_from_slice(&((20 + 8 + CAPSULE_LEN) as u16).to_be_bytes());
    f[18..20].copy_from_slice(&(meta.seq as u16).to_be_bytes());
    f[22] = 64; // TTL
    f[23] = 17; // UDP
    f[26..30].copy_from_slice(&ip_of(meta.src));
    f[30..34].copy_from_slice(&ip_of(meta.dst));
    // Computed with its own field (24..26) still zero.
    let ck = ipv4_checksum(&f[14..34]);
    f[24..26].copy_from_slice(&ck.to_be_bytes());
    // UDP header (checksum 0 = unused, legal for UDP/IPv4).
    f[34..36].copy_from_slice(&(meta.flow as u16).to_be_bytes());
    f[36..38].copy_from_slice(&UDP_PORT.to_be_bytes());
    f[38..40].copy_from_slice(&((8 + CAPSULE_LEN) as u16).to_be_bytes());
    // Metadata capsule.
    f[42..46].copy_from_slice(CAPSULE_MAGIC);
    f[46] = CAPSULE_VERSION;
    f[47] = meta.kind.code();
    f[48] = meta.prio as u8;
    f[49] = u8::from(meta.ce) | (u8::from(meta.trimmed) << 1);
    f[50..54].copy_from_slice(&meta.flow.to_le_bytes());
    f[54..58].copy_from_slice(&meta.seq.to_le_bytes());
    f[58..62].copy_from_slice(&meta.size.to_le_bytes());
    f[62..66].copy_from_slice(&(meta.src as u32).to_le_bytes());
    f[66..70].copy_from_slice(&(meta.dst as u32).to_le_bytes());
    f
}

/// Streaming pcapng writer: one interface per fabric link, one enhanced
/// packet block per transmission.
pub struct PcapngWriter<W: Write> {
    out: W,
    /// Interfaces registered so far; the next link's id.
    ifaces: u32,
    /// Interface id by `[node][port]`, [`UNREGISTERED`] where none yet.
    /// Fabric node and port ids are small dense integers.
    by_link: Vec<Vec<u32>>,
    packets: u64,
}

impl<W: Write> fmt::Debug for PcapngWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcapngWriter")
            .field("ifaces", &self.ifaces)
            .field("packets", &self.packets)
            .finish()
    }
}

impl PcapngWriter<BufWriter<File>> {
    /// Create (truncate) `path` and start a section there.
    pub fn create(path: &Path) -> Result<Self, String> {
        let f = File::create(path).map_err(|e| format!("pcapng {}: {e}", path.display()))?;
        PcapngWriter::new(BufWriter::new(f)).map_err(|e| format!("pcapng {}: {e}", path.display()))
    }
}

impl<W: Write> PcapngWriter<W> {
    /// Wrap `out` and write the Section Header Block.
    pub fn new(out: W) -> io::Result<Self> {
        let mut w = PcapngWriter {
            out,
            ifaces: 0,
            by_link: Vec::new(),
            packets: 0,
        };
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes()); // major
        body.extend_from_slice(&0u16.to_le_bytes()); // minor
        body.extend_from_slice(&u64::MAX.to_le_bytes()); // section length unknown
        push_option(&mut body, 4, b"opera-repro netsim"); // shb_userappl
        push_option(&mut body, 0, b""); // opt_endofopt
        w.block(SHB, &body)?;
        Ok(w)
    }

    fn block(&mut self, block_type: u32, body: &[u8]) -> io::Result<()> {
        debug_assert_eq!(body.len() % 4, 0);
        let total = (body.len() + 12) as u32;
        self.out.write_all(&block_type.to_le_bytes())?;
        self.out.write_all(&total.to_le_bytes())?;
        self.out.write_all(body)?;
        self.out.write_all(&total.to_le_bytes())?;
        Ok(())
    }

    /// Interface id for a link, writing its Interface Description Block
    /// on first sight. Call directly to register a link that may carry
    /// no packets (it still appears in the capture). The id map is dense,
    /// so it grows with the largest `node` and `port` seen.
    pub fn register_link(&mut self, node: NodeId, port: PortId) -> io::Result<u32> {
        if self.by_link.len() <= node {
            self.by_link.resize(node + 1, Vec::new());
        }
        let ports = &mut self.by_link[node];
        if ports.len() <= port {
            ports.resize(port + 1, UNREGISTERED);
        }
        if ports[port] != UNREGISTERED {
            return Ok(ports[port]);
        }
        let id = self.ifaces;
        ports[port] = id;
        self.ifaces += 1;
        let mut body = Vec::new();
        body.extend_from_slice(&LINKTYPE.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes()); // reserved
        body.extend_from_slice(&0u32.to_le_bytes()); // snaplen: unlimited
        push_option(&mut body, 2, format!("n{node}.p{port}").as_bytes()); // if_name
        push_option(&mut body, 9, &[9]); // if_tsresol: nanoseconds
        push_option(&mut body, 0, b"");
        self.block(IDB, &body)?;
        Ok(id)
    }

    /// Write one transmission as an Enhanced Packet Block on the
    /// interface of link `(node, port)` at `t_ns` simulation time.
    pub fn packet(
        &mut self,
        t_ns: u64,
        node: NodeId,
        port: PortId,
        meta: &PacketMeta,
    ) -> io::Result<()> {
        let iface = self.register_link(node, port)?;
        // The whole block in one array, so it reaches `out` in one write.
        let mut b = [0u8; EPB_LEN];
        b[0..4].copy_from_slice(&EPB.to_le_bytes());
        b[4..8].copy_from_slice(&(EPB_LEN as u32).to_le_bytes());
        b[8..12].copy_from_slice(&iface.to_le_bytes());
        b[12..16].copy_from_slice(&((t_ns >> 32) as u32).to_le_bytes());
        b[16..20].copy_from_slice(&(t_ns as u32).to_le_bytes());
        b[20..24].copy_from_slice(&(FRAME_LEN as u32).to_le_bytes()); // captured
        b[24..28].copy_from_slice(&meta.size.to_le_bytes()); // original
        b[28..28 + FRAME_LEN].copy_from_slice(&synth_frame(meta));
        b[EPB_LEN - 4..].copy_from_slice(&(EPB_LEN as u32).to_le_bytes());
        self.out.write_all(&b)?;
        self.packets += 1;
        Ok(())
    }

    /// Packets written so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Flush the underlying writer.
    pub fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Consume the writer and return the inner writer (tests).
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// [`TraceSink`] adapter over [`PcapngWriter`]: records only
/// [`TraceEvent::Tx`] (what was actually on the wire), deferring I/O
/// errors to [`TraceSink::finish`].
pub struct PcapngSink<W: Write> {
    w: PcapngWriter<W>,
    error: Option<String>,
}

impl<W: Write> fmt::Debug for PcapngSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcapngSink")
            .field("writer", &self.w)
            .field("error", &self.error)
            .finish()
    }
}

impl PcapngSink<BufWriter<File>> {
    /// Create (truncate) `path` and capture transmissions to it.
    pub fn create(path: &Path) -> Result<Self, String> {
        Ok(PcapngSink::new(PcapngWriter::create(path)?))
    }
}

impl<W: Write> PcapngSink<W> {
    /// Wrap an open writer.
    pub fn new(w: PcapngWriter<W>) -> Self {
        PcapngSink { w, error: None }
    }
}

impl<W: Write> TraceSink for PcapngSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() || rec.event != TraceEvent::Tx {
            return;
        }
        let Some(meta) = &rec.packet else { return };
        if let Err(e) = self.w.packet(rec.t_ns, rec.node, rec.port, meta) {
            self.error = Some(format!("pcapng write: {e}"));
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.w.finish().map_err(|e| format!("pcapng flush: {e}"))
    }
}

/// One decoded Enhanced Packet Block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapngPacket {
    /// Interface (link) index within the capture.
    pub iface: u32,
    /// Timestamp, simulation nanoseconds.
    pub t_ns: u64,
    /// The traced packet fields decoded from the metadata capsule.
    pub meta: PacketMeta,
}

/// A parsed capture.
#[derive(Debug, Clone, Default)]
pub struct PcapngFile {
    /// Links, in interface-id order: `(node, port, if_name)`.
    pub ifaces: Vec<(NodeId, PortId, String)>,
    /// Every packet, in file order.
    pub packets: Vec<PcapngPacket>,
}

impl PcapngFile {
    /// Packet count per interface id (zero-packet links included).
    pub fn counts_per_link(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.ifaces.len()];
        for p in &self.packets {
            counts[p.iface as usize] += 1;
        }
        counts
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Parse `if_name` of the form `n<node>.p<port>`.
fn parse_if_name(name: &str) -> Option<(NodeId, PortId)> {
    let rest = name.strip_prefix('n')?;
    let (node, port) = rest.split_once(".p")?;
    Some((node.parse().ok()?, port.parse().ok()?))
}

/// Parse and validate a capture produced by [`PcapngWriter`].
///
/// Structural validation is strict and every failure is a named error:
/// byte-order magic and version, block length framing (leading ==
/// trailing, multiple of 4, in bounds), `if_tsresol = 9` on every
/// interface, EPB interface references in range, capsule magic/version,
/// capsule kind, priority and flags among those the writer emits (each
/// refusal names its block's byte offset), and globally monotone
/// (non-decreasing) timestamps — the writer emits events in simulation
/// order, so any regression means corruption.
pub fn read(bytes: &[u8]) -> Result<PcapngFile, String> {
    let mut file = PcapngFile::default();
    let mut off = 0usize;
    let mut seen_shb = false;
    let mut last_ts = 0u64;
    while off < bytes.len() {
        if bytes.len() - off < 12 {
            return Err(format!("pcapng: trailing garbage at byte {off}"));
        }
        let btype = le_u32(&bytes[off..]);
        let total = le_u32(&bytes[off + 4..]) as usize;
        if total < 12 || !total.is_multiple_of(4) {
            return Err(format!("pcapng: bad block length {total} at byte {off}"));
        }
        if off + total > bytes.len() {
            return Err(format!(
                "pcapng: block at byte {off} overruns file ({total} > {} left)",
                bytes.len() - off
            ));
        }
        let trailer = le_u32(&bytes[off + total - 4..]) as usize;
        if trailer != total {
            return Err(format!(
                "pcapng: length trailer mismatch at byte {off}: {total} vs {trailer}"
            ));
        }
        let body = &bytes[off + 8..off + total - 4];
        if !seen_shb {
            if btype != SHB {
                return Err(format!("pcapng: first block type {btype:#x}, want SHB"));
            }
        } else if btype == SHB {
            return Err("pcapng: multiple sections unsupported".into());
        }
        match btype {
            SHB => {
                if body.len() < 16 {
                    return Err("pcapng: SHB too short".into());
                }
                let magic = le_u32(body);
                if magic == MAGIC.swap_bytes() {
                    return Err("pcapng: big-endian capture unsupported".into());
                }
                if magic != MAGIC {
                    return Err(format!("pcapng: bad byte-order magic {magic:#x}"));
                }
                let (maj, min) = (le_u16(&body[4..]), le_u16(&body[6..]));
                if (maj, min) != (1, 0) {
                    return Err(format!("pcapng: unsupported version {maj}.{min}"));
                }
                seen_shb = true;
            }
            IDB => {
                if body.len() < 8 {
                    return Err("pcapng: IDB too short".into());
                }
                if le_u16(body) != LINKTYPE {
                    return Err(format!("pcapng: linktype {}, want Ethernet", le_u16(body)));
                }
                let (name, tsresol) = parse_idb_options(&body[8..])?;
                if tsresol != Some(9) {
                    return Err(format!(
                        "pcapng: interface {name:?} if_tsresol {tsresol:?}, want 9 (ns)"
                    ));
                }
                let (node, port) = parse_if_name(&name)
                    .ok_or_else(|| format!("pcapng: unparseable if_name {name:?}"))?;
                file.ifaces.push((node, port, name));
            }
            EPB => {
                if body.len() < 20 {
                    return Err("pcapng: EPB too short".into());
                }
                let iface = le_u32(body);
                if iface as usize >= file.ifaces.len() {
                    return Err(format!(
                        "pcapng: EPB references interface {iface} of {}",
                        file.ifaces.len()
                    ));
                }
                let t_ns = (u64::from(le_u32(&body[4..])) << 32) | u64::from(le_u32(&body[8..]));
                if t_ns < last_ts {
                    return Err(format!(
                        "pcapng: timestamps not monotone ({t_ns} after {last_ts})"
                    ));
                }
                last_ts = t_ns;
                let caplen = le_u32(&body[12..]) as usize;
                let origlen = le_u32(&body[16..]);
                if caplen != FRAME_LEN || body.len() < 20 + caplen {
                    return Err(format!(
                        "pcapng: captured length {caplen}, want {FRAME_LEN}"
                    ));
                }
                let meta = decode_frame(&body[20..20 + caplen], origlen)
                    .map_err(|e| format!("{e} in the block at byte {off}"))?;
                file.packets.push(PcapngPacket { iface, t_ns, meta });
            }
            other => {
                return Err(format!("pcapng: unexpected block type {other:#x}"));
            }
        }
        off += total;
    }
    if !seen_shb {
        return Err("pcapng: empty file (no section header)".into());
    }
    Ok(file)
}

/// Extract `(if_name, if_tsresol)` from IDB options.
fn parse_idb_options(mut opts: &[u8]) -> Result<(String, Option<u8>), String> {
    let mut name = String::new();
    let mut tsresol = None;
    while opts.len() >= 4 {
        let code = le_u16(opts);
        let len = le_u16(&opts[2..]) as usize;
        let padded = len.div_ceil(4) * 4;
        if opts.len() < 4 + padded {
            return Err("pcapng: IDB option overruns block".into());
        }
        let val = &opts[4..4 + len];
        match code {
            0 => return Ok((name, tsresol)),
            2 => name = String::from_utf8_lossy(val).into_owned(),
            9 if len == 1 => tsresol = Some(val[0]),
            _ => {}
        }
        opts = &opts[4 + padded..];
    }
    Ok((name, tsresol))
}

/// Decode the synthesized frame back into the traced packet fields.
fn decode_frame(frame: &[u8], origlen: u32) -> Result<PacketMeta, String> {
    if frame.len() != FRAME_LEN {
        return Err(format!("pcapng: frame length {}", frame.len()));
    }
    let capsule = &frame[42..];
    if &capsule[0..4] != CAPSULE_MAGIC {
        return Err("pcapng: missing OPRA capsule magic".into());
    }
    if capsule[4] != CAPSULE_VERSION {
        return Err(format!("pcapng: capsule version {}", capsule[4]));
    }
    let (kind, prio, flags) = (capsule[5], capsule[6], capsule[7]);
    if flags & !CAPSULE_FLAGS != 0 {
        return Err(format!("pcapng: reserved capsule flag bits {flags:#04x}"));
    }
    let meta = PacketMeta {
        kind: kind_of(kind).ok_or_else(|| format!("pcapng: unknown capsule kind {kind}"))?,
        prio: prio_of(prio).ok_or_else(|| format!("pcapng: unknown capsule priority {prio}"))?,
        ce: flags & 1 != 0,
        trimmed: flags & 2 != 0,
        flow: le_u32(&capsule[8..]),
        seq: le_u32(&capsule[12..]),
        size: le_u32(&capsule[16..]),
        src: le_u32(&capsule[20..]) as usize,
        dst: le_u32(&capsule[24..]) as usize,
    };
    if meta.size != origlen {
        return Err(format!(
            "pcapng: capsule size {} disagrees with EPB original length {origlen}",
            meta.size
        ));
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::trace::tests::{record_of, CountingWriter};
    use crate::trace::PacketMeta;
    use simkit::cases::{self, Draw};

    fn meta(flow: u32, seq: u32) -> PacketMeta {
        PacketMeta::of(&Packet::data(flow, 3, 9, seq, 1500))
    }

    /// The `Vec`-building frame and block encoder this module shipped
    /// before the single-array one: the reference [`PcapngWriter::packet`]
    /// must match, down to the block framing `block()` used to add.
    fn epb_oracle(iface: u32, t_ns: u64, meta: &PacketMeta) -> Vec<u8> {
        let mut f = Vec::with_capacity(FRAME_LEN);
        f.extend_from_slice(&mac_of(meta.dst));
        f.extend_from_slice(&mac_of(meta.src));
        f.extend_from_slice(&0x0800u16.to_be_bytes());
        let ip_total = (20 + 8 + CAPSULE_LEN) as u16;
        let mut ip = Vec::with_capacity(20);
        ip.push(0x45);
        ip.push(if meta.ce { 0x03 } else { 0x00 });
        ip.extend_from_slice(&ip_total.to_be_bytes());
        ip.extend_from_slice(&(meta.seq as u16).to_be_bytes());
        ip.extend_from_slice(&[0, 0]);
        ip.push(64);
        ip.push(17);
        ip.extend_from_slice(&[0, 0]);
        ip.extend_from_slice(&ip_of(meta.src));
        ip.extend_from_slice(&ip_of(meta.dst));
        let ck = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&ck.to_be_bytes());
        f.extend_from_slice(&ip);
        f.extend_from_slice(&(meta.flow as u16).to_be_bytes());
        f.extend_from_slice(&UDP_PORT.to_be_bytes());
        f.extend_from_slice(&((8 + CAPSULE_LEN) as u16).to_be_bytes());
        f.extend_from_slice(&[0, 0]);
        f.extend_from_slice(CAPSULE_MAGIC);
        f.push(CAPSULE_VERSION);
        f.push(match meta.kind.name() {
            "data" => 1,
            "ack" => 2,
            "nack" => 3,
            "pull" => 4,
            "bulk" => 5,
            "bulk_nack" => 6,
            _ => 7, // hello
        });
        f.push(meta.prio as u8);
        f.push(u8::from(meta.ce) | (u8::from(meta.trimmed) << 1));
        f.extend_from_slice(&meta.flow.to_le_bytes());
        f.extend_from_slice(&meta.seq.to_le_bytes());
        f.extend_from_slice(&meta.size.to_le_bytes());
        f.extend_from_slice(&(meta.src as u32).to_le_bytes());
        f.extend_from_slice(&(meta.dst as u32).to_le_bytes());
        assert_eq!(f.len(), FRAME_LEN);

        let mut body = Vec::with_capacity(20 + FRAME_LEN + 4);
        body.extend_from_slice(&iface.to_le_bytes());
        body.extend_from_slice(&((t_ns >> 32) as u32).to_le_bytes());
        body.extend_from_slice(&(t_ns as u32).to_le_bytes());
        body.extend_from_slice(&(f.len() as u32).to_le_bytes());
        body.extend_from_slice(&meta.size.to_le_bytes());
        body.extend_from_slice(&f);
        while !body.len().is_multiple_of(4) {
            body.push(0);
        }
        let total = (body.len() + 12) as u32;
        let mut block = Vec::new();
        block.extend_from_slice(&EPB.to_le_bytes());
        block.extend_from_slice(&total.to_le_bytes());
        block.extend_from_slice(&body);
        block.extend_from_slice(&total.to_le_bytes());
        block
    }

    /// The packet records of a random stream, their links folded onto a
    /// small dense range (the writer's link map is indexed by id).
    fn packets_of(words: &[u64]) -> Vec<(u64, NodeId, PortId, PacketMeta)> {
        words
            .chunks_exact(3)
            .map(|w| record_of(w[0], w[1], w[2]))
            .filter_map(|r| Some((r.t_ns, r.node % 131, r.port % 7, r.packet?)))
            .collect()
    }

    /// Every block the single-array encoder writes equals the
    /// `Vec`-building encoder's, and interface ids follow order of
    /// first transmission (checked against a linear scan).
    #[test]
    fn epb_encoder_matches_vec_oracle() {
        let draw = |d: &mut Draw| d.vec(3..150, |d| d.u64(0..u64::MAX));
        cases::check("epb_encoder_matches_vec_oracle", 64, draw, |words| {
            let mut w = PcapngWriter::new(Vec::new()).unwrap();
            let mut links: Vec<(NodeId, PortId)> = Vec::new();
            for (t_ns, node, port, meta) in packets_of(&words) {
                let iface = links
                    .iter()
                    .position(|&l| l == (node, port))
                    .unwrap_or_else(|| {
                        links.push((node, port));
                        links.len() - 1
                    });
                w.packet(t_ns, node, port, &meta).unwrap();
                let block = &w.out[w.out.len() - EPB_LEN..];
                assert_eq!(block, &epb_oracle(iface as u32, t_ns, &meta)[..]);
            }
            assert_eq!(w.ifaces as usize, links.len());
        });
    }

    #[test]
    fn packet_issues_one_write_of_one_whole_block() {
        let mut w = PcapngWriter::new(CountingWriter::default()).unwrap();
        let words: Vec<u64> = (1..=600u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let packets = packets_of(&words);
        for (t_ns, node, port, meta) in &packets {
            w.packet(*t_ns, *node, *port, meta).unwrap();
        }
        assert_eq!(EPB_LEN, 104);
        let links = w.ifaces as usize;
        let writes = w.into_inner().writes;
        let blocks: Vec<_> = writes.iter().filter(|b| b.len() == EPB_LEN).collect();
        assert_eq!(blocks.len(), packets.len());
        for b in blocks {
            assert_eq!(le_u32(b), EPB);
            assert_eq!(le_u32(&b[4..]) as usize, EPB_LEN);
        }
        // The section header and each interface block keep `block()`'s
        // four writes; nothing else reaches the writer.
        assert_eq!(writes.len(), 4 * (1 + links) + packets.len());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut w = PcapngWriter::new(Vec::new()).unwrap();
        w.register_link(7, 0).unwrap(); // zero-packet link
        let boundary = (1u64 << 32) - 2;
        for (i, t) in [boundary, boundary + 1, boundary + 3].iter().enumerate() {
            w.packet(*t, 1, i % 2, &meta(5, i as u32)).unwrap();
        }
        w.finish().unwrap();
        let bytes = w.into_inner();
        let f = read(&bytes).unwrap();
        assert_eq!(f.ifaces.len(), 3);
        assert_eq!(f.ifaces[0], (7, 0, "n7.p0".into()));
        assert_eq!(f.counts_per_link(), vec![0, 2, 1]);
        assert_eq!(f.packets.len(), 3);
        assert_eq!(f.packets[0].t_ns, boundary);
        assert_eq!(f.packets[2].t_ns, boundary + 3);
        for (i, p) in f.packets.iter().enumerate() {
            assert_eq!(p.meta, meta(5, i as u32));
        }
    }

    #[test]
    fn reader_rejects_truncation_and_corruption() {
        let mut w = PcapngWriter::new(Vec::new()).unwrap();
        w.packet(100, 0, 0, &meta(1, 0)).unwrap();
        let bytes = w.into_inner();
        // Truncation mid-block.
        let err = read(&bytes[..bytes.len() - 5]).unwrap_err();
        assert!(
            err.contains("overruns") || err.contains("trailing"),
            "{err}"
        );
        // Flip a length trailer.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(read(&bad).unwrap_err().contains("trailer"));
        // Empty input.
        assert!(read(&[]).unwrap_err().contains("empty"));
    }

    /// A kind, a priority or a flag bit the writer cannot emit is refused
    /// by name and block offset, not read as `Hello` / `Bulk` / nothing.
    #[test]
    fn reader_rejects_capsule_codes_the_writer_cannot_emit() {
        let mut w = PcapngWriter::new(Vec::new()).unwrap();
        w.packet(100, 0, 0, &meta(1, 0)).unwrap();
        w.packet(200, 0, 0, &meta(1, 1)).unwrap();
        let good = w.into_inner();
        let block = good.len() - EPB_LEN; // the second packet's
        let with = |frame_at: usize, byte: u8| {
            let mut bad = good.clone();
            bad[block + 28 + frame_at] = byte;
            read(&bad)
        };
        let at = format!(" in the block at byte {block}");
        for kind in [0, 8, 0xEE] {
            let err = with(47, kind).unwrap_err();
            assert_eq!(err, format!("pcapng: unknown capsule kind {kind}{at}"));
        }
        for prio in [3, 0x77] {
            let err = with(48, prio).unwrap_err();
            assert_eq!(err, format!("pcapng: unknown capsule priority {prio}{at}"));
        }
        for flags in [0x04u8, 0x80, 0xFC, 0xFF] {
            let err = with(49, flags).unwrap_err();
            assert_eq!(
                err,
                format!("pcapng: reserved capsule flag bits {flags:#04x}{at}")
            );
        }
        // Every code the writer does emit still reads back.
        for kind in KindTag::ALL {
            assert_eq!(with(47, kind.code()).unwrap().packets[1].meta.kind, kind);
        }
        for prio in [Priority::Control, Priority::LowLatency, Priority::Bulk] {
            assert_eq!(with(48, prio as u8).unwrap().packets[1].meta.prio, prio);
        }
        for flags in 0..=CAPSULE_FLAGS {
            let m = with(49, flags).unwrap().packets[1].meta;
            assert_eq!((m.ce, m.trimmed), (flags & 1 != 0, flags & 2 != 0));
        }
    }

    #[test]
    fn reader_rejects_nonmonotone_timestamps() {
        let mut w = PcapngWriter::new(Vec::new()).unwrap();
        w.packet(200, 0, 0, &meta(1, 0)).unwrap();
        w.packet(100, 0, 0, &meta(1, 1)).unwrap();
        let err = read(&w.into_inner()).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn sink_keeps_only_tx_records() {
        let mut sink = PcapngSink::new(PcapngWriter::new(Vec::new()).unwrap());
        let p = PacketMeta::of(&Packet::data(1, 0, 1, 0, 64));
        for ev in [TraceEvent::Enqueue, TraceEvent::Tx, TraceEvent::Drop] {
            sink.record(&TraceRecord {
                t_ns: 10,
                node: 0,
                port: 0,
                event: ev,
                packet: Some(p),
            });
        }
        sink.finish().unwrap();
        let f = read(&sink.w.into_inner()).unwrap();
        assert_eq!(f.packets.len(), 1);
    }

    #[test]
    fn ipv4_checksum_verifies() {
        // The checksum of a header including its checksum field is 0.
        let mut w = PcapngWriter::new(Vec::new()).unwrap();
        w.packet(1, 0, 0, &meta(1, 0)).unwrap();
        let f = w.into_inner();
        // Find the EPB frame: last block; IPv4 header at frame offset 14.
        let epb_body_start = f.len() - (12 + 20 + FRAME_LEN.div_ceil(4) * 4) + 8;
        let ip = &f[epb_body_start + 20 + 14..epb_body_start + 20 + 34];
        assert_eq!(ipv4_checksum(ip), 0);
    }
}
