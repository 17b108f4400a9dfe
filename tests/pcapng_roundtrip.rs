//! Property tests of the two trace encoders against their readers.
//!
//! The pcapng writer and the validating reader are exact inverses over
//! random event streams — every interface (including links that never
//! carry a packet), every packet's timestamp, link, and capsule metadata
//! survive the round trip byte-exactly — and the reader answers hostile
//! bytes with a named error, never a panic. A JSON-lines record parses
//! back, through the harness's own JSON reader, to the fields it was
//! written from.
//!
//! Timestamps are drawn near the `2^32` nanosecond boundary on purpose:
//! pcapng splits the 64-bit timestamp into high/low 32-bit words, so an
//! off-by-one in the split shows up exactly there.

use expt::json::Json;
use netsim::pcapng::{self, PcapngWriter};
use netsim::trace::{jsonl_line, KindTag, PacketMeta, TraceEvent, TraceRecord};
use netsim::Priority;
use simkit::cases::{self, Draw};

fn kind_of(bits: u64) -> KindTag {
    match bits % 7 {
        0 => KindTag::Data,
        1 => KindTag::Ack,
        2 => KindTag::Nack,
        3 => KindTag::Pull,
        4 => KindTag::Bulk,
        5 => KindTag::BulkNack,
        _ => KindTag::Hello,
    }
}

fn prio_of(bits: u64) -> Priority {
    match bits % 3 {
        0 => Priority::Control,
        1 => Priority::LowLatency,
        _ => Priority::Bulk,
    }
}

/// Decode one random `u64` into a packet description: link index,
/// timestamp increment, and capsule fields, all bit-sliced so a single
/// `vec(any::<u64>(), ..)` strategy drives the whole stream.
fn packet_of(bits: u64, links: usize) -> (usize, u64, PacketMeta) {
    let link = (bits & 0xF) as usize % links;
    let dt = (bits >> 4) & 0xFFFF; // 0..65536 ns between packets
    let kind = kind_of((bits >> 20) & 0x7);
    let prio = prio_of((bits >> 23) & 0x3);
    let meta = PacketMeta {
        flow: (bits >> 25) as u32 & 0xFFFF,
        src: ((bits >> 41) & 0xFF) as usize,
        dst: ((bits >> 49) & 0xFF) as usize,
        seq: ((bits >> 57) & 0x7F) as u32,
        size: 64 + ((bits >> 33) & 0xFF) as u32,
        prio,
        kind,
        trimmed: (bits >> 30) & 1 == 1,
        ce: (bits >> 31) & 1 == 1,
    };
    (link, dt, meta)
}

/// Write a random stream (random links, kinds, flags, sizes; strictly
/// monotone timestamps straddling 2^32 ns), read it back, and check
/// every field — plus the zero-packet links, which must still appear
/// as interfaces with a zero count.
#[test]
fn writer_reader_roundtrip() {
    let draw = |d: &mut Draw| {
        (
            d.vec(0..200, |d| d.u64(0..u64::MAX)),
            d.usize(1..12),
            d.usize(0..4),
            d.u64(0..200_000),
            d.usize(0..2),
        )
    };
    cases::check(
        "writer_reader_roundtrip",
        48,
        draw,
        |(stream, links, idle_links, start_lo, near_boundary)| {
            let mut w = PcapngWriter::new(Vec::new()).unwrap();
            for i in 0..links + idle_links {
                // node = link index, port = low 2 bits, mirroring real ids.
                let iface = w.register_link(i, i & 0x3).unwrap();
                assert_eq!(iface as usize, i);
            }

            // Start just below 2^32 ns when asked, so streams cross the
            // low-word wraparound mid-capture.
            let mut t = if near_boundary == 1 {
                (1u64 << 32) - start_lo.min(1 << 20)
            } else {
                start_lo
            };
            let mut expect = Vec::new();
            for &bits in &stream {
                let (link, dt, meta) = packet_of(bits, links);
                w.packet(t, link, link & 0x3, &meta).unwrap();
                expect.push((t, link as u32, meta));
                t += 1 + dt; // strictly monotone
            }
            w.finish().unwrap();
            let bytes = w.into_inner();

            let file =
                pcapng::read(&bytes).unwrap_or_else(|e| panic!("reader rejected own writer: {e}"));
            assert_eq!(file.ifaces.len(), links + idle_links);
            for (i, (node, port, name)) in file.ifaces.iter().enumerate() {
                assert_eq!(*node, i);
                assert_eq!(*port, i & 0x3);
                assert_eq!(name.as_str(), &format!("n{i}.p{}", i & 0x3));
            }
            assert_eq!(file.packets.len(), expect.len());
            for (got, (t, iface, meta)) in file.packets.iter().zip(&expect) {
                assert_eq!(got.t_ns, *t);
                assert_eq!(got.iface, *iface);
                assert_eq!(got.meta.flow, meta.flow);
                assert_eq!(got.meta.src, meta.src);
                assert_eq!(got.meta.dst, meta.dst);
                assert_eq!(got.meta.seq, meta.seq);
                assert_eq!(got.meta.size, meta.size);
                assert_eq!(got.meta.prio, meta.prio);
                assert_eq!(got.meta.kind, meta.kind);
                assert_eq!(got.meta.trimmed, meta.trimmed);
                assert_eq!(got.meta.ce, meta.ce);
            }

            // Per-link counts: idle links report zero, busy links match.
            let counts = file.counts_per_link();
            for &idle in counts.iter().skip(links).take(idle_links) {
                assert_eq!(idle, 0);
            }
            let per_link: Vec<u64> = (0..links)
                .map(|l| expect.iter().filter(|(_, i, _)| *i as usize == l).count() as u64)
                .collect();
            assert_eq!(&counts[..links], &per_link[..]);
        },
    );
}

/// Flipping any single byte of the SHB byte-order magic or version
/// words makes the reader fail with an error, never a wrong parse.
/// (Bytes 16..24, the section length, are legitimately ignored: the
/// writer emits the "unknown length" sentinel.)
#[test]
fn header_corruption_is_rejected() {
    let draw = |d: &mut Draw| (d.usize(8..16), d.u64(1..256) as u32);
    cases::check(
        "header_corruption_is_rejected",
        48,
        draw,
        |(offset, delta)| {
            let mut w = PcapngWriter::new(Vec::new()).unwrap();
            w.register_link(0, 0).unwrap();
            let meta = PacketMeta {
                flow: 1,
                src: 0,
                dst: 1,
                seq: 0,
                size: 100,
                prio: Priority::LowLatency,
                kind: KindTag::Data,
                trimmed: false,
                ce: false,
            };
            w.packet(5, 0, 0, &meta).unwrap();
            w.finish().unwrap();
            let mut bytes = w.into_inner();
            bytes[offset] = bytes[offset].wrapping_add(delta as u8);
            assert!(pcapng::read(&bytes).is_err());
        },
    );
}

/// `read` must answer with a capture or a named error.
fn assert_named(result: Result<pcapng::PcapngFile, String>, what: &str) {
    if let Err(e) = result {
        assert!(e.starts_with("pcapng:"), "{what}: unnamed error {e:?}");
    }
}

/// A valid capture: three links, one of them idle, six packets.
fn three_link_capture() -> Vec<u8> {
    let mut w = PcapngWriter::new(Vec::new()).unwrap();
    w.register_link(12, 3).unwrap();
    for i in 0..6u64 {
        let (_, _, meta) = packet_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 2);
        w.packet(1_000 * i, (i % 2) as usize, 1, &meta).unwrap();
    }
    w.finish().unwrap();
    w.into_inner()
}

/// Every truncation of a valid capture, and every byte of it replaced in
/// turn by 0x00, 0xFF, its neighbours in value and a seeded random byte,
/// is a capture or a named error — never a panic.
#[test]
fn reader_never_panics_on_a_damaged_capture() {
    let good = three_link_capture();
    assert_eq!(pcapng::read(&good).unwrap().ifaces.len(), 3);
    for n in 0..good.len() {
        assert_named(pcapng::read(&good[..n]), &format!("truncated to {n}"));
    }
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut bad = good.clone();
    for at in 0..good.len() {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = good[at];
        for sub in [0x00, 0xFF, b.wrapping_add(1), b ^ 0x80, (lcg >> 56) as u8] {
            bad[at] = sub;
            assert_named(pcapng::read(&bad), &format!("byte {at} = {sub:#04x}"));
        }
        bad[at] = b;
    }
}

/// A value at a digit-count or integer-width boundary, or `raw` itself.
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

/// Arbitrary bytes — bare, and behind a valid section header so the
/// block walk is reached — are a capture or a named error.
#[test]
fn reader_never_panics_on_arbitrary_bytes() {
    let draw = |d: &mut Draw| (d.vec(0..64, |d| d.u64(0..u64::MAX)), d.usize(0..8));
    cases::check(
        "reader_never_panics_on_arbitrary_bytes",
        64,
        draw,
        |(words, cut)| {
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            bytes.truncate(bytes.len().saturating_sub(cut));
            assert_named(pcapng::read(&bytes), "arbitrary bytes");
            let mut framed = PcapngWriter::new(Vec::new()).unwrap().into_inner();
            framed.extend_from_slice(&bytes);
            assert_named(
                pcapng::read(&framed),
                "arbitrary bytes after a section header",
            );
        },
    );
}

/// A JSON-lines record is valid JSON holding exactly the fields it
/// was written from, for every event, kind, priority and flag, with
/// ids and times on digit-count and integer-width boundaries.
#[test]
fn jsonl_line_parses_back_to_its_record() {
    let draw = |d: &mut Draw| (d.u64(0..u64::MAX), d.u64(0..u64::MAX), d.u64(0..u64::MAX));
    cases::check(
        "jsonl_line_parses_back_to_its_record",
        64,
        draw,
        |(sel, a, b)| {
            use TraceEvent::*;
            let event =
                [Enqueue, Mark, Trim, Drop, Tx, Pause, Resume, Ack, Timer][(sel % 9) as usize];
            let meta = PacketMeta {
                flow: edge(sel >> 16, a >> 32) as u32,
                src: edge(sel >> 20, a) as usize,
                dst: edge(sel >> 24, b) as usize,
                seq: edge(sel >> 28, b >> 32) as u32,
                size: edge(sel >> 32, a >> 16) as u32,
                prio: prio_of(sel >> 8),
                kind: kind_of(sel >> 4),
                trimmed: (sel >> 10) & 1 == 1,
                ce: (sel >> 11) & 1 == 1,
            };
            let rec = TraceRecord {
                t_ns: edge(sel >> 36, a ^ b),
                node: edge(sel >> 40, a.rotate_left(17)) as usize,
                port: edge(sel >> 44, b.rotate_left(29)) as usize,
                event,
                packet: ((sel >> 12) & 3 != 0).then_some(meta),
            };
            let line = jsonl_line(&rec);
            let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let uint = |key: &str| doc.get(key).and_then(Json::as_u64);
            assert_eq!(uint("t"), Some(rec.t_ns));
            assert_eq!(doc.get("event").and_then(Json::as_str), Some(event.name()));
            assert_eq!(uint("node"), Some(rec.node as u64));
            assert_eq!(uint("port"), Some(rec.port as u64));
            let Json::Obj(members) = &doc else {
                panic!("{line}: not an object")
            };
            assert_eq!(members.len(), if rec.packet.is_some() { 13 } else { 4 });
            if let Some(m) = rec.packet {
                assert_eq!(uint("flow"), Some(u64::from(m.flow)));
                assert_eq!(uint("src"), Some(m.src as u64));
                assert_eq!(uint("dst"), Some(m.dst as u64));
                assert_eq!(uint("seq"), Some(u64::from(m.seq)));
                assert_eq!(uint("size"), Some(u64::from(m.size)));
                assert_eq!(uint("prio"), Some(m.prio as u64));
                assert_eq!(doc.get("kind").and_then(Json::as_str), Some(m.kind.name()));
                assert_eq!(doc.get("trimmed").and_then(Json::as_bool), Some(m.trimmed));
                assert_eq!(doc.get("ce").and_then(Json::as_bool), Some(m.ce));
            }
        },
    );
}
