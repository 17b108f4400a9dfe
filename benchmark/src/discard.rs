//! Counting discard writers for `traced_websearch`.
//!
//! The sinks do all their formatting work and the bytes go nowhere, which
//! keeps the disk out of the number. While discarding, the writers count
//! what passes: bytes, JSON-lines records and `tx` records per link, pcapng
//! packet blocks per interface. Both writers number links in order of first
//! transmission (the pcapng writer registers an interface on a link's first
//! packet), so the two per-link count vectors must be equal.

use crate::surface::{JsonlSink, MultiSink, PcapngSink, PcapngWriter, TraceSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::rc::Rc;

/// What the discard writers saw.
#[derive(Debug, Default)]
pub struct Tally {
    pub jsonl_bytes: u64,
    pub jsonl_lines: u64,
    pub pcapng_bytes: u64,
    /// `tx` records per link, links in order of first transmission.
    pub tx_per_link: Vec<u64>,
    /// Enhanced packet blocks per interface id.
    pub epb_per_link: Vec<u64>,
    /// First framing problem seen, if any.
    pub error: Option<String>,
    link_ids: HashMap<(u64, u64), usize>,
    /// Head of the current JSON line (enough for `t`, `event`, `node`, `port`).
    line: Vec<u8>,
    /// Header of the current pcapng block and bytes of it still to come.
    block: Vec<u8>,
    block_left: usize,
}

/// The workload's sinks, writing into discard writers that report to `tally`.
pub fn sinks(tally: &Rc<RefCell<Tally>>) -> Box<dyn TraceSink> {
    let pcapng = PcapngWriter::new(PcapngDiscard(tally.clone()))
        .expect("a discard writer accepts every write");
    Box::new(
        MultiSink::new()
            .with(Box::new(JsonlSink::new(JsonlDiscard(tally.clone()))))
            .with(Box::new(PcapngSink::new(pcapng))),
    )
}

struct JsonlDiscard(Rc<RefCell<Tally>>);
struct PcapngDiscard(Rc<RefCell<Tally>>);

/// Bytes of a line kept for parsing: `{"t":<20 digits>,"event":"tx","node":…`.
const LINE_HEAD: usize = 96;
const EPB: u32 = 6;

impl Write for JsonlDiscard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut t = self.0.borrow_mut();
        t.jsonl_bytes += buf.len() as u64;
        // The sink writes a line and its newline apart; `contains` is a
        // word-at-a-time search, so the common case stays cheap.
        if !buf.contains(&b'\n') {
            t.keep_head(buf);
            return Ok(buf.len());
        }
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            t.keep_head(&rest[..nl]);
            t.end_line();
            rest = &rest[nl + 1..];
        }
        t.keep_head(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Tally {
    fn keep_head(&mut self, bytes: &[u8]) {
        let room = LINE_HEAD.saturating_sub(self.line.len());
        self.line.extend_from_slice(&bytes[..bytes.len().min(room)]);
    }

    fn end_line(&mut self) {
        self.jsonl_lines += 1;
        let link = tx_link(&self.line);
        self.line.clear();
        if let Some(link) = link {
            let next = self.link_ids.len();
            let id = *self.link_ids.entry(link).or_insert(next);
            if id == self.tx_per_link.len() {
                self.tx_per_link.push(0);
            }
            self.tx_per_link[id] += 1;
        }
    }

    /// Consume pcapng bytes: a block is `type:u32 len:u32 body… len:u32`,
    /// and an enhanced packet block's body starts with its interface id.
    fn pcapng(&mut self, mut buf: &[u8]) {
        self.pcapng_bytes += buf.len() as u64;
        while !buf.is_empty() {
            if self.block_left > 0 {
                let n = self.block_left.min(buf.len());
                self.block_left -= n;
                buf = &buf[n..];
                continue;
            }
            let n = (12 - self.block.len()).min(buf.len());
            self.block.extend_from_slice(&buf[..n]);
            buf = &buf[n..];
            if self.block.len() < 12 {
                break;
            }
            let word = |i: usize| {
                u32::from_le_bytes(self.block[4 * i..4 * i + 4].try_into().expect("4 bytes"))
            };
            let (kind, len, iface) = (word(0), word(1) as usize, word(2) as usize);
            self.block.clear();
            if len < 12 || len % 4 != 0 {
                self.error
                    .get_or_insert(format!("pcapng block length {len}"));
                return;
            }
            self.block_left = len - 12;
            if kind == EPB {
                if iface >= self.epb_per_link.len() {
                    self.epb_per_link.resize(iface + 1, 0);
                }
                self.epb_per_link[iface] += 1;
            }
        }
    }
}

/// `(node, port)` of a `tx` record, from the fixed key order
/// `{"t":…,"event":"…","node":…,"port":…`.
fn tx_link(line: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(line).ok()?;
    let rest = text.split_once(",\"event\":\"tx\",\"node\":")?.1;
    let (node, rest) = rest.split_once(",\"port\":")?;
    let port = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    Some((node.parse().ok()?, port.parse().ok()?))
}

impl Write for PcapngDiscard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().pcapng(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_link_reads_the_fixed_key_order() {
        let tx = br#"{"t":12,"event":"tx","node":7,"port":3,"flow":1"#;
        assert_eq!(tx_link(tx), Some((7, 3)));
        assert_eq!(
            tx_link(br#"{"t":12,"event":"enqueue","node":7,"port":3"#),
            None
        );
    }
}
