//! Timer-token encoding shared by the network models.
//!
//! `netsim` timers carry a single opaque `u64`; the network models
//! multiplex many logical timers onto it. Layout: kind in the top byte,
//! kind-specific payload below.

use netsim::fabric::NetEvent;
use simkit::engine::EventContext;
use transport::{Actions, TransportTimer};

/// Decoded timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// Inject flows that have reached their arrival time.
    FlowArrival,
    /// A [`TransportTimer`] for the host with this index.
    Transport(usize, TransportTimer),
    /// A topology-slice boundary (Opera/RotorNet).
    SliceBoundary,
    /// Take the reconfiguring switch group dark (fires ε after the slice
    /// start, r before the boundary — Figure 6's slice layout).
    Dark,
    /// Bulk feeder tick for `(rack, uplink)`.
    Feeder(usize, usize),
    /// Hello timeout check for `(rack, uplink)` (§3.6.2 fault detection).
    HelloCheck(usize, usize),
}

const K_ARRIVAL: u64 = 1;
const K_PACER: u64 = 2;
const K_RTO: u64 = 3;
const K_SLICE: u64 = 4;
const K_RECONNECT: u64 = 5;
const K_FEEDER: u64 = 6;
const K_HELLO: u64 = 9;

/// Encode a token. The `(rack, uplink)` kinds pack the uplink into 16 bits
/// and the rack above it; the network builders guarantee the fit (at most
/// 255 uplinks, 65 536 racks — see `tables`), so it is only asserted here.
pub fn encode(t: Token) -> u64 {
    if let Token::Feeder(rack, uplink) | Token::HelloCheck(rack, uplink) = t {
        debug_assert!(uplink < 1 << 16 && rack < 1 << 40, "({rack}, {uplink})");
    }
    match t {
        Token::FlowArrival => K_ARRIVAL << 56,
        Token::Transport(host, TransportTimer::PullPacer) => (K_PACER << 56) | (host as u64),
        Token::Transport(host, TransportTimer::Rto(flow)) => {
            (K_RTO << 56) | ((host as u64) << 32) | flow as u64
        }
        Token::SliceBoundary => K_SLICE << 56,
        Token::Dark => K_RECONNECT << 56,
        Token::Feeder(rack, uplink) => (K_FEEDER << 56) | ((rack as u64) << 16) | uplink as u64,
        Token::HelloCheck(rack, uplink) => (K_HELLO << 56) | ((rack as u64) << 16) | uplink as u64,
    }
}

/// The fabric timer event that carries `t`.
pub fn timer(t: Token) -> NetEvent {
    NetEvent::Timer { token: encode(t) }
}

/// Decode a token. Unknown kinds panic: they indicate corruption.
pub fn decode(raw: u64) -> Token {
    let kind = raw >> 56;
    let low = raw & ((1 << 56) - 1);
    match kind {
        K_ARRIVAL => Token::FlowArrival,
        K_PACER => Token::Transport(low as usize, TransportTimer::PullPacer),
        K_RTO => Token::Transport(
            (low >> 32) as usize,
            TransportTimer::Rto((low & 0xFFFF_FFFF) as u32),
        ),
        K_SLICE => Token::SliceBoundary,
        K_RECONNECT => Token::Dark,
        K_FEEDER => Token::Feeder((low >> 16) as usize, (low & 0xFFFF) as usize),
        K_HELLO => Token::HelloCheck((low >> 16) as usize, (low & 0xFFFF) as usize),
        other => panic!("unknown timer token kind {other}"),
    }
}

/// Schedule every timer a transport host asked for, encoded for `host`.
/// The single dispatch point between [`transport::Transport`] hosts and
/// the timer wheel ([`crate::net::Endpoints`] is the only caller).
pub fn schedule_actions(ctx: &mut EventContext<'_, NetEvent>, host: usize, actions: Actions) {
    for (at, which) in actions.timers {
        ctx.schedule_at(at, timer(Token::Transport(host, which)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let tokens = [
            Token::FlowArrival,
            Token::Transport(12345, TransportTimer::PullPacer),
            Token::Transport(7, TransportTimer::Rto(99_000)),
            Token::SliceBoundary,
            Token::Dark,
            Token::Feeder(1023, 11),
            Token::HelloCheck(44, 3),
        ];
        for t in tokens {
            assert_eq!(decode(encode(t)), t, "{t:?}");
        }
    }

    #[test]
    fn distinct_encodings() {
        let a = encode(Token::Feeder(1, 2));
        let b = encode(Token::HelloCheck(1, 2));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown timer token")]
    fn garbage_rejected() {
        decode(0xFF << 56);
    }
}
