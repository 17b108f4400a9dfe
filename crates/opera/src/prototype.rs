//! Model of the hardware prototype's end-to-end latency (§6.1, Figure 13).
//!
//! The prototype runs eight virtual ToRs and four emulated circuit
//! switches inside one Tofino; a ping-pong application measures
//! application-level RTT with and without bulk background traffic. Two
//! effects dominate:
//!
//! * each ToR hop costs ≈3 µs of P4 pipeline forwarding, with path
//!   lengths of 1–3 ToR hops in the 8-rack topology (up to 9 µs one-way);
//! * with bulk running, a low-latency packet can buffer behind one MTU
//!   currently serializing at every serialization point — up to 8 points
//!   source→destination (16 per RTT), each uniform in `[0, 1.2 µs]` at
//!   10 Gb/s — which smooths the CDF exactly as Figure 13 shows.
//!
//! We reproduce the distribution by Monte-Carlo over the real 8-ToR Opera
//! topology: sample a random source/destination/slice, take the actual
//! expander path length, add per-hop pipeline latency, RoCE/MPI host
//! variance, and (optionally) per-serialization-point residual MTU delays.

use simkit::stats::Samples;
use simkit::SimRng;
use topo::opera::{OperaParams, OperaTopology};

/// Prototype model parameters.
#[derive(Debug, Clone, Copy)]
pub struct PrototypeParams {
    /// P4 pipeline forwarding latency per ToR hop, µs.
    pub per_hop_us: f64,
    /// Fixed host (NIC + RoCE + MPI) overhead per RTT, µs.
    pub host_base_us: f64,
    /// Host-side variance: uniform extra in `[0, host_jitter_us]`.
    pub host_jitter_us: f64,
    /// MTU serialization time, µs (1.2 at 10 Gb/s).
    pub mtu_us: f64,
    /// Serialization points per one-way transit of `h` ToR hops when the
    /// emulated circuit switches are counted: `2h` (ToR + circuit emu).
    pub points_per_hop: usize,
}

impl PrototypeParams {
    /// Values measured in §6.1.
    pub fn paper_default() -> Self {
        PrototypeParams {
            per_hop_us: 3.0,
            host_base_us: 3.0,
            host_jitter_us: 4.0,
            mtu_us: 1.2,
            points_per_hop: 2,
        }
    }
}

/// Sampled RTT distributions with and without bulk background traffic.
#[derive(Debug)]
pub struct PrototypeRtt {
    /// RTTs (µs) without bulk traffic.
    pub quiet: Samples,
    /// RTTs (µs) with bulk background traffic.
    pub with_bulk: Samples,
}

/// Run the Monte-Carlo model: `n` ping-pong exchanges over the 8-ToR,
/// 4-switch prototype topology (Figure 5). One seed drives both the
/// topology and the traffic; see [`simulate_prototype_seeded`] to vary
/// them independently (replicate sweeps keep the validated topology
/// seed and re-seed only the traffic).
pub fn simulate_prototype(params: PrototypeParams, n: usize, seed: u64) -> PrototypeRtt {
    simulate_prototype_seeded(params, n, seed, seed ^ 0xD1CE)
}

/// [`simulate_prototype`] with separate topology and traffic seeds.
pub fn simulate_prototype_seeded(
    params: PrototypeParams,
    n: usize,
    topo_seed: u64,
    traffic_seed: u64,
) -> PrototypeRtt {
    let (topo, _) = OperaTopology::generate_validated(
        OperaParams {
            racks: 8,
            uplinks: 4,
            hosts_per_rack: 1,
            groups: 1,
        },
        topo_seed,
        64,
    );
    let mut rng = SimRng::new(traffic_seed);
    let mut quiet = Samples::new();
    let mut with_bulk = Samples::new();
    let slices = topo.slices_per_cycle();
    // `hops[slice][src][dst]`: ToR hops over that slice's expander.
    let hops: Vec<Vec<Vec<usize>>> = (0..slices)
        .map(|s| {
            let g = topo.slice(s).graph();
            (0..8).map(|src| g.bfs_distances(src)).collect()
        })
        .collect();

    for _ in 0..n {
        let src = rng.index(8);
        let mut dst = rng.index(7);
        if dst >= src {
            dst += 1;
        }
        // Path lengths there and back (slices may differ mid-exchange; we
        // sample each direction's slice independently).
        let mut rtt_hops = 0usize;
        for endpoints in [(src, dst), (dst, src)] {
            let d = hops[rng.index(slices)][endpoints.0][endpoints.1];
            debug_assert!(d != usize::MAX && d <= 4, "8-rack slice diameter");
            rtt_hops += d;
        }
        let base = rtt_hops as f64 * params.per_hop_us
            + params.host_base_us
            + rng.f64() * params.host_jitter_us;
        quiet.push(base);

        // Bulk adds a uniform residual at every serialization point.
        let points = rtt_hops * params.points_per_hop;
        let extra: f64 = (0..points).map(|_| rng.f64() * params.mtu_us).sum();
        with_bulk.push(base + extra);
    }
    PrototypeRtt { quiet, with_bulk }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> PrototypeRtt {
        simulate_prototype(PrototypeParams::paper_default(), 20_000, 7)
    }

    #[test]
    fn quiet_rtt_range_matches_figure() {
        let mut r = run();
        // Figure 13, no-bulk curve: ~4–20 µs.
        assert!(r.quiet.quantile(0.0).unwrap() >= 3.0);
        assert!(r.quiet.max().unwrap() <= 35.0, "max {:?}", r.quiet.max());
        let med = r.quiet.quantile(0.5).unwrap();
        assert!((5.0..20.0).contains(&med), "median {med}");
    }

    #[test]
    fn bulk_shifts_distribution_up() {
        let mut r = run();
        let q50 = r.quiet.quantile(0.5).unwrap();
        let b50 = r.with_bulk.quantile(0.5).unwrap();
        assert!(b50 > q50 + 1.0, "bulk median {b50} vs quiet {q50}");
        // Figure 13: with-bulk tail reaches ~40 µs but not far beyond.
        assert!(r.with_bulk.max().unwrap() <= 45.0);
        assert!(r.with_bulk.quantile(0.99).unwrap() > 15.0);
    }

    #[test]
    fn deterministic() {
        let mut a = run();
        let mut b = run();
        assert_eq!(a.quiet.quantile(0.9), b.quiet.quantile(0.9));
        assert_eq!(a.with_bulk.quantile(0.9), b.with_bulk.quantile(0.9));
    }
}
