//! Flow generators for the evaluation scenarios.
//!
//! All generators are deterministic given a seed and produce [`FlowSpec`]
//! lists that the network harnesses replay.

use crate::dists::FlowSizeDist;
use flowsim::Demand;
use simkit::{SimRng, SimTime};

/// One flow to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Sending host (global host index).
    pub src: usize,
    /// Receiving host (global host index).
    pub dst: usize,
    /// Payload size, bytes.
    pub size: u64,
    /// Arrival time.
    pub start: SimTime,
}

/// Poisson open-loop flow arrivals at a target load.
///
/// Load is defined as in §5.1: the fraction of the aggregate host link
/// bandwidth (`hosts × gbps`) consumed by offered flow bytes.
#[derive(Debug)]
pub struct PoissonGen {
    dist: FlowSizeDist,
    hosts: usize,
    /// Mean flow interarrival time across the whole cluster.
    mean_gap_ns: f64,
    rng: SimRng,
    now_ns: f64,
}

impl PoissonGen {
    /// Build a generator for `hosts` hosts with `gbps` links at fractional
    /// `load` using flow sizes from `dist`.
    pub fn new(dist: FlowSizeDist, hosts: usize, gbps: f64, load: f64, seed: u64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0,1]");
        let bytes_per_sec = load * hosts as f64 * gbps * 1e9 / 8.0;
        let flows_per_sec = bytes_per_sec / dist.mean();
        PoissonGen {
            dist,
            hosts,
            mean_gap_ns: 1e9 / flows_per_sec,
            rng: SimRng::new(seed),
            now_ns: 0.0,
        }
    }

    /// Mean cluster-wide flow interarrival gap, ns.
    pub fn mean_gap_ns(&self) -> f64 {
        self.mean_gap_ns
    }

    /// Next flow (advances internal time).
    pub fn next_flow(&mut self) -> FlowSpec {
        self.now_ns += self.rng.exp(self.mean_gap_ns);
        let src = self.rng.index(self.hosts);
        let mut dst = self.rng.index(self.hosts - 1);
        if dst >= src {
            dst += 1;
        }
        FlowSpec {
            src,
            dst,
            size: self.dist.sample(&mut self.rng),
            start: SimTime::from_ns(self.now_ns as u64),
        }
    }

    /// All flows arriving before `horizon`.
    pub fn flows_until(&mut self, horizon: SimTime) -> Vec<FlowSpec> {
        let mut out = Vec::new();
        loop {
            let f = self.next_flow();
            if f.start >= horizon {
                break;
            }
            out.push(f);
        }
        out
    }
}

/// Closed-form scenario generators (§5.2, §5.6).
#[derive(Debug)]
pub struct ScenarioGen;

impl ScenarioGen {
    /// All-to-all shuffle: every host sends `size` bytes to every other
    /// host (§5.2 uses 100 KB), all starting at `start`.
    pub fn shuffle(hosts: usize, size: u64, start: SimTime) -> Vec<FlowSpec> {
        let mut out = Vec::with_capacity(hosts * (hosts - 1));
        for s in 0..hosts {
            for d in 0..hosts {
                if s != d {
                    out.push(FlowSpec {
                        src: s,
                        dst: d,
                        size,
                        start,
                    });
                }
            }
        }
        out
    }

    /// All-to-all shuffle with arrivals staggered uniformly over `window`
    /// (the paper staggers static-network runs over 10 ms to avoid
    /// startup effects).
    pub fn shuffle_staggered(
        hosts: usize,
        size: u64,
        window: SimTime,
        rng: &mut SimRng,
    ) -> Vec<FlowSpec> {
        let window = window.as_ns().max(1);
        Self::shuffle(hosts, size, SimTime::ZERO)
            .into_iter()
            .map(|mut f| {
                f.start = SimTime::from_ns(rng.below(window));
                f
            })
            .collect()
    }

    /// Host permutation: every host sends to one non-rack-local host,
    /// derangement-style (§5.6).
    pub fn permutation(
        hosts: usize,
        hosts_per_rack: usize,
        size: u64,
        rng: &mut SimRng,
    ) -> Vec<FlowSpec> {
        // Rack-rotation permutation with random rack relabeling: host i of
        // rack r sends to host i of rack π(r)+1, guaranteeing non-local.
        let racks = hosts / hosts_per_rack;
        let mut perm: Vec<usize> = (0..racks).collect();
        rng.shuffle(&mut perm);
        let mut out = Vec::with_capacity(hosts);
        for r in 0..racks {
            let dst_rack = perm[(perm.iter().position(|&x| x == r).unwrap() + 1) % racks];
            for i in 0..hosts_per_rack {
                out.push(FlowSpec {
                    src: r * hosts_per_rack + i,
                    dst: dst_rack * hosts_per_rack + i,
                    size,
                    start: SimTime::ZERO,
                });
            }
        }
        out
    }

    /// Rack-level demand matrices for the flow-model sweeps (Fig. 12/15).
    /// `hot rack`: all hosts of rack 0 send to rack 1 at full rate.
    pub fn hotrack_demands(hosts_per_rack: usize, gbps: f64) -> Vec<Demand> {
        vec![Demand {
            src: 0,
            dst: 1,
            amount: hosts_per_rack as f64 * gbps,
        }]
    }

    /// `skew[p,1]`: fraction `p` of racks are active; active racks send a
    /// rack-level permutation among themselves at full rate (following
    /// \[29\]).
    pub fn skew_demands(
        racks: usize,
        p: f64,
        hosts_per_rack: usize,
        gbps: f64,
        rng: &mut SimRng,
    ) -> Vec<Demand> {
        let active = ((racks as f64 * p).round() as usize).clamp(2, racks);
        let mut ids: Vec<usize> = (0..racks).collect();
        rng.shuffle(&mut ids);
        ids.truncate(active);
        (0..active)
            .map(|i| Demand {
                src: ids[i],
                dst: ids[(i + 1) % active],
                amount: hosts_per_rack as f64 * gbps,
            })
            .collect()
    }

    /// Rack-level permutation demands at full rate.
    pub fn permutation_demands(
        racks: usize,
        hosts_per_rack: usize,
        gbps: f64,
        rng: &mut SimRng,
    ) -> Vec<Demand> {
        let mut ids: Vec<usize> = (0..racks).collect();
        rng.shuffle(&mut ids);
        (0..racks)
            .map(|i| Demand {
                src: ids[i],
                dst: ids[(i + 1) % racks],
                amount: hosts_per_rack as f64 * gbps,
            })
            .collect()
    }

    /// Uniform all-to-all rack demands totaling `frac` of each rack's host
    /// capacity.
    pub fn all_to_all_demands(
        racks: usize,
        hosts_per_rack: usize,
        gbps: f64,
        frac: f64,
    ) -> Vec<Demand> {
        let per_pair = frac * hosts_per_rack as f64 * gbps / (racks - 1) as f64;
        (0..racks)
            .flat_map(|a| {
                (0..racks).filter(move |&b| b != a).map(move |b| Demand {
                    src: a,
                    dst: b,
                    amount: per_pair,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dists::Workload;

    #[test]
    fn poisson_load_calibrated() {
        let dist = FlowSizeDist::of(Workload::Websearch);
        let mean = dist.mean();
        let hosts = 64;
        let load = 0.25;
        let mut g = PoissonGen::new(dist, hosts, 10.0, load, 7);
        let horizon = SimTime::from_ms(200);
        let flows = g.flows_until(horizon);
        let bytes: u64 = flows.iter().map(|f| f.size).sum();
        let offered = bytes as f64 * 8.0 / horizon.as_secs_f64();
        let target = load * hosts as f64 * 10e9;
        assert!(
            (offered / target - 1.0).abs() < 0.15,
            "offered {offered:.3e} vs target {target:.3e} (mean size {mean:.0})"
        );
    }

    #[test]
    fn poisson_src_dst_distinct() {
        let mut g = PoissonGen::new(FlowSizeDist::of(Workload::Hadoop), 8, 10.0, 0.1, 3);
        for _ in 0..1000 {
            let f = g.next_flow();
            assert_ne!(f.src, f.dst);
            assert!(f.src < 8 && f.dst < 8);
        }
    }

    #[test]
    fn poisson_deterministic() {
        let mk = || {
            let mut g = PoissonGen::new(FlowSizeDist::of(Workload::Hadoop), 8, 10.0, 0.1, 9);
            (0..100).map(|_| g.next_flow()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn shuffle_counts() {
        let f = ScenarioGen::shuffle(10, 100_000, SimTime::ZERO);
        assert_eq!(f.len(), 90);
        assert!(f.iter().all(|x| x.size == 100_000));
    }

    #[test]
    fn staggered_shuffle_within_window() {
        let mut rng = SimRng::new(4);
        let w = SimTime::from_ms(10);
        let f = ScenarioGen::shuffle_staggered(6, 1000, w, &mut rng);
        assert_eq!(f.len(), 30);
        assert!(f.iter().all(|x| x.start < w));
        assert!(f.iter().any(|x| x.start.as_ns() > 0));
    }

    #[test]
    fn permutation_non_rack_local() {
        let mut rng = SimRng::new(5);
        let f = ScenarioGen::permutation(24, 4, 500_000, &mut rng);
        assert_eq!(f.len(), 24);
        for x in &f {
            assert_ne!(x.src / 4, x.dst / 4, "rack-local pair {x:?}");
        }
        // every host sends exactly once, receives exactly once
        let mut sends = [0; 24];
        let mut recvs = [0; 24];
        for x in &f {
            sends[x.src] += 1;
            recvs[x.dst] += 1;
        }
        assert!(sends.iter().all(|&c| c == 1));
        assert!(recvs.iter().all(|&c| c == 1));
    }

    #[test]
    fn skew_demands_active_fraction() {
        let mut rng = SimRng::new(6);
        let d = ScenarioGen::skew_demands(100, 0.2, 4, 10.0, &mut rng);
        assert_eq!(d.len(), 20);
        for x in &d {
            assert_ne!(x.src, x.dst);
            assert_eq!(x.amount, 40.0);
        }
    }

    #[test]
    fn all_to_all_totals() {
        let d = ScenarioGen::all_to_all_demands(10, 4, 10.0, 0.5);
        assert_eq!(d.len(), 90);
        let per_rack: f64 = d.iter().filter(|x| x.src == 0).map(|x| x.amount).sum();
        assert!((per_rack - 20.0).abs() < 1e-9);
    }
}
