//! `opera` — the core library of the Opera reproduction.
//!
//! Opera (Mellette et al., NSDI 2020) is a datacenter network whose rotor
//! circuit switches reconfigure *offset in time* so that
//!
//! * at every instant the active circuits form an expander graph carrying
//!   latency-sensitive traffic over multi-hop paths (NDP), and
//! * integrated over a cycle, every rack pair receives a direct circuit
//!   carrying bulk traffic with zero bandwidth tax (RotorLB).
//!
//! This crate assembles the substrates (`simkit`, `netsim`, `topo`,
//! `transport`, `workloads`, `flowsim`) into runnable network models:
//!
//! * [`timing`] — topology-slice time constants (§4.1, Figure 6/14),
//! * [`tables`] — per-slice low-latency and bulk forwarding tables (§4.3),
//! * [`net`] — what every packet-level network shares: [`Endpoints`]
//!   (a transport per host, flow arrivals, the flow tracker, the
//!   host ↔ ToR links) and [`PacketNet`], the seam a driver builds and
//!   runs any of them through,
//! * [`opera_net`] — what differs in Opera (and, by configuration,
//!   non-hybrid/hybrid RotorNet): rotor slices, feeders, hellos, RotorLB
//!   and per-slice routing between the ToRs,
//! * [`static_net`] — what differs in the cost-equivalent folded-Clos and
//!   static-expander baselines: the switch graph and shortest-path
//!   spraying over it,
//! * [`harness`] — FCT and throughput statistics over a finished run,
//! * [`ruleset`] — the routing-state model behind Table 1,
//! * [`prototype`] — the queueing model of the Tofino prototype (Figure
//!   13, §6.1).
//!
//! # Example
//!
//! ```
//! use opera::{opera_net::{self, OperaLogic}, OperaNetConfig, PacketNet};
//! use simkit::SimTime;
//! use workloads::FlowSpec;
//!
//! // A 32-host Opera network; one cross-rack low-latency flow.
//! let cfg = OperaNetConfig::small_test();
//! let flows = vec![FlowSpec { src: 1, dst: 30, size: 20_000, start: SimTime::ZERO }];
//! let mut sim = opera_net::build(cfg, flows);
//! // Until the network has drained, or else for 5 ms: the flow is done in
//! // well under 100 µs, its sender's last 2 ms RTO check is what is waited for.
//! assert!(OperaLogic::run(&mut sim, SimTime::from_ms(5)));
//! let fct = sim.world.logic.tracker().get(0).fct().expect("flow completed");
//! assert!(fct < SimTime::from_us(100) && sim.now() < SimTime::from_ms(3));
//! ```
//!
//! A driver that compares networks is one body over [`PacketNet`]:
//!
//! ```
//! use opera::{opera_net::OperaLogic, static_net::StaticLogic, PacketNet};
//! use simkit::SimTime;
//!
//! fn events<N: PacketNet>(cfg: N::Config) -> u64 {
//!     let shuffle = workloads::gen::ScenarioGen::shuffle(N::hosts(&cfg), 9_000, SimTime::ZERO);
//!     let mut sim = N::build(cfg, shuffle);
//!     N::run(&mut sim, SimTime::from_ms(20)); // drained, or else 20 ms
//!     assert!(sim.world.logic.tracker().all_done());
//!     sim.events_processed()
//! }
//! events::<OperaLogic>(opera::OperaNetConfig::small_test());
//! events::<StaticLogic>(opera::StaticNetConfig::small_expander());
//! ```

pub mod harness;
pub mod net;
pub mod opera_net;
pub mod prototype;
pub mod ruleset;
pub mod static_net;
pub mod tables;
pub mod timing;
mod tokens;

pub use harness::{ExperimentResult, FctStats};
pub use net::{Endpoints, PacketNet};
pub use opera_net::{OperaNet, OperaNetConfig, RotorMode};
pub use ruleset::{ruleset_for, RulesetReport};
pub use static_net::{StaticNet, StaticNetConfig, StaticTopologyKind};
pub use timing::SliceTiming;
