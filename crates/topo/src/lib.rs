//! `topo` — topology generation and graph analysis for the Opera reproduction.
//!
//! This crate builds every network topology the paper evaluates and provides
//! the graph machinery the evaluation rests on:
//!
//! * [`graph`] — rack-level multigraphs, BFS shortest paths, ECMP next-hop
//!   tables, diameter / average path length,
//! * [`matching`] — perfect/near-perfect matchings and the round-robin
//!   factorization of the complete graph into `N` disjoint matchings (§3.3),
//! * [`lifting`] — graph lifting to build large factorizations from small
//!   ones (§3.3),
//! * [`opera`] — the Opera topology itself: matching→circuit-switch
//!   assignment, cyclic orders, offset reconfiguration, topology slices
//!   (§3.1–3.3, Appendix B grouping),
//! * [`expander`] — cost-equivalent static expander baselines (u random
//!   matchings),
//! * [`clos`] — M:1 over-subscribed three-tier folded-Clos baselines,
//! * [`spectral`] — spectral-gap computation (Appendix D),
//! * [`failures`] — link/ToR/circuit-switch failure injection and
//!   connectivity/stretch analysis (§5.5, Appendix E),
//! * [`cost`] — the cost-normalization model and α sweep (Appendix A).
//!
//! # Example
//!
//! ```
//! use topo::opera::{OperaParams, OperaTopology};
//!
//! // The paper's 648-host topology: every slice is a connected expander
//! // and every rack pair gets direct circuits each cycle.
//! let t = OperaTopology::generate(OperaParams::example_648(), 1);
//! assert_eq!(t.slices_per_cycle(), 108);
//! assert!(t.slice(0).graph().is_connected());
//! assert!(!t.direct_slices(0, 77).is_empty());
//! ```

pub mod clos;
pub mod cost;
pub mod expander;
pub mod failures;
pub mod graph;
pub mod lifting;
pub mod matching;
pub mod opera;
pub mod spectral;
pub use graph::{Graph, NodeId};
pub use matching::{factorize_complete, Matching};
pub use opera::{OperaParams, OperaTopology, SliceView};
