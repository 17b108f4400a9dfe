//! `flowsim` — flow-level max-min fair throughput computation.
//!
//! The paper's throughput-versus-cost sweeps (Figures 10, 12, 15) report
//! steady-state delivered throughput for fluid workloads. Packet simulation
//! at those scales is wasteful; the standard methodology (also used by the
//! "beyond fat-trees" cost study \[29\] the paper borrows α from) is a
//! fluid model: route each demand, then compute the max-min fair rate
//! allocation by progressive filling.
//!
//! * [`solver`] — capacities + fixed fractional routes → max-min rates,
//! * [`models`] — builders translating `topo` topologies and rack-level
//!   demand matrices into solver instances (ECMP splitting for Clos and
//!   expanders; time-shared mesh + two-hop Valiant overflow for
//!   Opera/RotorNet).
//!
//! # Example
//!
//! ```
//! use flowsim::{max_min_rates, Instance};
//!
//! // Two flows share a 10 Gb/s link; one also crosses a 4 Gb/s link.
//! let mut inst = Instance::new();
//! let fat = inst.add_link(10.0);
//! let thin = inst.add_link(4.0);
//! inst.add_flow(vec![(fat, 1.0)], f64::INFINITY);
//! inst.add_flow(vec![(fat, 1.0), (thin, 1.0)], f64::INFINITY);
//! let rates = max_min_rates(&inst);
//! assert!((rates[1] - 4.0).abs() < 1e-9); // bottlenecked on the thin link
//! assert!((rates[0] - 6.0).abs() < 1e-9); // takes the rest
//! ```

pub mod mcf;
pub mod models;
pub mod solver;

pub use mcf::{max_concurrent_flow, McfResult, McfSolver};
pub use models::{
    clos_throughput, expander_model, graph_model, opera_model, Demand, ModelResult, Routing,
};
pub use solver::{max_min_rates, Instance};
