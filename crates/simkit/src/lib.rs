//! `simkit` — a deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Opera reproduction: a from-scratch
//! replacement for the event core of the `htsim` packet simulator used in the
//! paper. It provides:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`time::SimTime`]) and
//!   duration arithmetic,
//! * [`engine`] — the event queue and scheduler ([`engine::Simulator`]) with
//!   deterministic FIFO tie-breaking for simultaneous events,
//! * [`pool`] — the workspace's one worker pool, [`pool::claim_slots`]: numbered
//!   slots on scoped threads, results in slot order,
//! * [`rng`] — a small, seedable, reproducible random-number generator,
//! * [`cases`] — the seeded, shrinking case runner every property and
//!   differential test draws its inputs from,
//! * [`stats`] — the statistics every experiment harness reports: exact
//!   quantiles over stored samples, the count / mean / 95% CI / p99 / max
//!   [`stats::Summary`], and binned time series.
//!
//! Determinism is a design requirement: two runs with the same seed produce
//! bit-identical event orderings, which the integration tests assert.

pub mod cases;
pub mod engine;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{EventContext, EventHandler, Simulator};
pub use rng::SimRng;
pub use time::{SimTime, NS_PER_MS, NS_PER_SEC, NS_PER_US};
