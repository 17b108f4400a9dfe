//! Spans recorded from outside the simulator.
//!
//! [`Spanned`] wraps any [`NetLogic`] and times its two callbacks; it
//! depends on the two-method trait only, not on `NetEvent`'s variants.
//! Everything else is timed around whole calls by the workload code.
//! Spans are aggregated in memory per `(parent, name)` as count / total /
//! max (aggregate near the source, so the collector's cost is bounded) and
//! written once when the run ends.

use crate::surface::{EventContext, Fabric, NetEvent, NetLogic, Packet};
use std::time::{Duration, Instant};

/// Count / total / max of one span name under one parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total: Duration,
    pub max: Duration,
}

impl Agg {
    pub fn add(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }

    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// A [`NetLogic`] that delegates both callbacks inside `Instant` pairs.
pub struct Spanned<L> {
    pub inner: L,
    pub on_arrive: Agg,
    pub on_timer: Agg,
}

impl<L> Spanned<L> {
    pub fn new(inner: L) -> Self {
        Spanned {
            inner,
            on_arrive: Agg::default(),
            on_timer: Agg::default(),
        }
    }
}

impl<L: NetLogic> NetLogic for Spanned<L> {
    fn on_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        node: usize,
        port: usize,
        packet: Packet,
    ) {
        let t = Instant::now();
        self.inner.on_arrive(fabric, ctx, node, port, packet);
        self.on_arrive.add(t.elapsed());
    }

    fn on_timer(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(fabric, ctx, token);
        self.on_timer.add(t.elapsed());
    }
}

/// The span tree of one traced rep: `(parent, name, aggregate)` rows in
/// recording order; the root's parent is `""`.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    rows: Vec<(&'static str, &'static str, Agg)>,
}

impl SpanTree {
    /// Add one occurrence of `name` under `parent`.
    pub fn record(&mut self, parent: &'static str, name: &'static str, d: Duration) {
        let mut a = Agg::default();
        a.add(d);
        self.merge(parent, name, a);
    }

    /// Fold an already aggregated span in.
    pub fn merge(&mut self, parent: &'static str, name: &'static str, a: Agg) {
        match self
            .rows
            .iter_mut()
            .find(|(p, n, _)| (*p, *n) == (parent, name))
        {
            Some((_, _, have)) => {
                have.count += a.count;
                have.total += a.total;
                have.max = have.max.max(a.max);
            }
            None => self.rows.push((parent, name, a)),
        }
    }

    /// Time `f` as one occurrence of `name` under `parent`.
    pub fn time<T>(
        &mut self,
        parent: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t = Instant::now();
        let out = f();
        self.record(parent, name, t.elapsed());
        out
    }

    pub fn total(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, a)| a.secs())
            .sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, a)| a.count)
            .sum()
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        let children: f64 = self
            .rows
            .iter()
            .filter(|(p, _, _)| *p == name)
            .map(|(_, _, a)| a.secs())
            .sum();
        self.total(name) - children
    }

    /// JSON array of `{name, parent, count, total_s, max_s, self_s}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(parent, name, a)| {
                format!(
                    "{{\"name\":\"{name}\",\"parent\":\"{parent}\",\"count\":{},\
                     \"total_s\":{:.9},\"max_s\":{:.9},\"self_s\":{:.9}}}",
                    a.count,
                    a.secs(),
                    a.max.as_secs_f64(),
                    self.self_secs(name)
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}
