//! Replicate axis: R independent seeds per sweep point, folded into
//! mean / 95%-CI table columns.
//!
//! A single seeded run per sweep point makes a figure a point estimate;
//! the paper-style presentation is a mean with a confidence interval
//! over replicate seeds. This module provides the two halves:
//!
//! * [`RepCtx`] — the per-`(point, replicate)` execution context handed
//!   out by [`crate::Runner::run_replicated`]. Its seed derives from
//!   `(base seed, global point index, replicate index)` via the same
//!   SplitMix64 chain as point seeds, so replicated output keeps the
//!   harness determinism guarantee: byte-identical for any `--threads`.
//! * [`RepTableBuilder`] — accumulates one observation [`Row`] per
//!   `(row key, replicate)` and renders a [`Table`] whose metric columns
//!   become `<metric>_mean` / `<metric>_ci95` pairs (normal-approximation
//!   95% interval via [`summarize`]) plus a trailing `reps` count. It
//!   reads a sweep row's point off the [`Swept`] the runner returned
//!   ([`RepTableBuilder::sweep_rows`]); no driver attaches one.
//!
//! Row keys are matched across replicates by their rendered label cells,
//! in first-seen order, so replicates may legitimately disagree on which
//! rows exist (e.g. an FCT size bin empty under one seed): such rows get
//! the CI of however many replicates produced them, and `reps` says how
//! many that was. A key pushed fewer than twice renders its `ci95` as
//! `NaN` — there is no spread to estimate from one observation.

use crate::runner::{derive_seed, PointCtx, Swept};
use crate::sweep::SweepRef;
use crate::table::{Cell, Table};
use simkit::stats::summarize;
use simkit::SimRng;
use std::borrow::Borrow;
use std::collections::HashMap;

/// Salt mixed into the point seed before deriving replicate seeds, so
/// replicate streams can never collide with [`PointCtx::rng_stream`]
/// sub-streams (which derive from the unsalted point seed).
const REPLICATE_SALT: u64 = 0x7E11_CA7E_0B5E_55ED;

/// Mix a point seed and a replicate index into an independent seed.
pub fn replicate_seed(point_seed: u64, rep: usize) -> u64 {
    derive_seed(point_seed ^ REPLICATE_SALT, rep as u64)
}

/// Per-`(point, replicate)` execution context.
#[derive(Debug, Clone, Copy)]
pub struct RepCtx {
    /// The sweep point this replicate belongs to.
    pub point: PointCtx,
    /// Replicate index within the point (`0..replicates`).
    pub rep: usize,
    /// Seed derived from the point seed and `rep`.
    pub seed: u64,
}

impl RepCtx {
    /// A fresh RNG for this replicate.
    pub fn rng(&self) -> SimRng {
        SimRng::new(self.seed)
    }

    /// An independent RNG sub-stream for this replicate (same stream
    /// separation scheme as [`PointCtx::rng_stream`]).
    pub fn rng_stream(&self, stream: u64) -> SimRng {
        SimRng::new(derive_seed(self.seed, stream.wrapping_add(1)))
    }
}

impl PointCtx {
    /// The [`RepCtx`] of replicate `rep` of this point.
    pub fn replicate(&self, rep: usize) -> RepCtx {
        RepCtx {
            point: *self,
            rep,
            seed: replicate_seed(self.seed, rep),
        }
    }
}

/// Renders a metric value into its table cell (e.g. [`crate::f2`]).
pub type MetricFmt = fn(f64) -> Cell;

/// One observation of a table row: its key cells and one value per
/// metric.
pub type Row = (Vec<Cell>, Vec<f64>);

/// One builder row: the sweep point that produced it (`None` for
/// constant rows), its key cells, and one observation series per
/// metric.
type RepRow = (Option<usize>, Vec<Cell>, Vec<Vec<f64>>);

/// Accumulates per-replicate observations keyed by label cells and
/// builds the aggregated mean/CI table, tracking each row's sweep point
/// so sharded outputs can be merged with validation.
///
/// Rows come in two kinds, mirroring [`Table`]: *sweep* rows
/// ([`RepTableBuilder::sweep_rows`]) belong to the sweep point whose
/// results they were made from, *constant* rows
/// ([`RepTableBuilder::extend`]) are computed outside any sweep and must
/// precede them. A row key must always come from the same sweep point —
/// keys are how replicates of a point find their row, so a key shared
/// *across* points would fold unrelated observations together (and
/// silently diverge under sharding); that is rejected when the row is
/// recorded.
#[derive(Debug, Clone)]
pub struct RepTableBuilder {
    name: String,
    key_cols: Vec<String>,
    metrics: Vec<(String, MetricFmt)>,
    index: HashMap<String, usize>,
    rows: Vec<RepRow>,
    sweep: Option<SweepRef>,
}

impl RepTableBuilder {
    /// New builder for table `name` with the given key columns and
    /// `(metric name, formatter)` pairs.
    pub fn new(name: &str, key_cols: &[&str], metrics: &[(&str, MetricFmt)]) -> Self {
        RepTableBuilder {
            name: name.to_string(),
            key_cols: key_cols.iter().map(|c| c.to_string()).collect(),
            metrics: metrics
                .iter()
                .map(|&(m, fmt)| (m.to_string(), fmt))
                .collect(),
            index: HashMap::new(),
            rows: Vec::new(),
            sweep: None,
        }
    }

    /// Record observations of constant rows (rows computed outside any
    /// sweep): each replicate's, or `Ctx::repeat` of a closed-form one.
    /// Rows appear in the built table in first-seen order.
    ///
    /// # Panics
    /// Panics on an arity mismatch, or when any sweep row was already
    /// recorded (constant rows must precede sweep rows).
    pub fn extend<I>(&mut self, rows: I)
    where
        I: IntoIterator,
        I::Item: Borrow<Row>,
    {
        for row in rows {
            self.record(None, row.borrow());
        }
    }

    /// Record the table's sweep rows: `rows(point, results)` gives the
    /// observations one owned point's results amount to, replicate by
    /// replicate, and each is filed under that point. The built
    /// [`Table`] records the sweep's size and the points `swept` ran (a
    /// point may yield no rows, a shard may own no points), which is
    /// what the shard merge validates completeness against.
    ///
    /// # Panics
    /// Panics on an arity mismatch, on a key seen before under another
    /// point (or as a constant row), or on a second sweep's rows.
    pub fn sweep_rows<'a, P, R, I>(
        &mut self,
        swept: &'a Swept<'_, P, R>,
        mut rows: impl FnMut(&'a P, &'a R) -> I,
    ) where
        I: IntoIterator,
        I::Item: Borrow<Row>,
    {
        assert!(
            self.sweep.is_none(),
            "table {}: sweep rows recorded twice",
            self.name
        );
        self.sweep = Some(swept.sweep.clone());
        for (&index, results) in std::iter::zip(&swept.sweep.owned, &swept.results) {
            for row in rows(&swept.points[index], results) {
                self.record(Some(index), row.borrow());
            }
        }
    }

    fn record(&mut self, point: Option<usize>, (key, metrics): &Row) {
        assert_eq!(
            key.len(),
            self.key_cols.len(),
            "table {}: key has {} cells, expected {}",
            self.name,
            key.len(),
            self.key_cols.len()
        );
        assert_eq!(
            metrics.len(),
            self.metrics.len(),
            "table {}: row has {} metrics, expected {}",
            self.name,
            metrics.len(),
            self.metrics.len()
        );
        if point.is_none() {
            assert!(
                self.rows.iter().all(|(p, _, _)| p.is_none()),
                "table {}: constant rows must precede sweep-indexed rows",
                self.name
            );
        }
        let id = key
            .iter()
            .map(Cell::to_string)
            .collect::<Vec<_>>()
            .join("\u{1f}");
        let idx = match self.index.get(&id) {
            Some(&i) => i,
            None => {
                let i = self.rows.len();
                self.index.insert(id, i);
                self.rows
                    .push((point, key.clone(), vec![Vec::new(); self.metrics.len()]));
                i
            }
        };
        assert_eq!(
            self.rows[idx].0, point,
            "table {}: row key {:?} pushed from sweep point {:?} but first seen from {:?} \
             (a key must identify one sweep point)",
            self.name, self.rows[idx].1, point, self.rows[idx].0
        );
        for (series, &v) in self.rows[idx].2.iter_mut().zip(metrics) {
            series.push(v);
        }
    }

    /// Build the aggregated table: key columns, then
    /// `<metric>_mean`/`<metric>_ci95` per metric, then `reps`.
    pub fn build(self) -> Table {
        let mut columns: Vec<String> = self.key_cols;
        for (m, _) in &self.metrics {
            columns.push(format!("{m}_mean"));
            columns.push(format!("{m}_ci95"));
        }
        columns.push("reps".to_string());
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut t = Table::new(&self.name, &column_refs);
        if let Some(sweep) = &self.sweep {
            t = t.for_sweep(sweep);
        }
        for (point, key, series) in self.rows {
            let mut row = key;
            let mut reps = 0usize;
            for ((_, fmt), vals) in self.metrics.iter().zip(&series) {
                let s = summarize(vals.iter().copied());
                reps = reps.max(s.count);
                row.push(fmt(s.mean));
                row.push(fmt(s.ci95));
            }
            row.push(Cell::from(reps));
            match point {
                Some(p) => t.push_indexed(p, row),
                None => t.push(row),
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use crate::table::{f, f2};

    #[test]
    fn replicate_seed_snapshots() {
        // Snapshot values: these must never change, or every committed
        // golden CSV silently shifts.
        assert_eq!(replicate_seed(0, 0), 7783651692260004749);
        assert_eq!(replicate_seed(0, 1), 7412183137375824277);
        assert_eq!(replicate_seed(1, 0), 3490541878623535042);
        assert_ne!(replicate_seed(5, 2), replicate_seed(5, 3));
        assert_ne!(replicate_seed(5, 2), replicate_seed(6, 2));
    }

    #[test]
    fn replicate_seeds_avoid_stream_seeds() {
        // A point's replicate seeds and its rng_stream sub-seeds live in
        // salted vs unsalted derivation chains; spot-check disjointness.
        let pt = crate::Runner::new(1, 0).point_ctx(0);
        let rep_seeds: Vec<u64> = (0..8).map(|r| pt.replicate(r).seed).collect();
        for stream in 0..8u64 {
            let s = derive_seed(pt.seed, stream + 1);
            assert!(!rep_seeds.contains(&s));
        }
    }

    #[test]
    fn builder_aggregates_across_replicates() {
        let mut b = RepTableBuilder::new(
            "demo",
            &["system", "load"],
            &[("fct", f2 as MetricFmt), ("done", f)],
        );
        b.extend((0..3).map(|rep| {
            (
                vec![Cell::from("opera"), Cell::F64(0.1)],
                vec![10.0 + rep as f64, 1.0],
            )
        }));
        // A row only one replicate produced.
        b.extend([(vec![Cell::from("clos"), Cell::F64(0.1)], vec![5.0, 0.5])]);
        let t = b.build();
        assert_eq!(
            t.columns,
            [
                "system",
                "load",
                "fct_mean",
                "fct_ci95",
                "done_mean",
                "done_ci95",
                "reps"
            ]
        );
        assert_eq!(t.rows.len(), 2);
        // Mean of 10, 11, 12 with sample std dev 1.0.
        assert_eq!(t.rows[0][2].to_string(), "11.00");
        let ci: f64 = t.rows[0][3].to_string().parse().unwrap();
        assert!((ci - 1.96 / 3f64.sqrt()).abs() < 0.005);
        assert_eq!(t.rows[0][4].to_string(), "1.0000");
        assert_eq!(t.rows[0][5].to_string(), "0.0000"); // zero spread
        assert_eq!(t.rows[0][6].to_string(), "3");
        // Single-observation row: mean rendered, CI is NaN, reps = 1.
        assert_eq!(t.rows[1][2].to_string(), "5.00");
        assert_eq!(t.rows[1][3].to_string(), "NaN");
        assert_eq!(t.rows[1][6].to_string(), "1");
    }

    fn ctx(replicates: usize, shard: Option<(usize, usize)>) -> crate::Ctx {
        crate::Ctx::new(crate::ExptArgs {
            threads: 1,
            replicates,
            shard,
            ..Default::default()
        })
    }

    #[test]
    fn repeated_row_yields_zero_ci() {
        let ctx = ctx(3, None);
        let mut b = RepTableBuilder::new("c", &["q"], &[("v", f as MetricFmt)]);
        b.extend(ctx.repeat((vec![Cell::from("alpha")], vec![1.3])));
        let t = b.build();
        assert_eq!(t.rows[0][1].to_string(), "1.3000");
        assert_eq!(t.rows[0][2].to_string(), "0.0000");
        assert_eq!(t.rows[0][3].to_string(), "3");
    }

    #[test]
    fn sweep_rows_carry_their_points() {
        // Shard 1 of 2 over four points owns points 1 and 3.
        let ctx = ctx(2, Some((1, 2)));
        let sweep = Sweep::grid1(&["zero", "one", "two", "three"], |l| l);
        let swept = ctx.run_replicated(&sweep, |_, rc| rc.rep as f64);
        let mut b = RepTableBuilder::new("p", &["k"], &[("v", f as MetricFmt)]);
        b.extend([(vec![Cell::from("const")], vec![0.0])]);
        b.sweep_rows(&swept, |&label, reps| {
            let seen = move |&v| if label == "one" { v } else { 9.0 };
            reps.iter()
                .map(move |v| (vec![Cell::from(label)], vec![seen(v)]))
        });
        let t = b.build();
        assert_eq!(t.row_points, [None, Some(1), Some(3)]);
        assert_eq!(t.sweep_points, Some(4));
        assert_eq!(t.points_run, [1, 3]);
        assert_eq!(t.rows[1][0].to_string(), "one");
        assert_eq!(t.rows[1][1].to_string(), "0.5000");
        assert_eq!(t.rows[2][1].to_string(), "9.0000");
        assert_eq!(t.rows[2][3].to_string(), "2"); // reps column
    }

    #[test]
    fn a_shard_without_points_still_records_the_sweep() {
        let ctx = ctx(1, Some((1, 2)));
        let sweep = Sweep::from_points(vec![()]);
        let swept = ctx.run(&sweep, |_, _| (vec![Cell::from("only")], vec![1.0]));
        let mut b = RepTableBuilder::new("p", &["k"], &[("v", f as MetricFmt)]);
        b.sweep_rows(&swept, |_, row| [row]);
        let t = b.build();
        assert!(t.is_empty());
        assert_eq!((t.sweep_points, &t.points_run[..]), (Some(1), &[][..]));
    }

    #[test]
    #[should_panic(expected = "must identify one sweep point")]
    fn key_shared_across_points_rejected() {
        let sweep = Sweep::from_points(vec![1.0, 2.0]);
        let swept = ctx(1, None).run(&sweep, |&v, _| v);
        let mut b = RepTableBuilder::new("p", &["k"], &[("v", f as MetricFmt)]);
        b.sweep_rows(&swept, |_, &v| [(vec![Cell::from("same")], vec![v])]);
    }

    #[test]
    #[should_panic(expected = "constant rows must precede")]
    fn constant_after_sweep_row_rejected() {
        let sweep = Sweep::from_points(vec![1.0]);
        let swept = ctx(1, None).run(&sweep, |&v, _| v);
        let mut b = RepTableBuilder::new("p", &["k"], &[("v", f as MetricFmt)]);
        b.sweep_rows(&swept, |_, &v| [(vec![Cell::from("a")], vec![v])]);
        b.extend([(vec![Cell::from("late const")], vec![2.0])]);
    }

    #[test]
    #[should_panic(expected = "row has 1 metrics")]
    fn metric_arity_checked() {
        let mut b = RepTableBuilder::new("x", &["k"], &[("a", f as MetricFmt), ("b", f)]);
        b.extend([(vec![Cell::from("k")], vec![1.0])]);
    }
}
