//! Parallel sweep execution with deterministic seeding and ordered
//! collection.
//!
//! Each sweep point is an isolated simulation: its only inputs are the
//! point parameters and a seed derived from `(base_seed, point index)`.
//! Workers claim points from a shared atomic counter
//! ([`simkit::pool::claim_slots`]), so scheduling is
//! nondeterministic — but results are keyed by point index and returned
//! in sweep order, and no RNG state is shared across points. Hence a run
//! with `--threads 8` produces byte-identical output to `--threads 1`.

use crate::replicate::RepCtx;
use crate::sweep::{Sweep, SweepRef};
use simkit::pool::{self, claim_slots};
use simkit::SimRng;

/// Mix a base seed and a point index into an independent 64-bit seed
/// (SplitMix64 finalizer over a golden-ratio index stride).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-point execution context handed to the sweep function.
#[derive(Debug, Clone, Copy)]
pub struct PointCtx {
    /// Index of the point in sweep order.
    pub index: usize,
    /// Seed derived from the runner's base seed and `index`.
    pub seed: u64,
}

impl PointCtx {
    /// A fresh RNG for this point.
    pub fn rng(&self) -> SimRng {
        SimRng::new(self.seed)
    }

    /// An independent RNG sub-stream for this point (e.g. one for the
    /// workload, one for failure sampling).
    pub fn rng_stream(&self, stream: u64) -> SimRng {
        SimRng::new(derive_seed(self.seed, stream.wrapping_add(1)))
    }
}

/// What a sweep produced, still attached to the points that produced
/// it: one `R` per point this runner owns. Which global point index a
/// result belongs to stays inside this type, from which
/// [`crate::RepTableBuilder::sweep_rows`] takes a table's sweep rows:
/// a row cannot be tagged with a point other than its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Swept<'s, P, R> {
    pub(crate) points: &'s [P],
    pub(crate) sweep: SweepRef,
    pub(crate) results: Vec<R>,
}

impl<'s, P, R> Swept<'s, P, R> {
    /// `(point, its result)` per owned point, in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = (&'s P, &R)> {
        let points = self.points;
        std::iter::zip(&self.sweep.owned, &self.results).map(move |(&i, r)| (&points[i], r))
    }
}

/// Executes sweeps across scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
    base_seed: u64,
    shard: Option<(usize, usize)>,
}

impl Runner {
    /// `threads == 0` means one worker per available core.
    pub fn new(threads: usize, base_seed: u64) -> Self {
        Runner {
            threads: worker_count(threads),
            base_seed,
            shard: None,
        }
    }

    /// Restrict this runner to shard `(i, n)`: only sweep points with
    /// `index % n == i` run (seeds still derive from the *global* point
    /// index, so shards compute exactly what an unsharded run would).
    ///
    /// # Panics
    /// Panics when `i >= n` or `n == 0`.
    pub fn with_shard(mut self, shard: Option<(usize, usize)>) -> Self {
        if let Some((i, n)) = shard {
            assert!(n > 0 && i < n, "invalid shard {i}/{n}");
        }
        self.shard = shard;
        self
    }

    /// The configured `(i, n)` shard, if any.
    pub fn shard(&self) -> Option<(usize, usize)> {
        self.shard
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Base seed per-point seeds derive from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// A `points`-point sweep as this runner sees it: the global
    /// indices it owns, ascending — all of them unsharded, every `n`-th
    /// under shard `(i, n)`.
    fn sweep_ref(&self, points: usize) -> SweepRef {
        let (i, n) = self.shard.unwrap_or((0, 1));
        SweepRef {
            points,
            owned: (i..points).step_by(n).collect(),
        }
    }

    /// The [`PointCtx`] the runner hands to point `index` — exposed so
    /// sequential code outside a sweep can reuse the same derivation.
    pub fn point_ctx(&self, index: usize) -> PointCtx {
        PointCtx {
            index,
            seed: derive_seed(self.base_seed, index as u64),
        }
    }

    /// Run `f` on every owned point of `sweep`, fanning out over scoped
    /// threads, and return the results in sweep order (restricted to
    /// this runner's shard when one is set), attached to their points.
    ///
    /// A panic in any point aborts the whole run (propagated after all
    /// workers stop claiming new points).
    pub fn run<'s, P, R, F>(&self, sweep: &'s Sweep<P>, f: F) -> Swept<'s, P, R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, &PointCtx) -> R + Sync,
    {
        let points = sweep.points();
        let sweep = self.sweep_ref(points.len());
        let results = claim_slots(self.threads, sweep.owned.len(), |slot| {
            let i = sweep.owned[slot];
            f(&points[i], &self.point_ctx(i))
        });
        Swept {
            points,
            sweep,
            results,
        }
    }

    /// Run `f` on every `(owned point, replicate)` pair of `sweep`,
    /// fanning the flattened work list out over scoped threads, and
    /// return each owned point's `reps` results, replicate `r` at index
    /// `r`, in sweep order.
    ///
    /// Replicate seeds derive from `(base seed, global point index,
    /// replicate index)` only, so — like [`Runner::run`] — the output is
    /// byte-identical for any worker count.
    ///
    /// # Panics
    /// Panics when `reps == 0`.
    pub fn run_replicated<'s, P, R, F>(
        &self,
        sweep: &'s Sweep<P>,
        reps: usize,
        f: F,
    ) -> Swept<'s, P, Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, &RepCtx) -> R + Sync,
    {
        assert!(reps >= 1, "run_replicated requires at least one replicate");
        let points = sweep.points();
        let sweep = self.sweep_ref(points.len());
        let flat = claim_slots(self.threads, sweep.owned.len() * reps, |slot| {
            let i = sweep.owned[slot / reps];
            let rep = slot % reps;
            f(&points[i], &self.point_ctx(i).replicate(rep))
        });
        let mut flat = flat.into_iter();
        let results = (0..sweep.owned.len())
            .map(|_| flat.by_ref().take(reps).collect())
            .collect();
        Swept {
            points,
            sweep,
            results,
        }
    }
}

/// A worker count as `--threads` and `--workers` give it: 0 means one
/// per available core.
pub(crate) fn worker_count(requested: usize) -> usize {
    match requested {
        0 => pool::cores(),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn seed_derivation_is_stable() {
        // Snapshot values: these must never change, or every recorded
        // figure CSV silently shifts.
        assert_eq!(derive_seed(0, 0), 16294208416658607535);
        assert_eq!(derive_seed(0, 1), 8033628859552847100);
        assert_eq!(derive_seed(1, 0), 10451216379200822465);
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn ordered_collection_under_out_of_order_completion() {
        // Early points sleep longest, so workers finish in roughly
        // reverse order; collection must still be in sweep order.
        let sweep = Sweep::grid1(&(0usize..32).collect::<Vec<_>>(), |i| i);
        let r = Runner::new(8, 0);
        let out = r.run(&sweep, |&i, ctx| {
            std::thread::sleep(Duration::from_millis((32 - i as u64) / 4));
            assert_eq!(ctx.index, i);
            i * 10
        });
        assert!(out
            .iter()
            .map(|(&i, &r)| (i, r))
            .eq((0..32).map(|i| (i, i * 10))));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sweep = Sweep::grid2(&[1u64, 2, 3], &[10u64, 20], |a, b| (a, b));
        let run = |threads| {
            Runner::new(threads, 99).run(&sweep, |&(a, b), ctx| {
                let mut rng = ctx.rng();
                (a, b, ctx.seed, rng.next_u64())
            })
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn rng_streams_are_independent_per_point() {
        let r = Runner::new(1, 5);
        let a = r.point_ctx(0);
        let b = r.point_ctx(1);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.rng().next_u64(), b.rng().next_u64());
        assert_ne!(a.rng_stream(0).next_u64(), a.rng_stream(1).next_u64());
    }

    #[test]
    fn empty_sweep() {
        let sweep: Sweep<u32> = Sweep::from_points(vec![]);
        let out = Runner::new(4, 0).run(&sweep, |&x, _| x);
        assert_eq!(out.iter().count(), 0);
    }

    #[test]
    fn shards_partition_the_sweep() {
        let sweep = Sweep::grid1(&(0usize..10).collect::<Vec<_>>(), |i| i);
        let run = |shard| {
            let swept = Runner::new(2, 7)
                .with_shard(shard)
                .run(&sweep, |&p, ctx| (p, ctx.seed));
            // Each result stays attached to the point that produced it.
            assert!(swept.iter().all(|(&p, &(ran, _))| p == ran));
            swept.iter().map(|(_, &r)| r).collect::<Vec<_>>()
        };
        let full = run(None);
        let parts: Vec<Vec<(usize, u64)>> = (0..3).map(|i| run(Some((i, 3)))).collect();
        // Shard i owns points i, i+3, ... with the seeds of the full run.
        for (i, part) in parts.iter().enumerate() {
            let expect: Vec<_> = full.iter().copied().skip(i).step_by(3).collect();
            assert_eq!(part, &expect);
        }
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, full.len());
        // More shards than points: the extra shards own nothing.
        assert_eq!(run(Some((10, 11))), []);
    }

    #[test]
    fn replicated_run_groups_by_point() {
        let sweep = Sweep::grid1(&[10usize, 20], |i| i);
        let out = Runner::new(4, 3).run_replicated(&sweep, 3, |&p, rc| {
            assert_eq!(
                rc.seed,
                crate::replicate::replicate_seed(rc.point.seed, rc.rep)
            );
            (p, rc.rep, rc.seed)
        });
        assert_eq!(out.iter().count(), 2);
        for (&point, reps) in out.iter() {
            assert_eq!(reps.len(), 3);
            for (r, &(p, rep, _)) in reps.iter().enumerate() {
                assert_eq!((p, rep), (point, r));
            }
        }
        // All six replicate seeds are pairwise distinct.
        let seeds: std::collections::HashSet<u64> = out
            .iter()
            .flat_map(|(_, reps)| reps)
            .map(|&(_, _, s)| s)
            .collect();
        assert_eq!(seeds.len(), 6);
    }

    #[test]
    fn replicated_run_is_thread_invariant() {
        let sweep = Sweep::grid2(&[1u64, 2, 3], &[4u64, 5], |a, b| (a, b));
        let run = |threads| {
            Runner::new(threads, 11).run_replicated(&sweep, 4, |&(a, b), rc| {
                let mut rng = rc.rng();
                (a, b, rc.rep, rc.seed, rng.next_u64())
            })
        };
        assert_eq!(run(1), run(8));
    }
}
