//! Seeded test cases, the workspace's one generator of test inputs. A
//! generator is a closure over a [`Draw`], which wraps a [`SimRng`] and
//! records each draw as a `u64` choice. A failing case is shrunk by
//! editing its choices and replaying the generator (a missing choice reads
//! as 0, one past its bound as the bound less one): drop a suffix, all of
//! it, then by halves; then bisect each choice toward 0, greedily; again
//! while either helps, within 512 re-runs. So ranges shrink toward their
//! start, vectors to prefixes (the length is drawn first), and tuples and
//! whole scenarios shrink too. The minimised input is printed with the
//! label and the seed, and the property runs on it once more, uncaught.
//! `CASES` in the environment overrides [`check`]'s case count.

use crate::SimRng;
use std::cell::Cell;
use std::env::VarError;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Re-runs the shrinking of one failing case may spend.
const SHRINK_BUDGET: usize = 512;

/// Where a generator's draws come from: a seeded [`SimRng`], or else the
/// choice list `replay`. Every draw made is recorded.
#[derive(Debug)]
pub struct Draw {
    rng: Option<SimRng>,
    replay: Vec<u64>,
    made: Vec<u64>,
}

impl Draw {
    fn new(rng: Option<SimRng>, replay: &[u64]) -> Draw {
        let (replay, made) = (replay.to_vec(), Vec::new());
        Draw { rng, replay, made }
    }

    /// A choice in `[0, bound)`: [`SimRng::below`] when drawing. When
    /// replaying, the list's next choice, at most `bound - 1`, or 0 past
    /// its end (not recorded, so a replay records only what it read).
    pub fn below(&mut self, bound: u64) -> u64 {
        let c = match &mut self.rng {
            Some(rng) => rng.below(bound),
            None => match self.replay.get(self.made.len()) {
                Some(&c) => c.min(bound - 1),
                None => return 0,
            },
        };
        self.made.push(c);
        c
    }

    /// `start + below(end - start)`.
    pub fn u64(&mut self, r: Range<u64>) -> u64 {
        r.start + self.below(r.end - r.start)
    }

    /// `start + below(end - start)`.
    pub fn usize(&mut self, r: Range<usize>) -> usize {
        r.start + self.below((r.end - r.start) as u64) as usize
    }

    /// `start + f * (end - start)` for `f` uniform in `[0, 1)`, as
    /// [`SimRng::f64`]: `below(2^53)` is a word's top 53 bits.
    pub fn f64(&mut self, r: Range<f64>) -> f64 {
        let f = self.below(1 << 53) as f64 * (1.0 / (1u64 << 53) as f64);
        r.start + f * (r.end - r.start)
    }

    /// A vector: its length drawn from `len` first, then each element.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Draw) -> T) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| elem(self)).collect()
    }
}

/// Case `case`'s seed: FNV-1a of the test's name, mixed with the index.
fn seed_for(name: &str, case: u64) -> u64 {
    let fnv = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    fnv ^ case.wrapping_mul(0xA24B_AED4_963E_E407)
}

/// `prop` on `cases` cases of `draw` (or `CASES` of them), each as [`run`]
/// runs it, labelled with `name` and its index.
pub fn check<T: Debug>(
    name: &str,
    cases: u32,
    draw: impl Fn(&mut Draw) -> T,
    mut prop: impl FnMut(T),
) {
    for case in 0..case_count(std::env::var("CASES"), cases) as u64 {
        let (label, seed) = (format!("{name} case {case}"), seed_for(name, case));
        run(&label, seed, &draw, &mut prop);
    }
}

/// `prop` on the case `draw` draws from `seed`. A failing case is shrunk
/// (see the module docs), printed with `label` and `seed`, and run again
/// uncaught.
pub fn run<T: Debug>(
    label: &str,
    seed: u64,
    draw: impl Fn(&mut Draw) -> T,
    mut prop: impl FnMut(T),
) {
    let mut d = Draw::new(Some(SimRng::new(seed)), &[]);
    let value = draw(&mut d);
    if catch_unwind(AssertUnwindSafe(|| prop(value))).is_ok() {
        return;
    }
    let best = quietly(|| {
        shrink(d.made, |choices| {
            let mut d = Draw::new(None, choices);
            let value = catch_unwind(AssertUnwindSafe(|| draw(&mut d))).ok()?;
            let failed = catch_unwind(AssertUnwindSafe(|| prop(value))).is_err();
            failed.then_some(d.made)
        })
    });
    let value = draw(&mut Draw::new(None, &best));
    eprintln!("[cases] {label} (seed {seed:#x}) failed; minimised input: {value:?}");
    prop(value);
    panic!("[cases] {label}: the minimised case no longer fails (flaky property?)");
}

/// The shorter, then smaller, choice list reached from the failing `best`
/// that still fails: `fails` replays a list and returns the choices the
/// replay read if the property failed.
fn shrink(mut best: Vec<u64>, mut fails: impl FnMut(&[u64]) -> Option<Vec<u64>>) -> Vec<u64> {
    let mut budget = SHRINK_BUDGET;
    // Once the budget is spent nothing is accepted, so the loop ends.
    let mut accept = |cand: Vec<u64>, best: &mut Vec<u64>| {
        budget = budget.checked_sub(1)?;
        fails(&cand).map(|made| *best = made)
    };
    loop {
        let before = best.clone();
        let mut cut = best.len();
        while cut > 0 {
            cut = cut.min(best.len());
            if accept(best[..best.len() - cut].to_vec(), &mut best).is_none() {
                cut /= 2;
            }
        }
        for i in 0.. {
            let Some(&v) = best.get(i) else { break };
            let mut step = v;
            while step > 0 {
                let mut cand = best.clone();
                cand[i] -= step;
                step = match accept(cand, &mut best) {
                    Some(()) => best.get(i).copied().unwrap_or(0),
                    None => step / 2,
                };
            }
        }
        if best == before {
            return best;
        }
    }
}

/// The case count: `default`, or the value of `CASES` if it is set.
fn case_count(var: Result<String, VarError>, default: u32) -> u32 {
    let bad = |v| panic!("CASES={v:?} is not a case count");
    match var {
        Err(VarError::NotPresent) => default,
        Ok(v) => v.parse().unwrap_or_else(|_| bad(v)),
        Err(e) => bad(e.to_string()),
    }
}

/// `f` with this thread's panic reports silenced: shrinking panics on
/// purpose. A process-wide hook swapped in and out would race with other
/// tests failing on cargo's parallel test threads, so one filtering hook
/// is installed on first use and stays; `f` itself must not unwind.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    thread_local!(static SILENCED: Cell<bool> = const { Cell::new(false) });
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCED.with(Cell::get) {
                prev(info);
            }
        }));
    });
    SILENCED.with(|s| s.set(true));
    let r = f();
    SILENCED.with(|s| s.set(false));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn ranges_in_bounds() {
        let draw = |d: &mut Draw| (d.usize(3..9), d.f64(1.5..2.5), d.u64(0..10));
        check("ranges_in_bounds", 16, draw, |(n, x, s)| {
            assert!((3..9).contains(&n));
            assert!((1.5..2.5).contains(&x));
            assert!(s < 10);
        });
    }

    #[test]
    fn vector_lengths_in_range() {
        let draw = |d: &mut Draw| d.vec(2..5, |d| d.f64(0.0..1.0));
        check("vector_lengths_in_range", 16, draw, |v| {
            assert!(v.len() >= 2 && v.len() < 5);
            assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
        });
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for("a", 0), seed_for("a", 0));
        assert_ne!(seed_for("a", 0), seed_for("a", 1));
        assert_ne!(seed_for("a", 0), seed_for("b", 0));
    }

    /// A draw is the seeded `SimRng`'s, bit for bit.
    #[test]
    fn draws_are_the_rngs() {
        let mut d = Draw::new(Some(SimRng::new(11)), &[]);
        let mut rng = SimRng::new(11);
        assert_eq!(d.u64(5..1_000), 5 + rng.below(995));
        assert_eq!(d.f64(0.0..1.0).to_bits(), rng.f64().to_bits());
        assert_eq!(d.usize(0..7), rng.index(7));
    }

    #[test]
    fn a_bad_case_count_is_an_error() {
        assert_eq!(case_count(Err(VarError::NotPresent), 64), 64);
        assert_eq!(case_count(Ok("2000".into()), 64), 2_000);
        assert!(catch_unwind(|| case_count(Ok("2k".into()), 64)).is_err());
    }

    /// A deliberately failing property: the greedy bisection must land
    /// exactly on the boundary case, and the minimised case runs last.
    #[test]
    fn fails_at_50_or_more_minimises_to_the_boundary() {
        let last = Cell::new((0, 0));
        let draw = |d: &mut Draw| (d.usize(0..100), d.u64(0..4));
        let failed = catch_unwind(AssertUnwindSafe(|| {
            check("fails_at_50_or_more", 64, draw, |(n, slack)| {
                last.set((n, slack));
                assert!(n < 50);
            })
        }));
        let err = failed.expect_err("property must fail");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "assertion failed: n < 50");
        assert_eq!(last.get(), (50, 0));
    }

    /// A vector that fails by its first three elements minimises to them:
    /// a prefix of the drawn vector, each element as drawn.
    #[test]
    fn a_failing_vector_shrinks_to_a_prefix() {
        let (first, last) = (RefCell::new(None), RefCell::new(Vec::new()));
        let draw = |d: &mut Draw| d.vec(3..40, |d| d.u64(0..1_000));
        let failed = catch_unwind(AssertUnwindSafe(|| {
            run("prefix", 5, draw, |v: Vec<u64>| {
                let first = first.borrow_mut().get_or_insert_with(|| v.clone())[..3].to_vec();
                *last.borrow_mut() = v.clone();
                assert!(v[..3] != first[..]);
            })
        }));
        assert!(failed.is_err());
        let first: Vec<u64> = first.into_inner().unwrap();
        assert!(first.len() > 3, "drawn {first:?}");
        assert_eq!(last.into_inner(), first[..3]);
    }
}
