//! Cartesian sweep grids.
//!
//! A [`Sweep`] is an ordered list of points. The `grid*` constructors
//! enumerate cartesian products in **row-major order** (the last axis
//! varies fastest), which fixes both the per-point seed derivation
//! (seeds depend on the point index) and the output row order, so a
//! sweep's results are independent of how many workers execute it.

/// An ordered list of sweep points.
#[derive(Debug, Clone)]
pub struct Sweep<P> {
    points: Vec<P>,
}

/// A sweep's shape as one runner sees it: the total point count plus
/// the global indices of the points this runner (shard) owns. Tables
/// record this ([`crate::Table::for_sweep`]) so a shard-merge can
/// validate completeness — every point index present exactly once —
/// instead of trusting row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRef {
    /// Total number of points in the sweep, across all shards.
    pub points: usize,
    /// Global indices of the points this runner owns, ascending.
    pub owned: Vec<usize>,
}

impl<P> Sweep<P> {
    /// A sweep over explicit points, in the given order.
    pub fn from_points(points: Vec<P>) -> Self {
        Sweep { points }
    }

    /// One-axis sweep.
    pub fn grid1<A, F>(xs: &[A], mut f: F) -> Self
    where
        A: Clone,
        F: FnMut(A) -> P,
    {
        Sweep {
            points: xs.iter().map(|x| f(x.clone())).collect(),
        }
    }

    /// Two-axis cartesian sweep; `ys` varies fastest.
    pub fn grid2<A, B, F>(xs: &[A], ys: &[B], mut f: F) -> Self
    where
        A: Clone,
        B: Clone,
        F: FnMut(A, B) -> P,
    {
        let mut points = Vec::with_capacity(xs.len() * ys.len());
        for x in xs {
            for y in ys {
                points.push(f(x.clone(), y.clone()));
            }
        }
        Sweep { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, in sweep order.
    pub fn points(&self) -> &[P] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2_row_major() {
        let s = Sweep::grid2(&[1, 2], &["a", "b", "c"], |x, y| (x, y));
        assert_eq!(
            s.points(),
            &[(1, "a"), (1, "b"), (1, "c"), (2, "a"), (2, "b"), (2, "c")]
        );
    }
}
