//! Matchings and the complete-graph factorization of §3.3.
//!
//! Opera's topology generation "randomly factors a complete graph (i.e.
//! N×N all-ones matrix) into N disjoint (and symmetric) matchings". Because
//! the all-ones matrix includes the diagonal, each rack is paired with
//! *itself* exactly once across the factorization:
//!
//! * odd `N` — the classic round-robin (circle) schedule yields `N`
//!   near-perfect matchings, each leaving exactly one rack self-paired;
//! * even `N` — the circle schedule yields `N−1` perfect matchings, and the
//!   identity matching (all racks self-paired) completes the count to `N`.
//!
//! A self-pairing contributes no inter-rack circuit: during that slot the
//! corresponding circuit-switch port is effectively dark for the rack.
//!
//! Randomization relabels the canonical schedule's vertices uniformly and
//! then Kempe-mixes it ([`kempe_mix`], 20 moves per rack): each move swaps
//! two matchings' edges along random components of their union, in O(n)
//! with no allocation, and preserves the disjoint/complete structure.

use crate::graph::{Graph, NodeId};
use simkit::SimRng;

/// A symmetric matching over `n` racks, possibly with self-pairings.
///
/// `pair[i] == j` means racks `i` and `j` are connected by a circuit
/// (`pair[j] == i` always holds); `pair[i] == i` means rack `i` has no
/// circuit in this matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    pair: Vec<NodeId>,
}

impl Matching {
    /// Build from an explicit pairing vector.
    ///
    /// # Panics
    /// Panics if the vector is not an involution (`pair[pair[i]] != i`).
    pub fn new(pair: Vec<NodeId>) -> Self {
        for (i, &j) in pair.iter().enumerate() {
            assert!(j < pair.len(), "pair out of range");
            assert_eq!(pair[j], i, "matching not symmetric at {i}->{j}");
        }
        Matching { pair }
    }

    /// The identity matching: every rack self-paired.
    pub fn identity(n: usize) -> Self {
        Matching {
            pair: (0..n).collect(),
        }
    }

    /// Number of racks.
    pub fn len(&self) -> usize {
        self.pair.len()
    }

    /// True when over zero racks.
    pub fn is_empty(&self) -> bool {
        self.pair.is_empty()
    }

    /// Partner of `rack`, or `rack` itself when self-paired.
    pub fn partner(&self, rack: NodeId) -> NodeId {
        self.pair[rack]
    }

    /// True when `rack` has an inter-rack circuit here.
    pub fn is_matched(&self, rack: NodeId) -> bool {
        self.pair[rack] != rack
    }

    /// Number of inter-rack circuits (pairs, not endpoints).
    pub fn circuit_count(&self) -> usize {
        self.pair
            .iter()
            .enumerate()
            .filter(|&(i, &j)| i < j)
            .count()
    }

    /// Iterate `(a, b)` circuit pairs with `a < b`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.pair
            .iter()
            .enumerate()
            .filter(|&(i, &j)| i < j)
            .map(|(i, &j)| (i, j))
    }

    /// Apply a vertex relabeling `perm` (new label of old vertex `v` is
    /// `perm[v]`), producing the conjugated matching.
    pub fn relabel(&self, perm: &[NodeId]) -> Matching {
        let n = self.pair.len();
        assert_eq!(perm.len(), n);
        let mut out = vec![0; n];
        for (v, &p) in self.pair.iter().enumerate() {
            out[perm[v]] = perm[p];
        }
        Matching { pair: out }
    }

    /// Add this matching's circuits to `g`, labeling edges with `port`.
    pub fn add_to_graph(&self, g: &mut Graph, port: usize) {
        for (a, b) in self.pairs() {
            g.add_link(a, b, port);
        }
    }
}

/// Factor the complete graph on `n` racks (diagonal included) into exactly
/// `n` disjoint symmetric matchings: construct the round-robin schedule,
/// then *randomize the factorization itself* with Kempe-chain mixing.
///
/// Mere vertex relabeling is not enough: the circle method's rounds are
/// rotations of each other, so unions of a few relabeled rounds form
/// circulant-like graphs with Θ(n) diameter — terrible expanders. The
/// Kempe-chain walk (pick two matchings, swap edge colors along a random
/// subset of the cycles/paths of their union) is the standard MCMC over
/// 1-factorizations and destroys that structure while preserving all
/// invariants (asserted in tests):
///
/// * exactly `n` matchings,
/// * every unordered rack pair appears in exactly one matching,
/// * every rack is self-paired in exactly one matching,
/// * matchings are pairwise edge-disjoint.
pub fn factorize_complete(n: usize, rng: &mut SimRng) -> Vec<Matching> {
    let mut ms = factorize_complete_unmixed(n, rng);
    kempe_mix(&mut ms, rng, DEFAULT_MIX_STEPS_PER_RACK * n);
    ms
}

/// Kempe-mixing steps per rack used by [`factorize_complete`].
pub const DEFAULT_MIX_STEPS_PER_RACK: usize = 20;

/// The relabeled-but-unmixed factorization (building block for
/// [`factorize_complete`] and the lifting fast path).
pub fn factorize_complete_unmixed(n: usize, rng: &mut SimRng) -> Vec<Matching> {
    assert!(n >= 1, "need at least one rack");
    let canonical = canonical_factorization(n);
    let mut perm: Vec<NodeId> = (0..n).collect();
    rng.shuffle(&mut perm);
    canonical.into_iter().map(|m| m.relabel(&perm)).collect()
}

/// Randomize a 1-factorization in place by `steps` Kempe-chain moves.
///
/// Each move picks two distinct matchings; their union (self-loops ignored)
/// is a disjoint set of even cycles and paths; each component's edges swap
/// matchings with probability 1/2. Every move preserves the factorization
/// invariants exactly.
///
/// A move is one pass over the racks in ascending order. The first rack
/// not yet seen is its component's smallest; the component's coin is drawn
/// there (components of one rack draw none) and the component is walked
/// in place, swapping as it goes. `seen` holds the number of the move that
/// last saw a rack, so it is never cleared. O(n) per move, no allocation.
pub fn kempe_mix(ms: &mut [Matching], rng: &mut SimRng, steps: usize) {
    let k = ms.len();
    if k < 2 {
        return;
    }
    let n = ms[0].len();
    let mut seen = vec![0usize; n];
    for step in 1..=steps {
        let i = rng.index(k);
        let mut j = rng.index(k - 1);
        if j >= i {
            j += 1;
        }
        // Split borrows of the two matchings.
        let (a, b) = if i < j {
            let (lo, hi) = ms.split_at_mut(j);
            (&mut lo[i].pair, &mut hi[0].pair)
        } else {
            let (lo, hi) = ms.split_at_mut(i);
            (&mut hi[0].pair, &mut lo[j].pair)
        };
        for start in 0..n {
            if seen[start] == step {
                continue;
            }
            seen[start] = step;
            let swap = (a[start] != start || b[start] != start) && rng.chance(0.5);
            // Leave `start` along `a`; unless that closes a cycle, leave it
            // again along `b` for the rest of the path.
            if !walk(a, b, start, true, swap, &mut seen, step) {
                walk(a, b, start, false, swap, &mut seen, step);
            }
            if swap {
                std::mem::swap(&mut a[start], &mut b[start]);
            }
        }
    }
}

/// Walk the union of matchings `a` and `b` from `start`, leaving it along
/// `a` if `along_a` and along `b` otherwise, then alternating; stop at the
/// end of a path or back at `start`, and return whether it was `start` (a
/// cycle). Each rack reached is stamped `step` in `seen` and, if `swap`,
/// has its two partners swapped once its next hop is read; `start` itself
/// is left to the caller.
fn walk(
    a: &mut [NodeId],
    b: &mut [NodeId],
    start: NodeId,
    mut along_a: bool,
    swap: bool,
    seen: &mut [usize],
    step: usize,
) -> bool {
    let mut v = start;
    loop {
        let w = if along_a { a[v] } else { b[v] };
        if swap && v != start {
            std::mem::swap(&mut a[v], &mut b[v]);
        }
        if w == v {
            return false;
        }
        if w == start {
            return true;
        }
        seen[w] = step;
        v = w;
        along_a = !along_a;
    }
}

/// The canonical (deterministic) round-robin factorization.
pub fn canonical_factorization(n: usize) -> Vec<Matching> {
    if n == 1 {
        return vec![Matching::identity(1)];
    }
    if n % 2 == 1 {
        odd_rounds(n)
    } else {
        let mut rounds = even_rounds(n);
        rounds.push(Matching::identity(n));
        rounds
    }
}

/// Odd `n`: round `r` pairs `i` with `j` when `i + j ≡ r (mod n)`; the rack
/// with `2i ≡ r (mod n)` sits out (self-paired). `n` rounds.
fn odd_rounds(n: usize) -> Vec<Matching> {
    (0..n)
        .map(|r| {
            let mut pair: Vec<NodeId> = vec![0; n];
            for (i, p) in pair.iter_mut().enumerate() {
                *p = (r + n - i % n) % n;
            }
            Matching::new(pair)
        })
        .collect()
}

/// Even `n`: classic circle method. Fix rack `n-1`; rotate the other `n-1`
/// racks. `n-1` perfect-matching rounds.
fn even_rounds(n: usize) -> Vec<Matching> {
    let m = n - 1; // rotating racks 0..m, hub is rack m
    (0..m)
        .map(|r| {
            let mut pair: Vec<NodeId> = (0..n).collect();
            // Hub pairs with r.
            pair[m] = r;
            pair[r] = m;
            // Remaining: i + j ≡ 2r (mod m).
            for (i, p) in pair.iter_mut().enumerate().take(m) {
                if i == r {
                    continue;
                }
                *p = (2 * r + m - i % m) % m;
            }
            Matching::new(pair)
        })
        .collect()
}

/// Validate that `ms` is a complete factorization of the all-ones matrix on
/// `n` racks: returns `Err` with a description of the first violation.
pub fn validate_factorization(ms: &[Matching], n: usize) -> Result<(), String> {
    if ms.len() != n {
        return Err(format!("expected {n} matchings, got {}", ms.len()));
    }
    // seen[a][b] for a <= b, flattened.
    let mut seen = vec![false; n * n];
    for (mi, m) in ms.iter().enumerate() {
        if m.len() != n {
            return Err(format!("matching {mi} covers {} racks", m.len()));
        }
        for a in 0..n {
            let b = m.partner(a);
            if a <= b {
                let idx = a * n + b;
                if seen[idx] {
                    return Err(format!("pair ({a},{b}) duplicated in matching {mi}"));
                }
                seen[idx] = true;
            }
        }
    }
    for a in 0..n {
        for b in a..n {
            if !seen[a * n + b] {
                return Err(format!("pair ({a},{b}) never matched"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The move as first written, the oracle for [`kempe_mix`]: collect
    /// each component of the union with a stack, then swap it whole.
    fn kempe_mix_collecting(ms: &mut [Matching], rng: &mut SimRng, steps: usize) {
        let k = ms.len();
        if k < 2 {
            return;
        }
        let n = ms[0].len();
        let mut visited = vec![false; n];
        let mut component = Vec::with_capacity(n);
        for _ in 0..steps {
            let i = rng.index(k);
            let mut j = rng.index(k - 1);
            if j >= i {
                j += 1;
            }
            let (a, b) = if i < j {
                let (lo, hi) = ms.split_at_mut(j);
                (&mut lo[i].pair, &mut hi[0].pair)
            } else {
                let (lo, hi) = ms.split_at_mut(i);
                (&mut hi[0].pair, &mut lo[j].pair)
            };
            visited.iter_mut().for_each(|v| *v = false);
            for start in 0..n {
                if visited[start] {
                    continue;
                }
                component.clear();
                let mut frontier = vec![start];
                visited[start] = true;
                while let Some(v) = frontier.pop() {
                    component.push(v);
                    for w in [a[v], b[v]] {
                        if !visited[w] {
                            visited[w] = true;
                            frontier.push(w);
                        }
                    }
                }
                if component.len() > 1 && rng.chance(0.5) {
                    for &v in &component {
                        std::mem::swap(&mut a[v], &mut b[v]);
                    }
                }
            }
        }
    }

    /// `k` random matchings on `n` racks that need not be disjoint: some
    /// racks self-paired, and any two may share a circuit.
    fn random_matchings(n: usize, k: usize, rng: &mut SimRng) -> Vec<Matching> {
        (0..k)
            .map(|_| {
                let mut order: Vec<NodeId> = (0..n).collect();
                rng.shuffle(&mut order);
                let mut pair: Vec<NodeId> = (0..n).collect();
                for two in order.chunks_exact(2) {
                    if rng.chance(0.8) {
                        pair[two[0]] = two[1];
                        pair[two[1]] = two[0];
                    }
                }
                Matching::new(pair)
            })
            .collect()
    }

    /// The in-place walk against the collecting oracle: same matchings and
    /// the same next RNG draw, from unmixed and mixed factorizations and
    /// from overlapping random matchings, odd and even, small and > 64.
    #[test]
    fn kempe_mix_equals_collecting_oracle() {
        let mut draw = SimRng::new(26);
        for n in [
            1usize, 2, 3, 4, 5, 6, 7, 8, 12, 15, 24, 63, 64, 65, 108, 130, 131,
        ] {
            for input in 0..3 {
                let mut rng = SimRng::new(draw.next_u64());
                let ms = match input {
                    0 => factorize_complete_unmixed(n, &mut rng),
                    1 => factorize_complete(n, &mut rng),
                    _ => random_matchings(n, 2 + draw.index(4), &mut rng),
                };
                let steps = 3 * n + draw.index(8);
                let (mut fast, mut slow) = (ms.clone(), ms);
                let (mut fast_rng, mut slow_rng) = (rng.clone(), rng);
                kempe_mix(&mut fast, &mut fast_rng, steps);
                kempe_mix_collecting(&mut slow, &mut slow_rng, steps);
                assert_eq!(fast, slow, "n={n} input={input}");
                assert_eq!(
                    fast_rng.next_u64(),
                    slow_rng.next_u64(),
                    "n={n} input={input}"
                );
                if input < 2 {
                    validate_factorization(&fast, n).unwrap();
                }
            }
        }
    }

    #[test]
    fn odd_factorization_complete() {
        for n in [3usize, 5, 7, 9, 27, 109] {
            let ms = canonical_factorization(n);
            validate_factorization(&ms, n).unwrap();
            // each matching leaves exactly one rack self-paired
            for m in &ms {
                let selfs = (0..n).filter(|&i| !m.is_matched(i)).count();
                assert_eq!(selfs, 1, "n={n}");
                assert_eq!(m.circuit_count(), (n - 1) / 2);
            }
        }
    }

    #[test]
    fn even_factorization_complete() {
        for n in [2usize, 4, 6, 8, 108, 130] {
            let ms = canonical_factorization(n);
            validate_factorization(&ms, n).unwrap();
            // n-1 perfect matchings + identity
            let identities = ms
                .iter()
                .filter(|m| (0..n).all(|i| !m.is_matched(i)))
                .count();
            assert_eq!(identities, 1);
            let perfect = ms
                .iter()
                .filter(|m| (0..n).all(|i| m.is_matched(i)))
                .count();
            assert_eq!(perfect, n - 1);
        }
    }

    #[test]
    fn random_factorization_valid() {
        let mut rng = SimRng::new(1234);
        for n in [6usize, 15, 108] {
            let ms = factorize_complete(n, &mut rng);
            validate_factorization(&ms, n).unwrap();
        }
    }

    #[test]
    fn random_factorizations_differ_by_seed() {
        let a = factorize_complete(20, &mut SimRng::new(1));
        let b = factorize_complete(20, &mut SimRng::new(2));
        assert_ne!(a, b);
        let c = factorize_complete(20, &mut SimRng::new(1));
        assert_eq!(a, c, "same seed reproduces");
    }

    #[test]
    fn relabel_preserves_structure() {
        let m = canonical_factorization(8).remove(0);
        let perm: Vec<usize> = vec![3, 1, 4, 0, 6, 7, 2, 5];
        let r = m.relabel(&perm);
        assert_eq!(r.circuit_count(), m.circuit_count());
        // pair (a,b) in m must map to (perm[a], perm[b]) in r
        for (a, b) in m.pairs() {
            assert_eq!(r.partner(perm[a]), perm[b]);
        }
    }

    #[test]
    fn single_rack() {
        let ms = canonical_factorization(1);
        assert_eq!(ms.len(), 1);
        assert!(!ms[0].is_matched(0));
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_rejected() {
        Matching::new(vec![1, 2, 0]);
    }

    #[test]
    fn add_to_graph_ports() {
        let ms = canonical_factorization(6);
        let mut g = Graph::new(6);
        ms[0].add_to_graph(&mut g, 7);
        assert_eq!(g.edge_count(), 6); // 3 circuits, both directions
        assert!(g.edges(0).iter().all(|e| e.port == 7));
    }

    #[test]
    fn validate_catches_duplicate() {
        let n = 4;
        let ms = vec![
            Matching::identity(n),
            Matching::identity(n),
            canonical_factorization(n)[0].clone(),
            canonical_factorization(n)[1].clone(),
        ];
        assert!(validate_factorization(&ms, n).is_err());
    }
}
