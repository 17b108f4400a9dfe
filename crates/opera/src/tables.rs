//! Per-slice forwarding tables (§4.3).
//!
//! A ToR holds two tables per slice: a *low-latency* table giving the
//! ECMP set of uplinks on shortest expander paths toward every destination
//! rack, and a *bulk* table giving the uplink — if any — whose circuit
//! reaches the destination rack directly this slice.
//!
//! Tables are precomputed at build time (Opera fixes its schedule at
//! design time; §3.3) and stored flat.
//!
//! Cost model: a low-latency entry is one 16-bit word per `(slice, dst
//! rack, current rack)` — 2 bytes where an uplink list took 9, 2.5 MB for
//! the paper's 108 × 108 racks × 108 slices — with bit `j` set when rotor
//! uplink `j` lies on a shortest path ([`UplinkSet`]). A ToR draws its
//! ECMP choice as "the k-th member, k uniform", so the order of members
//! decides which uplink a given RNG draw picks: ascending uplink is the
//! order the entries always had (a slice graph gives each rack at most
//! one edge per rotor switch, added in ascending switch order), and it is
//! what keeps every packet where it was.
//!
//! The low-latency table is derived from the bulk table's circuit rows
//! ([`BulkTables::circuits_of`]): a slice's rows *are* its
//! routable adjacency — reconfiguring switches and bad transceivers are
//! already left out — so one place decides which circuits exist, and a
//! rebuild around a failure (§3.6.2) prunes nothing twice. Each slice is
//! one bit-parallel frontier sweep: every rack keeps a bitset of the
//! destinations within `k` hops, level `k` ORs in its circuit partners'
//! level-`(k − 1)` frontiers, and a circuit `v → w` on uplink `j` is a
//! next hop of `v` toward exactly the destinations new to `v` at level `k`
//! that were new to `w` at level `k − 1` (`dist[w] + 1 == dist[v]`). A
//! slice costs O(levels · racks · u · ⌈racks/64⌉) word operations plus one
//! write per next-hop bit, in three bitset arrays reused across slices.
//! The whole build, bulk rows included, takes ≈ 10 ms for the paper's 108
//! racks on a 2-core Xeon host, where one breadth-first search per
//! `(slice, destination)` — 11 664 of them, each allocating — took 60–70.
//!
//! Everything the slice clock asks is answered by an index too — the bulk
//! table is laid down at build as one row of `(dst, uplink)` circuits per
//! `(slice, rack)`, so [`BulkTables::circuits_of`] is a borrowed slice,
//! [`BulkTables::direct_uplink`] a search of at most `u − 1` adjacent
//! entries, and a slice boundary allocates nothing. Rows are in ascending
//! `dst`, and that order is load-bearing: feeders are armed in row order,
//! so it is the order of same-instant feeder events and hence of every
//! packet they emit.

use topo::opera::OperaTopology;

/// Sentinel: no uplink.
pub const NO_PORT: u8 = u8::MAX;

/// The bulk table stores uplinks as `u8` beside the [`NO_PORT`] sentinel.
/// Checked once, where the topology enters its builder: with at most 255
/// switches every uplink index is at most 254, so the `as u8` casts below
/// neither wrap nor collide with the sentinel.
fn check_uplinks_fit(topo: &OperaTopology) {
    u8::try_from(topo.switches()).expect("switch count must fit u8 (uplinks are stored as u8)");
}

/// The rotor uplinks of one low-latency entry: a subset of uplinks
/// `0..16`, iterated in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UplinkSet(u16);

impl UplinkSet {
    /// True with no uplink: the ToR is the destination, or cannot reach it
    /// this slice.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of uplinks.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The `k`-th smallest uplink.
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    #[inline]
    pub fn nth(self, k: usize) -> usize {
        self.iter().nth(k).expect("k is below the set's length")
    }

    /// The uplinks, ascending.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let uplink = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                uplink
            })
        })
    }
}

/// Flat low-latency next-hop table for every slice of a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowLatencyTables {
    racks: usize,
    slices: usize,
    /// `[(slice * racks + dst) * racks + cur]` → the entry's uplinks.
    entries: Vec<UplinkSet>,
}

/// A monotone slice counter taken into the cycle. The slice clock already
/// passes an in-cycle slice, for which this is a compare, not a division.
#[inline]
fn in_cycle(slice: usize, slices: usize) -> usize {
    if slice < slices {
        slice
    } else {
        slice % slices
    }
}

impl LowLatencyTables {
    /// Build tables for all slices of `topo`: its circuit rows, then one
    /// frontier sweep per slice over them (module docs).
    pub fn build(topo: &OperaTopology) -> Self {
        Self::build_with_failures(topo, &[])
    }

    /// Build tables routing around failed `(rack, uplink)` transceivers.
    ///
    /// # Panics
    /// As [`BulkTables::build_with_failures`], and if `topo` has more than
    /// 16 rotor switches (an entry is a 16-bit set of uplinks; the paper's
    /// largest point, k = 24, has 12).
    pub fn build_with_failures(topo: &OperaTopology, bad: &[(usize, usize)]) -> Self {
        Self::from_circuits(&BulkTables::build_with_failures(topo, bad))
    }

    /// Derive the tables from `circuits`, whose rows are each slice's
    /// routable adjacency, by one frontier sweep per slice (module docs).
    ///
    /// # Panics
    /// Panics if the topology has more than 16 rotor switches.
    pub(crate) fn from_circuits(circuits: &BulkTables) -> Self {
        assert!(
            circuits.uplinks <= u16::BITS as usize,
            "low-latency entries hold 16 uplinks, not {}",
            circuits.uplinks
        );
        let (racks, slices) = (circuits.racks, circuits.slices);
        let words = racks.div_ceil(64);
        let mut entries = vec![UplinkSet::default(); slices * racks * racks];
        // Per rack, `words` words at `rack * words`: the destinations
        // within the levels swept so far, those first reached at the last
        // level, and those first reached at this one.
        let mut reached = vec![0u64; racks * words];
        let mut last = vec![0u64; racks * words];
        let mut fresh = vec![0u64; racks * words];
        for s in 0..slices {
            let slice_entries = &mut entries[s * racks * racks..][..racks * racks];
            // Level 0: each rack reaches itself.
            reached.fill(0);
            for v in 0..racks {
                reached[v * words + v / 64] = 1 << (v % 64);
            }
            last.copy_from_slice(&reached);
            loop {
                let mut grew = false;
                for v in 0..racks {
                    let row = circuits.circuits_of(s, v);
                    let new = &mut fresh[v * words..][..words];
                    new.fill(0);
                    for &(w, _) in row {
                        for (n, l) in new.iter_mut().zip(&last[w as usize * words..]) {
                            *n |= l;
                        }
                    }
                    for (n, r) in new.iter_mut().zip(&mut reached[v * words..]) {
                        *n &= !*r;
                        *r |= *n;
                        grew |= *n != 0;
                    }
                    // `v → w` steps one closer to the destinations new to
                    // `v` now that were new to `w` one level before.
                    for &(w, j) in row {
                        let partner = &last[w as usize * words..][..words];
                        for (i, (n, l)) in new.iter().zip(partner).enumerate() {
                            let mut hits = n & l;
                            while hits != 0 {
                                let dst = i * 64 + hits.trailing_zeros() as usize;
                                // Below 16, checked above.
                                slice_entries[dst * racks + v].0 |= 1 << j;
                                hits &= hits - 1;
                            }
                        }
                    }
                }
                if !grew {
                    break;
                }
                std::mem::swap(&mut last, &mut fresh);
            }
        }
        LowLatencyTables {
            racks,
            slices,
            entries,
        }
    }

    /// ECMP uplink choices at `cur` toward `dst` during `slice`.
    /// Empty when `cur == dst` or `dst` is unreachable this slice.
    #[inline]
    pub fn next_hops(&self, slice: usize, cur: usize, dst: usize) -> UplinkSet {
        self.entries[(in_cycle(slice, self.slices) * self.racks + dst) * self.racks + cur]
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Slices covered.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Total number of installed rules (Table 1 accounting: one rule per
    /// (slice, dst, cur) entry with at least one hop, counted at one ToR).
    pub fn rules_per_tor(&self) -> u64 {
        // Each ToR `cur` stores one rule per (slice, dst); count entries
        // with at least one choice for rack 0 as the representative.
        let mut rules = 0;
        for s in 0..self.slices {
            for dst in 0..self.racks {
                if !self.next_hops(s, 0, dst).is_empty() {
                    rules += 1;
                }
            }
        }
        rules
    }
}

/// Bulk (direct-circuit) table: per `(slice, cur)`, the `(dst, uplink)`
/// of every direct circuit `cur → dst` up in that slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkTables {
    racks: usize,
    slices: usize,
    /// Rotor uplinks per rack: the topology's switch count.
    uplinks: usize,
    /// Every circuit as `(dst, uplink)`, grouped by `(slice, cur)` and
    /// ascending in `dst` within a group: 4 bytes a circuit.
    rows: Vec<(u16, u8)>,
    /// `rows[row_start[slice * racks + cur]..row_start[slice * racks + cur + 1]]`
    /// is the row of `(slice, cur)`.
    row_start: Vec<u32>,
}

impl BulkTables {
    /// Build from the slice views.
    pub fn build(topo: &OperaTopology) -> Self {
        Self::build_with_failures(topo, &[])
    }

    /// Build, excluding circuits using failed `(rack, uplink)` ports.
    ///
    /// # Panics
    /// Panics if `topo` has more than 255 switches or more than 65 536
    /// racks (uplinks are stored as `u8`, row destinations as `u16`).
    pub fn build_with_failures(topo: &OperaTopology, bad: &[(usize, usize)]) -> Self {
        check_uplinks_fit(topo);
        let racks = topo.racks();
        u16::try_from(racks.saturating_sub(1)).expect("rack index must fit u16");
        let slices = topo.slices_per_cycle();
        u32::try_from(slices * racks * topo.switches()).expect("circuit count must fit u32");
        let mut rows = Vec::new();
        let mut row_start = Vec::with_capacity(slices * racks + 1);
        row_start.push(0);
        for s in 0..slices {
            let view = topo.slice(s);
            for cur in 0..racks {
                let row = rows.len();
                for (dst, sw) in view.direct_destinations(cur) {
                    if bad.contains(&(cur, sw)) || bad.contains(&(dst, sw)) {
                        continue;
                    }
                    rows.push((dst as u16, sw as u8));
                }
                // A rack pair has one home matching, so destinations are
                // distinct and the order is total.
                rows[row..].sort_unstable_by_key(|&(dst, _)| dst);
                row_start.push(rows.len() as u32);
            }
        }
        BulkTables {
            racks,
            slices,
            uplinks: topo.switches(),
            rows,
            row_start,
        }
    }

    /// Uplink with a direct circuit `cur → dst` during `slice`, if any.
    #[inline]
    pub fn direct_uplink(&self, slice: usize, cur: usize, dst: usize) -> Option<usize> {
        self.circuits_of(slice, cur)
            .iter()
            .find(|&&(d, _)| d as usize == dst)
            .map(|&(_, uplink)| uplink as usize)
    }

    /// All `(dst, uplink)` direct circuits of `cur` during `slice`, in
    /// ascending `dst`.
    #[inline]
    pub fn circuits_of(&self, slice: usize, cur: usize) -> &[(u16, u8)] {
        let i = in_cycle(slice, self.slices) * self.racks + cur;
        &self.rows[self.row_start[i] as usize..self.row_start[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::graph::Graph;
    use topo::opera::OperaParams;

    fn topo() -> OperaTopology {
        OperaTopology::generate(
            OperaParams {
                racks: 24,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 1,
            },
            11,
        )
    }

    #[test]
    fn low_latency_tables_cover_all_pairs() {
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        for s in 0..t.slices_per_cycle() {
            for cur in 0..t.racks() {
                for dst in 0..t.racks() {
                    if cur == dst {
                        assert!(tables.next_hops(s, cur, dst).is_empty());
                    } else {
                        assert!(
                            !tables.next_hops(s, cur, dst).is_empty(),
                            "slice {s}: {cur}->{dst} has no next hop"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_hops_avoid_reconfiguring_switch() {
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        for s in 0..t.slices_per_cycle() {
            let bad: Vec<usize> = t.reconfiguring(s).collect();
            for cur in 0..t.racks() {
                for dst in 0..t.racks() {
                    for p in tables.next_hops(s, cur, dst).iter() {
                        assert!(
                            !bad.contains(&p),
                            "slice {s} routes via reconfiguring switch {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_hops_make_progress() {
        // Following any table choice must strictly reduce BFS distance.
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        let s = 3;
        let g = t.slice(s).graph();
        for dst in 0..t.racks() {
            let dist = g.bfs_distances(dst);
            for cur in 0..t.racks() {
                if cur == dst {
                    continue;
                }
                for p in tables.next_hops(s, cur, dst).iter() {
                    let m = t.slice(s).matching_of(p);
                    let nxt = m.partner(cur);
                    assert_eq!(dist[nxt] + 1, dist[cur], "not a shortest-path hop");
                }
            }
        }
    }

    #[test]
    fn bulk_tables_match_direct_slices() {
        let t = topo();
        let tables = BulkTables::build(&t);
        for a in 0..t.racks() {
            for b in 0..t.racks() {
                if a == b {
                    continue;
                }
                let slices_with_direct: Vec<usize> = (0..t.slices_per_cycle())
                    .filter(|&s| tables.direct_uplink(s, a, b).is_some())
                    .collect();
                assert_eq!(slices_with_direct, t.direct_slices(a, b), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn circuits_count_per_slice() {
        let t = topo();
        let tables = BulkTables::build(&t);
        // With u=4 switches and 1 reconfiguring, each rack has at most 3
        // direct circuits (self-pairings reduce the count).
        for s in 0..t.slices_per_cycle() {
            for cur in 0..t.racks() {
                let c = tables.circuits_of(s, cur);
                assert!(c.len() <= 3, "slice {s} rack {cur}: {} circuits", c.len());
            }
        }
    }

    #[test]
    fn rules_per_tor_scale() {
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        // 24 slices × 23 destinations = 552 low-latency rules.
        assert_eq!(tables.rules_per_tor(), 24 * 23);
    }

    /// The test topology with two switches reconfiguring at a time.
    fn topo_two_groups() -> OperaTopology {
        OperaTopology::generate(
            OperaParams {
                groups: 2,
                ..*topo().params()
            },
            11,
        )
    }

    /// Both topologies, each healthy and with rack 2's uplink 1 marked bad.
    fn cases() -> Vec<(OperaTopology, Vec<(usize, usize)>)> {
        [topo(), topo_two_groups()]
            .into_iter()
            .flat_map(|t| [(t.clone(), vec![]), (t, vec![(2, 1)])])
            .collect()
    }

    /// Remove circuits using the failed `(rack, uplink)` transceivers from a
    /// slice graph (§3.6.2: route around components marked bad).
    fn prune_failed(g: Graph, bad: &[(usize, usize)]) -> Graph {
        let mut out = Graph::new(g.len());
        for v in 0..g.len() {
            for e in g.edges(v) {
                if !bad.contains(&(v, e.port)) && !bad.contains(&(e.to, e.port)) {
                    out.add_edge(v, e.to, e.port);
                }
            }
        }
        out
    }

    /// The low-latency table as it was stored before the frontier sweep:
    /// up to 8 uplinks and a count per entry, filled through
    /// `Graph::next_hops_to`'s per-destination breadth-first search on the
    /// slice graph less the bad transceivers.
    fn rows_by_next_hops_to(t: &OperaTopology, bad: &[(usize, usize)]) -> Vec<([u8; 8], u8)> {
        let racks = t.racks();
        let slices = t.slices_per_cycle();
        let mut rows = vec![([NO_PORT; 8], 0u8); slices * racks * racks];
        for s in 0..slices {
            let g = prune_failed(t.slice(s).graph(), bad);
            for dst in 0..racks {
                for (cur, hops) in g.next_hops_to(dst).iter().enumerate() {
                    let (row, count) = &mut rows[(s * racks + dst) * racks + cur];
                    for (n, e) in hops.iter().take(8).enumerate() {
                        row[n] = u8::try_from(e.port).unwrap();
                        *count = n as u8 + 1;
                    }
                }
            }
        }
        rows
    }

    /// `racks` racks on 4 uplinks: 64 and 128 fill the sweep's bitset
    /// words exactly, 68 spills 4 racks into a second word.
    fn topo_with_racks(racks: usize) -> OperaTopology {
        OperaTopology::generate(
            OperaParams {
                racks,
                ..*topo().params()
            },
            11,
        )
    }

    /// Every transceiver of `rack` on 4 uplinks: the rack is cut off.
    fn cut_off(rack: usize) -> Vec<(usize, usize)> {
        (0..4).map(|j| (rack, j)).collect()
    }

    #[test]
    fn low_latency_tables_equal_the_next_hops_to_build() {
        let mut cases = cases();
        cases.push((topo(), cut_off(5)));
        for racks in [64, 68, 128] {
            let t = topo_with_racks(racks);
            cases.push((t.clone(), vec![]));
            cases.push((t, vec![(2, 1), (5, 0)]));
        }
        cases.push((topo_with_racks(68), cut_off(65)));
        let paper = crate::opera_net::OperaNetConfig::paper_648();
        let paper = OperaTopology::generate_validated(paper.params, paper.seed, 64).0;
        cases.push((paper, vec![]));
        for (t, bad) in cases {
            let new = LowLatencyTables::build_with_failures(&t, &bad);
            let old = rows_by_next_hops_to(&t, &bad);
            let racks = t.racks();
            let isolated: Vec<usize> = (0..racks)
                .filter(|&r| (0..t.switches()).all(|j| bad.contains(&(r, j))))
                .collect();
            // Past the end of the cycle too: a monotone slice is accepted.
            for s in 0..t.slices_per_cycle() + 2 {
                for dst in 0..racks {
                    for cur in 0..racks {
                        let (row, count) =
                            old[((s % t.slices_per_cycle()) * racks + dst) * racks + cur];
                        let row = &row[..count as usize];
                        let set = new.next_hops(s, cur, dst);
                        assert!(
                            set.iter().eq(row.iter().map(|&p| p as usize)),
                            "{racks} racks, bad {bad:?}, slice {s}: {cur} → {dst}"
                        );
                        // What the ToR's draw reads: the k-th choice.
                        assert_eq!(set.len(), row.len());
                        for (k, &p) in row.iter().enumerate() {
                            assert_eq!(set.nth(k), p as usize);
                        }
                        if isolated.contains(&cur) || isolated.contains(&dst) {
                            assert!(set.is_empty(), "{cur} → {dst} reaches a cut-off rack");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nth_is_the_kth_set_bit_of_every_mask() {
        for mask in 0..=u16::MAX {
            let set = UplinkSet(mask);
            let members: Vec<usize> = (0..16).filter(|j| mask >> j & 1 == 1).collect();
            assert_eq!(set.len(), members.len());
            assert_eq!(set.is_empty(), members.is_empty());
            assert!(set.iter().eq(members.iter().copied()), "{mask:#b}");
            for (k, &j) in members.iter().enumerate() {
                assert_eq!(set.nth(k), j, "{mask:#b} choice {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k is below the set's length")]
    fn nth_refuses_a_choice_past_the_set() {
        UplinkSet(0b1010).nth(2);
    }

    #[test]
    fn circuit_rows_equal_their_definition() {
        for (t, bad) in cases() {
            let tables = BulkTables::build_with_failures(&t, &bad);
            let mut circuits = 0;
            // Past the end of the cycle too: a monotone slice is accepted.
            for s in 0..2 * t.slices_per_cycle() + 1 {
                for cur in 0..t.racks() {
                    let row = tables.circuits_of(s, cur);
                    // The topology's own answer, less the bad transceivers,
                    // in ascending destination.
                    let mut by_topo: Vec<(u16, u8)> = t
                        .slice(s)
                        .direct_destinations(cur)
                        .into_iter()
                        .filter(|&(dst, sw)| !bad.contains(&(cur, sw)) && !bad.contains(&(dst, sw)))
                        .map(|(dst, sw)| (dst as u16, sw as u8))
                        .collect();
                    by_topo.sort_unstable();
                    assert_eq!(row, by_topo, "slice {s} rack {cur}");
                    // The per-destination lookup, scanned in the order
                    // feeders are armed.
                    let by_lookup: Vec<(u16, u8)> = (0..t.racks())
                        .filter_map(|dst| {
                            let u = tables.direct_uplink(s, cur, dst)?;
                            Some((dst as u16, u as u8))
                        })
                        .collect();
                    assert_eq!(row, by_lookup, "slice {s} rack {cur}");
                    circuits += row.len();
                }
            }
            assert!(circuits > 0);
        }
    }

    fn topo_with_switches(switches: usize) -> OperaTopology {
        OperaTopology::generate(
            OperaParams {
                racks: switches,
                uplinks: switches,
                hosts_per_rack: 1,
                groups: 1,
            },
            11,
        )
    }

    /// 17 switches: uplink 16 has no bit in a 16-bit entry.
    #[test]
    #[should_panic(expected = "low-latency entries hold 16 uplinks, not 17")]
    fn low_latency_tables_refuse_17_switches() {
        LowLatencyTables::build(&topo_with_switches(17));
    }

    #[test]
    fn low_latency_tables_take_16_switches() {
        let t = topo_with_switches(16);
        let tables = LowLatencyTables::build(&t);
        // One switch reconfigures; the other 15 reach every rack but the
        // one it would have.
        assert!(tables.next_hops(0, 0, 1).len() <= 15);
        assert!((1..16).any(|dst| tables.next_hops(0, 0, dst).iter().any(|j| j == 15)));
    }

    /// 256 switches: uplink 255 would read as `NO_PORT`, uplink 256 as 0.
    #[test]
    #[should_panic(expected = "switch count must fit u8")]
    fn bulk_tables_refuse_256_switches() {
        BulkTables::build(&topo_with_switches(256));
    }
}
