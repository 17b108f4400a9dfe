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
//! Cost model: a low-latency entry is a bit set per `(slice, dst rack,
//! current rack)`, bit `j` set when rotor uplink `j` lies on a shortest
//! path ([`UplinkSet`]), stored in ⌈switches / 8⌉ bytes: one byte plane for
//! uplinks 0–7 always, and a second for uplinks 8–15 only on a network of 9
//! to 16 rotor switches. The paper's 6 switches take one byte an entry
//! where an uplink list took 9, 1.26 MB for its 108 × 108 racks × 108
//! slices (2.52 MB as 16-bit words). A ToR draws its
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
//! rebuild around a failure (§3.6.2) prunes nothing twice. A slice is two
//! passes over one `racks × racks` matrix of `u8` hop counts reused across
//! slices. The distance rows: rack `v`'s row starts at 0 toward itself and
//! unreached (`u8::MAX`) elsewhere, and is relaxed in place against its
//! circuit partners' rows, `dist[v][d] = min(dist[v][d], dist[w][d] + 1)`,
//! until a sweep changes nothing. The entries: a circuit `v → w` on uplink
//! `j` is a next hop of `v` toward `d` exactly when `dist[w][d] + 1 ==
//! dist[v][d]`, so a next hop is one compare, not a search, and rack `v`'s
//! entries toward every `d` are one compare per circuit ORed into bit `j`,
//! each entry stored once. Both passes are branch-free loops over `d`,
//! which the compiler vectorises. A slice costs O((sweeps + 1) · racks · u ·
//! racks) byte operations, a sweep count being at most the slice's diameter
//! plus one.
//!
//! Slices share nothing but the circuit rows they read, so each is one slot
//! of [`simkit::pool::claim_slots`], writing its own byte plane(s) of the
//! table, split off before the workers start; a worker reuses one scratch
//! set (the distance rows, ≈ 12 KB at 108 racks) across the slices it
//! claims. A table of 2¹⁷ entries or more is built on every available
//! core, the calling thread one of them, a smaller one (the quick and
//! default networks, 12 and 48 racks) on the calling thread alone; the
//! bytes are the same on any worker count. The whole build, bulk rows
//! included, takes 4.3–4.5 ms (minimum of 200 builds) and 6.1–6.4 ms
//! (median) for the paper's 108 racks on both cores of a 2-core Xeon host,
//! against 5.8–6.2 and 10.1–10.2 ms on one core in the same runs. The serial
//! build read ≈ 5 ms on a quieter host, against ≈ 9 with a bit-parallel
//! frontier sweep that wrote each next-hop bit on its own and 60–70 with
//! one breadth-first search per `(slice, destination)`.
//!
//! The bulk table is laid down at build as one row of `(dst, uplink)`
//! circuits per `(slice, rack)`, read straight off the live switches'
//! matchings with bad transceivers as a `racks × switches` flag map, so a
//! rebuild costs the same with any number of them. What the slice clock
//! asks is an index: [`BulkTables::circuits_of`] is a borrowed slice,
//! [`BulkTables::direct_uplink`] a search of at most `u − 1` adjacent
//! entries, and a slice boundary allocates nothing. Rows are in ascending
//! `dst`, and that order is load-bearing: feeders are armed in row order,
//! so it is the order of same-instant feeder events and hence of every
//! packet they emit.

use simkit::pool;
use std::sync::Mutex;
use topo::opera::OperaTopology;

/// The fewest entries (slices × racks²) a low-latency table is built on
/// more than one thread for: the size at which a two-worker build starts
/// to pay. A build follows single-threaded work (flow and topology
/// generation, or the event loop for a rebuild), so it was measured after
/// 20 ms of one busy thread, median of 30–100 builds on a 2-core Xeon
/// host, serial against two workers: 32 racks (32 768 entries) 0.30–0.34
/// against 0.44–0.53 ms, 40 racks (64 000) 0.64–0.65 against 0.62–0.65,
/// 48 racks (110 592) 0.96–1.09 against 0.81–1.02, 52 racks (140 608)
/// 1.28–1.30 against 0.93–0.95, 64 racks (262 144) 1.46–1.75 against
/// 1.11–1.14. So the quick and default tables (12 and 48 racks) stay on
/// the calling thread, and the 108-rack and 432-rack ones go to every
/// core.
const PARALLEL_ENTRIES: usize = 1 << 17;

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
    /// `[(slice * racks + dst) * racks + cur]` → the entry's uplinks 0–7,
    /// bit `j` for uplink `j`.
    low: Vec<u8>,
    /// The same index → the entry's uplinks 8–15, bit `j` for uplink
    /// `8 + j`; empty on a network of at most 8 rotor switches.
    high: Vec<u8>,
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

/// A distance row's entry toward a rack it does not reach.
const UNREACHED: u8 = u8::MAX;

/// Fill `dist[v * racks + d]` with the hops from rack `v` to rack `d` over
/// slice `s`'s circuit rows, [`UNREACHED`] where there is no path: each row
/// relaxed in place, through the scratch `row`, against its circuit
/// partners' rows until a sweep changes nothing.
///
/// # Panics
/// Panics if some shortest route is 254 hops or more: one hop past it
/// would read as unreached.
fn distance_rows(circuits: &BulkTables, s: usize, dist: &mut [u8], row: &mut [u8]) {
    let racks = circuits.racks;
    dist.fill(UNREACHED);
    for v in 0..racks {
        dist[v * racks + v] = 0;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..racks {
            row.copy_from_slice(&dist[v * racks..][..racks]);
            for &(w, _) in circuits.circuits_of(s, v) {
                let from_w = &dist[w as usize * racks..][..racks];
                for (d, &dw) in row.iter_mut().zip(from_w) {
                    *d = (*d).min(dw.saturating_add(1));
                }
            }
            let from_v = &mut dist[v * racks..][..racks];
            if *from_v != *row {
                from_v.copy_from_slice(row);
                changed = true;
            }
        }
    }
    assert!(
        !dist.contains(&(UNREACHED - 1)),
        "slice {s} has a route of 254 hops or more (distance rows hold u8 hop counts)"
    );
}

/// What one worker reuses across the slices it builds: the distance rows,
/// the row being relaxed, and one rack's entries toward every destination.
struct Scratch {
    dist: Vec<u8>,
    row: Vec<u8>,
    hops: Vec<u16>,
}

impl Scratch {
    fn new(racks: usize) -> Self {
        Scratch {
            dist: vec![UNREACHED; racks * racks],
            row: vec![UNREACHED; racks],
            hops: vec![0; racks],
        }
    }
}

/// Slice `s`'s entries into its planes, `low[dst * racks + cur]` and the
/// same index of `high` when it is not empty: its distance rows, then one
/// compare per circuit and destination.
fn slice_entries(
    circuits: &BulkTables,
    s: usize,
    scratch: &mut Scratch,
    low: &mut [u8],
    high: &mut [u8],
) {
    let racks = circuits.racks;
    let Scratch { dist, row, hops } = scratch;
    distance_rows(circuits, s, dist, row);
    for v in 0..racks {
        let from_v = &dist[v * racks..][..racks];
        hops.fill(0);
        for &(w, j) in circuits.circuits_of(s, v) {
            let from_w = &dist[w as usize * racks..][..racks];
            for ((h, &dv), &dw) in hops.iter_mut().zip(from_v).zip(from_w) {
                // `j` is below 16, checked by the builder. Where `w` is
                // unreached the sum wraps to 0, which is `dv` only at
                // `v == d`, and `w`, a circuit partner of `d`, reaches it
                // in one hop.
                *h |= u16::from(dw.wrapping_add(1) == dv) << j;
            }
        }
        for (d, [lo, hi]) in hops.iter().map(|h| h.to_le_bytes()).enumerate() {
            low[d * racks + v] = lo;
            if let Some(e) = high.get_mut(d * racks + v) {
                *e = hi;
            }
        }
    }
}

impl LowLatencyTables {
    /// Build tables for all slices of `topo`: its circuit rows, then each
    /// slice's distance rows and entries from them (module docs).
    pub fn build(topo: &OperaTopology) -> Self {
        Self::build_with_failures(topo, &[])
    }

    /// Build tables routing around failed `(rack, uplink)` transceivers.
    ///
    /// # Panics
    /// As [`BulkTables::build_with_failures`]; also if `topo` has more than
    /// 16 rotor switches (an entry is at most two byte planes, a 16-bit set
    /// of uplinks; the paper's 648-host network has 6, its largest point,
    /// k = 24, has 12 and so two planes), or if a slice's shortest route
    /// between two racks is 254 hops or more (distance rows hold `u8` hop
    /// counts; a slice of the paper's largest point spans a handful).
    pub fn build_with_failures(topo: &OperaTopology, bad: &[(usize, usize)]) -> Self {
        Self::from_circuits(&BulkTables::build_with_failures(topo, bad))
    }

    /// Derive the tables from `circuits`, whose rows are each slice's
    /// routable adjacency: each slice's distance rows, then one compare per
    /// circuit and destination (module docs). A table of at least
    /// [`PARALLEL_ENTRIES`] entries is built on every available core.
    ///
    /// # Panics
    /// As [`Self::build_with_failures`], less the bulk rows' limits.
    pub(crate) fn from_circuits(circuits: &BulkTables) -> Self {
        let entries = circuits.slices * circuits.racks * circuits.racks;
        let workers = if entries >= PARALLEL_ENTRIES {
            pool::cores()
        } else {
            1
        };
        Self::from_circuits_on(circuits, workers)
    }

    /// [`Self::from_circuits`] on up to `workers` threads: one
    /// [`pool::claim_slots`] slot per slice, each writing the slice's own
    /// byte plane(s), split off beforehand. Every worker count gives the
    /// same bytes.
    pub(crate) fn from_circuits_on(circuits: &BulkTables, workers: usize) -> Self {
        assert!(
            circuits.uplinks <= u16::BITS as usize,
            "low-latency entries hold 16 uplinks, not {}",
            circuits.uplinks
        );
        let (racks, slices) = (circuits.racks, circuits.slices);
        let plane = racks * racks;
        let mut low = vec![0; slices * plane];
        let mut high = vec![0; if circuits.uplinks > 8 { low.len() } else { 0 }];
        {
            // Slice `s`'s planes, `[s * racks² ..][.. racks²]` of `low` and
            // of `high` (empty without a second plane), each locked by
            // slot `s` alone.
            let mut highs = high.chunks_mut(plane);
            let planes: Vec<Mutex<(&mut [u8], &mut [u8])>> = low
                .chunks_mut(plane)
                .map(|lo| Mutex::new((lo, highs.next().unwrap_or_default())))
                .collect();
            // A scratch set per worker, taken for a slice and put back
            // after it; allocated here, so that a worker allocates nothing.
            let spare: Vec<Scratch> = (0..workers.min(slices).max(1))
                .map(|_| Scratch::new(racks))
                .collect();
            let spare = Mutex::new(spare);
            pool::claim_slots(workers, slices, |s| {
                let spared = spare.lock().unwrap().pop();
                let mut scratch = spared.expect("a scratch set per worker");
                let mut planes = planes[s].lock().unwrap();
                let (low, high) = &mut *planes;
                slice_entries(circuits, s, &mut scratch, low, high);
                spare.lock().unwrap().push(scratch);
            });
        }
        LowLatencyTables {
            racks,
            slices,
            low,
            high,
        }
    }

    /// ECMP uplink choices at `cur` toward `dst` during `slice`.
    /// Empty when `cur == dst` or `dst` is unreachable this slice.
    #[inline]
    pub fn next_hops(&self, slice: usize, cur: usize, dst: usize) -> UplinkSet {
        let i = (in_cycle(slice, self.slices) * self.racks + dst) * self.racks + cur;
        UplinkSet(u16::from_le_bytes([
            self.low[i],
            self.high.get(i).copied().unwrap_or(0),
        ]))
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Slices covered.
    pub fn slices(&self) -> usize {
        self.slices
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
    /// Build from the matchings of each slice's live switches.
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
        let (racks, switches) = (topo.racks(), topo.switches());
        u16::try_from(racks.saturating_sub(1)).expect("rack index must fit u16");
        let slices = topo.slices_per_cycle();
        let live = switches - topo.params().groups;
        u32::try_from(slices * racks * live).expect("circuit count must fit u32");
        // `failed[rack * switches + uplink]`; a pair naming no transceiver
        // of `topo` matches no circuit.
        let mut failed = vec![false; racks * switches];
        for &(rack, uplink) in bad.iter().filter(|&&(r, j)| r < racks && j < switches) {
            failed[rack * switches + uplink] = true;
        }
        let mut rows = Vec::new();
        let mut row_start = Vec::with_capacity(slices * racks + 1);
        row_start.push(0);
        let mut matchings = Vec::with_capacity(live);
        for s in 0..slices {
            matchings.clear();
            matchings.extend(
                (0..switches)
                    .filter(|&j| topo.reconfiguring(s).all(|r| r != j))
                    .map(|j| (j, topo.matching(j, topo.position_at(j, s)))),
            );
            for cur in 0..racks {
                let row = rows.len();
                for &(j, m) in &matchings {
                    let dst = m.partner(cur);
                    if dst != cur && !failed[cur * switches + j] && !failed[dst * switches + j] {
                        rows.push((dst as u16, j as u8));
                    }
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
            uplinks: switches,
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
    use simkit::SimRng;
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

    /// The premise the feeders rely on to let every fed circuit run to the
    /// slice boundary: no circuit of slice `s` uses a switch that goes dark
    /// in `s`, on the test network, on two groups reconfiguring together
    /// and at the paper's 108 racks.
    #[test]
    fn no_circuit_uses_a_reconfiguring_switch() {
        let opera = |params: OperaParams| OperaTopology::generate(params, 1);
        for t in [
            opera(crate::OperaNetConfig::small_test().params),
            topo_two_groups(),
            opera(crate::OperaNetConfig::paper_648().params),
        ] {
            let tables = BulkTables::build(&t);
            for s in 0..t.slices_per_cycle() {
                for cur in 0..t.racks() {
                    for &(dst, uplink) in tables.circuits_of(s, cur) {
                        assert!(
                            t.reconfiguring(s).all(|j| j != uplink as usize),
                            "{:?}, slice {s}: {cur} → {dst} over switch {uplink}",
                            t.params()
                        );
                    }
                }
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
    /// up to 8 uplinks and a count per entry, filled by a per-destination
    /// breadth-first search on the slice graph less the bad transceivers
    /// (each out-edge one hop closer to `dst`, in adjacency order).
    fn rows_by_next_hops_to(t: &OperaTopology, bad: &[(usize, usize)]) -> Vec<([u8; 8], u8)> {
        let racks = t.racks();
        let slices = t.slices_per_cycle();
        let mut rows = vec![([NO_PORT; 8], 0u8); slices * racks * racks];
        for s in 0..slices {
            let g = prune_failed(t.slice(s).graph(), bad);
            for dst in 0..racks {
                // Slice graphs are symmetric: distances to `dst` are
                // distances from it.
                let dist = g.bfs_distances(dst);
                for cur in 0..racks {
                    let hops = g
                        .edges(cur)
                        .iter()
                        .filter(|e| dist[e.to].checked_add(1) == Some(dist[cur]));
                    let (row, count) = &mut rows[(s * racks + dst) * racks + cur];
                    for (n, e) in hops.take(8).enumerate() {
                        row[n] = u8::try_from(e.port).unwrap();
                        *count = n as u8 + 1;
                    }
                }
            }
        }
        rows
    }

    /// `racks` racks on 4 uplinks: 64 and 128 fill the frontier sweep's
    /// bitset words exactly, 68 spills 4 racks into a second word.
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
                let g = prune_failed(t.slice(s).graph(), &bad);
                for cur in 0..t.racks() {
                    let row = tables.circuits_of(s, cur);
                    // The slice graph's edges, less the bad transceivers,
                    // in ascending destination.
                    let mut by_graph: Vec<(u16, u8)> = g
                        .edges(cur)
                        .iter()
                        .map(|e| (e.to as u16, e.port as u8))
                        .collect();
                    by_graph.sort_unstable();
                    assert_eq!(row, by_graph, "slice {s} rack {cur}");
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

    /// The bulk builder as it was before it read the matchings itself: per
    /// `(slice, rack)` the slice view's direct destinations, less the
    /// circuits with a bad transceiver at either end by `bad.contains`.
    fn bulk_by_slice_view(t: &OperaTopology, bad: &[(usize, usize)]) -> BulkTables {
        let (racks, slices) = (t.racks(), t.slices_per_cycle());
        let mut rows = Vec::new();
        let mut row_start = vec![0];
        for s in 0..slices {
            let view = t.slice(s);
            for cur in 0..racks {
                let row = rows.len();
                for sw in (0..t.switches()).filter(|&sw| t.reconfiguring(s).all(|r| r != sw)) {
                    let dst = view.matching_of(sw).partner(cur);
                    if dst != cur && !bad.contains(&(cur, sw)) && !bad.contains(&(dst, sw)) {
                        rows.push((dst as u16, sw as u8));
                    }
                }
                rows[row..].sort_unstable_by_key(|&(dst, _)| dst);
                row_start.push(rows.len() as u32);
            }
        }
        BulkTables {
            racks,
            slices,
            uplinks: t.switches(),
            rows,
            row_start,
        }
    }

    /// The low-latency builder before distance rows: one bit-parallel
    /// frontier sweep per slice. Every rack keeps a bitset of the
    /// destinations within `k` hops, level `k` ORs in its circuit partners'
    /// level-`(k − 1)` frontiers, and a circuit `v → w` on uplink `j` gets
    /// bit `j` toward the destinations new to `v` at level `k` that were
    /// new to `w` at level `k − 1`, one write per next-hop bit. Its entries
    /// are 16-bit words, `[(slice * racks + dst) * racks + cur]`, as the
    /// table stored them before its byte planes.
    fn low_latency_by_frontier(circuits: &BulkTables) -> Vec<UplinkSet> {
        let (racks, slices) = (circuits.racks, circuits.slices);
        let words = racks.div_ceil(64);
        let mut entries = vec![UplinkSet::default(); slices * racks * racks];
        let mut reached = vec![0u64; racks * words];
        let mut last = vec![0u64; racks * words];
        let mut fresh = vec![0u64; racks * words];
        for s in 0..slices {
            let slice_entries = &mut entries[s * racks * racks..][..racks * racks];
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
                    for &(w, j) in row {
                        let partner = &last[w as usize * words..][..words];
                        for (i, (n, l)) in new.iter().zip(partner).enumerate() {
                            let mut hits = n & l;
                            while hits != 0 {
                                let dst = i * 64 + hits.trailing_zeros() as usize;
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
        entries
    }

    /// `tables` reads, through [`LowLatencyTables::next_hops`], every entry
    /// of `words` (laid out as [`low_latency_by_frontier`]'s), and holds a
    /// second byte plane exactly when its network has more than 8 uplinks.
    fn assert_entries_equal(
        tables: &LowLatencyTables,
        circuits: &BulkTables,
        words: &[UplinkSet],
        what: &str,
    ) {
        let (racks, slices) = (tables.racks, tables.slices);
        assert_eq!(words.len(), slices * racks * racks, "{what}");
        assert_eq!(tables.low.len(), words.len(), "{what}");
        let planes = if circuits.uplinks > 8 { 2 } else { 1 };
        assert_eq!(tables.high.len(), (planes - 1) * words.len(), "{what}");
        for s in 0..slices {
            for dst in 0..racks {
                for cur in 0..racks {
                    let want = words[(s * racks + dst) * racks + cur];
                    assert_eq!(
                        tables.next_hops(s, cur, dst),
                        want,
                        "{what}, slice {s}: {cur} → {dst}"
                    );
                }
            }
        }
    }

    /// `percent` % of `t`'s `(rack, uplink)` transceivers, drawn at random.
    fn random_bad(t: &OperaTopology, percent: usize, rng: &mut SimRng) -> Vec<(usize, usize)> {
        let mut all: Vec<(usize, usize)> = (0..t.racks())
            .flat_map(|r| (0..t.switches()).map(move |j| (r, j)))
            .collect();
        rng.shuffle(&mut all);
        all.truncate(all.len() * percent / 100);
        all
    }

    fn params(racks: usize, uplinks: usize, groups: usize) -> OperaParams {
        OperaParams {
            racks,
            uplinks,
            hosts_per_rack: 1,
            groups,
        }
    }

    /// Both builders against their originals, table for table: validated
    /// networks of one and two groups, the paper's, and unvalidated ones
    /// with disconnected slices, each healthy, with random bad sets of 5,
    /// 10 and 25 % of the transceivers, with a rack cut off, and with bad
    /// pairs naming no transceiver.
    #[test]
    fn builders_equal_their_originals() {
        let mut rng = SimRng::new(28);
        let mut networks: Vec<OperaTopology> =
            [(24, 4, 1), (48, 4, 1), (68, 4, 1), (108, 6, 2), (72, 12, 3)]
                .into_iter()
                .map(|(n, u, g)| OperaTopology::generate_validated(params(n, u, g), 11, 64).0)
                .collect();
        let paper = crate::opera_net::OperaNetConfig::paper_648();
        networks.push(OperaTopology::generate_validated(paper.params, paper.seed, 64).0);
        let unvalidated = [(12, 4, 1, 10), (24, 4, 2, 11), (12, 3, 1, 5), (24, 6, 3, 2)];
        networks.extend(
            unvalidated
                .into_iter()
                .map(|(n, u, g, seed)| OperaTopology::generate(params(n, u, g), seed)),
        );
        let mut unreached = 0;
        for t in &networks {
            let (racks, switches) = (t.racks(), t.switches());
            let mut bad_sets: Vec<Vec<(usize, usize)>> = [0, 5, 10, 25]
                .into_iter()
                .map(|percent| random_bad(t, percent, &mut rng))
                .collect();
            bad_sets.push((0..switches).map(|j| (racks / 2, j)).collect());
            bad_sets.push(vec![(racks, 0), (0, switches), (1, 0)]);
            for bad in &bad_sets {
                let what = format!("{:?}, {} bad", t.params(), bad.len());
                let bulk = BulkTables::build_with_failures(t, bad);
                assert!(bulk == bulk_by_slice_view(t, bad), "bulk rows: {what}");
                let tables = LowLatencyTables::from_circuits(&bulk);
                assert_entries_equal(&tables, &bulk, &low_latency_by_frontier(&bulk), &what);
                if !bad.is_empty() {
                    continue;
                }
                // Unreached is empty: the slice graph's own verdict.
                for s in 0..t.slices_per_cycle() {
                    let g = t.slice(s).graph();
                    for dst in 0..racks {
                        let dist = g.bfs_distances(dst);
                        for cur in (0..racks).filter(|&cur| dist[cur] == usize::MAX) {
                            assert!(tables.next_hops(s, cur, dst).is_empty(), "{what}");
                            unreached += 1;
                        }
                    }
                }
            }
        }
        assert!(unreached > 0, "the grid must hold a disconnected slice");
    }

    /// `racks` racks in a line, one slice: rack `v`'s circuits reach
    /// `v − 1` on uplink 0 and `v + 1` on uplink 1, so the ends are
    /// `racks − 1` hops apart.
    fn line(racks: usize) -> BulkTables {
        let mut rows = Vec::new();
        let mut row_start = vec![0];
        for v in 0..racks {
            if v > 0 {
                rows.push((v as u16 - 1, 0));
            }
            if v + 1 < racks {
                rows.push((v as u16 + 1, 1));
            }
            row_start.push(rows.len() as u32);
        }
        BulkTables {
            racks,
            slices: 1,
            uplinks: 2,
            rows,
            row_start,
        }
    }

    /// 253 hops is the longest route a `u8` distance row holds.
    #[test]
    fn distance_rows_hold_a_253_hop_route() {
        let circuits = line(254);
        let tables = LowLatencyTables::from_circuits(&circuits);
        assert_entries_equal(
            &tables,
            &circuits,
            &low_latency_by_frontier(&circuits),
            "line",
        );
        assert!(tables.next_hops(0, 0, 253).iter().eq([1]));
        assert!(tables.next_hops(0, 253, 0).iter().eq([0]));
    }

    /// Also from inside a worker: slice 1 of three is the 255-rack line,
    /// the others the same line closed into a ring (127 hops across).
    #[test]
    #[should_panic(expected = "slice 0 has a route of 254 hops or more")]
    fn distance_rows_refuse_a_254_hop_route() {
        let line = line(255);
        let mut rows = Vec::new();
        let mut row_start = vec![0];
        for s in 0..3 {
            for v in 0..255 {
                let ends = [(v == 0, 254), (v == 254, 0)];
                let closing = ends.into_iter().filter(|&(end, _)| end && s != 1);
                let row = rows.len();
                rows.extend(line.circuits_of(0, v));
                rows.extend(closing.map(|(_, w)| (w, 2)));
                rows[row..].sort_unstable_by_key(|&(dst, _)| dst);
                row_start.push(rows.len() as u32);
            }
        }
        let circuits = BulkTables {
            slices: 3,
            uplinks: 3,
            rows,
            row_start,
            ..line
        };
        for workers in [2, 3] {
            let caught =
                std::panic::catch_unwind(|| LowLatencyTables::from_circuits_on(&circuits, workers));
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                msg.contains("slice 1 has a route of 254 hops or more"),
                "{workers} workers: {msg}"
            );
        }
        LowLatencyTables::from_circuits(&line);
    }

    /// The tables are the same bytes on any number of workers, also more
    /// than there are slices: the paper's 108 racks, a network of two byte
    /// planes and one with bad transceivers.
    #[test]
    fn tables_are_the_same_on_any_worker_count() {
        let paper = crate::opera_net::OperaNetConfig::paper_648();
        let paper = OperaTopology::generate_validated(paper.params, paper.seed, 64).0;
        let two_planes = OperaTopology::generate_validated(params(72, 12, 3), 11, 64).0;
        let bad = random_bad(&two_planes, 10, &mut SimRng::new(46));
        for bulk in [
            BulkTables::build(&paper),
            BulkTables::build(&two_planes),
            BulkTables::build_with_failures(&two_planes, &bad),
        ] {
            let serial = LowLatencyTables::from_circuits_on(&bulk, 1);
            assert_eq!(serial.high.is_empty(), bulk.uplinks <= 8);
            for workers in [2, 3, bulk.slices + 1] {
                let parallel = LowLatencyTables::from_circuits_on(&bulk, workers);
                assert!(
                    parallel == serial,
                    "{} racks on {workers} workers",
                    bulk.racks
                );
            }
        }
    }
}
