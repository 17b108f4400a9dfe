//! Approximate max-concurrent-flow throughput (Garg–Könemann style).
//!
//! "Throughput of a topology" in the cost-comparison literature (Jyothi et
//! al. \[27\], Kassing et al. \[29\] — both cited by the paper) is the
//! largest `λ` such that every demand `d` can simultaneously route `λ·d`
//! without violating capacities, under *optimal* (fractional) routing.
//!
//! We use the classic multiplicative-weights scheme: repeatedly route each
//! demand along the currently-cheapest path where an edge's cost grows
//! exponentially with its accumulated load, then scale the resulting flow
//! to fit capacities. A few hundred phases get within a few percent of
//! optimal on the graphs used here, which is plenty for reproducing the
//! figures' shapes.
//!
//! The solver is the hot path of every cost-comparison sweep (one solve
//! per `(workload, α, replicate)` point, each running one shortest-path
//! search per demand per phase), so [`McfSolver`] keeps all per-solve
//! state in reusable buffers: fixed-width adjacency rows built once
//! per graph, generation-stamped distance scratch (no O(n) clears
//! between searches), and recycled heap storage. Two cuts shrink each search
//! itself, on every graph: a *goal-directed* (A\*-style) key order
//! steered by a hop-count heuristic sharpened with adaptively refreshed
//! per-target snapshots of exact reverse distances (costs only grow
//! inside a run, so a snapshot keeps lower-bounding later queries — see
//! [`McfSolver::hsnap`](McfSolver)), with margin-padded filter/trust
//! thresholds that keep the result exact under floating-point rounding
//! (see `FILTER_MARGIN`); and a target-bound prune seeded from the
//! *previous phase's* routed path for the same demand, re-priced at
//! current costs (the phase plan repeats, so last phase's path is a
//! valid upper bound from the first relaxation on).
//! The priority queue is freed from replicating the reference
//! implementation's tie pop-order: final Dijkstra distances are
//! order-independent (each is a min over root-to-node path sums, summed
//! in the same association order), and the reference's predecessor
//! choice is, but for absorbed costs (below), a pure function of those
//! distances (see `McfSolver::walk_final_distances`), so the routed
//! path is reconstructed afterwards instead of recorded during the run.
//! That admits a flat struct-of-arrays indexed d-ary heap on bare
//! `f64`-bit keys with true decrease-key (`HeapSoa`).
//!
//! **Absorbed costs.** Multiplicative weights can spread edge costs so
//! far apart that a distance absorbs a small cost whole (`d + c == d`).
//! A node reached only that way has no strictly-closer predecessor: the
//! reference records one at the same distance, and queues the node only
//! once that predecessor pops, so its equal-distance ties no longer pop
//! larger node first. The walk cannot choose differently from the
//! reference without stepping onto such a node, and it stops there; that
//! one demand's path is then re-solved in the reference's own order
//! (`McfSolver::path_in_reference_order`). Every other demand keeps the
//! fast path.
//!
//! These are *exact* optimizations — the λ bits match the original
//! implementation, which survives as the property-test oracle in
//! `tests/properties.rs`. Every solve starts cold; a sweep that poses
//! the same problem twice reuses the first λ instead (fig12 keys its
//! expander solves on the uplink count).

use topo::graph::Graph;

use crate::models::Demand;

/// Result of a max-concurrent-flow run.
#[derive(Debug, Clone, Copy)]
pub struct McfResult {
    /// Concurrent throughput: every demand simultaneously achieves
    /// `lambda × amount`.
    pub lambda: f64,
}

/// Multiplicative-weights growth rate per routed demand.
const EPS: f64 = 0.07;

/// Heap arity. Four children per node keeps the tree shallow for the
/// ~100-entry frontiers these Dijkstras carry while each sift level
/// still scans one contiguous run of keys; measured fastest among
/// arities 2/4/8 on the sweep shapes (and ahead of a flat vectorized
/// min-scan queue, which loses to the frontier size).
const HEAP_ARITY: usize = 4;

/// Heap slot marker for a node that has been popped (settled) this
/// generation; see [`HeapSoa::pos`].
const SETTLED: u32 = u32::MAX;

/// Relative margins that make the goal-directed search exact under
/// floating-point rounding. The heuristic `h(u)` (pointwise max of the
/// hop-count bound and the snapshot reverse-distance row; see
/// `hops_f` and `hsnap` on [`McfSolver`]) lower-bounds the remaining
/// cost and is consistent in *real* arithmetic; rounding can perturb
/// every comparison by only a few units in `2^-52`. Offers are kept
/// while `g + h < bound × FILTER_MARGIN`, and the path walk trusts a
/// node's stored distance as final only when
/// `g + h ≤ dist(t) × TRUST_MARGIN`. Because every reference achiever
/// has real `g + h ≤ dist(t)` (within ~1e-15 after rounding), it is
/// always trusted; and because `TRUST_MARGIN ≪ FILTER_MARGIN`, every
/// offer on a trusted node's shortest-path prefix chain passes the
/// filter at all times, so its stored distance is exactly the final
/// one. Nodes between the margins are skipped by the walk — provably
/// never achievers.
const FILTER_MARGIN: f64 = 1.0 + 1e-12;
const TRUST_MARGIN: f64 = 1.0 + 1e-13;

/// Pop-count threshold that marks a target's snapshot heuristic row
/// stale: when a goal-directed search settles more nodes than this, the
/// heuristic has decayed enough (costs have grown past what the row —
/// or the hop-count bound alone — accounts for) that one plain
/// reverse-Dijkstra refresh before the *next* query for that target
/// pays for itself in pops saved over the following phases. Kept well
/// above the shortest-path-DAG sizes a fresh (near-exact) row yields on
/// the sweep expanders so a refresh doesn't immediately re-mark itself.
const SNAP_STALE_POPS: u32 = 32;

/// `hsnap_phase` sentinel: this target's next query must refresh its
/// snapshot row before searching.
const SNAP_MARK: u64 = u64::MAX;

/// Running prune state of one goal-directed search: `b` is the current
/// tightest upper bound on `dist(t)` (path bound seed, then tentative
/// distances of `t`), `tf` the derived filter threshold.
#[derive(Debug, Clone, Copy)]
struct Prune {
    b: f64,
    tf: f64,
}

impl Prune {
    #[inline(always)]
    fn new(bound: f64) -> Self {
        // An infinite bound scales to an infinite threshold.
        Prune {
            b: bound,
            tf: bound * FILTER_MARGIN,
        }
    }

    /// Fold in a fresh tentative distance of the target.
    #[inline(always)]
    fn tighten(&mut self, nd: f64) {
        if nd < self.b {
            self.b = nd;
            self.tf = nd * FILTER_MARGIN;
        }
    }
}

/// Indexed d-ary min-heap in struct-of-arrays layout: keys (`f64` bits
/// of the tentative distance — bit order equals value order for
/// non-negative floats) and node payloads live in separate flat
/// vectors, so sift compares touch only the dense `u64` key array and
/// tie order among equal keys is whatever falls out of the sift.
/// Arbitrary tie order is legal here because the routed path is
/// rebuilt from final distances after the run (see
/// [`McfSolver::walk_path`]) rather than from pop-order side effects.
/// `pos` tracks each queued node's heap slot, so an improved tentative
/// distance is a true decrease-key instead of a duplicate entry — the
/// heap holds each node at most once, every pop settles, and the pop
/// loop needs no stale check.
#[derive(Debug, Default)]
struct HeapSoa {
    keys: Vec<u64>,
    nodes: Vec<u32>,
    /// Heap slot of each queued node, `SETTLED` once popped; meaningful
    /// only for nodes stamped in the current Dijkstra generation.
    pos: Vec<u32>,
}

impl HeapSoa {
    fn with_nodes(n: usize) -> Self {
        HeapSoa {
            keys: Vec::new(),
            nodes: Vec::new(),
            pos: vec![0; n],
        }
    }

    #[inline(always)]
    fn clear(&mut self) {
        self.keys.clear();
        self.nodes.clear();
    }

    #[inline(always)]
    fn sift_up(&mut self, mut i: usize, key: u64, node: u32) {
        while i > 0 {
            let p = (i - 1) / HEAP_ARITY;
            let pk = self.keys[p];
            if pk <= key {
                break;
            }
            let pn = self.nodes[p];
            self.keys[i] = pk;
            self.nodes[i] = pn;
            self.pos[pn as usize] = i as u32;
            i = p;
        }
        self.keys[i] = key;
        self.nodes[i] = node;
        self.pos[node as usize] = i as u32;
    }

    #[inline(always)]
    fn push(&mut self, key: u64, node: u32) {
        let i = self.keys.len();
        self.keys.push(key);
        self.nodes.push(node);
        self.sift_up(i, key, node);
    }

    /// Lower `node`'s key in place, or re-queue it if it was popped
    /// earlier this generation: an improvement after settling (possible
    /// only under the goal-directed key order, where rounding can
    /// locally bend the heuristic's consistency) re-queues the node —
    /// label-correcting — so its out-edges are re-relaxed from the
    /// better distance.
    #[inline(always)]
    fn update(&mut self, node: u32, key: u64) {
        let i = self.pos[node as usize];
        if i == SETTLED {
            self.push(key, node);
        } else {
            self.sift_up(i as usize, key, node);
        }
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<(u64, u32)> {
        let len = self.keys.len();
        if len == 0 {
            return None;
        }
        let out = (self.keys[0], self.nodes[0]);
        self.pos[out.1 as usize] = SETTLED;
        let lk = self.keys[len - 1];
        let lv = self.nodes[len - 1];
        self.keys.pop();
        self.nodes.pop();
        let n = len - 1;
        if n > 0 {
            let mut i = 0usize;
            loop {
                let c0 = HEAP_ARITY * i + 1;
                if c0 >= n {
                    break;
                }
                let cend = (c0 + HEAP_ARITY).min(n);
                let mut mc = c0;
                let mut mk = self.keys[c0];
                for (j, &k) in self.keys[c0 + 1..cend].iter().enumerate() {
                    if k < mk {
                        mk = k;
                        mc = c0 + 1 + j;
                    }
                }
                if mk >= lk {
                    break;
                }
                let mn = self.nodes[mc];
                self.keys[i] = mk;
                self.nodes[i] = mn;
                self.pos[mn as usize] = i as u32;
                i = mc;
            }
            self.keys[i] = lk;
            self.nodes[i] = lv;
            self.pos[lv as usize] = i as u32;
        }
        Some(out)
    }
}

/// Per-node Dijkstra scratch, consolidated so a relaxation touches one
/// cache line (and one bounds check) instead of parallel arrays.
/// `dist` is valid only where `stamp` equals the current generation —
/// bumping the generation invalidates every entry without an O(n)
/// clear.
#[derive(Debug, Clone, Copy)]
struct NodeScratch {
    dist: f64,
    stamp: u32,
}

/// One demand after ToR mapping, in original list order.
#[derive(Debug, Clone, Copy)]
struct PlannedDemand {
    s: u32,
    t: u32,
    amount: f64,
}

/// A reusable Garg–Könemann solver bound to one graph.
///
/// Construction lays the adjacency out in fixed-width rows once; every
/// [`solve`](McfSolver::solve) after that runs allocation-free in steady
/// state (the scratch vectors, heap storage, and cost/load arrays are
/// recycled). The free function [`max_concurrent_flow`] remains as the
/// one-shot convenience wrapper.
#[derive(Debug)]
pub struct McfSolver {
    /// Out-edge rows of one width: node `v`'s out-edges fill `targets`
    /// slots `v * stride..` in adjacency-list order, and a slot's index
    /// is its edge id in `cost` and `load`. `stride` is the largest
    /// out-degree rounded up to whole [`LANES`] chunks, so every chunk
    /// the relaxation reads is full. A padding slot targets node 0 at
    /// cost `INFINITY`, which no prune threshold admits.
    stride: usize,
    targets: Vec<u32>,
    /// Reverse adjacency (`rev_off[v]..rev_off[v + 1]` indexes the
    /// in-edges of `v` as parallel `rev_src`/`rev_eid` entries, in
    /// ascending-eid order) — the path walk reads predecessors from
    /// here, so it works on asymmetric graphs too.
    rev_off: Vec<u32>,
    rev_src: Vec<u32>,
    rev_eid: Vec<u32>,
    scratch: Vec<NodeScratch>,
    gen: u32,
    heap: HeapSoa,
    /// Hop distance `u → t` for every `(t, u)` pair, row-major by `t`
    /// (`u16::MAX` = unreachable), built once per graph by BFS over the
    /// reverse adjacency. Feeds the goal-directed search's admissible
    /// heuristic `h(u) = hops(u, t) × cmin` where `cmin` lower-bounds
    /// every edge cost (see `hops_f`).
    hops: Vec<u16>,
    /// `hops` scaled to actual cost units (`h(u) = hops(u, t) × cmin`,
    /// `INFINITY` = unreachable), same row-major layout. `cmin` is the
    /// globally cheapest edge cost sampled at *phase start*: costs only
    /// grow within a phase, so it bounds every edge below for the whole
    /// phase and the heuristic stays admissible (any `u → t` walk takes
    /// ≥ `hops` edges each ≥ `cmin`) and consistent in real arithmetic
    /// (`hops(u) ≤ 1 + hops(v)` across an edge). Rescaling per phase —
    /// rather than fixing the `1/link_rate` floor of a fresh solve —
    /// keeps the heuristic strong late in a solve, when multiplicative
    /// weights has inflated all edges far above the floor and a
    /// floor-scaled heuristic would steer almost nothing.
    hops_f: Vec<f64>,
    /// The `cmin` that `hops_f` is currently scaled by (`NAN` until
    /// first scaled, which can never compare equal).
    hops_f_scale: f64,
    /// Per-target snapshot heuristic rows, same row-major layout as
    /// `hops`: row `t` holds the *exact* reverse shortest-path
    /// distances `u → t` (plain reverse-Dijkstra, `INFINITY` =
    /// unreachable) under the costs at the moment the row was last
    /// refreshed. Costs only ever grow inside a run (multiplicative
    /// updates with factor ≥ 1 round to ≥ the old cost), so a row keeps
    /// lower-bounding every later `u → t` distance — and stays
    /// consistent in real arithmetic — until the next cost reset. Rows
    /// refresh adaptively: a search that settles more than
    /// [`SNAP_STALE_POPS`] nodes marks its target, and the target's
    /// next query re-snapshots first (one ~n-pop plain Dijkstra buying
    /// near-exact guidance for the following phases). This is what
    /// keeps searches narrow *late* in a solve, where `hops_f` alone
    /// goes slack (`cmin` stays pinned at the cost floor by whatever
    /// edges no demand ever routes over).
    hsnap: Vec<f64>,
    /// Phase-counter stamp of each `hsnap` row's last refresh
    /// ([`SNAP_MARK`] = refresh before next use). A row is trusted only
    /// when its stamp is `> snap_floor`.
    hsnap_phase: Vec<u64>,
    /// Monotone phase counter (never reset over the solver's lifetime);
    /// stamps `hsnap` rows.
    phase_ctr: u64,
    /// `phase_ctr` at the entry to the current [`run_phases`] call.
    /// Each run raises the floor, invalidating every snapshot row at
    /// once: a new solve resets costs, which would break the rows'
    /// lower-bound guarantee.
    snap_floor: u64,
    /// The active query's combined heuristic row
    /// (`max(hops_f[t], hsnap[t])` per node, or just `hops_f[t]` while
    /// `t` has no trusted snapshot), filled by `dijkstra_to` and read
    /// back by `walk_final_distances` — the walk's trust test must use
    /// exactly the key function the search ran under.
    h_cur: Vec<f64>,
    cost: Vec<f64>,
    load: Vec<f64>,
    plan: Vec<PlannedDemand>,
    /// Per-plan-index routed path (edge ids) from the previous phase,
    /// double-buffered across phases: `span_prev[i]` windows
    /// `buf_prev`. Summing current costs over last phase's path bounds
    /// this phase's shortest distance for the same `(s, t)` from above
    /// — any path's cost is an upper bound — which arms the
    /// target-bound prune from the first relaxation (see
    /// [`dijkstra_to`](McfSolver::dijkstra_to)).
    buf_prev: Vec<u32>,
    buf_cur: Vec<u32>,
    span_prev: Vec<(u32, u32)>,
    span_cur: Vec<(u32, u32)>,
}

impl McfSolver {
    /// Build a solver for `g`, laying out its adjacency once.
    pub fn new(g: &Graph) -> Self {
        let n = g.len();
        let width = (0..n).map(|v| g.degree(v)).max().unwrap_or(0);
        let stride = width.next_multiple_of(LANES);
        assert!(n * stride < u32::MAX as usize, "edge slots must fit u32");
        let mut targets = vec![0u32; n * stride];
        // Reverse adjacency by counting sort; iterating eids in
        // ascending order keeps each in-edge run eid-sorted, which the
        // path walk's tie-break relies on.
        let mut indeg = vec![0u32; n + 1];
        for u in 0..n {
            for (i, e) in g.edges(u).iter().enumerate() {
                targets[u * stride + i] = e.to as u32;
                indeg[e.to + 1] += 1;
            }
        }
        for v in 0..n {
            indeg[v + 1] += indeg[v];
        }
        let rev_off = indeg;
        let mut cursor = rev_off.clone();
        let m = g.edge_count();
        let mut rev_src = vec![0u32; m];
        let mut rev_eid = vec![0u32; m];
        for u in 0..n {
            for (i, e) in g.edges(u).iter().enumerate() {
                let slot = cursor[e.to] as usize;
                cursor[e.to] += 1;
                rev_src[slot] = u as u32;
                rev_eid[slot] = (u * stride + i) as u32;
            }
        }
        // Hop distances to every target (BFS over reverse edges), for
        // the goal-directed search heuristic.
        let mut hops = vec![u16::MAX; n * n];
        let mut queue = std::collections::VecDeque::new();
        for t in 0..n {
            let row = &mut hops[t * n..(t + 1) * n];
            row[t] = 0;
            queue.clear();
            queue.push_back(t as u32);
            while let Some(v) = queue.pop_front() {
                let v = v as usize;
                let d = row[v] + 1;
                for &src in &rev_src[rev_off[v] as usize..rev_off[v + 1] as usize] {
                    let u = src as usize;
                    if row[u] == u16::MAX {
                        row[u] = d;
                        queue.push_back(u as u32);
                    }
                }
            }
        }
        McfSolver {
            stride,
            targets,
            rev_off,
            rev_src,
            rev_eid,
            scratch: vec![
                NodeScratch {
                    dist: 0.0,
                    stamp: 0
                };
                n
            ],
            gen: 0,
            heap: HeapSoa::with_nodes(n),
            hops_f: vec![0.0; n * n],
            hops_f_scale: f64::NAN,
            hsnap: vec![0.0; n * n],
            hsnap_phase: vec![0; n],
            phase_ctr: 0,
            snap_floor: 0,
            h_cur: vec![0.0; n],
            hops,
            cost: vec![f64::INFINITY; n * stride],
            load: vec![0.0; n * stride],
            plan: Vec::new(),
            buf_prev: Vec::new(),
            buf_cur: Vec::new(),
            span_prev: Vec::new(),
            span_cur: Vec::new(),
        }
    }

    /// Goal-directed search from `s` toward `t` under the current edge
    /// costs; returns whether `t` is reachable. On `true`, every node the
    /// path walk trusts holds its final (bit-exact) distance in `scratch`.
    ///
    /// Heap keys are `g + h` (tentative distance plus the heuristic row
    /// `h_cur`), steering the search toward `t`. It drains until the heap
    /// minimum clears the margin-padded filter threshold, a target-bound
    /// prune armed by `bound` (an upper bound on `dist[t]`, `INFINITY`
    /// when none is known): costs are strictly positive, so an offer past
    /// it can neither improve `t` nor lie on its path, and pop order is
    /// irrelevant to the result.
    fn dijkstra_to(&mut self, s: usize, t: usize, bound: f64) -> bool {
        let n = self.scratch.len();
        let base = t * n;
        if self.hops[base + s] == u16::MAX {
            return false; // t unreachable from s
        }
        debug_assert!(!self.hops_f_scale.is_nan(), "heuristic never scaled");
        if self.hsnap_phase[t] == SNAP_MARK {
            self.refresh_snapshot(t);
        }
        // Combined heuristic row for this query: both the hop-count
        // bound and (when trusted) the snapshot row lower-bound the
        // remaining cost, so their pointwise max does too — and the max
        // of two real-arithmetic-consistent heuristics is consistent.
        if self.hsnap_phase[t] > self.snap_floor {
            for ((h, &hf), &hs) in self
                .h_cur
                .iter_mut()
                .zip(&self.hops_f[base..base + n])
                .zip(&self.hsnap[base..base + n])
            {
                *h = hf.max(hs);
            }
        } else {
            self.h_cur.copy_from_slice(&self.hops_f[base..base + n]);
        }
        let gen = self.begin_search(s, self.h_cur[s].to_bits());
        let mut pr = Prune::new(bound);
        let mut pops = 0u32;
        while let Some((kb, vn)) = self.heap.pop() {
            if f64::from_bits(kb) >= pr.tf {
                break; // heap min beyond the filter: nothing left matters
            }
            pops += 1;
            let v = vn as usize;
            let dv = self.scratch[v].dist;
            debug_assert_eq!(kb, (dv + self.h_cur[v]).to_bits());
            let row = v * self.stride..(v + 1) * self.stride;
            relax(
                &self.targets[row.clone()],
                &self.cost[row],
                &self.h_cur,
                &mut self.scratch,
                &mut self.heap,
                gen,
                dv,
                t,
                &mut pr,
            );
        }
        if pops > SNAP_STALE_POPS {
            self.hsnap_phase[t] = SNAP_MARK;
        }
        // Costs so large they overflow leave `t` unreached, as the
        // reference's infinite `dist[t]` does.
        self.scratch[t].stamp == gen
    }

    /// Start a new search generation and seed the heap with `s` under
    /// `key`.
    #[inline(always)]
    fn begin_search(&mut self, s: usize, key: u64) -> u32 {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            for node in &mut self.scratch {
                node.stamp = 0;
            }
            self.gen = 1;
        }
        let gen = self.gen;
        self.heap.clear();
        self.scratch[s].dist = 0.0;
        self.scratch[s].stamp = gen;
        self.heap.push(key, s as u32);
        gen
    }

    /// Refresh target `t`'s snapshot heuristic row: one plain reverse
    /// Dijkstra (full SSSP over the reverse adjacency, no heuristic, no
    /// prune) under the *current* costs, written into `hsnap` row `t`
    /// and stamped with the current phase. See the `hsnap` field docs
    /// for why the row keeps lower-bounding later queries.
    fn refresh_snapshot(&mut self, t: usize) {
        let gen = self.begin_search(t, 0);
        while let Some((kb, vn)) = self.heap.pop() {
            let v = vn as usize;
            let dv = f64::from_bits(kb);
            debug_assert_eq!(kb, self.scratch[v].dist.to_bits());
            let lo = self.rev_off[v] as usize;
            let hi = self.rev_off[v + 1] as usize;
            for i in lo..hi {
                let u = self.rev_src[i] as usize;
                let nd = dv + self.cost[self.rev_eid[i] as usize];
                let node = &mut self.scratch[u];
                if node.stamp != gen {
                    node.stamp = gen;
                    node.dist = nd;
                    self.heap.push(nd.to_bits(), u as u32);
                } else if nd < node.dist {
                    node.dist = nd;
                    self.heap.update(u as u32, nd.to_bits());
                }
            }
        }
        let n = self.scratch.len();
        let row = &mut self.hsnap[t * n..(t + 1) * n];
        for (u, slot) in row.iter_mut().enumerate() {
            let node = self.scratch[u];
            *slot = if node.stamp == gen {
                node.dist
            } else {
                f64::INFINITY
            };
        }
        self.hsnap_phase[t] = self.phase_ctr;
    }

    /// Route `amount` on the reference's `s → t` path: append its edge
    /// ids to `buf_cur` in t→s order, then apply the `load`/`cost`
    /// update of each.
    ///
    /// The path comes from the final distances the search left
    /// (`walk_final_distances`) unless that walk meets an absorbed cost
    /// (see the module docs); then it comes from
    /// [`path_in_reference_order`](McfSolver::path_in_reference_order).
    fn walk_path(&mut self, s: usize, t: usize, amount: f64, link_rate: f64) {
        let start = self.buf_cur.len();
        if !self.walk_final_distances(s, t) {
            self.buf_cur.truncate(start);
            self.path_in_reference_order(s, t);
        }
        for &eid in &self.buf_cur[start..] {
            let eid = eid as usize;
            self.load[eid] += amount;
            self.cost[eid] *= 1.0 + EPS * amount / link_rate;
        }
    }

    /// Walk the routed `s → t` path back from `t` over final distances
    /// alone, appending each edge to `buf_cur`. Returns `false`, with a
    /// partial path appended, at a node without a strictly-closer
    /// predecessor.
    ///
    /// The reference implementation records `prev[v]` during the run:
    /// the first relaxation that reaches `v`'s final distance wins
    /// (later equal offers fail its strict `<` test). All relaxations
    /// come from settled nodes, so that winner is the earliest-*popped*
    /// in-neighbor `u` with `dist[u] + cost[u→v] == dist[v]` (bit-exact
    /// f64, same rounding as the run): the one with the smallest
    /// distance bits, parallel edges resolving to the lowest eid. Among
    /// equal distance bits the reference pops the larger node first,
    /// since every such node was queued before the first of them popped
    /// — unless it was reached over an absorbed cost, which stops the
    /// walk (see the module docs). So the recorded path is a pure
    /// function of the final distances, which is what lets the queue
    /// drop tie discipline entirely.
    fn walk_final_distances(&mut self, s: usize, t: usize) -> bool {
        let gen = self.gen;
        // Trust threshold of the goal-directed search: a candidate's
        // stored distance is provably final only when its key clears
        // `dist(t) × TRUST_MARGIN` (see [`FILTER_MARGIN`]); anything
        // beyond is provably not an achiever. `h_cur` still holds the
        // row `dijkstra_to` just searched `t` under.
        let trust = self.scratch[t].dist * TRUST_MARGIN;
        let mut v = t;
        while v != s {
            let dv = self.scratch[v].dist;
            let lo = self.rev_off[v] as usize;
            let hi = self.rev_off[v + 1] as usize;
            let mut best = u128::MAX;
            let mut best_eid = usize::MAX;
            let mut best_u = usize::MAX;
            for i in lo..hi {
                let u = self.rev_src[i] as usize;
                let node = &self.scratch[u];
                if node.stamp != gen {
                    continue;
                }
                let du = node.dist;
                if du >= dv || du + self.h_cur[u] > trust {
                    continue;
                }
                let eid = self.rev_eid[i] as usize;
                if du + self.cost[eid] == dv {
                    // Earliest reference pop = smallest distance bits,
                    // ties to the larger node; strict `<` keeps the
                    // first (lowest-eid) entry on full ties.
                    let key = (u128::from(du.to_bits()) << 32) | u128::from(u32::MAX - u as u32);
                    if key < best {
                        best = key;
                        best_eid = eid;
                        best_u = u;
                    }
                }
            }
            if best_eid == usize::MAX {
                return false;
            }
            self.buf_cur.push(best_eid as u32);
            v = best_u;
        }
        true
    }

    /// The reference's own `s → t` search, for the rare demand whose
    /// path crosses an absorbed cost: a `BinaryHeap` of
    /// `(Reverse(dist bits), node)` with lazy deletion, recording each
    /// node's predecessor edge on every strict improvement, stopped at
    /// `t`'s pop (its predecessor chain is final then). Appends the
    /// path's edge ids to `buf_cur` in t→s order.
    fn path_in_reference_order(&mut self, s: usize, t: usize) {
        use std::cmp::Reverse;
        let n = self.scratch.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[s] = 0.0;
        heap.push((Reverse(0f64.to_bits()), s));
        while let Some((Reverse(kb), v)) = heap.pop() {
            let dv = f64::from_bits(kb);
            if dv > dist[v] {
                continue;
            }
            if v == t {
                break;
            }
            let row = v * self.stride;
            for (i, &to) in self.targets[row..row + self.stride].iter().enumerate() {
                let (to, eid) = (to as usize, row + i);
                let nd = dv + self.cost[eid];
                if nd < dist[to] {
                    dist[to] = nd;
                    prev[to] = eid;
                    heap.push((Reverse(nd.to_bits()), to));
                }
            }
        }
        let mut v = t;
        while v != s {
            let eid = prev[v];
            self.buf_cur.push(eid as u32);
            v = eid / self.stride;
        }
    }

    /// Run `phases` multiplicative-weights phases over the demand plan,
    /// iterating source buckets (consecutive runs of demands that share
    /// a mapped source ToR) in original demand order.
    fn run_phases(&mut self, link_rate: f64, phases: usize) {
        let plan = std::mem::take(&mut self.plan);
        // No routed paths are known entering the first phase — every
        // span starts empty, meaning "no bound".
        self.span_prev.clear();
        self.span_prev.resize(plan.len(), (0, 0));
        self.buf_prev.clear();
        // Raise the snapshot validity floor: rows taken in an earlier
        // run saw costs that have since been reset (see
        // `snap_floor`), so every target re-earns its row inside this
        // run. Stray refresh marks from the previous run die with it.
        self.snap_floor = self.phase_ctr;
        for p in &mut self.hsnap_phase {
            if *p == SNAP_MARK {
                *p = 0;
            }
        }
        for _ in 0..phases {
            self.phase_ctr += 1;
            // Rescale the heuristic to this phase's cheapest edge cost
            // (see the `hops_f` field docs — costs only grow inside a
            // phase, so this stays a lower bound throughout). In the
            // first phase of a cold solve every cost is exactly
            // `1.0 / link_rate`, so the initial scale is the cost
            // floor; `NAN` never compares equal, forcing the first
            // fill. O(m + n²) per phase, noise next to the searches.
            let cmin = self.cost.iter().fold(f64::INFINITY, |a, &c| a.min(c));
            if self.hops_f_scale != cmin {
                for (h, &hops) in self.hops_f.iter_mut().zip(&self.hops) {
                    *h = if hops == u16::MAX {
                        f64::INFINITY
                    } else {
                        f64::from(hops) * cmin
                    };
                }
                self.hops_f_scale = cmin;
            }
            self.buf_cur.clear();
            self.span_cur.clear();
            self.span_cur.resize(plan.len(), (0, 0));
            let mut b = 0;
            while b < plan.len() {
                let s = plan[b].s as usize;
                let mut e = b;
                while e < plan.len() && plan[e].s == plan[b].s {
                    e += 1;
                }
                for (di, d) in plan.iter().enumerate().take(e).skip(b) {
                    let t = d.t as usize;
                    // Same (s, t) as last phase's demand `di`: its
                    // routed path priced at current costs bounds this
                    // shortest-path distance from above. Summed in
                    // Dijkstra's own accumulation order (s → t left
                    // fold; the walk stored the path t → s, hence
                    // `rev`) so that if this path is still shortest,
                    // its Dijkstra distance equals the bound bit-exactly
                    // — a different association order could round the
                    // bound below it and prune the real path.
                    let (lo, len) = self.span_prev[di];
                    let bound = if len == 0 {
                        f64::INFINITY
                    } else {
                        self.buf_prev[lo as usize..(lo + len) as usize]
                            .iter()
                            .rev()
                            .fold(0.0f64, |acc, &eid| acc + self.cost[eid as usize])
                    };
                    // A demand inside one ToR routes nothing.
                    if s == t || !self.dijkstra_to(s, t, bound) {
                        continue;
                    }
                    let span_start = self.buf_cur.len() as u32;
                    // Route the whole demand on the cheapest path this
                    // phase.
                    self.walk_path(s, t, d.amount, link_rate);
                    self.span_cur[di] = (span_start, self.buf_cur.len() as u32 - span_start);
                }
                b = e;
            }
            std::mem::swap(&mut self.buf_prev, &mut self.buf_cur);
            std::mem::swap(&mut self.span_prev, &mut self.span_cur);
        }
        self.plan = plan;
    }

    /// Compute the max-concurrent-flow fraction `λ` (see
    /// [`max_concurrent_flow`]) reusing this solver's buffers.
    pub fn solve(
        &mut self,
        tor_of_rack: &[usize],
        demands: &[Demand],
        link_rate: f64,
        host_cap: f64,
        phases: usize,
    ) -> McfResult {
        if self.rev_eid.is_empty() || demands.is_empty() {
            return McfResult { lambda: 0.0 };
        }

        self.plan.clear();
        for d in demands {
            if d.amount <= 0.0 || d.src == d.dst {
                continue;
            }
            self.plan.push(PlannedDemand {
                s: tor_of_rack[d.src] as u32,
                t: tor_of_rack[d.dst] as u32,
                amount: d.amount,
            });
        }

        // Real edges only: padding slots keep their `INFINITY`.
        for &eid in &self.rev_eid {
            self.cost[eid as usize] = 1.0 / link_rate;
        }
        self.load.fill(0.0);
        self.run_phases(link_rate, phases);

        // Scale to fit: each demand has routed `phases * amount` total.
        let worst = self
            .load
            .iter()
            .map(|&l| l / link_rate)
            .fold(0.0f64, f64::max);
        let mut lambda = if worst > 0.0 {
            phases as f64 / worst
        } else {
            f64::INFINITY
        };

        // Host aggregate capacity at each rack (egress and ingress).
        let racks = tor_of_rack.len();
        let mut out = vec![0.0; racks];
        let mut inn = vec![0.0; racks];
        for d in demands {
            out[d.src] += d.amount;
            inn[d.dst] += d.amount;
        }
        for r in 0..racks {
            if out[r] > 0.0 {
                lambda = lambda.min(host_cap / out[r]);
            }
            if inn[r] > 0.0 {
                lambda = lambda.min(host_cap / inn[r]);
            }
        }
        McfResult {
            lambda: lambda.min(1.0),
        }
    }
}

/// Edges per relaxation chunk: a row is relaxed a chunk at a time, so
/// the prune mask (one bit per edge) computes branchlessly over a
/// compile-time width and only surviving edges touch scratch and heap.
const LANES: usize = 8;

/// Relax one node's out-edge row (`tgts`, with their `costs`, padding
/// included) from its settled distance `dv`. Each chunk's mask is
/// evaluated against the prune threshold once up front; a mid-chunk
/// tightening leaves a *superset* of the survivors, which is equally
/// exact — pruned entries never reach the walk.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn relax(
    tgts: &[u32],
    costs: &[f64],
    h_row: &[f64],
    scratch: &mut [NodeScratch],
    heap: &mut HeapSoa,
    gen: u32,
    dv: f64,
    t: usize,
    pr: &mut Prune,
) {
    for (tgts, costs) in tgts.chunks_exact(LANES).zip(costs.chunks_exact(LANES)) {
        let mut mask = 0u32;
        for (i, (&to, &c)) in tgts.iter().zip(costs).enumerate() {
            // Strict `<`: an infinite key (a padding slot, or a target
            // cut off from `t`) never survives, even under an infinite
            // threshold.
            mask |= u32::from(dv + c + h_row[to as usize] < pr.tf) << i;
        }
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let to = tgts[i] as usize;
            let nd = dv + costs[i];
            let key = (nd + h_row[to]).to_bits();
            let node = &mut scratch[to];
            if node.stamp != gen {
                node.stamp = gen;
                node.dist = nd;
                heap.push(key, to as u32);
            } else if nd < node.dist {
                node.dist = nd;
                heap.update(to as u32, key);
            } else {
                continue;
            }
            if to == t {
                pr.tighten(nd);
            }
        }
    }
}

/// Compute the max-concurrent-flow fraction `λ` for rack-level `demands`
/// on `g` with uniform edge capacity `link_rate` and per-rack aggregate
/// host capacity `host_cap` (applied analytically at the end).
///
/// `phases` trades accuracy for time; 100–300 is a good range. One-shot
/// wrapper over [`McfSolver`]; solving the same graph repeatedly is
/// cheaper through a kept solver instance.
pub fn max_concurrent_flow(
    g: &Graph,
    tor_of_rack: &[usize],
    demands: &[Demand],
    link_rate: f64,
    host_cap: f64,
    phases: usize,
) -> McfResult {
    McfSolver::new(g).solve(tor_of_rack, demands, link_rate, host_cap, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::expander::{ExpanderParams, ExpanderTopology};

    #[test]
    fn single_path_network() {
        // Line 0-1-2 with 10G links; demand 0->2 of 10 -> λ = 1.
        let mut g = Graph::new(3);
        g.add_link(0, 1, 0);
        g.add_link(1, 2, 0);
        let demands = vec![Demand {
            src: 0,
            dst: 2,
            amount: 10.0,
        }];
        let tor = vec![0, 1, 2];
        let r = max_concurrent_flow(&g, &tor, &demands, 10.0, 100.0, 50);
        assert!((r.lambda - 1.0).abs() < 0.05, "λ={}", r.lambda);
    }

    #[test]
    fn contention_halves() {
        // Two demands share one 10G edge; each offers 10 -> λ = 0.5.
        let mut g = Graph::new(2);
        g.add_link(0, 1, 0);
        let demands = vec![
            Demand {
                src: 0,
                dst: 1,
                amount: 10.0,
            },
            Demand {
                src: 0,
                dst: 1,
                amount: 10.0,
            },
        ];
        let tor = vec![0, 1];
        let r = max_concurrent_flow(&g, &tor, &demands, 10.0, 1000.0, 50);
        assert!((r.lambda - 0.5).abs() < 0.03, "λ={}", r.lambda);
    }

    #[test]
    fn parallel_paths_split() {
        // Diamond: 0->{1,2}->3, all 10G. Demand 20 from 0 to 3 -> λ = 1
        // (optimal splits across both).
        let mut g = Graph::new(4);
        g.add_link(0, 1, 0);
        g.add_link(0, 2, 1);
        g.add_link(1, 3, 0);
        g.add_link(2, 3, 0);
        let demands = vec![Demand {
            src: 0,
            dst: 3,
            amount: 20.0,
        }];
        let tor = vec![0, 1, 2, 3];
        let r = max_concurrent_flow(&g, &tor, &demands, 10.0, 1000.0, 200);
        assert!(r.lambda > 0.9, "λ={}", r.lambda);
    }

    #[test]
    fn host_cap_binds() {
        let mut g = Graph::new(2);
        g.add_link(0, 1, 0);
        let demands = vec![Demand {
            src: 0,
            dst: 1,
            amount: 10.0,
        }];
        let tor = vec![0, 1];
        let r = max_concurrent_flow(&g, &tor, &demands, 100.0, 5.0, 20);
        assert!((r.lambda - 0.5).abs() < 1e-9);
    }

    #[test]
    fn expander_permutation_reasonable() {
        let t = ExpanderTopology::generate(
            ExpanderParams {
                racks: 64,
                uplinks: 7,
                hosts_per_rack: 5,
            },
            5,
        );
        let n = 64;
        let demands: Vec<Demand> = (0..n)
            .map(|r| Demand {
                src: r,
                dst: (r + n / 2) % n,
                amount: 50.0,
            })
            .collect();
        let tor: Vec<usize> = (0..n).collect();
        let r = max_concurrent_flow(t.graph(), &tor, &demands, 10.0, 50.0, 150);
        // Capacity bound: 64*7*10 / (64*50*avg_len≈2.3) ≈ 0.6.
        assert!(r.lambda > 0.4 && r.lambda < 0.75, "λ={}", r.lambda);
    }

    fn expander_and_perm() -> (ExpanderTopology, Vec<Demand>, Vec<usize>) {
        let t = ExpanderTopology::generate(
            ExpanderParams {
                racks: 40,
                uplinks: 5,
                hosts_per_rack: 4,
            },
            9,
        );
        let n = 40;
        let demands: Vec<Demand> = (0..n)
            .map(|r| Demand {
                src: r,
                dst: (r + 17) % n,
                amount: 30.0,
            })
            .collect();
        (t, demands, (0..n).collect())
    }

    #[test]
    fn solver_reuse_is_bit_identical() {
        // The same solver instance run three times (interleaved with a
        // different demand set) reproduces the one-shot λ bits exactly:
        // the generation-stamped scratch carries no state across solves.
        let (t, demands, tor) = expander_and_perm();
        let one_shot = max_concurrent_flow(t.graph(), &tor, &demands, 10.0, 40.0, 30).lambda;
        let mut solver = McfSolver::new(t.graph());
        let other = ScenarioLike::hot(4, 10.0);
        for _ in 0..3 {
            let r = solver.solve(&tor, &demands, 10.0, 40.0, 30);
            assert_eq!(r.lambda.to_bits(), one_shot.to_bits());
            solver.solve(&tor, &other, 10.0, 40.0, 10);
        }
    }

    // Minimal stand-in for workloads::ScenarioGen (not a dependency here).
    struct ScenarioLike;
    impl ScenarioLike {
        fn hot(hosts_per_rack: usize, gbps: f64) -> Vec<Demand> {
            vec![Demand {
                src: 0,
                dst: 1,
                amount: hosts_per_rack as f64 * gbps,
            }]
        }
    }

    #[test]
    fn degenerate_instances_are_lambda_zero() {
        let g = Graph::new(2); // no edges
        let mut solver = McfSolver::new(&g);
        let demands = ScenarioLike::hot(1, 10.0);
        let r = solver.solve(&[0, 1], &demands, 10.0, 10.0, 5);
        assert_eq!(r.lambda, 0.0);
        let mut g = Graph::new(2);
        g.add_link(0, 1, 0);
        let r = max_concurrent_flow(&g, &[0, 1], &[], 10.0, 10.0, 5);
        assert_eq!(r.lambda, 0.0);
    }
}
