//! Max-min fair rate allocation by progressive filling.
//!
//! An [`Instance`] is a set of capacitated links and a set of flows, each
//! with a *fixed fractional route*: the load the flow places on each link
//! per unit of its rate (e.g. ECMP splits put fractional load on many
//! links). Progressive filling raises all unfrozen flow rates uniformly;
//! when a link saturates, the flows crossing it freeze. The result is the
//! unique max-min fair allocation for the fixed routing, optionally capped
//! per-flow by a demand ceiling.
//!
//! # Cost model
//!
//! A route is stored as *runs*: `count` links `first, first + stride, …`
//! sharing one weight. [`Instance::add_flow`] folds each entry that
//! continues the current run (the same weight bits, the next link one
//! stride on) into it, and every flow's runs sit in one flat `Vec`. A
//! flow costs 24 bytes a run plus 16 of bookkeeping, so memory is
//! O(runs), not O(entries), while every pass of [`max_min_rates`] still
//! visits each entry once. A two-hop Valiant route over all `n − 2`
//! intermediates of an `n`-rack mesh ([`crate::opera_model`]) has
//! 2(n − 2) + 2 entries but at most 7 runs whatever `n`: its row
//! `src·n + m` (stride 1, split at most twice where `m` skips `src` and
//! `dst`), its column `m·n + dst` (stride `n`, likewise), and the two host
//! links. An all-to-all solve therefore holds O(n²) runs instead of
//! O(n³) entries.
//!
//! Runs expand in entry order, so the solver performs exactly the
//! floating-point operations the entry list would. A caller may also
//! reorder a route's entries without changing any result bit, provided no
//! link appears twice in that route: each link's load and capacity sums
//! take one term per flow, in flow order, and the freezing tests ask
//! whether *any* entry is saturated. That is what lets `opera_model` emit
//! a Valiant route row first and column second.

/// Index of a link.
pub type LinkId = usize;

/// `count` links `first, first + stride, …`, each loaded with `weight` per
/// unit of the flow's rate: consecutive route entries folded into one.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: u32,
    stride: u32,
    count: u32,
    weight: f64,
}

impl Run {
    fn new(link: u32, weight: f64) -> Self {
        Run {
            first: link,
            stride: 0,
            count: 1,
            weight,
        }
    }

    /// The run's links, in entry order. The last is `first + (count − 1) ·
    /// stride`, a link id, so no step overflows.
    fn links(self) -> impl Iterator<Item = LinkId> {
        (0..self.count).map(move |i| (self.first + i * self.stride) as LinkId)
    }

    /// Fold `(link, weight)` into the run if it is the run's next entry:
    /// the same weight bits and the link one stride past the last. A run of
    /// one takes its stride from its second link, so a duplicate link makes
    /// a stride of 0.
    fn extend(&mut self, link: u32, weight: f64) -> bool {
        if weight.to_bits() != self.weight.to_bits() || self.count == u32::MAX {
            return false;
        }
        let last = self.first + (self.count - 1) * self.stride;
        let Some(step) = link.checked_sub(last) else {
            return false;
        };
        if self.count == 1 {
            self.stride = step;
        } else if step != self.stride {
            return false;
        }
        self.count += 1;
        true
    }
}

/// `id` as a run stores it.
///
/// # Panics
///
/// If `id` exceeds `u32::MAX`.
fn run_link(id: LinkId) -> u32 {
    u32::try_from(id)
        .unwrap_or_else(|_| panic!("link id {id} does not fit a route run's u32 (2^32 links)"))
}

/// A flow-level problem instance.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    caps: Vec<f64>,
    /// Every flow's route as runs, flow after flow.
    runs: Vec<Run>,
    /// Per flow: the end of its runs in `runs` (the start is the previous
    /// flow's end).
    ends: Vec<usize>,
    /// Per flow: maximum useful rate (demand), `f64::INFINITY` if elastic.
    ceilings: Vec<f64>,
}

impl Instance {
    /// Empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link with capacity `cap`; returns its id.
    ///
    /// # Panics
    ///
    /// If `cap` is negative, infinite or NaN, or if the instance already
    /// holds 2³² links, the most a route run can address.
    pub fn add_link(&mut self, cap: f64) -> LinkId {
        assert!(cap >= 0.0 && cap.is_finite());
        let id = self.caps.len();
        run_link(id);
        self.caps.push(cap);
        id
    }

    /// Add a flow with the given route loads and demand ceiling; returns
    /// its index. Duplicate links in `route` are allowed (loads add).
    ///
    /// # Panics
    ///
    /// If `ceiling` is negative or NaN (`f64::INFINITY` is an elastic
    /// flow), or if an entry names an unknown link or carries a negative,
    /// infinite or NaN load.
    pub fn add_flow(&mut self, route: Vec<(LinkId, f64)>, ceiling: f64) -> usize {
        assert!(ceiling >= 0.0, "flow ceiling {ceiling} is not a rate");
        let start = self.runs.len();
        for (l, w) in route {
            assert!(l < self.caps.len(), "route uses unknown link {l}");
            assert!(w >= 0.0 && w.is_finite());
            let l = run_link(l);
            if !self.runs[start..]
                .last_mut()
                .is_some_and(|run| run.extend(l, w))
            {
                self.runs.push(Run::new(l, w));
            }
        }
        self.ends.push(self.runs.len());
        self.ceilings.push(ceiling);
        self.ends.len() - 1
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.caps.len()
    }

    /// Number of flows.
    pub fn flows(&self) -> usize {
        self.ends.len()
    }

    /// Flow `f`'s route.
    fn route(&self, f: usize) -> &[Run] {
        let start = if f == 0 { 0 } else { self.ends[f - 1] };
        &self.runs[start..self.ends[f]]
    }

    /// Number of runs flow `f`'s route folded into.
    #[cfg(test)]
    pub(crate) fn runs_of(&self, f: usize) -> usize {
        self.route(f).len()
    }

    /// Remaining capacity per link after allocating `rates`.
    pub fn residual(&self, rates: &[f64]) -> Vec<f64> {
        let mut rem = self.caps.clone();
        for (f, &rate) in rates[..self.flows()].iter().enumerate() {
            for run in self.route(f) {
                let used = rate * run.weight;
                for l in run.links() {
                    rem[l] -= used;
                }
            }
        }
        for r in &mut rem {
            if *r < 0.0 && *r > -1e-6 {
                *r = 0.0;
            }
        }
        rem
    }
}

/// Compute the max-min fair rates of an instance.
pub fn max_min_rates(inst: &Instance) -> Vec<f64> {
    const EPS: f64 = 1e-12;
    let nf = inst.flows();
    let mut rates = vec![0.0; nf];
    let mut frozen = vec![false; nf];
    let mut rem = inst.caps.clone();

    // Freeze zero-route flows immediately (they are unconstrained; treat
    // their rate as their ceiling if finite, else 0).
    for f in 0..nf {
        if inst.route(f).iter().all(|run| run.weight <= EPS) {
            frozen[f] = true;
            rates[f] = if inst.ceilings[f].is_finite() {
                inst.ceilings[f]
            } else {
                0.0
            };
        }
    }

    let mut load = vec![0.0; inst.links()];
    loop {
        // Load per link from unfrozen flows.
        load.fill(0.0);
        let mut any = false;
        for (f, &is_frozen) in frozen.iter().enumerate() {
            if is_frozen {
                continue;
            }
            any = true;
            for run in inst.route(f) {
                for l in run.links() {
                    load[l] += run.weight;
                }
            }
        }
        if !any {
            break;
        }
        // Largest uniform increment permitted by links and ceilings.
        let mut delta = f64::INFINITY;
        for l in 0..inst.links() {
            if load[l] > EPS {
                delta = delta.min(rem[l] / load[l]);
            }
        }
        for f in 0..nf {
            if !frozen[f] && inst.ceilings[f].is_finite() {
                delta = delta.min(inst.ceilings[f] - rates[f]);
            }
        }
        if !delta.is_finite() {
            // No binding constraint: elastic flows with no capacity limit.
            break;
        }
        let delta = delta.max(0.0);
        // Apply.
        for f in 0..nf {
            if frozen[f] {
                continue;
            }
            rates[f] += delta;
            for run in inst.route(f) {
                let used = delta * run.weight;
                for l in run.links() {
                    rem[l] -= used;
                }
            }
        }
        // Freeze flows at saturated links or at their ceiling.
        let mut progress = false;
        for f in 0..nf {
            if frozen[f] {
                continue;
            }
            let at_ceiling = inst.ceilings[f].is_finite() && rates[f] + EPS >= inst.ceilings[f];
            let at_bottleneck = inst
                .route(f)
                .iter()
                .any(|run| run.weight > EPS && run.links().any(|l| rem[l] <= 1e-9));
            if at_ceiling || at_bottleneck {
                frozen[f] = true;
                progress = true;
            }
        }
        if !progress {
            debug_assert!(delta > 0.0, "stuck without progress");
            if delta <= 0.0 {
                break;
            }
        }
    }
    rates
}

/// The instance as it was before routes became runs — one `Vec` of
/// `(link, weight)` entries per flow — kept as the test oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::LinkId;

    /// `Instance` with a `Vec` route per flow.
    #[derive(Debug, Clone, Default)]
    pub struct Instance {
        caps: Vec<f64>,
        /// Per flow: sparse (link, load-per-unit-rate) pairs.
        pub routes: Vec<Vec<(LinkId, f64)>>,
        /// Per flow: maximum useful rate (demand), `f64::INFINITY` if elastic.
        ceilings: Vec<f64>,
    }

    impl Instance {
        pub fn add_link(&mut self, cap: f64) -> LinkId {
            assert!(cap >= 0.0 && cap.is_finite());
            self.caps.push(cap);
            self.caps.len() - 1
        }

        pub fn add_flow(&mut self, route: Vec<(LinkId, f64)>, ceiling: f64) -> usize {
            for &(l, w) in &route {
                assert!(l < self.caps.len(), "route uses unknown link {l}");
                assert!(w >= 0.0 && w.is_finite());
            }
            self.routes.push(route);
            self.ceilings.push(ceiling);
            self.routes.len() - 1
        }

        pub fn links(&self) -> usize {
            self.caps.len()
        }

        pub fn flows(&self) -> usize {
            self.routes.len()
        }

        pub fn residual(&self, rates: &[f64]) -> Vec<f64> {
            let mut rem = self.caps.clone();
            for (f, route) in self.routes.iter().enumerate() {
                for &(l, w) in route {
                    rem[l] -= rates[f] * w;
                }
            }
            for r in &mut rem {
                if *r < 0.0 && *r > -1e-6 {
                    *r = 0.0;
                }
            }
            rem
        }
    }

    pub fn max_min_rates(inst: &Instance) -> Vec<f64> {
        const EPS: f64 = 1e-12;
        let nf = inst.flows();
        let mut rates = vec![0.0; nf];
        let mut frozen = vec![false; nf];
        let mut rem = inst.caps.clone();

        for f in 0..nf {
            if inst.routes[f].iter().all(|&(_, w)| w <= EPS) {
                frozen[f] = true;
                rates[f] = if inst.ceilings[f].is_finite() {
                    inst.ceilings[f]
                } else {
                    0.0
                };
            }
        }

        let mut load = vec![0.0; inst.links()];
        loop {
            load.fill(0.0);
            let mut any = false;
            for (f, &is_frozen) in frozen.iter().enumerate() {
                if is_frozen {
                    continue;
                }
                any = true;
                for &(l, w) in &inst.routes[f] {
                    load[l] += w;
                }
            }
            if !any {
                break;
            }
            let mut delta = f64::INFINITY;
            for l in 0..inst.links() {
                if load[l] > EPS {
                    delta = delta.min(rem[l] / load[l]);
                }
            }
            for f in 0..nf {
                if !frozen[f] && inst.ceilings[f].is_finite() {
                    delta = delta.min(inst.ceilings[f] - rates[f]);
                }
            }
            if !delta.is_finite() {
                break;
            }
            let delta = delta.max(0.0);
            for f in 0..nf {
                if frozen[f] {
                    continue;
                }
                rates[f] += delta;
                for &(l, w) in &inst.routes[f] {
                    rem[l] -= delta * w;
                }
            }
            let mut progress = false;
            for f in 0..nf {
                if frozen[f] {
                    continue;
                }
                let at_ceiling = inst.ceilings[f].is_finite() && rates[f] + EPS >= inst.ceilings[f];
                let at_bottleneck = inst.routes[f]
                    .iter()
                    .any(|&(l, w)| w > EPS && rem[l] <= 1e-9);
                if at_ceiling || at_bottleneck {
                    frozen[f] = true;
                    progress = true;
                }
            }
            if !progress {
                debug_assert!(delta > 0.0, "stuck without progress");
                if delta <= 0.0 {
                    break;
                }
            }
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimRng;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn single_link_fair_share() {
        let mut inst = Instance::new();
        let l = inst.add_link(10.0);
        for _ in 0..4 {
            inst.add_flow(vec![(l, 1.0)], f64::INFINITY);
        }
        let r = max_min_rates(&inst);
        assert!(r.iter().all(|&x| close(x, 2.5)), "{r:?}");
    }

    #[test]
    fn classic_max_min_example() {
        // Two links: A (cap 10) shared by f0,f1; B (cap 4) used by f1,f2.
        // Max-min: f1,f2 get 2 (B bottleneck); f0 gets 8.
        let mut inst = Instance::new();
        let a = inst.add_link(10.0);
        let b = inst.add_link(4.0);
        inst.add_flow(vec![(a, 1.0)], f64::INFINITY);
        inst.add_flow(vec![(a, 1.0), (b, 1.0)], f64::INFINITY);
        inst.add_flow(vec![(b, 1.0)], f64::INFINITY);
        let r = max_min_rates(&inst);
        assert!(close(r[1], 2.0) && close(r[2], 2.0), "{r:?}");
        assert!(close(r[0], 8.0), "{r:?}");
    }

    #[test]
    fn ceiling_caps_rate() {
        let mut inst = Instance::new();
        let l = inst.add_link(10.0);
        inst.add_flow(vec![(l, 1.0)], 1.0);
        inst.add_flow(vec![(l, 1.0)], f64::INFINITY);
        let r = max_min_rates(&inst);
        assert!(close(r[0], 1.0), "{r:?}");
        assert!(close(r[1], 9.0), "{r:?}");
    }

    #[test]
    fn fractional_routes_weighted_load() {
        // One flow split over two parallel links (weight 0.5 each), one
        // flow pinned to the first link.
        let mut inst = Instance::new();
        let a = inst.add_link(10.0);
        let b = inst.add_link(10.0);
        inst.add_flow(vec![(a, 0.5), (b, 0.5)], f64::INFINITY);
        inst.add_flow(vec![(a, 1.0)], f64::INFINITY);
        let r = max_min_rates(&inst);
        // Progressive fill: both rise; link a saturates when
        // 0.5*x + x = 10 at x = 6.67 -> both freeze (split flow crosses a).
        assert!(close(r[0], 20.0 / 3.0), "{r:?}");
        assert!(close(r[1], 20.0 / 3.0), "{r:?}");
    }

    #[test]
    fn vlb_double_charge() {
        // A two-hop Valiant flow loads both hops: weight 1 on each of two
        // links. Against a direct flow on one of them, each gets 5.
        let mut inst = Instance::new();
        let a = inst.add_link(10.0);
        let b = inst.add_link(10.0);
        inst.add_flow(vec![(a, 1.0), (b, 1.0)], f64::INFINITY);
        inst.add_flow(vec![(b, 1.0)], f64::INFINITY);
        let r = max_min_rates(&inst);
        assert!(close(r[0], 5.0) && close(r[1], 5.0), "{r:?}");
    }

    #[test]
    fn residual_accounts_allocations() {
        let mut inst = Instance::new();
        let l = inst.add_link(10.0);
        inst.add_flow(vec![(l, 1.0)], 4.0);
        let r = max_min_rates(&inst);
        let rem = inst.residual(&r);
        assert!(close(rem[0], 6.0));
    }

    #[test]
    fn zero_route_flow_takes_ceiling() {
        let mut inst = Instance::new();
        inst.add_link(1.0);
        inst.add_flow(vec![], 3.0);
        let r = max_min_rates(&inst);
        assert!(close(r[0], 3.0));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new();
        assert!(max_min_rates(&inst).is_empty());
    }

    #[test]
    #[should_panic(expected = "flow ceiling NaN is not a rate")]
    fn nan_ceiling_is_refused() {
        let mut inst = Instance::new();
        let l = inst.add_link(1.0);
        inst.add_flow(vec![(l, 1.0)], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "flow ceiling -inf is not a rate")]
    fn negative_ceiling_is_refused() {
        let mut inst = Instance::new();
        let l = inst.add_link(1.0);
        inst.add_flow(vec![(l, 1.0)], f64::NEG_INFINITY);
    }

    #[test]
    fn last_u32_link_id_fits_a_run() {
        assert_eq!(run_link(u32::MAX as LinkId), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "link id 4294967296 does not fit a route run's u32")]
    fn link_id_past_u32_is_refused() {
        // What `add_link` checks before handing out link 2^32 (an instance
        // that large would hold 32 GiB of capacities).
        run_link(u32::MAX as LinkId + 1);
    }

    #[test]
    fn run_folding_at_the_u32_limits() {
        let full = |first: u32, stride: u32, count: u32| Run {
            first,
            stride,
            count,
            weight: 1.0,
        };
        // A run ending at link u32::MAX extends no further.
        let mut top = full(u32::MAX - 2, 1, 3);
        assert!(!top.extend(u32::MAX, 1.0));
        assert_eq!(top.links().last(), Some(u32::MAX as LinkId));
        // A run as long as a u32 can count takes no more entries.
        let mut long = full(7, 0, u32::MAX);
        assert!(!long.extend(7, 1.0));
        let mut almost = full(7, 0, u32::MAX - 1);
        assert!(almost.extend(7, 1.0));
        assert_eq!(almost.count, u32::MAX);
    }

    /// The runs of flow `f`, expanded.
    fn entries(inst: &Instance, f: usize) -> Vec<(LinkId, u64)> {
        inst.route(f)
            .iter()
            .flat_map(|run| run.links().map(move |l| (l, run.weight.to_bits())))
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A random instance, built twice: as runs and as the oracle's entry
    /// lists. Routes mix strided sweeps (forward, with random strides and
    /// occasional breaks), duplicate links, a few repeated weights
    /// (including 0 and -0), and scattered links; ceilings are finite or
    /// infinite.
    fn random_pair(rng: &mut SimRng) -> (Instance, oracle::Instance) {
        let mut inst = Instance::new();
        let mut reference = oracle::Instance::default();
        let links = 1 + rng.index(40);
        for _ in 0..links {
            let cap = if rng.chance(0.1) {
                0.0
            } else {
                rng.f64() * 10.0
            };
            inst.add_link(cap);
            reference.add_link(cap);
        }
        // No weight in (0, 1e-12]: enough of them on one saturated link
        // stall progressive filling, in the oracle as much as here.
        let weights = [1.0, 0.5, 0.25, 1.0 / 3.0, 0.0, -0.0, 2.0];
        for _ in 0..rng.index(30) {
            let mut route = Vec::new();
            for _ in 0..rng.index(6) {
                let w = if rng.chance(0.2) {
                    rng.f64() * 3.0
                } else {
                    weights[rng.index(weights.len())]
                };
                match rng.index(4) {
                    // A strided sweep.
                    0 | 1 => {
                        let stride = rng.index(4);
                        let mut l = rng.index(links);
                        for _ in 0..1 + rng.index(8) {
                            if l >= links {
                                break;
                            }
                            route.push((l, w));
                            l += if rng.chance(0.1) { stride + 1 } else { stride };
                        }
                    }
                    // The previous entry again.
                    2 => {
                        if let Some(&last) = route.last() {
                            route.push(last);
                        }
                    }
                    // Anywhere.
                    _ => route.push((rng.index(links), w)),
                }
            }
            let ceiling = match rng.index(4) {
                0 => f64::INFINITY,
                1 => 0.0,
                _ => rng.f64() * 8.0,
            };
            inst.add_flow(route.clone(), ceiling);
            reference.add_flow(route, ceiling);
        }
        (inst, reference)
    }

    #[test]
    fn runs_equal_the_entry_list_oracle() {
        let mut rng = SimRng::new(29);
        let mut folded = 0;
        for case in 0..2_000 {
            let (inst, reference) = random_pair(&mut rng);
            for (f, route) in reference.routes.iter().enumerate() {
                let want: Vec<(LinkId, u64)> =
                    route.iter().map(|&(l, w)| (l, w.to_bits())).collect();
                assert_eq!(entries(&inst, f), want, "case {case}, flow {f}");
                folded += route.len() - inst.runs_of(f);
            }
            let rates = max_min_rates(&inst);
            let want = oracle::max_min_rates(&reference);
            assert_eq!(bits(&rates), bits(&want), "case {case}: rates");
            assert_eq!(
                bits(&inst.residual(&rates)),
                bits(&reference.residual(&want)),
                "case {case}: residual"
            );
        }
        // The grid does fold entries into runs.
        assert!(folded > 10_000, "only {folded} entries folded");
    }

    #[test]
    fn a_run_holds_one_weight_and_one_stride() {
        let mut inst = Instance::new();
        for _ in 0..20 {
            inst.add_link(1.0);
        }
        // Stride 3 at one weight; the weight changes; -0 and 0 differ in
        // bits; a duplicate makes stride 0.
        inst.add_flow(
            vec![
                (1, 0.5),
                (4, 0.5),
                (7, 0.5),
                (10, 0.25),
                (13, 0.25),
                (15, 0.25),
                (16, 0.0),
                (17, -0.0),
                (18, 1.0),
                (18, 1.0),
                (18, 1.0),
            ],
            f64::INFINITY,
        );
        let runs = inst.route(0);
        let shape: Vec<(u32, u32, u32)> =
            runs.iter().map(|r| (r.first, r.stride, r.count)).collect();
        assert_eq!(
            shape,
            [
                (1, 3, 3),
                (10, 3, 2),
                (15, 0, 1),
                (16, 0, 1),
                (17, 0, 1),
                (18, 0, 3)
            ]
        );
    }
}
