//! Property-based tests (`simkit::cases`) on the core invariants the design
//! rests on: factorization completeness, slice-schedule correctness,
//! solver feasibility, transport delivery, and statistics sanity.

use simkit::cases::{self, Draw};
use simkit::stats::Samples;
use simkit::{SimRng, SimTime};
use topo::matching::{factorize_complete, validate_factorization};
use topo::opera::{OperaParams, OperaTopology};

/// Random factorizations are complete and disjoint for any rack count.
#[test]
fn factorization_invariants() {
    let draw = |d: &mut Draw| (d.usize(2..80), d.u64(0..1000));
    cases::check("factorization_invariants", 24, draw, |(n, seed)| {
        let mut rng = SimRng::new(seed);
        let ms = factorize_complete(n, &mut rng);
        assert!(validate_factorization(&ms, n).is_ok());
    });
}

/// The slice schedule visits every matching of every switch exactly
/// once per cycle, for arbitrary (divisible) parameters.
#[test]
fn schedule_visits_everything() {
    let draw = |d: &mut Draw| (d.usize(2..6), d.usize(2..8), d.usize(0..2), d.u64(0..500));
    cases::check(
        "schedule_visits_everything",
        24,
        draw,
        |(u, mult, groups_pow, seed)| {
            let groups = if u % 2 == 0 && groups_pow == 1 { 2 } else { 1 };
            let params = OperaParams {
                racks: u * mult,
                uplinks: u,
                hosts_per_rack: 2,
                groups,
            };
            let topo = OperaTopology::generate(params, seed);
            for j in 0..topo.switches() {
                let mut seen = vec![0usize; topo.matchings_per_switch()];
                for s in 0..topo.slices_per_cycle() {
                    seen[topo.position_at(j, s)] += 1;
                }
                // Every matching appears, equally often.
                let expect = topo.slices_per_cycle() / topo.matchings_per_switch();
                assert!(seen.iter().all(|&c| c == expect));
            }
        },
    );
}

/// Every rack pair gets at least one usable direct slice per cycle.
#[test]
fn direct_circuits_complete() {
    let draw = |d: &mut Draw| (d.usize(2..6), d.u64(0..200));
    cases::check("direct_circuits_complete", 24, draw, |(mult, seed)| {
        let u = 4;
        let params = OperaParams {
            racks: u * mult,
            uplinks: u,
            hosts_per_rack: 2,
            groups: 1,
        };
        let topo = OperaTopology::generate(params, seed);
        for a in 0..topo.racks() {
            for b in 0..topo.racks() {
                if a != b {
                    assert!(!topo.direct_slices(a, b).is_empty());
                }
            }
        }
    });
}

/// Max-min allocations never violate capacities and are Pareto
/// efficient on the bottleneck.
#[test]
fn max_min_feasible() {
    let draw = |d: &mut Draw| {
        (
            d.vec(2..8, |d| d.f64(1.0..100.0)),
            d.usize(2..10),
            d.u64(0..1000),
        )
    };
    cases::check("max_min_feasible", 24, draw, |(caps, nflows, seed)| {
        let mut rng = SimRng::new(seed);
        let mut inst = flowsim::Instance::new();
        for &c in &caps {
            inst.add_link(c);
        }
        for _ in 0..nflows {
            let len = 1 + rng.index(caps.len());
            let mut route = Vec::new();
            for _ in 0..len {
                route.push((rng.index(caps.len()), 1.0));
            }
            inst.add_flow(route, f64::INFINITY);
        }
        let rates = flowsim::max_min_rates(&inst);
        let rem = inst.residual(&rates);
        // Feasible:
        for (l, &r) in rem.iter().enumerate() {
            assert!(r >= -1e-6, "link {l} oversubscribed by {r}");
        }
        // Non-trivial: at least one link saturated (flows exist).
        assert!(rem.iter().any(|&r| r < 1e-6));
        // All rates positive.
        assert!(rates.iter().all(|&x| x > 0.0));
    });
}

/// Quantiles of a sample set are always actual sample values and
/// ordered in q.
#[test]
fn quantiles_ordered() {
    let draw = |d: &mut Draw| d.vec(1..200, |d| d.f64(-1e6..1e6));
    cases::check("quantiles_ordered", 24, draw, |values| {
        let mut s = Samples::new();
        for &v in &values {
            s.push(v);
        }
        let q25 = s.quantile(0.25).unwrap();
        let q50 = s.quantile(0.5).unwrap();
        let q99 = s.quantile(0.99).unwrap();
        assert!(q25 <= q50 && q50 <= q99);
        assert!(values.contains(&q50));
    });
}

/// NDP delivers flows of arbitrary size between two hosts with exact
/// byte accounting.
#[test]
fn ndp_delivers_any_size() {
    let draw = |d: &mut Draw| (d.u64(1..3_000_000), d.u64(0..100));
    cases::check("ndp_delivers_any_size", 24, draw, |(size, seed)| {
        use netsim::fabric::{Fabric, LinkSpec, QueueConfig};
        use netsim::{FlowTracker, NetLogic, NetWorld, Packet};
        use simkit::engine::EventContext;
        use simkit::{SimTime, Simulator};
        use transport::{NdpHost, Transport, TransportTimer};

        struct Pair {
            hosts: Vec<NdpHost>,
            tracker: FlowTracker,
            size: u64,
            started: bool,
        }
        impl Pair {
            fn apply(
                &mut self,
                host: usize,
                actions: transport::Actions,
                ctx: &mut EventContext<'_, netsim::NetEvent>,
            ) {
                for (at, which) in actions.timers {
                    let token = match which {
                        TransportTimer::PullPacer => (host as u64) << 32,
                        TransportTimer::Rto(f) => 1 << 60 | (host as u64) << 32 | f as u64,
                    };
                    ctx.schedule_at(at, netsim::NetEvent::Timer { token });
                }
            }
        }
        impl NetLogic for Pair {
            fn on_arrive(
                &mut self,
                fabric: &mut Fabric,
                ctx: &mut EventContext<'_, netsim::NetEvent>,
                node: usize,
                _port: usize,
                packet: Packet,
            ) {
                let a = self.hosts[node].on_packet(fabric, ctx, &mut self.tracker, packet);
                self.apply(node, a, ctx);
            }
            fn on_timer(
                &mut self,
                fabric: &mut Fabric,
                ctx: &mut EventContext<'_, netsim::NetEvent>,
                token: u64,
            ) {
                if token == 0 {
                    if !self.started {
                        self.started = true;
                        let id = self.tracker.register(
                            0,
                            1,
                            self.size,
                            netsim::FlowClass::LowLatency,
                            ctx.now(),
                        );
                        let a = self.hosts[0].start_flow(fabric, ctx, id, 1, self.size);
                        self.apply(0, a, ctx);
                    }
                    return;
                }
                let host = (token >> 32 & 0xFFF_FFFF) as usize;
                let which = if token >> 60 == 1 {
                    TransportTimer::Rto((token & 0xFFFF_FFFF) as u32)
                } else {
                    TransportTimer::PullPacer
                };
                let a = self.hosts[host].on_timer(fabric, ctx, which);
                self.apply(host, a, ctx);
            }
        }

        let mut fabric = Fabric::new();
        let a = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        let b = fabric.add_node(1, QueueConfig::builder().build(), LinkSpec::paper_default());
        fabric.connect(a, 0, b, 0);
        let _ = seed;
        let logic = Pair {
            hosts: vec![NdpHost::new(a, 0), NdpHost::new(b, 0)],
            tracker: FlowTracker::new(),
            size,
            started: false,
        };
        let mut sim = Simulator::new(NetWorld::new(fabric, logic));
        sim.schedule_at(SimTime::ZERO, netsim::NetEvent::Timer { token: 0 });
        sim.run_until(SimTime::from_ms(50));
        assert!(sim.world.logic.tracker.all_done());
        assert!(sim.world.logic.tracker.get(0).received >= size);
    });
}

/// PFC switches are lossless by construction: a randomized incast
/// blasted through one switch with shallow pause thresholds loses no
/// packet to any queue — every offered payload byte reaches the sink
/// (byte conservation), with zero drops and zero trims.
#[test]
fn pfc_never_drops_under_incast() {
    let draw = |d: &mut Draw| {
        (
            d.usize(2..8),
            d.u64(1..32) as u32,
            d.u64(200..1400) as u32,
            d.u64(0..1000),
        )
    };
    cases::check(
        "pfc_never_drops_under_incast",
        24,
        draw,
        |(senders, per_sender, payload, seed)| {
            use netsim::fabric::{Fabric, LinkSpec, QueueConfig};
            use netsim::policy::Pfc;
            use netsim::{NetLogic, NetWorld, Packet};
            use simkit::engine::EventContext;
            use simkit::SimTime;

            struct Incast {
                senders: usize,
                per_sender: u32,
                payload: u32,
                switch: usize,
                sink: usize,
                received: u64,
            }
            impl NetLogic for Incast {
                fn on_arrive(
                    &mut self,
                    fabric: &mut Fabric,
                    ctx: &mut EventContext<'_, netsim::NetEvent>,
                    node: usize,
                    _port: usize,
                    packet: Packet,
                ) {
                    if node == self.switch {
                        // One downlink: the last port faces the sink.
                        fabric.send(ctx, self.switch, self.senders, packet);
                    } else {
                        assert_eq!(node, self.sink);
                        self.received += packet.payload() as u64;
                    }
                }
                fn on_timer(
                    &mut self,
                    fabric: &mut Fabric,
                    ctx: &mut EventContext<'_, netsim::NetEvent>,
                    token: u64,
                ) {
                    if token != 0 {
                        return;
                    }
                    for s in 0..self.senders {
                        for seq in 0..self.per_sender {
                            let size = netsim::HEADER_SIZE + self.payload;
                            let pkt = Packet::data(s as u32, s, self.sink, seq, size);
                            fabric.send(ctx, s, 0, pkt);
                        }
                    }
                }
            }

            // Shallow queues + shallow pause threshold: incast pressure far
            // exceeds what any single queue could absorb without pausing.
            let cfg = QueueConfig::builder()
                .caps([12_000, 12_000, 24_000])
                .policy(Pfc {
                    pause_bytes: 6_000,
                    resume_bytes: 3_000,
                })
                .build();
            let mut fabric = Fabric::new();
            for _ in 0..senders {
                fabric.add_node(1, cfg, LinkSpec::paper_default());
            }
            let switch = fabric.add_node(senders + 1, cfg, LinkSpec::paper_default());
            let sink = fabric.add_node(1, cfg, LinkSpec::paper_default());
            for s in 0..senders {
                fabric.connect(s, 0, switch, s);
            }
            fabric.connect(switch, senders, sink, 0);
            let _ = seed;
            let logic = Incast {
                senders,
                per_sender,
                payload,
                switch,
                sink,
                received: 0,
            };
            let mut sim = NetWorld::new(fabric, logic).into_sim();
            sim.run_until(SimTime::from_ms(100));

            let offered = senders as u64 * per_sender as u64 * payload as u64;
            assert_eq!(
                sim.world.logic.received, offered,
                "byte conservation violated"
            );
            let c = &sim.world.fabric.counters;
            assert_eq!(c.dropped, 0);
            assert_eq!(c.trimmed, 0);
            assert_eq!(c.dark_drops, 0);
        },
    );
}

// Harness properties: the experiment runner's determinism contract
// (ordered collection, thread-invariance, seed derivation) that every
// committed golden baseline rests on.
/// Sweep results are a pure function of (sweep, base seed): worker
/// count and completion order are invisible. Per-point sleeps derived
/// from the seed scramble which worker finishes first.
#[test]
fn runner_order_is_permutation_invariant() {
    let draw = |d: &mut Draw| (d.usize(1..40), d.usize(2..9), d.u64(0..1000));
    cases::check(
        "runner_order_is_permutation_invariant",
        16,
        draw,
        |(n, threads, seed)| {
            let sweep = expt::Sweep::from_points((0..n).collect::<Vec<_>>());
            let serial = expt::Runner::new(1, seed).run(&sweep, |&p, ctx| (p, ctx.seed));
            let jittered = expt::Runner::new(threads, seed).run(&sweep, |&p, ctx| {
                std::thread::sleep(std::time::Duration::from_micros(ctx.seed % 200));
                (p, ctx.seed)
            });
            assert_eq!(serial, jittered);
        },
    );
}

/// Replicate seeds are pairwise distinct across every (point, rep)
/// pair and identical for any worker count.
#[test]
fn replicate_seeds_distinct_and_thread_stable() {
    let draw = |d: &mut Draw| (d.usize(1..20), d.usize(1..6), d.u64(0..1000), d.usize(2..9));
    cases::check(
        "replicate_seeds_distinct_and_thread_stable",
        16,
        draw,
        |(n, reps, base, threads)| {
            let sweep = expt::Sweep::from_points((0..n).collect::<Vec<_>>());
            let one = expt::Runner::new(1, base).run_replicated(&sweep, reps, |_, rc| rc.seed);
            let many =
                expt::Runner::new(threads, base).run_replicated(&sweep, reps, |_, rc| rc.seed);
            assert_eq!(&one, &many);
            let flat: Vec<u64> = one.iter().flat_map(|(_, seeds)| seeds).copied().collect();
            let distinct: std::collections::HashSet<u64> = flat.iter().copied().collect();
            assert_eq!(distinct.len(), flat.len());
        },
    );
}

/// The JSON shard merge reproduces the unsharded rendering
/// byte-for-byte, CSV and JSON, for tables with a *variable number
/// of rows per point* (the shape the legacy CSV merge scrambles),
/// built the way every driver builds them — runner, replicates,
/// [`expt::RepTableBuilder::sweep_rows`] — through a full serialize
/// → parse → merge round trip, for any shard count.
#[test]
fn json_shard_merge_round_trips_multirow_tables() {
    let draw = |d: &mut Draw| (d.usize(0..24), d.usize(1..6), d.usize(1..4), d.u64(0..500));
    cases::check(
        "json_shard_merge_round_trips_multirow_tables",
        16,
        draw,
        |(n, shards, reps, seed)| {
            assert_eq!(shard_merge_mismatch(n, shards, reps, seed), None);
        },
    );
}

/// The same round trip at its edges: an empty sweep, shards that own no
/// point (five shards, two points), one shard, and — at every size —
/// point 0 yielding no rows.
#[test]
fn shard_merge_round_trips_empty_points_and_empty_shards() {
    for (n, shards, reps) in [(0, 3, 1), (2, 5, 3), (1, 2, 2), (7, 1, 1), (9, 4, 3)] {
        assert_eq!(shard_merge_mismatch(n, shards, reps, 11), None);
    }
}

/// Build one table over an `n`-point sweep unsharded and as each of
/// `shards` shards, merge the shards' parsed documents, and say where
/// the merge differs from the unsharded table (`None`: nowhere).
fn shard_merge_mismatch(n: usize, shards: usize, reps: usize, seed: u64) -> Option<String> {
    let sweep = expt::Sweep::from_points((0..n).collect::<Vec<_>>());
    let build = |shard: Option<(usize, usize)>| {
        let ctx = expt::Ctx::new(expt::ExptArgs {
            threads: 2,
            seed,
            replicates: reps,
            shard,
            ..Default::default()
        });
        let mut t = expt::RepTableBuilder::new(
            "points",
            &["i", "sub"],
            &[("draw", expt::f2 as expt::MetricFmt)],
        );
        // One constant row, computed identically in every shard.
        t.extend(ctx.repeat((
            vec![expt::Cell::from("const"), expt::Cell::from(seed)],
            vec![0.5],
        )));
        // 0..=3 rows per (point, replicate), by the seed: points with no
        // rows, points with several, and rows only some replicates see.
        let draws = ctx.run_replicated(&sweep, |&p, rc| {
            let mut rng = rc.rng();
            let k = if p == 0 { 0 } else { rng.next_u64() % 4 };
            (0..k)
                .map(|_| (rng.next_u64() % 1000) as f64)
                .collect::<Vec<_>>()
        });
        t.sweep_rows(&draws, |&p, reps| {
            reps.iter().flat_map(move |draws| {
                let row =
                    move |(sub, &v)| (vec![expt::Cell::from(p), expt::Cell::from(sub)], vec![v]);
                draws.iter().enumerate().map(row)
            })
        });
        let t = t.build();
        let meta = expt::RunMeta::new("prop", &ctx.args);
        (t.to_csv(), expt::output::table_json(&t, &meta))
    };
    let (csv, json) = build(None);
    let docs: Vec<expt::TableDoc> = (0..shards)
        .map(|i| expt::TableDoc::parse(&build(Some((i, shards))).1).unwrap())
        .collect();
    let merged = expt::merge_shard_docs(&docs).unwrap();
    if merged.to_csv() != csv {
        return Some(format!("CSV:\n{}\nwant:\n{csv}", merged.to_csv()));
    }
    (merged.render() != json).then(|| format!("JSON:\n{}\nwant:\n{json}", merged.render()))
}

/// World for the timing-wheel ordering property: logs every pop and,
/// when a spawn-tagged event fires, schedules the next follow-up —
/// exercising direct inserts into already-cascaded windows (the one
/// place a wheel can break FIFO order), appends to the very slot being
/// drained (a follow-up due `now`), and reuse of the node just popped.
struct PopLog {
    log: Vec<(u64, u32)>,
    followups: Vec<(u32, u64)>,
}

impl simkit::EventHandler for PopLog {
    type Event = u32;
    fn handle_event(&mut self, ev: u32, ctx: &mut simkit::EventContext<'_, u32>) {
        self.log.push((ctx.now().as_ns(), ev));
        if ev.is_multiple_of(4) {
            if let Some((id, delta)) = self.followups.pop() {
                ctx.schedule_in(simkit::SimTime::from_ns(delta), id);
            }
        }
    }
}

/// The oracle for [`PopLog`]: the old engine's semantics, literally a
/// `BinaryHeap` keyed by `(time, seq)`, one sequence number per schedule
/// call.
#[derive(Default)]
struct HeapModel {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
    seq: u64,
    followups: Vec<(u32, u64)>,
    log: Vec<(u64, u32)>,
    now: u64,
}

impl HeapModel {
    fn schedule(&mut self, t: u64, id: u32) {
        self.heap.push(std::cmp::Reverse((t, self.seq, id)));
        self.seq += 1;
    }

    fn pending(&self) -> usize {
        self.heap.len()
    }

    fn run_until(&mut self, until: u64) {
        while let Some(&std::cmp::Reverse((t, _, id))) = self.heap.peek() {
            if t > until {
                break;
            }
            self.heap.pop();
            self.log.push((t, id));
            if id.is_multiple_of(4) {
                if let Some((nid, delta)) = self.followups.pop() {
                    self.schedule(t + delta, nid);
                }
            }
        }
        self.now = self.now.max(until);
    }
}

/// The timing-wheel scheduler pops events in exactly the order the
/// old binary-heap engine did: ascending `(time, seq)`, FIFO for
/// equal timestamps. The schedule mixes near and far-future
/// timestamps (crossing every wheel level), timestamps clustered
/// within ± 4096 ns of window edges at every level, forced equal-time
/// ties, in-handler follow-ups (a third of them due `now`, all of
/// them recycling the node just popped) and `run_until` checkpoints
/// with scheduling in between (clock ahead of the wheel's cursor). The
/// oracle is [`HeapModel`] fed the same operation stream.
#[test]
fn timing_wheel_matches_heap_order() {
    let draw = |d: &mut Draw| (d.vec(1..48, |d| d.u64(0..(1u64 << 62))), d.u64(0..10_000));
    cases::check(
        "timing_wheel_matches_heap_order",
        256,
        draw,
        |(raw, seed)| {
            let mut rng = SimRng::new(seed);
            let mut times = raw.clone();
            for i in 0..times.len() {
                if i > 0 && rng.chance(0.3) {
                    // Force equal-time ties so FIFO tie-breaking is hit.
                    times[i] = times[rng.index(i)];
                } else if rng.chance(0.4) {
                    // Cluster around a window edge of a random level.
                    let grain = 1u64 << (12 + 6 * rng.index(9));
                    let edge = (times[i] / grain).max(1) * grain;
                    times[i] = (edge - 4096 + rng.below(8193)).min((1 << 62) - 1);
                }
            }
            let followups: Vec<(u32, u64)> = (0..4 * times.len())
                .map(|j| {
                    let delta = match rng.below(3) {
                        0 => 0,
                        1 => rng.below(8192),
                        _ => rng.next_u64() % (1 << 20),
                    };
                    (1000 + j as u32, delta)
                })
                .collect();
            let mut checkpoints: Vec<u64> = (0..rng.index(5))
                .map(|_| (times[rng.index(times.len())] + rng.below(3)).saturating_sub(1))
                .collect();
            checkpoints.sort_unstable();

            let mut model = HeapModel {
                followups: followups.clone(),
                ..Default::default()
            };
            let mut sim = simkit::Simulator::new(PopLog {
                log: Vec::new(),
                followups,
            });
            for (i, &t) in times.iter().enumerate() {
                model.schedule(t, i as u32);
                sim.schedule_at(simkit::SimTime::from_ns(t), i as u32);
            }
            let mut next_id = 5000;
            for until in checkpoints {
                model.run_until(until);
                sim.run_until(simkit::SimTime::from_ns(until));
                assert_eq!(sim.now().as_ns(), model.now);
                assert_eq!(sim.pending(), model.pending());
                // Between calls the clock may be ahead of the wheel's cursor.
                for _ in 0..rng.index(4) {
                    let at = model.now + [0, rng.below(8192), rng.below(1 << 30)][rng.index(3)];
                    model.schedule(at, next_id);
                    sim.schedule_at(simkit::SimTime::from_ns(at), next_id);
                    next_id += 1;
                }
            }
            model.run_until(u64::MAX);
            sim.run();

            assert_eq!(&sim.world.log, &model.log);
            assert_eq!(sim.pending(), 0);
            assert_eq!(sim.events_processed(), model.log.len() as u64);
        },
    );
}

/// The seed max-concurrent-flow implementation, kept verbatim as the
/// oracle for the rewritten `flowsim::McfSolver`: per-call allocations,
/// full-tree Dijkstra (no early exit), per-call edge-offset table. The
/// optimized exact path must reproduce its λ **bit for bit**.
mod reference_mcf {
    use flowsim::models::Demand;
    use topo::graph::Graph;

    fn dijkstra(
        g: &Graph,
        costs: &[f64],
        edge_offset: &[usize],
        src: usize,
    ) -> (Vec<f64>, Vec<(usize, usize)>) {
        let n = g.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![(usize::MAX, usize::MAX); n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src] = 0.0;
        heap.push((std::cmp::Reverse(0f64.to_bits()), src));
        while let Some((std::cmp::Reverse(dv), v)) = heap.pop() {
            if f64::from_bits(dv) > dist[v] {
                continue;
            }
            for (i, e) in g.edges(v).iter().enumerate() {
                let nd = dist[v] + costs[edge_offset[v] + i];
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    prev[e.to] = (v, i);
                    heap.push((std::cmp::Reverse(nd.to_bits()), e.to));
                }
            }
        }
        (dist, prev)
    }

    pub fn max_concurrent_flow(
        g: &Graph,
        tor_of_rack: &[usize],
        demands: &[Demand],
        link_rate: f64,
        host_cap: f64,
        phases: usize,
    ) -> f64 {
        let n = g.len();
        let mut edge_offset = vec![0usize; n];
        let mut total_edges = 0;
        for (v, off) in edge_offset.iter_mut().enumerate() {
            *off = total_edges;
            total_edges += g.degree(v);
        }
        if total_edges == 0 || demands.is_empty() {
            return 0.0;
        }

        const EPS: f64 = 0.07;
        let mut cost = vec![1.0 / link_rate; total_edges];
        let mut load = vec![0.0f64; total_edges];

        for _ in 0..phases {
            for d in demands {
                if d.amount <= 0.0 || d.src == d.dst {
                    continue;
                }
                let s = tor_of_rack[d.src];
                let t = tor_of_rack[d.dst];
                let (dist, prev) = dijkstra(g, &cost, &edge_offset, s);
                if !dist[t].is_finite() {
                    continue;
                }
                let mut v = t;
                while v != s {
                    let (pv, i) = prev[v];
                    let eid = edge_offset[pv] + i;
                    load[eid] += d.amount;
                    cost[eid] *= 1.0 + EPS * d.amount / link_rate;
                    v = pv;
                }
            }
        }

        let worst = load.iter().map(|&l| l / link_rate).fold(0.0f64, f64::max);
        let mut lambda = if worst > 0.0 {
            phases as f64 / worst
        } else {
            f64::INFINITY
        };
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
        lambda.min(1.0)
    }
}

/// A random MCF instance: multigraph (mixed full-duplex links and
/// one-way edges, possibly disconnected), a random rack→ToR mapping,
/// and a demand list from [`random_demands`].
fn random_mcf_instance(
    n: usize,
    links: usize,
    ndemands: usize,
    seed: u64,
) -> (topo::graph::Graph, Vec<usize>, Vec<flowsim::models::Demand>) {
    let mut rng = SimRng::new(seed);
    let mut g = topo::graph::Graph::new(n);
    for _ in 0..links {
        let a = rng.index(n);
        let b = rng.index(n);
        if a == b {
            continue;
        }
        if rng.chance(0.8) {
            g.add_link(a, b, rng.index(4));
        } else {
            g.add_edge(a, b, rng.index(4));
        }
    }
    let tor: Vec<usize> = (0..n)
        .map(|r| if rng.chance(0.85) { r } else { rng.index(n) })
        .collect();
    let demands = random_demands(&mut rng, n, ndemands);
    (g, tor, demands)
}

/// `ndemands` random demands over `n` racks, including self-demands
/// and zero amounts (both skipped by the solver's routing loop but
/// counted by its host-cap bound).
fn random_demands(rng: &mut SimRng, n: usize, ndemands: usize) -> Vec<flowsim::models::Demand> {
    (0..ndemands)
        .map(|_| {
            let src = rng.index(n);
            let dst = if rng.chance(0.1) { src } else { rng.index(n) };
            let amount = if rng.chance(0.1) {
                0.0
            } else {
                0.5 + 49.5 * rng.f64()
            };
            flowsim::models::Demand { src, dst, amount }
        })
        .collect()
}

/// Solve one instance with the reference and with `McfSolver` (one-shot
/// and twice on one reused instance, which must not leak state between
/// solves); `None` when every λ matches the reference bit for bit.
fn mcf_mismatch(
    g: &topo::graph::Graph,
    tor: &[usize],
    demands: &[flowsim::models::Demand],
    link_rate: f64,
    host_cap: f64,
    phases: usize,
) -> Option<String> {
    let want = reference_mcf::max_concurrent_flow(g, tor, demands, link_rate, host_cap, phases);
    let got = flowsim::max_concurrent_flow(g, tor, demands, link_rate, host_cap, phases).lambda;
    if got.to_bits() != want.to_bits() {
        return Some(format!("one-shot: got {got} want {want}"));
    }
    let mut solver = flowsim::McfSolver::new(g);
    for _ in 0..2 {
        let again = solver
            .solve(tor, demands, link_rate, host_cap, phases)
            .lambda;
        if again.to_bits() != want.to_bits() {
            return Some(format!("reused solver: got {again} want {want}"));
        }
    }
    None
}

/// [`mcf_mismatch`] on a [`random_mcf_instance`], with the link rate
/// and host capacity drawn from the seed.
fn random_mcf_mismatch(
    n: usize,
    links: usize,
    ndemands: usize,
    phases: usize,
    seed: u64,
) -> Option<String> {
    let (g, tor, demands) = random_mcf_instance(n, links, ndemands, seed);
    let link_rate = if seed.is_multiple_of(2) { 10.0 } else { 2.5 };
    let host_cap = 1.0 + (seed % 97) as f64;
    mcf_mismatch(&g, &tor, &demands, link_rate, host_cap, phases)
}

/// The rewritten `McfSolver` (fixed-width adjacency rows,
/// generation-stamped scratch, goal-directed search, paths walked
/// from final distances) produces λ **bit-identical** to the seed
/// implementation over random graphs and demand sets, and over a
/// random expander of the kind the cost sweeps solve (3–16 uplinks,
/// so every degree the figures use).
#[test]
fn mcf_matches_reference() {
    let draw = |d: &mut Draw| {
        (
            d.usize(2..28),
            d.usize(1..64),
            d.usize(1..16),
            d.usize(1..24),
            d.u64(0..10_000),
            d.usize(3..17),
        )
    };
    cases::check(
        "mcf_matches_reference",
        64,
        draw,
        |(n, links, ndemands, phases, seed, uplinks)| {
            assert_eq!(random_mcf_mismatch(n, links, ndemands, phases, seed), None);
            let mut rng = SimRng::new(seed);
            let racks = 2 * (uplinks + rng.index(8));
            let exp = topo::expander::ExpanderTopology::generate(
                topo::expander::ExpanderParams {
                    racks,
                    uplinks,
                    hosts_per_rack: 1,
                },
                seed,
            );
            let demands = random_demands(&mut rng, racks, ndemands);
            let tor: Vec<usize> = (0..racks).collect();
            let host_cap = 1.0 + (seed % 97) as f64;
            assert_eq!(
                mcf_mismatch(exp.graph(), &tor, &demands, 10.0, host_cap, phases),
                None
            );
        },
    );
}

/// Multiplicative weights can spread edge costs so far apart that a
/// path's distance absorbs an edge's cost (`d + c == d`); the reference
/// then records a predecessor at the same distance, which a walk over
/// strictly-closer predecessors cannot find. The smallest such instance
/// among the property test's draws.
#[test]
fn mcf_matches_reference_across_an_absorbed_cost() {
    assert_eq!(random_mcf_mismatch(25, 16, 14, 20, 3431), None);
}

/// Every bulk packet a source host emits, by `(flow, seq)`: one
/// repeated is a seq emitted twice.
#[derive(Debug, Default)]
struct BulkEmissions {
    hosts: usize,
    seen: std::collections::HashSet<(u32, u32)>,
    repeated: Vec<(u32, u32)>,
}

/// Records host-NIC enqueues of bulk packets into the shared
/// [`BulkEmissions`].
#[derive(Debug)]
struct EmissionSink(std::rc::Rc<std::cell::RefCell<BulkEmissions>>);

impl netsim::TraceSink for EmissionSink {
    fn record(&mut self, rec: &netsim::TraceRecord) {
        let mut e = self.0.borrow_mut();
        let Some(p) = rec.packet else { return };
        let emitted = rec.event == netsim::TraceEvent::Enqueue
            && rec.node < e.hosts
            && p.kind == netsim::trace::KindTag::Bulk;
        if emitted && !e.seen.insert((p.flow, p.seq)) {
            e.repeated.push((p.flow, p.seq));
        }
    }
}

/// fig08's quick Opera arm (every flow bulk, all starting at once)
/// with its flows injected in a random order: every flow completes, the
/// fabric drops nothing, and no flow's source emits one bulk `seq`
/// twice, however often RotorLB takes packets back. RotorLB
/// debug-asserts that a direct queue never holds two chunks of one
/// flow wherever it makes a chunk. (A shuffle this small rarely
/// overflows a ToR's host port; `opera_net`'s
/// `bulk_incast_is_lossless_at_the_last_hop` is the case that does.)
/// Each order runs twice: on `fast_sim` timing (`small_test`'s and the
/// benchmark's mini Opera's), and on the ε derived for quick Opera
/// (126 µs, r = 14 µs), whose long slices let a ToR's feeders fill an
/// uplink's bulk queue, so a ToR must not offer bulk to a port that
/// would refuse it.
#[test]
fn quick_shuffle_completes_in_any_injection_order() {
    let draw = |d: &mut Draw| d.u64(0..u64::MAX);
    cases::check(
        "quick_shuffle_completes_in_any_injection_order",
        16,
        draw,
        |seed| {
            let mut cfg = bench::opera_cfg(expt::Scale::Quick);
            cfg.bulk_threshold = 0;
            cfg.timing = opera::SliceTiming::fast_sim();
            shuffle_completes(cfg, seed);
            cfg.timing = opera::SliceTiming {
                epsilon: SimTime::from_us(126),
                reconfig: SimTime::from_us(14),
            };
            shuffle_completes(cfg, seed);
        },
    );
}

/// The all-bulk shuffle on `cfg` with its flows in the order `seed`
/// draws, checked as [`quick_shuffle_completes_in_any_injection_order`]
/// says.
fn shuffle_completes(cfg: opera::OperaNetConfig, seed: u64) {
    let mut flows = workloads::gen::ScenarioGen::shuffle(cfg.hosts(), 30_000, SimTime::ZERO);
    let mut rng = SimRng::new(seed);
    for i in (1..flows.len()).rev() {
        flows.swap(i, rng.index(i + 1));
    }
    let offered = flows.len();
    let emissions = std::rc::Rc::new(std::cell::RefCell::new(BulkEmissions {
        hosts: cfg.hosts(),
        ..BulkEmissions::default()
    }));
    let epsilon = cfg.timing.epsilon;
    let mut sim = opera::opera_net::build(cfg, flows);
    let sink = EmissionSink(std::rc::Rc::clone(&emissions));
    sim.world.fabric.set_trace(Box::new(sink));
    use opera::PacketNet;
    let drained = opera::opera_net::OperaLogic::run(&mut sim, SimTime::from_ms(60));
    let t = sim.world.logic.tracker();
    let run = format!("seed {seed}, epsilon {epsilon}");
    assert!(drained, "{run}: {} of {offered} flows", t.completed());
    assert_eq!(t.completed(), offered, "{run}");
    assert_eq!(sim.world.fabric.counters.dropped, 0, "{run}");
    let e = emissions.borrow();
    assert!(
        e.seen.len() > offered,
        "{run}: only {} bulk emissions",
        e.seen.len()
    );
    let twice = &e.repeated[..e.repeated.len().min(8)];
    assert!(
        e.repeated.is_empty(),
        "{run}: seqs emitted twice: {twice:?}"
    );
}
