//! The five packet workloads: configurations written out literally, one
//! repetition (set up → run → check → summarise) and its correctness checks.

use crate::alloc;
use crate::discard::{self, Tally};
use crate::host;
use crate::reference::{Meter, Timed};
use crate::spans::{SpanTree, Spanned};
use crate::surface::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Which network model a workload runs on.
#[derive(Clone)]
pub enum Net {
    Opera(OperaNetConfig),
    Expander(StaticNetConfig),
}

/// How a workload's flows are generated from the seed.
#[derive(Clone, Copy)]
pub enum Traffic {
    /// Websearch sizes, Poisson arrivals at `load` for `arrivals`.
    Websearch { load: f64, arrivals: SimTime },
    /// All-to-all shuffle of `size` bytes at time zero; the seed permutes
    /// the injection order.
    Shuffle { size: u64 },
}

/// One packet workload.
#[derive(Clone)]
pub struct PacketWorkload {
    pub net: Net,
    pub traffic: Traffic,
    /// The run goes at least this far in simulated time.
    pub horizon: SimTime,
    /// Attach `MultiSink` of `JsonlSink` + `PcapngSink` into discard writers.
    pub sinks: bool,
}

/// Past the horizon a run continues in these steps until every flow is
/// complete, so that no seed leaves a flow (an operation) unfinished.
const EXTEND_STEP: SimTime = SimTime::from_ms(10);
/// Give up (and count the unfinished flows as failed) this far out.
const EXTEND_CAP: SimTime = SimTime::from_secs(2);
/// The timed region runs in slices of about this much host time, each
/// between two reference bursts (see `reference.rs`).
const SLICE_S: f64 = 0.020;

/// 48 racks × 4 hosts, u = 4, 10 µs slices.
fn mini_opera(bulk_threshold: u64) -> OperaNetConfig {
    OperaNetConfig {
        params: OperaParams {
            racks: 48,
            uplinks: 4,
            hosts_per_rack: 4,
            groups: 1,
        },
        timing: SliceTiming::fast_sim(),
        bulk_threshold,
        ..OperaNetConfig::small_test()
    }
}

/// 64 racks × 3 hosts, u = 5, ECN marking switches and DCTCP hosts.
fn mini_expander_dctcp() -> StaticNetConfig {
    StaticNetConfig {
        kind: StaticTopologyKind::Expander(ExpanderParams {
            racks: 64,
            uplinks: 5,
            hosts_per_rack: 3,
        }),
        queues: QueueConfig::builder()
            .policy(EcnMark::paper_default())
            .build(),
        transport: TransportKind::Dctcp(DctcpParams::paper_default()),
        ..StaticNetConfig::small_expander()
    }
}

/// The packet workload called `name`.
pub fn workload(name: &str) -> Option<PacketWorkload> {
    let websearch = |load, ms| Traffic::Websearch {
        load,
        arrivals: SimTime::from_ms(ms),
    };
    let w = |net, traffic, horizon_ms, sinks| PacketWorkload {
        net,
        traffic,
        horizon: SimTime::from_ms(horizon_ms),
        sinks,
    };
    // A threshold above the largest Websearch flow: everything is low-latency.
    let all_low_latency = Net::Opera(mini_opera(20_000_000));
    Some(match name {
        "opera_websearch" => w(all_low_latency, websearch(0.10, 40), 100, false),
        "opera_shuffle" => w(
            Net::Opera(mini_opera(0)),
            Traffic::Shuffle { size: 100_000 },
            100,
            false,
        ),
        "expander_dctcp" => w(
            Net::Expander(mini_expander_dctcp()),
            websearch(0.25, 40),
            100,
            false,
        ),
        "paper648_websearch" => w(
            Net::Opera(OperaNetConfig::paper_648()),
            websearch(0.25, 6),
            40,
            false,
        ),
        "traced_websearch" => w(all_low_latency, websearch(0.10, 4), 30, true),
        _ => return None,
    })
}

impl PacketWorkload {
    /// The same workload on 8 to 12 racks for 2 ms, for the self-tests.
    #[cfg(test)]
    pub fn tiny(mut self) -> Self {
        // Opera's uplink count must divide its rack count, and an expander
        // needs more racks than uplinks.
        match &mut self.net {
            Net::Opera(c) => c.params.racks = 2 * c.params.uplinks,
            Net::Expander(c) => {
                if let StaticTopologyKind::Expander(p) = &mut c.kind {
                    p.racks = 2 * p.uplinks;
                }
            }
        }
        if let Traffic::Websearch { arrivals, .. } = &mut self.traffic {
            *arrivals = SimTime::from_ms(2);
        }
        self.horizon = SimTime::from_ms(2);
        self
    }

    fn hosts(&self) -> usize {
        match &self.net {
            Net::Opera(c) => c.hosts(),
            Net::Expander(c) => match &c.kind {
                StaticTopologyKind::Expander(p) => p.hosts(),
                StaticTopologyKind::FoldedClos(p) => p.hosts(),
            },
        }
    }

    pub fn link(&self) -> LinkSpec {
        match &self.net {
            Net::Opera(c) => c.link,
            Net::Expander(c) => c.link,
        }
    }

    /// Queue configuration of every port (the ladder reuses it).
    pub fn queues(&self) -> QueueConfig {
        match &self.net {
            Net::Opera(c) => c.queues,
            Net::Expander(c) => c.queues,
        }
    }

    /// Low-latency transport of every host (the ladder reuses it).
    pub fn transport(&self) -> TransportKind {
        match &self.net {
            Net::Opera(c) => c.transport,
            Net::Expander(c) => c.transport,
        }
    }

    /// The flows of this workload for `seed`.
    pub fn flows(&self, seed: u64) -> Vec<FlowSpec> {
        match self.traffic {
            Traffic::Websearch { load, arrivals } => PoissonGen::new(
                FlowSizeDist::of(Workload::Websearch),
                self.hosts(),
                self.link().gbps,
                load,
                seed,
            )
            .flows_until(arrivals),
            Traffic::Shuffle { size } => {
                let mut flows = ScenarioGen::shuffle(self.hosts(), size, SimTime::ZERO);
                let hosts = self.hosts();
                flows.rotate_left((seed as usize % hosts) * (hosts - 1));
                flows
            }
        }
    }
}

/// What the benchmark needs from a network model beyond [`NetLogic`].
pub trait Model: NetLogic + Sized {
    type Cfg;
    fn build(cfg: &Self::Cfg, flows: Vec<FlowSpec>) -> Simulator<NetWorld<Self>>;
    fn tracker(&self) -> &FlowTracker;
    /// The logic's own `opera.*` counters, by metric name.
    fn logic_counts(&self) -> Vec<(&'static str, u64)>;
    /// Time the topology generator and the table builders standalone, with
    /// the workload's parameters (`build` does not expose them).
    fn time_parts(cfg: &Self::Cfg, tree: &mut SpanTree);
}

impl Model for opera_net::OperaLogic {
    type Cfg = OperaNetConfig;

    fn build(cfg: &OperaNetConfig, flows: Vec<FlowSpec>) -> Simulator<NetWorld<Self>> {
        opera_net::build(*cfg, flows)
    }

    fn tracker(&self) -> &FlowTracker {
        self.tracker()
    }

    fn logic_counts(&self) -> Vec<(&'static str, u64)> {
        let c = &self.counters;
        vec![
            ("opera.bulk_requeued", c.bulk_requeued),
            ("opera.relay_overflow", c.relay_overflow),
            ("opera.bulk_stragglers", c.bulk_stragglers),
            ("opera.nic_backpressure", c.nic_backpressure),
            ("opera.hop_limit_drops", c.hop_limit_drops),
        ]
    }

    fn time_parts(cfg: &OperaNetConfig, tree: &mut SpanTree) {
        let topo = tree.time("setup", "topo.generate", || {
            OperaTopology::generate_validated(cfg.params, cfg.seed, 64).0
        });
        tree.time("setup", "opera.tables_build", || {
            (LowLatencyTables::build(&topo), BulkTables::build(&topo))
        });
    }
}

impl Model for static_net::StaticLogic {
    type Cfg = StaticNetConfig;

    fn build(cfg: &StaticNetConfig, flows: Vec<FlowSpec>) -> Simulator<NetWorld<Self>> {
        static_net::build(cfg.clone(), flows)
    }

    fn tracker(&self) -> &FlowTracker {
        self.tracker()
    }

    /// A static network has no rotor counters; its no-route drops are the
    /// analogue of Opera's hop-limit drops.
    fn logic_counts(&self) -> Vec<(&'static str, u64)> {
        vec![("opera.hop_limit_drops", self.routing_drops)]
    }

    /// The routing tables are built inside `static_net::build` and cannot be
    /// timed apart, so they stay in `opera.net_build_rest_s`.
    fn time_parts(cfg: &StaticNetConfig, tree: &mut SpanTree) {
        if let StaticTopologyKind::Expander(p) = cfg.kind {
            tree.time("setup", "topo.generate", || {
                ExpanderTopology::generate(p, cfg.seed)
            });
        }
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Everything before the timed region.
    pub setup: Timed,
    /// The timed region, and CPU seconds (user + system) spent in it; wall
    /// less CPU is time descheduled.
    pub run: Timed,
    pub cpu_s: f64,
    /// Flows offered and flows not complete when the run ended.
    pub flows: u64,
    pub unfinished: u64,
    /// Named values that must repeat exactly: counts and simulated results.
    pub exact: Vec<(&'static str, f64)>,
    /// Allocations during set-up; allocations and bytes during the run.
    pub alloc_count_setup: u64,
    pub alloc_count_run: u64,
    pub alloc_bytes_run: u64,
    /// Why the outputs are wrong, if they are.
    pub error: Option<String>,
    /// The span tree, when the rep was traced.
    pub spans: Option<SpanTree>,
}

impl Rep {
    pub fn exact(&self, name: &str) -> f64 {
        self.exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// How one repetition is instrumented.
#[derive(Clone, Copy, PartialEq)]
pub struct RepMode {
    /// Wrap the logic in [`Spanned`] and record the span tree.
    pub spans: bool,
    /// Attach the workload's trace sinks (off measures the same inputs
    /// untraced, for `netsim.trace_cost_x`).
    pub sinks: bool,
}

impl RepMode {
    /// The workload as a user runs it.
    pub const PLAIN: RepMode = RepMode {
        spans: false,
        sinks: true,
    };
    /// The same through the span wrappers.
    pub const SPANNED: RepMode = RepMode {
        spans: true,
        sinks: true,
    };
    /// The same inputs with no trace sink attached.
    pub const SINKLESS: RepMode = RepMode {
        spans: false,
        sinks: false,
    };
}

/// What a workload offers the network.
#[derive(Clone, Copy)]
struct Offered {
    flows: u64,
    bytes: u64,
}

/// A built simulation that has not run yet, and what building it cost.
struct Ready<M: Model> {
    sim: Simulator<NetWorld<M>>,
    offered: Offered,
    tally: Rc<RefCell<Tally>>,
    tree: SpanTree,
    setup: Timed,
    alloc_count_setup: u64,
}

impl PacketWorkload {
    /// One repetition for `seed`.
    pub fn rep(&self, seed: u64, mode: RepMode, meter: &mut Meter) -> Rep {
        match &self.net {
            Net::Opera(cfg) => {
                let ready = self.setup::<opera_net::OperaLogic>(cfg, seed, mode, meter);
                self.run(ready, mode, meter)
            }
            Net::Expander(cfg) => {
                let ready = self.setup::<static_net::StaticLogic>(cfg, seed, mode, meter);
                self.run(ready, mode, meter)
            }
        }
    }

    /// Set up as a repetition does, run nothing: one more `setup_s` sample.
    pub fn setup_only(&self, seed: u64, meter: &mut Meter) -> Timed {
        let mode = RepMode::PLAIN;
        match &self.net {
            Net::Opera(cfg) => {
                self.setup::<opera_net::OperaLogic>(cfg, seed, mode, meter)
                    .setup
            }
            Net::Expander(cfg) => {
                self.setup::<static_net::StaticLogic>(cfg, seed, mode, meter)
                    .setup
            }
        }
    }

    /// Everything before the timed region: flow generation, network build,
    /// sink construction.
    fn setup<M: Model>(
        &self,
        cfg: &M::Cfg,
        seed: u64,
        mode: RepMode,
        meter: &mut Meter,
    ) -> Ready<M> {
        let mut tree = SpanTree::default();
        let allocs_before = alloc::snapshot();
        let ((sim, offered, tally), setup) = meter.time(|| {
            let flows = tree.time("setup", "workloads.gen", || self.flows(seed));
            let offered = Offered {
                flows: flows.len() as u64,
                bytes: flows.iter().map(|f| f.size).sum(),
            };
            if mode.spans {
                M::time_parts(cfg, &mut tree);
            }
            let mut sim = tree.time("setup", "opera.net_build", || M::build(cfg, flows));
            let tally = Rc::new(RefCell::new(Tally::default()));
            if self.sinks && mode.sinks {
                sim.world.fabric.set_trace(discard::sinks(&tally));
            }
            (sim, offered, tally)
        });
        tree.record("", "setup", Duration::from_secs_f64(setup.wall_s));
        Ready {
            sim,
            offered,
            tally,
            tree,
            setup,
            alloc_count_setup: alloc::snapshot().0 - allocs_before.0,
        }
    }

    fn run<M: Model>(&self, ready: Ready<M>, mode: RepMode, meter: &mut Meter) -> Rep {
        let Ready {
            mut sim,
            offered,
            tally,
            mut tree,
            setup,
            alloc_count_setup,
        } = ready;
        let mut rep = if mode.spans {
            // Re-wrapping the world drops the event queue, so the bootstrap
            // timer `into_sim` schedules must be all that was pending.
            assert_eq!(sim.pending(), 1, "build left more than the bootstrap timer");
            let world = sim.world;
            let mut sim = NetWorld::new(world.fabric, Spanned::new(world.logic)).into_sim();
            let rep = self.timed_run(&mut sim, |l| &l.inner, offered, &tally, &mut tree, meter);
            tree.merge("run", "opera.on_arrive", sim.world.logic.on_arrive);
            tree.merge("run", "opera.on_timer", sim.world.logic.on_timer);
            rep
        } else {
            self.timed_run(&mut sim, |l| l, offered, &tally, &mut tree, meter)
        };
        rep.setup = setup;
        rep.alloc_count_setup = alloc_count_setup;
        rep.spans = mode.spans.then_some(tree);
        rep
    }

    /// The timed region (to the horizon, then on until every flow is done)
    /// and the summary after it. The region runs in slices of simulated time
    /// sized to take about [`SLICE_S`] each, and only the slices are timed:
    /// where `run_until` stops on the way changes no event.
    fn timed_run<L: NetLogic, M: Model>(
        &self,
        sim: &mut Simulator<NetWorld<L>>,
        model: impl Fn(&L) -> &M,
        offered: Offered,
        tally: &Rc<RefCell<Tally>>,
        tree: &mut SpanTree,
        meter: &mut Meter,
    ) -> Rep {
        let cpu_before = host::cpu_s();
        let bursts_before = meter.burst_s;
        let allocs_before = alloc::snapshot();
        let mut run = Timed::default();
        let mut step_ns = (self.horizon.as_ns() / 128).max(1);
        let mut target = self.horizon;
        loop {
            while sim.now() < target {
                let until = (sim.now() + SimTime::from_ns(step_ns)).min(target);
                let ((), slice) = meter.time(|| sim.run_until(until));
                run += slice;
                if slice.wall_s < SLICE_S / 2.0 {
                    step_ns = (step_ns * 2).min(self.horizon.as_ns().max(1));
                } else if slice.wall_s > SLICE_S * 2.0 {
                    step_ns = (step_ns / 2).max(1);
                }
            }
            if model(&sim.world.logic).tracker().all_done() || sim.now() >= EXTEND_CAP {
                break;
            }
            target = sim.now() + EXTEND_STEP;
        }
        let allocs = alloc::snapshot();
        tree.record("", "run", Duration::from_secs_f64(run.wall_s));
        let cpu_s = host::cpu_s() - cpu_before - (meter.burst_s - bursts_before);
        let mut rep = self.summarise(sim, model, offered, tally, tree);
        rep.run = run;
        rep.cpu_s = cpu_s.max(0.0);
        rep.alloc_count_run = allocs.0 - allocs_before.0;
        rep.alloc_bytes_run = allocs.1 - allocs_before.1;
        rep
    }

    /// After the run: flush sinks, summarise, read the counters, check.
    fn summarise<L: NetLogic, M: Model>(
        &self,
        sim: &mut Simulator<NetWorld<L>>,
        model: impl Fn(&L) -> &M,
        offered: Offered,
        tally: &Rc<RefCell<Tally>>,
        tree: &mut SpanTree,
    ) -> Rep {
        let t_post = Instant::now();
        let mut error = None;
        if let Some(mut sink) = sim.world.fabric.take_trace() {
            error = sink.finish().err();
        }
        let tracker = model(&sim.world.logic).tracker();
        let result = tree.time("post", "opera.stats", || {
            ExperimentResult::from_tracker(tracker, sim.now())
        });
        tree.record("", "post", t_post.elapsed());

        let mut fcts = tracker.fcts_us(0, u64::MAX);
        fcts.sort_by(f64::total_cmp);
        let pct = |q: f64| match fcts.len() {
            0 => 0.0,
            n => fcts[((n as f64 * q).ceil() as usize).clamp(1, n) - 1],
        };
        let c: FabricCounters = sim.world.fabric.counters;
        let logic = model(&sim.world.logic).logic_counts();
        let tally = tally.borrow();
        let mut exact = vec![
            ("simkit.events", sim.events_processed() as f64),
            ("simkit.peak_pending", sim.peak_pending() as f64),
            ("workloads.flows", offered.flows as f64),
            ("workloads.bytes_offered", offered.bytes as f64),
            ("netsim.queued", c.queued as f64),
            ("netsim.pkt_hops", c.delivered as f64),
            ("netsim.trimmed", c.trimmed as f64),
            ("netsim.dropped", c.dropped as f64),
            ("netsim.dark_drops", c.dark_drops as f64),
            ("netsim.failed_drops", c.failed_drops as f64),
            ("netsim.ecn_marked", c.ecn_marked as f64),
            ("netsim.pause_frames", c.pause_frames as f64),
            (
                "netsim.arena_peak_live",
                sim.world.fabric.arena_peak_live() as f64,
            ),
            ("netsim.flows_completed", tracker.completed() as f64),
            ("netsim.bytes_delivered", result.delivered_bytes as f64),
            ("netsim.trace_records", tally.jsonl_lines as f64),
            ("netsim.trace_jsonl_bytes", tally.jsonl_bytes as f64),
            ("netsim.trace_pcapng_bytes", tally.pcapng_bytes as f64),
            ("sim.fct_p50_us", pct(0.50)),
            ("sim.fct_p99_us", pct(0.99)),
            ("sim.goodput_gbps", result.goodput_gbps),
            ("sim.end_ms", sim.now().as_ms_f64()),
        ];
        exact.extend(logic.into_iter().map(|(name, n)| (name, n as f64)));

        // Correctness of this rep's outputs.
        let mut check = |ok: bool, what: &str| {
            if !ok && error.is_none() {
                error = Some(what.to_string());
            }
        };
        check(
            tracker
                .flows()
                .iter()
                .all(|f| f.finish.is_none() || f.received == f.size),
            "a completed flow received other than its size",
        );
        check(
            result.delivered_bytes <= offered.bytes,
            "more bytes delivered than offered",
        );
        // The slack is packets in flight when the run ended.
        check(
            c.delivered + c.dark_drops + c.failed_drops <= c.queued + c.trimmed,
            "more packet-hops left the fabric than entered it",
        );
        check(
            tally.tx_per_link == tally.epb_per_link,
            "per-link pcapng packet counts differ from JSON-lines tx counts",
        );
        check(tally.error.is_none(), "trace output is malformed");

        Rep {
            flows: offered.flows,
            unfinished: offered.flows - tracker.completed() as u64,
            exact,
            error,
            ..Rep::default()
        }
    }
}
