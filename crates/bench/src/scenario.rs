//! Declarative scenario files — experiments as data, not code — decoded
//! once, into simulator types, and run, with optional trace capture and
//! trace reconciliation.
//!
//! A scenario file describes one simulation setup — topology, workload,
//! switch policy, transport, run length and trace outputs — as a JSON
//! document, read by the harness's one strict decoder,
//! [`expt::json::Fields`]: an unknown object or key is a named error, so a
//! typo'd `policiy` cannot silently select a default. Each name is looked
//! up where it is read, in its vocabulary ([`topologies`], [`workloads()`],
//! [`policies`], [`transports`]: one table each, which
//! `ablate_transport` and the drain differential read too), so an unknown
//! name is an error of the same shape that lists the known ones. The axis
//! fields (`switch.policy`, `transport.kind`, `workload.senders`) take a
//! scalar *or* an array, and the decoder expands their cartesian product
//! into the scenario's [`ScenarioPoint`]s, exactly like the figure drivers.
//!
//! The schema, with every field, is in `scenarios/README.md`.
//!
//! [`run_scenario`] runs every point and writes a metrics CSV. When the
//! scenario requests traces, the fabric gets a [`netsim::MultiSink`]
//! fanning out to a JSON-lines sink and a pcapng sink, and after the run
//! the two outputs are reconciled: the pcapng is re-read with the
//! validating reader and its per-link packet counts must equal the
//! JSON-lines `tx` record counts, link for link.

use crate::RunRecord;
use expt::json::{Fields, Json, OneOrMany};
use expt::output::write_atomic;
use expt::{f2, Cell, Table};
use netsim::fabric::QueueConfig;
use netsim::policy::{DropTail, EcnMark, NdpTrim, Pfc};
use netsim::trace::{JsonlSink, MultiSink, TraceEvent, TraceSink};
use netsim::{FlowTracker, PcapngSink, SwitchPolicyKind};
use opera::opera_net::OperaLogic;
use opera::static_net::{StaticLogic, StaticNetConfig, StaticTopologyKind};
use opera::{OperaNetConfig, PacketNet};
use simkit::{SimRng, SimTime, NS_PER_MS};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use topo::clos::ClosParams;
use transport::{DctcpParams, TransportKind};
use workloads::FlowSpec;

/// Most concurrent senders a `workload.senders` value may ask for: about
/// twenty flows per host of the paper's largest network (5 184 hosts),
/// and a flow list of a few megabytes. Every sender is one flow allocated
/// before the run starts, so the count must be bounded where it is read.
pub const MAX_SENDERS: usize = 100_000;

/// Most points a scenario's sweep may expand to: every policy and
/// transport pair (12) over more than 800 sender counts. The axes are
/// arrays whose lengths only the file bounds, and their product is the
/// length of the point list allocated before the first run, so the
/// product is bounded where it is read.
pub const MAX_POINTS: usize = 10_000;

/// Largest `topology.racks` a scenario may ask for: the paper's largest
/// network (k = 24: 432 racks, 5 184 hosts). A rotor network's per-slice
/// routing tables grow with racks³ (about 80 MB there on the 4-uplink
/// `opera` topology, one byte a low-latency entry), so this count too
/// is bounded where it is read, before anything is allocated for it. At
/// the bound, a 1 ms `opera run-scenario` on the `opera` topology takes
/// ≈ 0.35 s on a 2-core Xeon host, most of it building those tables a
/// slice per core at a time.
pub const MAX_RACKS: usize = 432;

/// Largest per-flow payload a scenario may ask for, in bytes
/// (`workload.flow_kb` is bounded at a thousandth of it): ten times the
/// largest flow of the paper's workloads (Figure 1's 1 GB). A low-latency
/// flow keeps two segment bitmaps, the sender's and the receiver's, each
/// `segments / 8` bytes and allocated when it starts (870 kB at the bound,
/// in 1 436-byte segments), and its segment count is a `u32`: a flow of
/// 6.2 TB would wrap it and run short without a word. So the size is
/// bounded where it is read.
pub const MAX_FLOW_BYTES: u64 = 10_000_000_000;

/// A vocabulary entry: a name a scenario may use, and what it stands for.
pub type Named<T> = (&'static str, T);

/// What a `topology.kind` stands for.
#[derive(Debug, Clone)]
pub enum Topology {
    /// A rotor network, which `topology.racks` may resize.
    Rotor(OperaNetConfig),
    /// A static network of fixed size.
    Static(StaticNetConfig),
}

/// The `topology.kind` vocabulary, in registry order.
pub fn topologies() -> [Named<Topology>; 6] {
    use Topology::{Rotor, Static};
    let clos = StaticNetConfig {
        kind: StaticTopologyKind::FoldedClos(ClosParams {
            radix: 4,
            oversubscription: 1,
        }),
        ..StaticNetConfig::small_expander()
    };
    [
        ("opera", Rotor(OperaNetConfig::small_test())),
        ("opera_paper", Rotor(OperaNetConfig::paper_648())),
        ("expander", Static(StaticNetConfig::small_expander())),
        (
            "expander_paper",
            Static(StaticNetConfig::paper_expander_650()),
        ),
        ("clos", Static(clos)),
        ("clos_paper", Static(StaticNetConfig::paper_clos_648())),
    ]
}

/// What a `workload.kind` stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `senders` flows onto host 0 from the upper three quarters of hosts
    /// (never the target's rack, on any topology).
    Incast,
    /// The incast, plus one moderate flow into the target's edge switch,
    /// started strictly first so that after the sorted injection it is
    /// always flow id 0.
    Victim,
}

/// The `workload.kind` vocabulary.
pub fn workloads() -> [Named<Workload>; 2] {
    [("incast", Workload::Incast), ("victim", Workload::Victim)]
}

/// The `switch.policy` vocabulary.
pub fn policies() -> [Named<SwitchPolicyKind>; 4] {
    [
        ("droptail", DropTail.into()),
        ("ndp_trim", NdpTrim.into()),
        ("pfc", Pfc::paper_default().into()),
        ("ecn", EcnMark::paper_default().into()),
    ]
}

/// The `transport.kind` vocabulary.
pub fn transports() -> [Named<TransportKind>; 3] {
    use TransportKind::{Dctcp, GoBackN, Ndp};
    [
        ("ndp", Ndp),
        ("dctcp", Dctcp(DctcpParams::paper_default())),
        ("gbn", GoBackN),
    ]
}

/// The entry of `vocab` called `name`, or the error about field `key` of
/// `fields` that names it and lists the known names.
fn resolve<T, const N: usize>(
    fields: &Fields<'_>,
    key: &str,
    (what, plural): (&str, &str),
    vocab: [Named<T>; N],
    name: &str,
) -> Result<Named<T>, String> {
    let known = vocab.each_ref().map(|e| e.0);
    vocab.into_iter().find(|e| e.0 == name).ok_or_else(|| {
        fields.bad(
            key,
            format!("unknown {what} {name:?}; known {plural}: {known:?}"),
        )
    })
}

/// Field `key` of `fields`, an axis of names, each resolved in `vocab`.
fn axis<T, const N: usize>(
    fields: &mut Fields<'_>,
    key: &'static str,
    kind: (&str, &str),
    vocab: fn() -> [Named<T>; N],
) -> Result<Vec<Named<T>>, String> {
    let names = fields.req::<OneOrMany<String>>(key)?.0;
    names
        .iter()
        .map(|name| resolve(fields, key, kind, vocab(), name))
        .collect()
}

/// Field `key`, which may be absent, and when present must be a plain
/// file name: not empty, `.` or `..`, and without `/` or `\`. A scenario
/// names files in the run's output directory, never beside or above it.
fn file_name(fields: &mut Fields<'_>, key: &'static str) -> Result<Option<String>, String> {
    let Some(value) = fields.opt::<String>(key)? else {
        return Ok(None);
    };
    if matches!(value.as_str(), "" | "." | "..") || value.contains(['/', '\\']) {
        return Err(fields.bad(key, format!("{value:?} is not a plain file name")));
    }
    Ok(Some(value))
}

/// Trace output options of a scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSpec {
    /// JSON-lines event trace file name, in the run's output dir.
    pub jsonl: Option<String>,
    /// pcapng capture file name, in the run's output dir.
    pub pcapng: Option<String>,
}

impl TraceSpec {
    /// True when any trace output is requested.
    pub fn enabled(&self) -> bool {
        self.jsonl.is_some() || self.pcapng.is_some()
    }
}

/// A decoded scenario file: every name resolved, every bound checked.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (defaults to the file stem).
    pub name: String,
    /// The cartesian product of the axes, policy-major and senders
    /// fastest (the figure drivers' order).
    pub points: Vec<ScenarioPoint>,
    /// Base RNG seed.
    pub seed: u64,
    /// Trace outputs.
    pub trace: TraceSpec,
}

/// The document kind every scenario error starts with.
const DOC: &str = "scenario";

/// One packet run: a point of a scenario's sweep, or of
/// `ablate_transport`'s matrix.
#[derive(Debug, Clone)]
pub struct ScenarioPoint {
    /// The network, resized by `topology.racks` when the file has one.
    pub topology: Named<Topology>,
    /// Switch policy.
    pub policy: Named<SwitchPolicyKind>,
    /// Transport.
    pub transport: Named<TransportKind>,
    /// Workload kind.
    pub workload: Named<Workload>,
    /// Concurrent senders.
    pub senders: usize,
    /// Per-flow payload bytes, at most [`MAX_FLOW_BYTES`].
    pub flow_bytes: u64,
    /// Simulated run length: `run.duration_ms`, checked to fit the
    /// nanosecond clock.
    pub duration: SimTime,
}

impl Scenario {
    /// Load a scenario from `path`, a `.json` file.
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let named = |e: String| format!("{}: {e}", path.display());
        let extension = path.extension().and_then(|e| e.to_str());
        if extension != Some("json") {
            return Err(named(format!(
                "{DOC}: unsupported extension {extension:?} (want .json)"
            )));
        }
        let text = std::fs::read_to_string(path).map_err(|e| named(e.to_string()))?;
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "scenario".into());
        let doc = Json::parse(&text).map_err(|e| named(format!("{DOC}: {e}")))?;
        Scenario::from_doc(&doc, &stem).map_err(named)
    }

    /// Decode a scenario from a parsed document tree. `default_name` is
    /// used when the file has no `name` key.
    pub fn from_doc(doc: &Json, default_name: &str) -> Result<Scenario, String> {
        let mut top = Fields::new(DOC, doc)?;
        let mut topo = top.req_obj("topology")?;
        let mut wl = top.req_obj("workload")?;
        let mut sw = top.req_obj("switch")?;
        let mut tr = top.req_obj("transport")?;
        let mut run = top.req_obj("run")?;
        let mut trace = top.opt_obj("trace")?;
        let kind: String = topo.req("kind")?;
        let names = ("topology", "topologies");
        let mut topology = resolve(&topo, "kind", names, topologies(), &kind)?;
        if let Some(racks) = topo.opt::<usize>("racks")? {
            if racks > MAX_RACKS {
                return Err(topo.bad("racks", format!("{racks} is over {MAX_RACKS}")));
            }
            let (name, Topology::Rotor(cfg)) = &mut topology else {
                let what = format!(
                    "accepted only by topologies \"opera\" and \"opera_paper\"; {:?} has a \
                     fixed size",
                    topology.0
                );
                return Err(topo.bad("racks", what));
            };
            let uplinks = cfg.params.uplinks;
            if racks == 0 || racks % uplinks != 0 {
                let what = format!(
                    "{racks} is not a positive multiple of the {uplinks} uplinks of topology \
                     {name:?}"
                );
                return Err(topo.bad("racks", what));
            }
            cfg.params.racks = racks;
        }
        let kind: String = wl.req("kind")?;
        let workload = resolve(&wl, "kind", ("workload", "workloads"), workloads(), &kind)?;
        let senders = wl.req::<OneOrMany<usize>>("senders")?.0;
        if let Some(n) = senders.iter().find(|&&n| n > MAX_SENDERS) {
            return Err(wl.bad("senders", format!("{n} is over {MAX_SENDERS}")));
        }
        if workload.1 == Workload::Incast && senders.contains(&0) {
            return Err(wl.bad("senders", "0 senders offer no flow on workload \"incast\""));
        }
        let flow_kb: u64 = wl.req("flow_kb")?;
        if flow_kb > MAX_FLOW_BYTES / 1000 {
            let what = format!("{flow_kb} is over {}", MAX_FLOW_BYTES / 1000);
            return Err(wl.bad("flow_kb", what));
        }
        let duration = (run.req::<u64>("duration_ms")?)
            .checked_mul(NS_PER_MS)
            .map(SimTime::from_ns)
            .ok_or_else(|| run.bad("duration_ms", "too large"))?;
        let policies = axis(&mut sw, "policy", ("switch policy", "policies"), policies)?;
        let transports = axis(&mut tr, "kind", ("transport", "transports"), transports)?;
        let name = file_name(&mut top, "name")?.unwrap_or_else(|| default_name.to_string());
        let traces = match &mut trace {
            None => TraceSpec::default(),
            Some(t) => TraceSpec {
                jsonl: file_name(t, "jsonl")?,
                pcapng: file_name(t, "pcapng")?,
            },
        };
        let points = [transports.len(), senders.len()]
            .into_iter()
            .try_fold(policies.len(), usize::checked_mul)
            .filter(|&n| n <= MAX_POINTS)
            .ok_or_else(|| {
                format!(
                    "{DOC}: the axes `switch.policy` × `transport.kind` × `workload.senders` \
                     ({} × {} × {}) expand to over {MAX_POINTS} points",
                    policies.len(),
                    transports.len(),
                    senders.len()
                )
            })?;
        let seed = run.opt("seed")?.unwrap_or(0);
        for table in [top, topo, wl, sw, tr, run].iter().chain(&trace) {
            table.finish()?;
        }
        if traces.enabled() && points != 1 {
            return Err(format!(
                "{DOC}: trace: tracing requires a single-point scenario, but the axes expand \
                 to {points} points (make `switch.policy`, `transport.kind`, and \
                 `workload.senders` scalars)"
            ));
        }
        let mut sc = Scenario {
            name,
            points: Vec::with_capacity(points),
            seed,
            trace: traces,
        };
        for &policy in &policies {
            for &transport in &transports {
                for &senders in &senders {
                    sc.points.push(ScenarioPoint {
                        topology: topology.clone(),
                        policy,
                        transport,
                        workload,
                        senders,
                        flow_bytes: flow_kb * 1000,
                        duration,
                    });
                }
            }
        }
        Ok(sc)
    }
}

/// The flows `pt` offers a network of `hosts` hosts (see [`Workload`]).
fn workload_flows(pt: &ScenarioPoint, hosts: usize, rng: &mut SimRng) -> Vec<FlowSpec> {
    let mut flows = Vec::new();
    if pt.workload.1 == Workload::Victim {
        flows.push(FlowSpec {
            src: hosts / 2,
            dst: 1,
            size: 2 * pt.flow_bytes,
            start: SimTime::ZERO,
        });
    }
    for _ in 0..pt.senders {
        flows.push(FlowSpec {
            src: hosts / 4 + rng.index(hosts - hosts / 4),
            dst: 0,
            size: pt.flow_bytes,
            start: SimTime::from_us(1 + rng.below(20)),
        });
    }
    flows
}

/// Metrics of one completed point.
#[derive(Debug, Clone, Copy)]
pub struct PointMetrics {
    /// Flows completed before the horizon.
    pub completed: usize,
    /// Flows offered.
    pub offered: usize,
    /// Mean flow-completion time, µs (0 when nothing completed).
    pub avg_fct_us: f64,
    /// 99th-percentile FCT, µs (0 when nothing completed).
    pub p99_fct_us: f64,
}

pub(crate) fn metrics_of(tracker: &FlowTracker) -> PointMetrics {
    let fcts = crate::fct_stats(tracker, SimTime::as_us_f64);
    let or_zero = |v: f64| if fcts.count == 0 { 0.0 } else { v };
    PointMetrics {
        completed: tracker.completed(),
        offered: tracker.len(),
        avg_fct_us: or_zero(fcts.mean),
        p99_fct_us: or_zero(fcts.p99),
    }
}

/// Result of reconciling the two trace outputs of one run.
#[derive(Debug, Clone)]
pub struct TraceValidation {
    /// Total JSON-lines records.
    pub jsonl_records: u64,
    /// JSON-lines `tx` records (== pcapng packets).
    pub jsonl_tx: u64,
    /// Packets in the pcapng capture.
    pub pcapng_packets: u64,
    /// Links carrying at least one transmission.
    pub links: usize,
}

/// Report of one scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Metrics and the run's record of each of the scenario's points, in
    /// its order.
    pub results: Vec<(PointMetrics, RunRecord)>,
    /// Metrics CSV path.
    pub csv: PathBuf,
    /// JSON-lines trace, when requested.
    pub trace_jsonl: Option<PathBuf>,
    /// pcapng capture, when requested.
    pub trace_pcapng: Option<PathBuf>,
    /// Trace reconciliation result, when both sinks were requested.
    pub validation: Option<TraceValidation>,
}

/// Run `pt`: build its network, offer it the workload (drawn from
/// `rng`), run it under `trace` through [`crate::run_net`], and `read` the
/// result off its flow tracker and the run's record. The run is named
/// `<scope><topology>/<policy>/<transport>/<workload>/<n> senders`.
pub(crate) fn run_point<T>(
    pt: &ScenarioPoint,
    scope: &str,
    rng: &mut SimRng,
    trace: Option<Box<dyn TraceSink>>,
    read: impl FnOnce(&FlowTracker, RunRecord) -> T,
) -> Result<T, String> {
    let queues = QueueConfig::builder().policy(pt.policy.1).build();
    match pt.topology.1.clone() {
        Topology::Rotor(mut cfg) => {
            cfg.bulk_threshold = u64::MAX; // everything low-latency
            cfg.queues = queues;
            cfg.transport = pt.transport.1;
            let no_hellos = |net: &mut OperaLogic| net.set_hello_enabled(false);
            run_on(cfg, no_hellos, pt, scope, rng, trace, read)
        }
        Topology::Static(base) => {
            let cfg = StaticNetConfig {
                queues,
                transport: pt.transport.1,
                ..base
            };
            run_on(cfg, |_: &mut StaticLogic| {}, pt, scope, rng, trace, read)
        }
    }
}

/// [`run_point`] on the network `N` that `cfg` describes; `quiet`
/// adjusts the built network before the trace sink is attached.
fn run_on<N: PacketNet, T>(
    cfg: N::Config,
    quiet: impl FnOnce(&mut N),
    pt: &ScenarioPoint,
    scope: &str,
    rng: &mut SimRng,
    trace: Option<Box<dyn TraceSink>>,
    read: impl FnOnce(&FlowTracker, RunRecord) -> T,
) -> Result<T, String> {
    let flows = workload_flows(pt, N::hosts(&cfg), rng);
    let mut sim = N::build(cfg, flows);
    quiet(&mut sim.world.logic);
    if let Some(sink) = trace {
        sim.world.fabric.set_trace(sink);
    }
    let name = format_args!(
        "{scope}{}/{}/{}/{}/{} senders",
        pt.topology.0, pt.policy.0, pt.transport.0, pt.workload.0, pt.senders
    );
    let record = crate::run_net(&mut sim, pt.duration, name);
    let result = read(sim.world.logic.tracker(), record);
    if let Some(mut sink) = sim.world.fabric.take_trace() {
        sink.finish()?;
    }
    Ok(result)
}

/// Run every point of `sc`, writing outputs under `out_dir` (created if
/// missing).
pub fn run_scenario(sc: &Scenario, out_dir: &Path) -> Result<ScenarioReport, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("scenario out dir {}: {e}", out_dir.display()))?;

    let trace_jsonl = sc.trace.jsonl.as_ref().map(|f| out_dir.join(f));
    let trace_pcapng = sc.trace.pcapng.as_ref().map(|f| out_dir.join(f));

    // Named under the scenario, so no known failure of another run
    // excuses one of its points.
    let scope = format!("scenario/{}/", sc.name);
    let mut results = Vec::with_capacity(sc.points.len());
    for (idx, pt) in sc.points.iter().enumerate() {
        // Tracing is only legal on single-point scenarios (enforced at
        // parse time), so the sink construction runs at most once.
        let sink: Option<Box<dyn TraceSink>> = if sc.trace.enabled() {
            let mut multi = MultiSink::new();
            if let Some(p) = &trace_jsonl {
                multi = multi.with(Box::new(JsonlSink::create(p)?));
            }
            if let Some(p) = &trace_pcapng {
                multi = multi.with(Box::new(PcapngSink::create(p)?));
            }
            Some(Box::new(multi))
        } else {
            None
        };
        let mut rng = SimRng::new(sc.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        results.push(run_point(pt, &scope, &mut rng, sink, |t, r| {
            (metrics_of(t), r)
        })?);
    }

    let csv = out_dir.join(format!("{}.csv", sc.name));
    write_csv(&csv, &sc.points, &results)?;

    let validation = match (&trace_jsonl, &trace_pcapng) {
        (Some(j), Some(p)) => Some(reconcile_traces(j, p)?),
        _ => None,
    };
    Ok(ScenarioReport {
        results,
        csv,
        trace_jsonl,
        trace_pcapng,
        validation,
    })
}

fn write_csv(
    path: &Path,
    points: &[ScenarioPoint],
    results: &[(PointMetrics, RunRecord)],
) -> Result<(), String> {
    let header =
        "policy,transport,senders,completed,offered,avg_fct_us,p99_fct_us,dropped,trimmed,marked";
    let mut t = Table::new("scenario", &header.split(',').collect::<Vec<_>>());
    for (pt, (m, r)) in points.iter().zip(results) {
        let counter = |name| Cell::from(r.counter(name).unwrap_or(0));
        t.push(vec![
            Cell::from(pt.policy.0),
            Cell::from(pt.transport.0),
            Cell::from(pt.senders),
            Cell::from(m.completed),
            Cell::from(m.offered),
            f2(m.avg_fct_us),
            f2(m.p99_fct_us),
            counter("dropped"),
            counter("trimmed"),
            counter("ecn_marked"),
        ]);
    }
    write_atomic(path, &t.to_csv()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-link `tx` counts keyed by `(node, port)`.
type LinkCounts = BTreeMap<(usize, usize), u64>;

/// Count `tx` records per `(node, port)` link in a JSON-lines trace,
/// holding one line at a time (a paper-scale trace is gigabytes).
fn jsonl_tx_counts(path: &Path) -> Result<(u64, LinkCounts), String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut total = 0u64;
    let mut tx = LinkCounts::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let at = |e: &dyn std::fmt::Display| format!("{} line {}: {e}", path.display(), i + 1);
        let rec = Json::parse(&line.map_err(|e| at(&e))?).map_err(|e| at(&e))?;
        let event = rec.get("event").and_then(Json::as_str);
        let event = event.ok_or_else(|| at(&"missing event"))?;
        let event = TraceEvent::from_name(event)
            .ok_or_else(|| at(&format_args!("unknown event {event:?}")))?;
        let field = |key| rec.get(key).and_then(Json::as_usize);
        let (Some(node), Some(port)) = (field("node"), field("port")) else {
            return Err(at(&"missing node/port"));
        };
        total += 1;
        if event == TraceEvent::Tx {
            *tx.entry((node, port)).or_insert(0) += 1;
        }
    }
    Ok((total, tx))
}

/// Re-read both trace files and reconcile them: the pcapng must pass
/// the validating reader, and its per-link packet counts must equal the
/// JSON-lines `tx` counts exactly, link for link.
pub fn reconcile_traces(jsonl: &Path, pcapng: &Path) -> Result<TraceValidation, String> {
    let (jsonl_records, tx) = jsonl_tx_counts(jsonl)?;
    let bytes = std::fs::read(pcapng).map_err(|e| format!("{}: {e}", pcapng.display()))?;
    let capture = netsim::pcapng::read(&bytes).map_err(|e| format!("{}: {e}", pcapng.display()))?;

    let links = capture.ifaces.iter().zip(capture.counts_per_link());
    let cap: LinkCounts = links
        .filter(|&(_, n)| n > 0)
        .map(|(&(node, port, _), n)| ((node, port), n))
        .collect();
    let count = |counts: &LinkCounts, link| counts.get(link).copied().unwrap_or(0);
    if let Some(link) = tx
        .keys()
        .chain(cap.keys())
        .find(|l| count(&tx, l) != count(&cap, l))
    {
        return Err(format!(
            "trace reconciliation failed at link n{}.p{}: jsonl has {} tx record(s), pcapng \
             has {} packet(s)",
            link.0,
            link.1,
            count(&tx, link),
            count(&cap, link)
        ));
    }
    let jsonl_tx: u64 = tx.values().sum();
    Ok(TraceValidation {
        jsonl_records,
        jsonl_tx,
        pcapng_packets: capture.packets.len() as u64,
        links: tx.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(
        topology: &str,
        policy: &str,
        transport: &str,
        trace: bool,
    ) -> Result<Scenario, String> {
        let trace_part = if trace {
            r#","trace": {"jsonl": "t.jsonl", "pcapng": "t.pcapng"}"#
        } else {
            ""
        };
        let json = format!(
            r#"{{"name": "t",
                "topology": {{"kind": "{topology}"}},
                "workload": {{"kind": "incast", "senders": 2, "flow_kb": 6}},
                "switch": {{"policy": "{policy}"}},
                "transport": {{"kind": "{transport}"}},
                "run": {{"duration_ms": 5, "seed": 1}}{trace_part}}}"#
        );
        Scenario::from_doc(&Json::parse(&json).unwrap(), "t")
    }

    fn tiny(topology: &str, policy: &str, transport: &str, trace: bool) -> Scenario {
        decode(topology, policy, transport, trace).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("opera-scenario-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A scenario with every section but `trace`, two axes of two.
    const SWEEP: &str = r#"{
        "name": "demo",
        "topology": {"kind": "opera", "racks": 8},
        "workload": {"kind": "incast", "senders": [4, 8], "flow_kb": 15},
        "switch": {"policy": ["ndp_trim", "droptail"]},
        "transport": {"kind": "ndp"},
        "run": {"duration_ms": 40, "seed": 3}
    }"#;

    /// [`SWEEP`] with `from` replaced by `to`, decoded.
    fn sweep(from: &str, to: &str) -> Result<Scenario, String> {
        assert!(SWEEP.contains(from), "SWEEP lost {from}");
        Scenario::from_doc(&Json::parse(&SWEEP.replace(from, to)).unwrap(), "x")
    }

    fn racks(sc: &Scenario) -> Option<usize> {
        match &sc.points[0].topology.1 {
            Topology::Rotor(cfg) => Some(cfg.params.racks),
            Topology::Static(_) => None,
        }
    }

    #[test]
    fn a_sweep_parses_in_driver_order() {
        let sc = sweep(r#""racks": 8"#, r#""racks": 16"#).unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!((sc.points[0].topology.0, racks(&sc)), ("opera", Some(16)));
        assert_eq!(sc.points[0].flow_bytes, 15_000);
        assert_eq!(sc.seed, 3);
        assert_eq!(sc.points.len(), 4);
        let pts = &sc.points;
        assert_eq!((pts[0].policy.0, pts[0].senders), ("ndp_trim", 4));
        assert_eq!((pts[3].policy.0, pts[3].senders), ("droptail", 8));
        assert!(!sc.trace.enabled());
    }

    #[test]
    fn a_traced_single_point_parses() {
        let json = r#"{
            "name": "demo",
            "topology": {"kind": "expander"},
            "workload": {"kind": "victim", "senders": 8, "flow_kb": 30},
            "switch": {"policy": "pfc"},
            "transport": {"kind": "gbn"},
            "run": {"duration_ms": 10, "seed": 1},
            "trace": {"jsonl": "t.jsonl", "pcapng": "t.pcapng"}
        }"#;
        let sc = Scenario::from_doc(&Json::parse(json).unwrap(), "x").unwrap();
        assert_eq!((sc.points[0].topology.0, racks(&sc)), ("expander", None));
        assert_eq!(sc.points[0].flow_bytes, 30_000);
        assert_eq!(sc.trace.jsonl.as_deref(), Some("t.jsonl"));
        assert!(sc.trace.enabled());
        assert_eq!(sc.points.len(), 1);
    }

    #[test]
    fn unknown_keys_are_named_errors() {
        let err = sweep(r#""switch""#, r#""snitch""#).unwrap_err();
        assert!(err.contains("snitch"), "{err}");
        let err = sweep(r#""racks""#, r#""rakcs""#).unwrap_err();
        assert!(err.contains("rakcs"), "{err}");
    }

    #[test]
    fn missing_required_fields_are_errors() {
        assert_eq!(
            sweep(r#""kind": "incast", "#, "").unwrap_err(),
            "scenario: workload.kind: missing (keys present: flow_kb, senders)"
        );
    }

    /// An unknown name is a decode error of the shared shape, naming the
    /// field and every name its vocabulary knows.
    #[test]
    fn unknown_names_are_decode_errors() {
        assert_eq!(
            decode("atlantis", "ndp_trim", "ndp", false).unwrap_err(),
            "scenario: topology.kind: unknown topology \"atlantis\"; known topologies: \
             [\"opera\", \"opera_paper\", \"expander\", \"expander_paper\", \"clos\", \"clos_paper\"]"
        );
        assert_eq!(
            decode("expander", "redlight", "ndp", false).unwrap_err(),
            "scenario: switch.policy: unknown switch policy \"redlight\"; known policies: \
             [\"droptail\", \"ndp_trim\", \"pfc\", \"ecn\"]"
        );
        assert_eq!(
            decode("expander", "ndp_trim", "smtp", false).unwrap_err(),
            "scenario: transport.kind: unknown transport \"smtp\"; known transports: \
             [\"ndp\", \"dctcp\", \"gbn\"]"
        );
        assert_eq!(
            sweep(r#""incast""#, r#""flood""#).unwrap_err(),
            "scenario: workload.kind: unknown workload \"flood\"; known workloads: \
             [\"incast\", \"victim\"]"
        );
        let err = sweep(r#""droptail"]"#, r#""droptail", "red"]"#).unwrap_err();
        assert!(err.starts_with("scenario: switch.policy: unknown switch policy \"red\""));
    }

    /// `topology.racks` resizes a rotor network to a positive multiple of
    /// its uplinks, and is an error on any other topology.
    #[test]
    fn racks_are_checked_against_their_topology() {
        let not_a_multiple = "scenario: topology.racks: 6 is not a positive multiple of the 4 \
                              uplinks of topology \"opera\"";
        let racks_to = |n: &str| sweep(r#""racks": 8"#, &format!(r#""racks": {n}"#));
        assert_eq!(racks_to("6").unwrap_err(), not_a_multiple);
        let err = racks_to("0").unwrap_err();
        assert!(err.contains("0 is not a positive multiple"), "{err}");
        assert_eq!(
            sweep(r#""opera""#, r#""clos""#).unwrap_err(),
            "scenario: topology.racks: accepted only by topologies \"opera\" and \
             \"opera_paper\"; \"clos\" has a fixed size"
        );
    }

    /// The name and the trace files are file names inside the run's
    /// output dir: a path that leaves it (`../esc` used to write one and
    /// two levels above `--out`) is an error naming the field.
    #[test]
    fn only_plain_file_names_are_accepted() {
        let json = |name: &str, trace: &str| {
            let text = format!(
                r#"{{"name": {name:?}, "topology": {{"kind": "expander"}},
                    "workload": {{"kind": "incast", "senders": 2, "flow_kb": 6}},
                    "switch": {{"policy": "ndp_trim"}}, "transport": {{"kind": "ndp"}},
                    "run": {{"duration_ms": 5}}, "trace": {{{trace}}}}}"#
            );
            Scenario::from_doc(&Json::parse(&text).unwrap(), "x")
        };
        for bad in [
            "../esc", "..", ".", "", "/tmp/esc", "a/b", "a\\b", "sub/", "c:\\x",
        ] {
            let err = json(bad, "").unwrap_err();
            assert_eq!(
                err,
                format!("scenario: name: {bad:?} is not a plain file name")
            );
            for key in ["jsonl", "pcapng"] {
                let err = json("t", &format!("{key:?}: {bad:?}")).unwrap_err();
                let want = format!("scenario: trace.{key}: {bad:?} is not a plain file name");
                assert_eq!(err, want);
            }
        }
        for good in ["esc", ".esc", "esc..", "a b"] {
            let sc = json(good, &format!(r#""jsonl": {good:?}"#)).unwrap();
            assert_eq!(
                (sc.name.as_str(), sc.trace.jsonl.as_deref()),
                (good, Some(good))
            );
        }
    }

    /// An incast of 0 senders offers no flow at all; a victim run of 0
    /// senders still offers the victim flow.
    #[test]
    fn an_incast_of_no_senders_is_an_error() {
        let err = "scenario: workload.senders: 0 senders offer no flow on workload \"incast\"";
        assert_eq!(sweep("[4, 8]", "[4, 0]").unwrap_err(), err);
        assert_eq!(sweep("[4, 8]", "0").unwrap_err(), err);
        let victim = sweep(
            r#""incast", "senders": [4, 8]"#,
            r#""victim", "senders": 0"#,
        );
        assert_eq!(victim.unwrap().points[0].senders, 0);
    }

    /// Lengths and durations taken from the file are bounded where they
    /// are read: a duration that would wrap the nanosecond clock, and
    /// sender / rack counts that would be allocated for, are named errors;
    /// the largest legal values parse.
    #[test]
    fn hostile_lengths_and_durations_are_named_errors() {
        let json = |topology: &str, senders: &str, duration_ms: &str| {
            let text = format!(
                r#"{{"topology": {{"kind": "opera"{topology}}},
                    "workload": {{"kind": "incast", "senders": {senders}, "flow_kb": 6}},
                    "switch": {{"policy": "ndp_trim"}}, "transport": {{"kind": "ndp"}},
                    "run": {{"duration_ms": {duration_ms}}}}}"#
            );
            Scenario::from_doc(&Json::parse(&text).unwrap(), "x")
        };
        let too_long = "scenario: run.duration_ms: too large";
        for ms in ["18446744073710", "18446744073709551615"] {
            assert_eq!(json("", "2", ms).unwrap_err(), too_long);
        }
        let longest = json("", "2", "18446744073709").unwrap().points[0].duration;
        assert_eq!(longest.as_ns(), 18_446_744_073_709_000_000);

        let many = "scenario: workload.senders: 1000000000000 is over 100000";
        assert_eq!(json("", "1000000000000", "5").unwrap_err(), many);
        assert_eq!(json("", "[2, 1000000000000]", "5").unwrap_err(), many);
        assert_eq!(
            json("", "100000", "5").unwrap().points[0].senders,
            MAX_SENDERS
        );

        let wide = "scenario: topology.racks: 4000000000 is over 432";
        assert_eq!(
            json(r#", "racks": 4000000000"#, "2", "5").unwrap_err(),
            wide
        );
        let most = json(r#", "racks": 432"#, "2", "5").unwrap();
        assert_eq!(racks(&most), Some(MAX_RACKS));
    }

    /// A sweep is the product of three axes whose lengths only the file
    /// bounds: 1 000 × 1 000 × 1 000 points used to ask for a 360 GB point
    /// list and abort (exit 134). Past `MAX_POINTS` it is a named error;
    /// the bound itself parses.
    #[test]
    fn a_sweep_past_the_point_bound_is_a_named_error() {
        let json = |policies: usize, transports: usize, senders: usize| {
            let axis = |name: &str, n: usize| format!("[{}]", vec![name; n].join(", "));
            let text = format!(
                r#"{{"topology": {{"kind": "opera"}},
                    "workload": {{"kind": "incast", "senders": {}, "flow_kb": 6}},
                    "switch": {{"policy": {}}}, "transport": {{"kind": {}}},
                    "run": {{"duration_ms": 1}}}}"#,
                axis("2", senders),
                axis(r#""ndp_trim""#, policies),
                axis(r#""ndp""#, transports),
            );
            Scenario::from_doc(&Json::parse(&text).unwrap(), "x")
        };
        let over = |n: (usize, usize, usize)| {
            format!(
                "scenario: the axes `switch.policy` × `transport.kind` × `workload.senders` \
                 ({} × {} × {}) expand to over 10000 points",
                n.0, n.1, n.2
            )
        };
        assert_eq!(
            json(1000, 1000, 1000).unwrap_err(),
            over((1000, 1000, 1000))
        );
        assert_eq!(json(2, 1, 5001).unwrap_err(), over((2, 1, 5001)));
        assert_eq!(json(2, 1, 5000).unwrap().points.len(), MAX_POINTS);
    }

    /// A flow size is bounded where it is read: 6.2 TB used to wrap the
    /// transports' `u32` segment count and run 0 of 8 flows to exit 0. The
    /// bound itself parses, and `flow_kb` is the one way to give a size.
    #[test]
    fn hostile_flow_sizes_are_named_errors() {
        let json = |size: &str| {
            let text = format!(
                r#"{{"topology": {{"kind": "opera"}},
                    "workload": {{"kind": "incast", "senders": 8, {size}}},
                    "switch": {{"policy": "ndp_trim"}}, "transport": {{"kind": "ndp"}},
                    "run": {{"duration_ms": 1}}}}"#
            );
            Scenario::from_doc(&Json::parse(&text).unwrap(), "x")
        };
        let kb = "scenario: workload.flow_kb: 6200000000 is over 10000000";
        assert_eq!(json(r#""flow_kb": 6200000000"#).unwrap_err(), kb);
        let wraps = "scenario: workload.flow_kb: 18446744073709551615 is over 10000000";
        let max = r#""flow_kb": 18446744073709551615"#;
        assert_eq!(json(max).unwrap_err(), wraps);
        assert_eq!(
            json(r#""flow_kb": 10000000"#).unwrap().points[0].flow_bytes,
            MAX_FLOW_BYTES
        );
        let alias = "scenario: workload: unknown key \"flow_bytes\" (known: flow_kb, kind, \
                     senders)";
        let both = r#""flow_kb": 15, "flow_bytes": 15000"#;
        assert_eq!(json(both).unwrap_err(), alias);
    }

    #[test]
    fn tracing_rejects_multi_point_scenarios() {
        let traced = r#""trace": {"jsonl": "t.jsonl"}, "run""#;
        let err = sweep(r#""run""#, traced).unwrap_err();
        assert!(err.contains("single-point"), "{err}");
    }

    #[test]
    fn traced_run_reconciles_and_is_behavior_invariant() {
        // Run once without tracing, once with: metrics must be identical
        // (tracing is pure observation) and the traces must reconcile.
        let dir = tmp("recon");
        let plain = run_scenario(&tiny("expander", "ndp_trim", "ndp", false), &dir).unwrap();
        let traced = run_scenario(&tiny("expander", "ndp_trim", "ndp", true), &dir).unwrap();
        assert_eq!(plain.results.len(), 1);
        let ((p, pr), (t, tr)) = (&plain.results[0], &traced.results[0]);
        assert_eq!(p.completed, t.completed);
        assert_eq!(p.avg_fct_us, t.avg_fct_us);
        assert_eq!(pr.counter("trimmed"), tr.counter("trimmed"));
        assert!(t.completed == 2, "incast should complete: {t:?}");

        let v = traced.validation.expect("validation ran");
        assert!(v.jsonl_tx > 0);
        assert_eq!(v.jsonl_tx, v.pcapng_packets);
        assert!(v.jsonl_records > v.jsonl_tx, "jsonl also has non-tx events");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reconcile_detects_divergence() {
        let dir = tmp("diverge");
        let traced = run_scenario(&tiny("expander", "ndp_trim", "ndp", true), &dir).unwrap();
        let jsonl = traced.trace_jsonl.unwrap();
        // Drop one tx line from the jsonl: reconciliation must name a link.
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let mut dropped = false;
        let filtered: Vec<&str> = text
            .lines()
            .filter(|l| {
                if !dropped && l.contains("\"event\":\"tx\"") {
                    dropped = true;
                    false
                } else {
                    true
                }
            })
            .collect();
        std::fs::write(&jsonl, filtered.join("\n") + "\n").unwrap();
        let err = reconcile_traces(&jsonl, &traced.trace_pcapng.unwrap()).unwrap_err();
        assert!(err.contains("reconciliation failed at link"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_jsonl_lines_are_named_by_number() {
        let dir = tmp("lines");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let good = "{\"t\":1,\"event\":\"tx\",\"node\":2,\"port\":0}\n";
        let at_line_3 = |third: &[u8]| {
            let mut bytes = good.repeat(2).into_bytes();
            bytes.extend_from_slice(third);
            bytes.extend_from_slice(good.as_bytes());
            std::fs::write(&path, bytes).unwrap();
            jsonl_tx_counts(&path).unwrap_err()
        };
        let prefix = format!("{} line 3: ", path.display());
        let err = at_line_3(b"{\"t\":1,\"event\":\"t\xFFx\"}\n");
        assert!(err.starts_with(&prefix) && err.contains("UTF-8"), "{err}");
        let err = at_line_3(b"{\"t\":\n");
        assert!(err.starts_with(&prefix), "{err}");
        assert_eq!(at_line_3(b"{\"t\":1}\n"), format!("{prefix}missing event"));
        assert_eq!(
            at_line_3(b"{\"t\":1,\"event\":\"bogus\",\"node\":2,\"port\":0}\n"),
            format!("{prefix}unknown event \"bogus\"")
        );

        std::fs::write(&path, good.repeat(3)).unwrap();
        let (records, tx) = jsonl_tx_counts(&path).unwrap();
        assert_eq!((records, tx.get(&(2, 0))), (3, Some(&3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opera_topology_runs_traced() {
        let dir = tmp("opera");
        let report = run_scenario(&tiny("opera", "ndp_trim", "ndp", true), &dir).unwrap();
        let v = report.validation.expect("validation ran");
        assert!(v.jsonl_tx > 0, "opera incast produced no transmissions");
        assert!(report.csv.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
