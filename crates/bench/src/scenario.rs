//! Run declarative scenario files ([`expt::scenario`]) against the
//! simulator, with optional trace capture and trace reconciliation.
//!
//! `expt` parses scenario files but treats topology / policy /
//! transport names as opaque strings; this module is the registry that
//! maps those names onto concrete config types (with named errors
//! listing the known values), builds the network, runs every sweep
//! point, and writes a metrics CSV. When the scenario requests traces,
//! the fabric gets a [`netsim::MultiSink`] fanning out to a JSON-lines
//! sink and a pcapng sink, and after the run the two outputs are
//! reconciled: the pcapng is re-read with the validating reader and its
//! per-link packet counts must equal the JSON-lines `tx` record counts,
//! link for link.

use expt::output::write_atomic;
use expt::scenario::{Scenario, ScenarioPoint};
use expt::{f2, Cell, Table};
use netsim::fabric::{FabricCounters, QueueConfig};
use netsim::policy::{DropTail, EcnMark, NdpTrim, Pfc};
use netsim::trace::{JsonlSink, MultiSink, TraceEvent, TraceSink};
use netsim::{FlowTracker, PcapngSink, SwitchPolicyKind};
use opera::opera_net::OperaLogic;
use opera::static_net::{StaticLogic, StaticNetConfig, StaticTopologyKind};
use opera::{OperaNetConfig, PacketNet};
use simkit::stats::Samples;
use simkit::{SimRng, SimTime};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use topo::clos::ClosParams;
use transport::{DctcpParams, GoBackNParams, NdpParams, TransportKind};
use workloads::FlowSpec;

/// Switch policy names the scenario runner accepts.
pub const KNOWN_POLICIES: [&str; 4] = ["droptail", "ndp_trim", "pfc", "ecn"];
/// Transport names the scenario runner accepts.
pub const KNOWN_TRANSPORTS: [&str; 3] = ["ndp", "dctcp", "gbn"];
/// Topology names the scenario runner accepts.
pub const KNOWN_TOPOLOGIES: [&str; 6] = [
    "opera",
    "opera_paper",
    "expander",
    "expander_paper",
    "clos",
    "clos_paper",
];
/// Workload names the scenario runner accepts.
pub const KNOWN_WORKLOADS: [&str; 2] = ["incast", "victim"];

/// The switch policy a [`KNOWN_POLICIES`] name stands for.
pub fn policy_of(name: &str) -> Result<SwitchPolicyKind, String> {
    Ok(match name {
        "droptail" => SwitchPolicyKind::from(DropTail),
        "ndp_trim" => SwitchPolicyKind::from(NdpTrim),
        "pfc" => SwitchPolicyKind::from(Pfc::paper_default()),
        "ecn" => SwitchPolicyKind::from(EcnMark::paper_default()),
        other => {
            return Err(format!(
                "unknown switch policy {other:?}; known policies: {KNOWN_POLICIES:?}"
            ))
        }
    })
}

/// The transport a [`KNOWN_TRANSPORTS`] name stands for.
pub fn transport_of(name: &str) -> Result<TransportKind, String> {
    Ok(match name {
        "ndp" => TransportKind::Ndp(NdpParams::paper_default()),
        "dctcp" => TransportKind::Dctcp(DctcpParams::paper_default()),
        "gbn" => TransportKind::GoBackN(GoBackNParams::paper_default()),
        other => {
            return Err(format!(
                "unknown transport {other:?}; known transports: {KNOWN_TRANSPORTS:?}"
            ))
        }
    })
}

fn unknown_topology(name: &str) -> String {
    format!("unknown topology {name:?}; known topologies: {KNOWN_TOPOLOGIES:?}")
}

/// The rotor network an Opera topology name stands for (`None` for the
/// static topologies); `topology.racks` resizes it.
fn opera_base(topology: &str) -> Option<OperaNetConfig> {
    match topology {
        "opera" => Some(OperaNetConfig::small_test()),
        "opera_paper" => Some(OperaNetConfig::paper_648()),
        _ => None,
    }
}

/// The fixed-size network a static topology name stands for.
fn static_base(topology: &str) -> Option<StaticNetConfig> {
    match topology {
        "expander" => Some(StaticNetConfig::small_expander()),
        "expander_paper" => Some(StaticNetConfig::paper_expander_650()),
        "clos" => Some(StaticNetConfig {
            kind: StaticTopologyKind::FoldedClos(ClosParams {
                radix: 4,
                oversubscription: 1,
            }),
            ..StaticNetConfig::small_expander()
        }),
        "clos_paper" => Some(StaticNetConfig::paper_clos_648()),
        _ => None,
    }
}

/// Validate every name a scenario references against the registries, and
/// `topology.racks` against the topology it resizes, before anything is
/// built or scheduled.
pub fn check_names(sc: &Scenario) -> Result<(), String> {
    if !KNOWN_TOPOLOGIES.contains(&sc.topology.as_str()) {
        return Err(unknown_topology(&sc.topology));
    }
    if let Some(racks) = sc.racks {
        let Some(base) = opera_base(&sc.topology) else {
            return Err(format!(
                "topology.racks is accepted only by topologies \"opera\" and \"opera_paper\"; \
                 {:?} has a fixed size",
                sc.topology
            ));
        };
        let uplinks = base.params.uplinks;
        if racks == 0 || racks % uplinks != 0 {
            return Err(format!(
                "topology.racks = {racks}: must be a positive multiple of the {uplinks} uplinks \
                 of topology {:?}",
                sc.topology
            ));
        }
    }
    if !KNOWN_WORKLOADS.contains(&sc.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; known workloads: {KNOWN_WORKLOADS:?}",
            sc.workload
        ));
    }
    for p in &sc.policies {
        policy_of(p)?;
    }
    for t in &sc.transports {
        transport_of(t)?;
    }
    Ok(())
}

/// Flow list for a workload: an incast
/// of `senders` flows onto host 0 from the upper three quarters of hosts
/// (never the target's rack, on any topology), plus — for `victim` — one
/// moderate flow into the target's edge switch, started strictly first
/// so that after the sorted injection it is always flow id 0.
fn workload_flows(
    workload: &str,
    hosts: usize,
    senders: usize,
    size: u64,
    rng: &mut SimRng,
) -> Vec<FlowSpec> {
    let mut flows = Vec::new();
    if workload == "victim" {
        flows.push(FlowSpec {
            src: hosts / 2,
            dst: 1,
            size: 2 * size,
            start: SimTime::ZERO,
        });
    }
    for _ in 0..senders {
        flows.push(FlowSpec {
            src: hosts / 4 + rng.index(hosts - hosts / 4),
            dst: 0,
            size,
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
    /// 99th-percentile FCT, µs.
    pub p99_fct_us: f64,
    /// Packets dropped at full queues.
    pub dropped: u64,
    /// Packets trimmed to headers.
    pub trimmed: u64,
    /// Packets ECN-marked.
    pub marked: u64,
}

pub(crate) fn metrics_of(tracker: &FlowTracker, counters: &FabricCounters) -> PointMetrics {
    let mut fcts = Samples::new();
    for f in tracker.flows() {
        if let Some(t) = f.fct() {
            fcts.push(t.as_us_f64());
        }
    }
    PointMetrics {
        completed: tracker.completed(),
        offered: tracker.len(),
        avg_fct_us: fcts.mean().unwrap_or(0.0),
        p99_fct_us: fcts.quantile(0.99).unwrap_or(0.0),
        dropped: counters.dropped,
        trimmed: counters.trimmed,
        marked: counters.ecn_marked,
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
    /// Scenario name.
    pub name: String,
    /// Metrics per sweep point, in sweep order.
    pub rows: Vec<(ScenarioPoint, PointMetrics)>,
    /// Metrics CSV path.
    pub csv: PathBuf,
    /// JSON-lines trace, when requested.
    pub trace_jsonl: Option<PathBuf>,
    /// pcapng capture, when requested.
    pub trace_pcapng: Option<PathBuf>,
    /// Trace reconciliation result, when both sinks were requested.
    pub validation: Option<TraceValidation>,
}

/// One packet run, by name — a scenario point, or a point of
/// `ablate_transport`'s matrix: resolve the names to a network, offer it
/// the workload (drawn from `rng`), run it for `duration` under `trace`,
/// and `read` the result off its flow tracker and fabric counters.
/// `racks` resizes an Opera topology; the static ones have a fixed size
/// and callers pass `None` for them (`check_names` refuses anything else).
pub(crate) fn run_named<T>(
    (topology, racks): (&str, Option<usize>),
    (policy, transport_name): (&str, &str),
    load: (&str, usize, u64),
    duration: SimTime,
    rng: &mut SimRng,
    trace: Option<Box<dyn TraceSink>>,
    read: impl FnOnce(&FlowTracker, &FabricCounters) -> T,
) -> Result<T, String> {
    let queues = QueueConfig::builder().policy(policy_of(policy)?).build();
    let transport = transport_of(transport_name)?;
    if let Some(mut cfg) = opera_base(topology) {
        if let Some(racks) = racks {
            cfg.params.racks = racks;
        }
        cfg.bulk_threshold = u64::MAX; // everything low-latency
        cfg.queues = queues;
        cfg.transport = transport;
        let no_hellos = |net: &mut OperaLogic| net.set_hello_enabled(false);
        let names = (topology, policy, transport_name);
        return run_on(cfg, no_hellos, names, load, duration, rng, trace, read);
    }
    let base = static_base(topology).ok_or_else(|| unknown_topology(topology))?;
    let cfg = StaticNetConfig {
        queues,
        transport,
        ..base
    };
    let as_built = |_: &mut StaticLogic| {};
    let names = (topology, policy, transport_name);
    run_on(cfg, as_built, names, load, duration, rng, trace, read)
}

/// [`run_named`] on the network `N` that `cfg` describes; `quiet`
/// adjusts the built network before the trace sink is attached. An
/// untraced run ends when the network has drained; a traced one runs all
/// of `duration`, because what an idle network does is part of its trace.
#[allow(clippy::too_many_arguments)]
fn run_on<N: PacketNet, T>(
    cfg: N::Config,
    quiet: impl FnOnce(&mut N),
    (topology, policy, transport): (&str, &str, &str),
    (workload, senders, flow_bytes): (&str, usize, u64),
    duration: SimTime,
    rng: &mut SimRng,
    trace: Option<Box<dyn TraceSink>>,
    read: impl FnOnce(&FlowTracker, &FabricCounters) -> T,
) -> Result<T, String> {
    let flows = workload_flows(workload, N::hosts(&cfg), senders, flow_bytes, rng);
    let mut sim = N::build(cfg, flows);
    quiet(&mut sim.world.logic);
    if let Some(sink) = trace {
        sim.world.fabric.set_trace(sink);
        sim.run_until(duration);
    } else {
        let name = format_args!("{topology}/{policy}/{transport}/{workload}/{senders} senders");
        crate::run_net(&mut sim, duration, name);
    }
    let result = read(sim.world.logic.tracker(), &sim.world.fabric.counters);
    if let Some(mut sink) = sim.world.fabric.take_trace() {
        sink.finish()?;
    }
    Ok(result)
}

/// Run every point of `sc`, writing outputs under `out_dir` (created if
/// missing). Fails with a named error before any simulation starts if
/// the scenario references unknown topology / workload / policy /
/// transport names.
pub fn run_scenario(sc: &Scenario, out_dir: &Path) -> Result<ScenarioReport, String> {
    check_names(sc)?;
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("scenario out dir {}: {e}", out_dir.display()))?;

    let trace_jsonl = sc.trace.jsonl.as_ref().map(|f| out_dir.join(f));
    let trace_pcapng = sc.trace.pcapng.as_ref().map(|f| out_dir.join(f));

    let points = sc.points();
    let mut rows = Vec::with_capacity(points.len());
    for (idx, pt) in points.iter().enumerate() {
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
        let metrics = run_named(
            (&sc.topology, sc.racks),
            (&pt.policy, &pt.transport),
            (&sc.workload, pt.senders, sc.flow_bytes),
            sc.duration,
            &mut rng,
            sink,
            metrics_of,
        )?;
        rows.push((pt.clone(), metrics));
    }

    let csv = out_dir.join(format!("{}.csv", sc.name));
    write_csv(&csv, &rows)?;

    let validation = match (&trace_jsonl, &trace_pcapng) {
        (Some(j), Some(p)) => Some(reconcile_traces(j, p)?),
        _ => None,
    };
    Ok(ScenarioReport {
        name: sc.name.clone(),
        rows,
        csv,
        trace_jsonl,
        trace_pcapng,
        validation,
    })
}

fn write_csv(path: &Path, rows: &[(ScenarioPoint, PointMetrics)]) -> Result<(), String> {
    let header =
        "policy,transport,senders,completed,offered,avg_fct_us,p99_fct_us,dropped,trimmed,marked";
    let mut t = Table::new("scenario", &header.split(',').collect::<Vec<_>>());
    for (pt, m) in rows {
        t.push(vec![
            Cell::from(pt.policy.as_str()),
            Cell::from(pt.transport.as_str()),
            Cell::from(pt.senders),
            Cell::from(m.completed),
            Cell::from(m.offered),
            f2(m.avg_fct_us),
            f2(m.p99_fct_us),
            Cell::from(m.dropped),
            Cell::from(m.trimmed),
            Cell::from(m.marked),
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
        let line = line.map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        let rec = expt::json::Json::parse(&line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        let event = rec
            .get("event")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{} line {}: missing event", path.display(), i + 1))?;
        let event = TraceEvent::from_name(event)
            .ok_or_else(|| format!("{} line {}: unknown event {event:?}", path.display(), i + 1))?;
        let node = rec.get("node").and_then(|v| v.as_usize());
        let port = rec.get("port").and_then(|v| v.as_usize());
        let (Some(node), Some(port)) = (node, port) else {
            return Err(format!(
                "{} line {}: missing node/port",
                path.display(),
                i + 1
            ));
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

    let counts = capture.counts_per_link();
    let mut cap = LinkCounts::new();
    for (i, (node, port, _)) in capture.ifaces.iter().enumerate() {
        if counts[i] > 0 {
            cap.insert((*node, *port), counts[i]);
        }
    }
    if tx != cap {
        for (link, n) in &tx {
            let got = cap.get(link).copied().unwrap_or(0);
            if got != *n {
                return Err(format!(
                    "trace reconciliation failed at link n{}.p{}: jsonl has {n} tx record(s), \
                     pcapng has {got} packet(s)",
                    link.0, link.1
                ));
            }
        }
        for (link, n) in &cap {
            if !tx.contains_key(link) {
                return Err(format!(
                    "trace reconciliation failed at link n{}.p{}: pcapng has {n} packet(s), \
                     jsonl has none",
                    link.0, link.1
                ));
            }
        }
        return Err("trace reconciliation failed (count maps differ)".into());
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
    use expt::json::Json;
    use expt::scenario::Scenario;

    fn tiny(topology: &str, policy: &str, transport: &str, trace: bool) -> Scenario {
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
        Scenario::from_doc(&Json::parse(&json).unwrap(), "t").unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("opera-scenario-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn unknown_names_fail_before_running() {
        let sc = tiny("atlantis", "ndp_trim", "ndp", false);
        let err = run_scenario(&sc, &tmp("topo")).unwrap_err();
        assert!(
            err.contains("atlantis") && err.contains("known topologies"),
            "{err}"
        );

        let sc = tiny("expander", "redlight", "ndp", false);
        let err = run_scenario(&sc, &tmp("pol")).unwrap_err();
        assert!(
            err.contains("redlight") && err.contains("known policies"),
            "{err}"
        );

        let sc = tiny("expander", "ndp_trim", "smtp", false);
        let err = run_scenario(&sc, &tmp("tr")).unwrap_err();
        assert!(
            err.contains("smtp") && err.contains("known transports"),
            "{err}"
        );
    }

    #[test]
    fn traced_run_reconciles_and_is_behavior_invariant() {
        // Run once without tracing, once with: metrics must be identical
        // (tracing is pure observation) and the traces must reconcile.
        let dir = tmp("recon");
        let plain = run_scenario(&tiny("expander", "ndp_trim", "ndp", false), &dir).unwrap();
        let traced = run_scenario(&tiny("expander", "ndp_trim", "ndp", true), &dir).unwrap();
        assert_eq!(plain.rows.len(), 1);
        let (p, t) = (&plain.rows[0].1, &traced.rows[0].1);
        assert_eq!(p.completed, t.completed);
        assert_eq!(p.avg_fct_us, t.avg_fct_us);
        assert_eq!(p.trimmed, t.trimmed);
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
