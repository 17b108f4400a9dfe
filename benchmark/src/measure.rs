//! Running workloads: one in this process, or each in a child process.

use crate::host;
use crate::ladder;
use crate::metrics::{self, median, Values, WORKLOADS};
use crate::packet::{self, PacketWorkload, Rep, RepMode};
use crate::reference::{Meter, Timed};
use crate::suite;
use crate::surface::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// What one workload measured in this process.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed over every rep: flows, or tables.
    pub attempted: u64,
    pub failed: u64,
    /// The first failed correctness check.
    pub error: Option<String>,
    pub values: Values,
    /// Per-rep samples of the timed end-to-end metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Values that must repeat exactly (counts, simulated results).
    pub exact: Vec<(&'static str, f64)>,
    /// The traced rep's span rows, as a JSON array.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.error.get_or_insert(what.into());
    }

    /// Report the timed end-to-end metrics, both calibrated (see
    /// `reference.rs`), as the medians of their samples: one per rep of the
    /// timed region (`runs`, with the work units each did), and up to
    /// [`SETUPS`] of set-up. The samples line also carries the raw host time
    /// of each, so a reader sees what calibration did.
    pub fn timed(&mut self, runs: Vec<(Timed, f64)>, setups: Vec<Timed>) {
        let per_work = |time: fn(&Timed) -> f64| -> Vec<f64> {
            (runs.iter())
                .map(|(t, work)| per(time(t) * 1e9, *work))
                .collect()
        };
        let cal_ns_per_work = per_work(|t| t.cal_s);
        let setup_s: Vec<f64> = setups.iter().map(|t| t.cal_s).collect();
        self.set("cal_ns_per_work", median(&cal_ns_per_work));
        self.set("setup_s", median(&setup_s));
        self.samples.insert("cal_ns_per_work", cal_ns_per_work);
        self.samples
            .insert("wall_ns_per_work", per_work(|t| t.wall_s));
        self.samples.insert("setup_s", setup_s);
        self.samples
            .insert("setup_wall_s", setups.iter().map(|t| t.wall_s).collect());
    }
}

/// Set-up samples a run aims for.
const SETUPS: usize = 15;

/// The share of a run's seconds kept back for set-up-only samples.
fn setup_reserve(seconds: u64) -> Duration {
    Duration::from_secs(seconds).mul_f64(0.1)
}

/// Repeat `rep` (at least once) while another fits into `seconds` less the
/// set-up reserve, going by the longest so far.
pub fn repeat<T>(seconds: u64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds) - setup_reserve(seconds);
    let mut longest = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(rep());
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget {
            return out;
        }
    }
}

/// Safe ratio for derived metrics.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn packet_untraced(w: &PacketWorkload, seed: u64, seconds: u64) -> Outcome {
    let mut meter = Meter::new();
    let reps = repeat(seconds, || w.rep(seed, RepMode::PLAIN, &mut meter));
    let mut out = Outcome::default();
    account(&mut out, &reps);
    out.exact = reps[0].exact.clone();
    let setups = reps.iter().map(|r| r.setup).collect();
    out.timed(
        reps.iter()
            .map(|r| (r.run, r.exact("netsim.pkt_hops")))
            .collect(),
        more_setups(seconds, setups, || w.setup_only(seed, &mut meter)),
    );
    out
}

/// Set-up is short next to a rep, so a run's few reps give few samples of
/// it: set up alone some more (at least once), until there are [`SETUPS`]
/// or the reserve is spent.
pub fn more_setups(
    seconds: u64,
    mut samples: Vec<Timed>,
    mut setup_only: impl FnMut() -> Timed,
) -> Vec<Timed> {
    let start = Instant::now();
    samples.push(setup_only());
    while samples.len() < SETUPS && start.elapsed() < setup_reserve(seconds) {
        samples.push(setup_only());
    }
    samples
}

/// Operations and correctness over `reps`, which must agree exactly.
fn account(out: &mut Outcome, reps: &[Rep]) {
    for r in reps {
        out.attempted += r.flows;
        out.failed += if r.error.is_some() {
            r.flows
        } else {
            r.unfinished
        };
        if let Some(e) = &r.error {
            out.fail(e.clone());
        }
        if r.exact != reps[0].exact {
            out.fail("two repetitions of the same inputs gave different counts");
        }
    }
}

fn packet_traced(w: &PacketWorkload, seed: u64, ladder_events: u64) -> Outcome {
    let mut meter = Meter::new();
    let plain = w.rep(seed, RepMode::PLAIN, &mut meter);
    let traced = w.rep(seed, RepMode::SPANNED, &mut meter);
    let mut out = Outcome::default();
    account(&mut out, &[plain.clone(), traced.clone()]);
    for (name, v) in &plain.exact {
        out.set(name, *v);
    }
    out.exact = plain.exact.clone();
    let events = plain.exact("simkit.events");
    let hops = plain.exact("netsim.pkt_hops");
    let (queued, trimmed, dropped, dark) = (
        plain.exact("netsim.queued"),
        plain.exact("netsim.trimmed"),
        plain.exact("netsim.dropped"),
        plain.exact("netsim.dark_drops"),
    );
    out.set("host.wall_s", plain.run.wall_s);
    out.set("host.cpu_s", plain.cpu_s);
    out.set("host.alloc_count_setup", plain.alloc_count_setup as f64);
    out.set("host.alloc_count_run", plain.alloc_count_run as f64);
    out.set("host.alloc_bytes_run", plain.alloc_bytes_run as f64);
    out.set(
        "host.allocs_per_kevent",
        per(plain.alloc_count_run as f64 * 1e3, events),
    );
    out.set(
        "host.trace_overhead_frac",
        per(traced.run.cal_s, plain.run.cal_s) - 1.0,
    );
    out.set("simkit.ns_per_event", per(plain.run.wall_s * 1e9, events));
    out.set("netsim.ns_per_pkt_hop", per(plain.run.wall_s * 1e9, hops));
    // Wasted sends over attempted sends.
    out.set(
        "netsim.loss_ratio",
        per(trimmed + dropped + dark, queued + trimmed + dropped),
    );

    let tree = traced.spans.as_ref().expect("the traced rep has spans");
    out.set("simkit.run_self_s", tree.self_secs("run"));
    out.set("workloads.gen_s", tree.total("workloads.gen"));
    out.set("topo.generate_s", tree.total("topo.generate"));
    out.set("opera.on_arrive_s", tree.total("opera.on_arrive"));
    out.set("opera.on_arrive_n", tree.count("opera.on_arrive") as f64);
    out.set("opera.on_timer_s", tree.total("opera.on_timer"));
    out.set("opera.on_timer_n", tree.count("opera.on_timer") as f64);
    out.set("opera.tables_build_s", tree.total("opera.tables_build"));
    out.set(
        "opera.net_build_rest_s",
        (tree.total("opera.net_build")
            - tree.total("topo.generate")
            - tree.total("opera.tables_build"))
        .max(0.0),
    );
    out.set("opera.stats_s", tree.total("opera.stats"));
    out.spans = Some(tree.to_json());

    // Host seconds of the same inputs with no trace sink attached.
    let mut sinkless_wall_s = plain.run.wall_s;
    out.set("host.ref_ns_per_event", meter.ns_per_event());
    if w.sinks {
        let bare = w.rep(seed, RepMode::SINKLESS, &mut meter);
        let same =
            |name: &str| name.starts_with("netsim.trace_") || bare.exact(name) == plain.exact(name);
        if !plain.exact.iter().all(|(n, _)| same(n)) {
            out.fail("attaching trace sinks changed the simulation");
        }
        sinkless_wall_s = bare.run.wall_s;
        out.set("netsim.trace_cost_x", per(plain.run.cal_s, bare.run.cal_s));
        out.set(
            "netsim.trace_ns_per_record",
            per(
                (plain.run.cal_s - bare.run.cal_s) * 1e9,
                plain.exact("netsim.trace_records"),
            ),
        );
    }

    let rungs = ladder::run(
        w,
        plain.exact("simkit.peak_pending") as usize,
        ladder_events,
    );
    out.set("simkit.engine_ns_per_event", rungs.engine);
    out.set("netsim.fabric_ns_per_event", rungs.fabric);
    out.set("transport.ns_per_event", rungs.transport);
    // What routing, rotor and injection logic add on top of rung 2 (the
    // rungs attach no sinks, so the sinks' cost is kept out of the base).
    out.set(
        "opera.logic_share",
        (1.0 - per(rungs.transport, per(sinkless_wall_s * 1e9, events))).max(0.0),
    );
    out
}

/// Run one workload in this process; print every metric, then the samples
/// line, then the result line.
pub fn one(name: &str, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let mut out = match (packet::workload(name), trace) {
        (Some(w), false) => packet_untraced(&w, seed, seconds),
        (Some(w), true) => packet_traced(&w, seed, ladder::EVENTS),
        (None, _) => suite::run(seconds, trace),
    };
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set(
        "host.failed_frac",
        per(out.failed as f64, out.attempted as f64),
    );
    if out.attempted == 0 {
        out.attempted = 1;
        out.failed = 1;
        out.fail("the workload attempted nothing");
    }

    println!(
        "# {name} seed {seed}, {}",
        if trace {
            "traced: per-layer metrics (ladder rungs and logic_share are estimates)"
        } else {
            "untraced: end-to-end metrics (medians; times calibrated to a quiet host)"
        }
    );
    for (metric, unit) in metrics::reported(trace) {
        let v = out.values.get(&metric).copied().unwrap_or(0.0);
        println!("{metric:<44} {v:>18.6} {unit}");
    }
    println!(
        "ops attempted {} failed {} ({})",
        out.attempted,
        out.failed,
        out.error.as_deref().unwrap_or("all checks passed")
    );
    if let Some(spans) = &out.spans {
        let dir = crate::out_dir();
        let path = dir.join(format!("trace.{name}.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            out.fail(format!("{}: {e}", path.display()));
        }
    }
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let exact: Vec<String> = out
        .exact
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"samples\": {{{}}}, \"exact\": {{{}}}}}",
        samples.join(", "),
        exact.join(", ")
    );
    let correct = out.error.is_none();
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, trace, &out.values)
    );
    ExitCode::from(u8::from(!correct))
}

/// Run every workload, one child process each (`current_exe()`), echoing
/// their output; the results go to `out` (for `compare`), or for a traced run
/// to `benchmark/out/trace.json`. `Ok(false)` when a child failed a check.
pub fn all(seed: u64, seconds: u64, trace: bool, out: Option<&Path>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut docs = Vec::new();
    for name in WORKLOADS {
        let t = Instant::now();
        let child = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = child.map_err(|e| format!("spawn {name}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        println!("# {name}: child took {:.1} s\n", t.elapsed().as_secs_f64());
        ok &= output.status.success();
        let mut last = text.lines().rev();
        let (result, detail) = (last.next().unwrap_or(""), last.next().unwrap_or(""));
        let spans = std::fs::read_to_string(crate::out_dir().join(format!("trace.{name}.json")));
        docs.push(format!(
            "\"{name}\": {{\"result\": {result}, \"detail\": {detail}, \"spans\": {}}}",
            spans.as_deref().ok().filter(|_| trace).unwrap_or("[]")
        ));
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{\n{}\n}}}}\n",
        docs.join(",\n")
    );
    Json::parse(&doc).map_err(|e| format!("a child printed no result: {e}"))?;
    let path = match out {
        Some(p) => p.to_path_buf(),
        None if trace => crate::out_dir().join("trace.json"),
        None => return Ok(ok),
    };
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, END_TO_END};

    /// Whether a traced rep of packet workload `w` must measure `metric`: not
    /// the harness metrics, not what `one` adds for every workload, the
    /// `trace_*` derivations on `traced_websearch` alone, and the rotor
    /// counters on Opera alone.
    fn measured_by(w: &str, metric: &str) -> bool {
        let rotor = [
            "opera.bulk_requeued",
            "opera.relay_overflow",
            "opera.bulk_stragglers",
            "opera.nic_backpressure",
        ];
        !(metric.starts_with("bench.") || metric.starts_with("expt."))
            && metric != "host.failed_frac"
            && (w == "traced_websearch"
                || !matches!(metric, "netsim.trace_cost_x" | "netsim.trace_ns_per_record"))
            && (w != "expander_dctcp" || !rotor.contains(&metric))
    }

    #[test]
    fn every_packet_workload_emits_its_metrics_and_spans_leave_counts_alone() {
        for name in &WORKLOADS[..5] {
            let w = packet::workload(name).expect("a packet workload").tiny();
            // `account` fails the outcome if the `Spanned` rep's counts
            // differ from the plain rep's.
            let out = packet_traced(&w, 0, 20_000);
            assert_eq!(out.error, None, "{name}");
            assert!(out.attempted > 0 && out.failed == 0, "{name}");
            for (metric, _, _) in per_layer() {
                assert_eq!(
                    out.values.contains_key(&metric),
                    measured_by(name, &metric),
                    "{name}: {metric}"
                );
            }
            assert!(out.values["simkit.events"] > 0.0, "{name}");
            assert!(out.values["opera.on_arrive_n"] > 0.0, "{name}");
        }
    }

    #[test]
    fn traced_websearch_counts_its_records() {
        let w = packet::workload("traced_websearch").unwrap().tiny();
        let out = packet_traced(&w, 1, 20_000);
        assert_eq!(out.error, None);
        assert!(out.values["netsim.trace_records"] > 0.0);
        assert!(out.values["netsim.trace_pcapng_bytes"] > 0.0);
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric_but_rss() {
        let w = packet::workload("opera_shuffle").unwrap().tiny();
        let out = packet_untraced(&w, 3, 0);
        assert_eq!(out.error, None);
        for (spec, _) in &END_TO_END[..2] {
            assert!(out.values[spec.name] > 0.0, "{}", spec.name);
        }
        assert!(out.samples["setup_s"].len() >= 2);
    }

    #[test]
    fn quick_suite_emits_its_metrics() {
        let out = suite::run(0, true);
        assert_eq!(out.error, None);
        assert_eq!(out.failed, 0);
        for (metric, _, _) in per_layer() {
            if metric.starts_with("bench.") || metric.starts_with("expt.") {
                assert!(out.values[&metric] > 0.0, "no {metric}");
            }
        }
    }

    #[test]
    fn procfs_readers_find_their_fields() {
        assert!(host::peak_rss_mb() > 0.0);
        assert!(host::cpu_s() >= 0.0);
    }
}
