//! The metric registry (names, units, direction) and the result line.
//!
//! `BENCHMARK.json` at the repo root lists the same metrics; a self-test
//! keeps the two equal. What each per-layer metric should move, and on
//! which workload, is written down in README.md.

use std::collections::BTreeMap;

/// One metric: name, unit, and whether lower or higher is better.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "higher",
    }
}

/// The six workloads, in run order.
pub const WORKLOADS: [&str; 6] = [
    "opera_websearch",
    "opera_shuffle",
    "expander_dctcp",
    "paper648_websearch",
    "traced_websearch",
    "quick_suite",
];

/// End-to-end metrics with the share of the parent's median by which each
/// may get worse. All are host-side; never taken from a traced run.
pub const END_TO_END: [(Spec, f64); 3] = [
    (lower("cal_ns_per_work", "ns"), 0.20),
    (lower("setup_s", "s"), 0.25),
    (lower("peak_rss_mb", "MiB"), 0.20),
];

/// The 20 driver names of `bench::figures::all()`, in registry order.
pub const DRIVERS: [&str; 20] = [
    "fig01_flow_dists",
    "fig04_path_lengths",
    "fig07_datamining_fct",
    "fig08_shuffle_throughput",
    "fig09_websearch_fct",
    "fig10_mixed_throughput",
    "fig11_fault_tolerance",
    "fig12_cost_sweep",
    "fig13_prototype_rtt",
    "fig14_cycle_time_scaling",
    "fig16_path_scaling",
    "fig17_spectral_gap",
    "fig18_failure_stretch",
    "fig19_clos_failures",
    "fig20_expander_failures",
    "table1_ruleset",
    "table2_cost_model",
    "ablate_design",
    "ablate_queue",
    "ablate_transport",
];

/// Per-layer metrics, `<crate>.<metric>`, except `bench.driver_s.<driver>`
/// which [`per_layer`] appends for each of [`DRIVERS`].
const LAYERS: [Spec; 61] = [
    lower("host.wall_s", "s"),
    lower("host.ref_ns_per_event", "ns"),
    lower("host.failed_frac", "ratio"),
    lower("host.cpu_s", "s"),
    lower("host.alloc_count_setup", "count"),
    lower("host.alloc_count_run", "count"),
    lower("host.alloc_bytes_run", "B"),
    lower("host.allocs_per_kevent", "1/kevent"),
    lower("host.trace_overhead_frac", "ratio"),
    lower("simkit.events", "count"),
    lower("simkit.peak_pending", "count"),
    lower("simkit.ns_per_event", "ns"),
    lower("simkit.run_self_s", "s"),
    lower("simkit.engine_ns_per_event", "ns"),
    higher("workloads.flows", "count"),
    higher("workloads.bytes_offered", "B"),
    lower("workloads.gen_s", "s"),
    lower("topo.generate_s", "s"),
    lower("netsim.queued", "count"),
    lower("netsim.pkt_hops", "count"),
    lower("netsim.trimmed", "count"),
    lower("netsim.dropped", "count"),
    lower("netsim.dark_drops", "count"),
    lower("netsim.failed_drops", "count"),
    lower("netsim.ecn_marked", "count"),
    lower("netsim.pause_frames", "count"),
    lower("netsim.arena_peak_live", "count"),
    higher("netsim.flows_completed", "count"),
    higher("netsim.bytes_delivered", "B"),
    lower("netsim.loss_ratio", "ratio"),
    lower("netsim.ns_per_pkt_hop", "ns"),
    lower("netsim.fabric_ns_per_event", "ns"),
    higher("netsim.trace_records", "count"),
    higher("netsim.trace_jsonl_bytes", "B"),
    higher("netsim.trace_pcapng_bytes", "B"),
    lower("netsim.trace_cost_x", "ratio"),
    lower("netsim.trace_ns_per_record", "ns"),
    lower("transport.ns_per_event", "ns"),
    lower("opera.on_arrive_s", "s"),
    lower("opera.on_arrive_n", "count"),
    lower("opera.on_timer_s", "s"),
    lower("opera.on_timer_n", "count"),
    lower("opera.tables_build_s", "s"),
    lower("opera.net_build_rest_s", "s"),
    lower("opera.stats_s", "s"),
    lower("opera.bulk_requeued", "count"),
    lower("opera.relay_overflow", "count"),
    lower("opera.bulk_stragglers", "count"),
    lower("opera.nic_backpressure", "count"),
    lower("opera.hop_limit_drops", "count"),
    lower("opera.logic_share", "ratio"),
    lower("sim.fct_p50_us", "us"),
    lower("sim.fct_p99_us", "us"),
    higher("sim.goodput_gbps", "Gb/s"),
    lower("sim.end_ms", "ms"),
    higher("bench.tables", "count"),
    higher("bench.rows", "count"),
    lower("expt.write_tables_s", "s"),
    lower("expt.doc_bytes", "B"),
    lower("expt.parse_s", "s"),
    lower("expt.golden_compare_s", "s"),
];

/// Every per-layer metric as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = LAYERS
        .iter()
        .map(|s| (s.name.to_string(), s.unit, s.better))
        .collect();
    out.extend(
        DRIVERS
            .iter()
            .map(|d| (format!("bench.driver_s.{d}"), "s", "lower")),
    );
    out
}

/// The metrics a run reports, `(name, unit)`: per-layer when traced, else
/// end-to-end.
pub fn reported(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|(s, _)| (s.name.to_string(), s.unit))
            .collect()
    }
}

/// Measured values by metric name; a metric a workload has no use for is
/// reported as 0.
pub type Values = BTreeMap<String, f64>;

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, every value with all its digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    trace: bool,
    values: &Values,
) -> String {
    let metrics: Vec<String> = reported(trace)
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not a number");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (exclusive method), so `compare` reads the spread as the driver does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |q: usize| {
        let pos = (q * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{figures, Json};

    fn manifest(path: &str) -> String {
        let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(s, _)| s.name.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.to_string()));
        for n in &names {
            assert!(ok(n, "_.-") && n.len() <= 64, "bad name {n}");
        }
        for (_, unit, _) in per_layer() {
            assert!(ok(unit, "_/%.-") && unit.len() <= 16, "bad unit {unit}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn drivers_are_the_figure_registry() {
        let registry: Vec<&str> = figures::all().iter().map(|(e, _)| e.name).collect();
        assert_eq!(registry, DRIVERS);
    }

    #[test]
    fn benchmark_json_lists_the_registry() {
        let doc = Json::parse(&manifest("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|(s, b)| {
                (
                    s.name.to_string(),
                    s.unit.to_string(),
                    s.better.to_string(),
                    *b,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        assert!(e2e
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        values.insert("setup_s".into(), 0.25);
        for trace in [false, true] {
            let line = Json::parse(&result_line(true, 7, 0, trace, &values)).expect("valid JSON");
            let Json::Obj(top) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics")
            };
            let want = if trace {
                per_layer().len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want);
        }
    }

    /// The `[profile.release]` table of a manifest, as sorted `key = value` lines.
    fn release_profile(toml: &str) -> Vec<String> {
        let mut lines: Vec<String> = toml
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect::<String>())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_equals_the_roots() {
        let ours = release_profile(&manifest("Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(&manifest("../Cargo.toml")));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartiles(&[11.0, 1.0, 7.0, 2.0, 4.0]), (1.5, 4.0, 9.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
