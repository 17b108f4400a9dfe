//! The PR gate on the repo benchmark (ROADMAP 8 (a)): every count a
//! workload of `BENCHMARK.json` prints as `exact` (events, packet-hops,
//! drops and flow results; tables, rows and document bytes for
//! `quick_suite`) must equal the one in the last entry of
//! `BENCH_repo.json`, with no tolerance. The counts repeat bit for bit on
//! any host, so the gate is as quiet as it is tight; time is gated by the
//! nightly job, on one runner.
//!
//! [`last_entry_holds_exactly_the_benchmark_workloads`] keeps the entry
//! complete, so the gate cannot pass by skipping a workload. CI's
//! `benchmark-seam` job saves each one-second smoke's output as
//! `<dir>/<workload>.txt` and then runs the ignored gate on them:
//!
//! ```sh
//! BENCH_SMOKES=<dir> cargo test -q --test bench_gate -- --ignored --nocapture
//! ```
//!
//! The entry's allocation counts are printed beside the smoke's (a smoke
//! prints them with `--trace 1`) but do not gate: `rust-toolchain.toml`
//! pins a channel, not a version, so the standard library's allocations
//! can move with no change to this repo.

use expt::json::Json;
use std::path::Path;

/// The allocation counts printed beside the gate.
const ALLOCS: [&str; 3] = [
    "host.alloc_count_setup",
    "host.alloc_count_run",
    "host.alloc_bytes_run",
];

fn read_json(file: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The workloads `BENCHMARK.json` declares, in its order.
fn benchmark_workloads() -> Vec<String> {
    let doc = read_json("BENCHMARK.json");
    let list = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    list.iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The last entry of `BENCH_repo.json`.
fn last_entry() -> Json {
    let doc = read_json("BENCH_repo.json");
    let entries = doc.get("entries").and_then(Json::as_arr).expect("entries");
    entries.last().expect("an entry").clone()
}

/// `(name, value)` of every member of the object `json`, if it is one.
fn members(json: Option<&Json>) -> Vec<(String, f64)> {
    match json {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => Vec::new(),
    }
}

/// How a smoke's stdout (`smoke`) is off `entry`'s record of `workload`:
/// each exact count that differs, is missing or is not in the entry.
fn gate(entry: &Json, workload: &str, smoke: &str) -> Vec<String> {
    let recorded = members(
        entry
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("exact")),
    );
    let Some(detail) = smoke
        .lines()
        .find(|l| l.starts_with("{\"samples\""))
        .and_then(|l| Json::parse(l).ok())
    else {
        return vec![format!("{workload}: the smoke printed no detail line")];
    };
    let measured = members(detail.get("exact"));
    let mut off = Vec::new();
    for (name, want) in &recorded {
        match measured.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got.to_bits() == want.to_bits() => {}
            Some((_, got)) => off.push(format!("{workload}: {name}: {got}, recorded {want}")),
            None => off.push(format!("{workload}: {name}: not printed, recorded {want}")),
        }
    }
    for (name, got) in &measured {
        if !recorded.iter().any(|(n, _)| n == name) {
            off.push(format!("{workload}: {name}: {got}, not recorded"));
        }
    }
    off
}

#[test]
fn last_entry_holds_exactly_the_benchmark_workloads() {
    let entry = last_entry();
    let Some(Json::Obj(recorded)) = entry.get("workloads") else {
        panic!("the last entry has no workloads");
    };
    let mut names: Vec<&String> = recorded.keys().collect();
    names.sort();
    let mut declared = benchmark_workloads();
    declared.sort();
    assert_eq!(names, declared.iter().collect::<Vec<_>>());
    for w in &declared {
        let exact = members(recorded[w].get("exact"));
        assert!(!exact.is_empty(), "{w}: no exact counts");
        assert!(exact.iter().all(|(_, v)| v.is_finite()), "{w}: {exact:?}");
    }
}

/// The gate passes the entry's own counts and names each count that
/// moved, went missing or is new.
#[test]
fn the_gate_names_every_moved_count() {
    let entry = last_entry();
    let exact = |w: &str| members(entry.get("workloads").unwrap().get(w).unwrap().get("exact"));
    let smoke = |counts: &[(String, f64)]| {
        let body: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!(
            "# a smoke\n{{\"samples\": {{}}, \"exact\": {{{}}}}}\n{{\"correct\": true}}\n",
            body.join(", ")
        )
    };
    for w in benchmark_workloads() {
        assert_eq!(
            gate(&entry, &w, &smoke(&exact(&w))),
            Vec::<String>::new(),
            "{w}"
        );
    }
    let mut counts = exact("opera_websearch");
    counts[0].1 += 1.0;
    let removed = counts.pop().expect("a count");
    counts.push(("netsim.new_count".into(), 3.0));
    let off = gate(&entry, "opera_websearch", &smoke(&counts));
    assert_eq!(off.len(), 3, "{off:#?}");
    assert!(off[0].starts_with(&format!("opera_websearch: {}: ", counts[0].0)));
    assert!(off[1].starts_with(&format!("opera_websearch: {}: not printed", removed.0)));
    assert_eq!(off[2], "opera_websearch: netsim.new_count: 3, not recorded");
    let none = gate(&entry, "opera_websearch", "ops attempted 1 failed 1\n");
    assert_eq!(none, ["opera_websearch: the smoke printed no detail line"]);
}

#[test]
#[ignore = "reads the benchmark smokes' output from the directory $BENCH_SMOKES"]
fn smokes_match_the_last_entry() {
    let dir = std::env::var("BENCH_SMOKES").expect("BENCH_SMOKES names the smokes' directory");
    let entry = last_entry();
    let rev = entry.get("rev").and_then(Json::as_str).unwrap_or("?");
    let mut off = Vec::new();
    for w in benchmark_workloads() {
        let path = Path::new(&dir).join(format!("{w}.txt"));
        let smoke =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let found = gate(&entry, &w, &smoke);
        let recorded = ALLOCS.map(|name| {
            let e = entry.get("workloads").and_then(|e| e.get(&w));
            e.and_then(|e| e.get(name)).map_or("-".into(), Json::render)
        });
        let printed = ALLOCS.map(|name| {
            let line = smoke.lines().find_map(|l| l.strip_prefix(name));
            line.and_then(|rest| rest.split_whitespace().next())
                .unwrap_or("-")
        });
        println!(
            "{w:<20} exact counts {}; allocations at set-up / in the run / bytes (not gated): {} here, {} in {rev}",
            if found.is_empty() { "equal" } else { "DIFFER" },
            printed.join(" / "),
            recorded.join(" / "),
        );
        off.extend(found);
    }
    assert!(
        off.is_empty(),
        "{} exact count(s) off BENCH_repo.json's last entry ({rev}):\n  {}",
        off.len(),
        off.join("\n  ")
    );
}
