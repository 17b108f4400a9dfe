//! `compare A.json B.json`: two `run --out` files, workload by workload.
//!
//! For every workload × end-to-end metric it prints both reported values,
//! the quartiles of the per-rep samples behind each, and the ratio B / A
//! (base: A). It exits non-zero when a metric
//! differs by more than its bound, when B's failed share is above A's, or
//! when an exact value (a count or a simulated result) differs. The same
//! tool serves the A/A acceptance run and later parent-vs-change tables.

use crate::metrics::{quartiles, END_TO_END, WORKLOADS};
use crate::surface::Json;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload's reported value of `metric`, and the quartiles and count
/// of the per-rep samples behind it (the value alone when there are none).
fn shown(entry: &Json, metric: &str) -> Option<(f64, String)> {
    let value = entry
        .get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()?;
    let samples: Vec<f64> = entry
        .get("detail")
        .and_then(|d| d.get("samples"))
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let (q1, _, q3) = match samples.len() {
        0 | 1 => (value, value, value),
        _ => quartiles(&samples),
    };
    let n = samples.len().max(1);
    Some((value, format!("[{}, {}] {n}", sig(q1), sig(q3))))
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0.0
    } else {
        x.abs().log10().floor()
    };
    format!("{x:.*}", (4.0 - digits).clamp(0.0, 9.0) as usize)
}

fn failed_frac(entry: &Json) -> Option<f64> {
    let result = entry.get("result")?;
    Some(result.get("failed")?.as_f64()? / result.get("attempted")?.as_f64()?.max(1.0))
}

pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut differ = Vec::new();
    println!(
        "{:<19} {:<17} {:>10} {:>24} {:>10} {:>24} {:>6} {:>5}",
        "workload", "metric", "A", "A reps [q1, q3] n", "B", "B reps [q1, q3] n", "B/A", "bound"
    );
    for w in WORKLOADS {
        let entry = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (Some(ea), Some(eb)) = (entry(&a), entry(&b)) else {
            differ.push(format!("{w}: missing from one file"));
            continue;
        };
        for (spec, bound) in &END_TO_END {
            let (Some((va, ra)), Some((vb, rb))) = (shown(&ea, spec.name), shown(&eb, spec.name))
            else {
                continue;
            };
            let ratio = vb / va;
            println!(
                "{w:<19} {:<17} {:>10} {ra:>24} {:>10} {rb:>24} {ratio:>6.3} {:>4.0}%",
                spec.name,
                sig(va),
                sig(vb),
                bound * 100.0
            );
            if (ratio - 1.0).abs() > *bound {
                differ.push(format!(
                    "{w}: {} differs by {:+.1} % of A ({} → {} {}), bound {:.0} %",
                    spec.name,
                    (ratio - 1.0) * 100.0,
                    sig(va),
                    sig(vb),
                    spec.unit,
                    bound * 100.0
                ));
            }
        }
        match (failed_frac(&ea), failed_frac(&eb)) {
            (Some(fa), Some(fb)) => {
                println!(
                    "{w:<19} {:<17} {fa:>10.5} {:>24} {fb:>10.5}",
                    "failed_frac", ""
                );
                if fb > fa {
                    differ.push(format!("{w}: failed_frac rose from {fa} to {fb}"));
                }
            }
            _ => differ.push(format!("{w}: no result in one file")),
        }
        let exact = |e: &Json| {
            e.get("detail")
                .and_then(|d| d.get("exact"))
                .map(Json::render)
        };
        if exact(&ea) != exact(&eb) {
            differ.push(format!(
                "{w}: exact values differ:\n  A {}\n  B {}",
                exact(&ea).unwrap_or_default(),
                exact(&eb).unwrap_or_default()
            ));
        }
    }
    if differ.is_empty() {
        println!("every metric within its bound; failed_frac and exact values equal");
        ExitCode::SUCCESS
    } else {
        for d in &differ {
            println!("DIFFERS {d}");
        }
        ExitCode::FAILURE
    }
}
