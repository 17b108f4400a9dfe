//! `bench_record` — measure the hot-path scenario set and maintain the
//! committed performance trajectory (`BENCH_hot_paths.json`).
//!
//! ```text
//! bench_record                   # quick scenarios, append an entry
//! bench_record --full            # nightly configuration, append an entry
//! bench_record --check           # CI gate: no append; fail on >30% drop
//! bench_record --check --fresh-out fresh.json   # also write the fresh
//!                                # record (uploaded as a CI artifact)
//! bench_record --out PATH        # trajectory file (default: workspace root)
//! bench_record --threshold 0.5   # override the gate's drop fraction
//! ```
//!
//! The trajectory file is **append-only**: `--check` never writes it, a
//! record run only adds an entry. See the README's "Performance
//! trajectory" section for the schema.

use bench::record;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    full: bool,
    check: bool,
    out: PathBuf,
    fresh_out: Option<PathBuf>,
    threshold: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        full: false,
        check: false,
        out: PathBuf::from(record::DEFAULT_PATH),
        fresh_out: None,
        threshold: record::DEFAULT_THRESHOLD,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--full" => args.full = true,
            "--quick" => args.full = false,
            "--check" => args.check = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--fresh-out" => args.fresh_out = Some(PathBuf::from(value("--fresh-out")?)),
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_record [--quick|--full] [--check] [--out PATH] \
                     [--fresh-out PATH] [--threshold FRACTION]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// `HEAD`'s short hash, with `-dirty` appended when tracked files differ
/// from it — an entry recorded before its change is committed must not
/// read as a measurement of the parent.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if !changes.is_empty() => rev + "-dirty",
        _ => rev,
    }
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_record: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.full { "full" } else { "quick" };
    eprintln!(
        "bench_record: engine={} mode={mode}",
        simkit::engine::ENGINE_NAME
    );
    let results = record::run_all(args.full);
    for r in &results {
        println!(
            "{:<24} {:>12.0} events/sec  ({} events, wall median {:.3} ms, σ {:.3} ms, \
             peak pending {})",
            r.name,
            r.events_per_sec,
            r.events,
            r.wall.median.as_secs_f64() * 1e3,
            r.wall.stddev.as_secs_f64() * 1e3,
            r.peak_pending,
        );
    }

    let entry = record::entry(&results, mode, unix_now(), &git_rev());
    if let Some(fresh) = &args.fresh_out {
        if let Err(e) = std::fs::write(fresh, entry.render() + "\n") {
            eprintln!("bench_record: writing {}: {e}", fresh.display());
            return ExitCode::FAILURE;
        }
    }

    if args.check {
        let doc = match record::load(&args.out) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("bench_record: loading {}: {e}", args.out.display());
                return ExitCode::FAILURE;
            }
        };
        let failures = record::check(&doc, &results, mode, args.threshold);
        if failures.is_empty() {
            println!(
                "bench_record: gate PASSED against {} (threshold {:.0}%)",
                args.out.display(),
                args.threshold * 100.0
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("bench_record: gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }

    match record::append(&args.out, entry) {
        Ok(()) => {
            println!(
                "bench_record: appended {mode} entry to {}",
                args.out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_record: appending to {}: {e}", args.out.display());
            ExitCode::FAILURE
        }
    }
}
