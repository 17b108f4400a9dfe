//! The repo benchmark. See README.md for workloads, metrics and method.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]   one workload, in process
//! benchmark run   [--seed S] [--seconds N] [--out FILE]           every workload, a child each
//! benchmark trace [--seed S]                                      same, traced; writes out/trace.json
//! benchmark compare A.json B.json                                 two `run --out` files
//! ```

mod alloc;
mod compare;
mod discard;
mod host;
mod ladder;
mod measure;
mod metrics;
mod packet;
mod reference;
mod spans;
mod suite;
mod surface;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where `trace` and `quick_suite` write: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage: benchmark --workload <name> [--seed S] [--seconds N] [--trace 0|1]
       benchmark run [--seed S] [--seconds N] [--out FILE]
       benchmark trace [--seed S]
       benchmark compare A.json B.json";

/// Flags shared by every mode but `compare`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 0,
        seconds: 20,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value.to_string()),
            "--seed" => f.seed = number()?,
            "--seconds" => f.seconds = number()?,
            "--trace" => f.trace = number()? != 0,
            "--out" => f.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "compare")) => (m, &args[1..]),
        _ => ("one", &args[..]),
    };
    let usage_error = |e: String| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    };
    if mode == "compare" {
        return match rest {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => usage_error("compare takes two files".into()),
        };
    }
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => return usage_error(e),
    };
    match (mode, &flags.workload) {
        ("one", Some(w)) if metrics::WORKLOADS.contains(&w.as_str()) => {
            measure::one(w, flags.seed, flags.seconds, flags.trace)
        }
        ("one", Some(w)) => usage_error(format!("unknown workload `{w}`")),
        ("one", None) => usage_error("no workload named".into()),
        (_, Some(_)) => usage_error(format!("{mode} runs every workload")),
        ("trace", None) if flags.out.is_some() => {
            usage_error("trace writes benchmark/out/trace.json".into())
        }
        (_, None) => {
            match measure::all(
                flags.seed,
                flags.seconds,
                mode == "trace",
                flags.out.as_deref(),
            ) {
                Ok(ok) => ExitCode::from(u8::from(!ok)),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
