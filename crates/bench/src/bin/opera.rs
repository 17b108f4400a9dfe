//! `opera` — the one command-line front-end of the reproduction; every
//! subcommand is listed in [`USAGE`].
//!
//! * `list` / `run` — the driver registry ([`bench::figures::all`]):
//!   `run <driver>` builds that driver's tables, prints them as CSV and
//!   (unless `--no-write`) writes `<out>/<driver>/<table>.{csv,json}`.
//! * `orchestrate` — run each `driver × shard` job once on a pool of
//!   in-process worker threads, each calling [`bench::figures::build`]
//!   (a panicking driver fails its job, not the sweep), commit each
//!   job's shard documents under `<out>/<driver>/shards/` the moment the
//!   job completes, and finally the validated merged tables —
//!   byte-identical to an unsharded `--threads 1` run (asserted by
//!   `tests/orchestrate.rs`). Every file is written as `run` writes
//!   its own (`expt::output::write_tables`: a call's files staged, then
//!   renamed together), so shard documents `run --shard i/n` wrote on
//!   other machines, gathered into one tree, are kept and merged. Into a tree that already holds the run,
//!   it keeps every job whose documents are whole and re-runs the rest,
//!   one `rerun` line each: re-running a killed or failed sweep
//!   finishes it. A driver named twice, `--shards 0`, or a tree holding
//!   a document of another run (other flags or shard count) is exit 2
//!   before anything runs.
//! * `validate` — re-merge the shard documents on disk through the
//!   orchestrator's merge and fail, naming the invariant, on a missing or
//!   duplicated point index or shard document, a document under another
//!   job's file name, mismatched schema/flags, or a merged CSV or
//!   `<table>.json` that no longer matches its shards (or has none left).
//! * `run-scenario` — decode one declarative scenario file
//!   ([`bench::scenario::Scenario::load`]) and run it through
//!   [`bench::scenario::run_scenario`], with trace capture and jsonl ↔
//!   pcapng reconciliation when the scenario requests traces; every
//!   point's run, named `scenario/<name>/<topology>/<policy>/…`, is then
//!   held to the counter census ([`bench::judge`]). A point that
//!   completes every flow must also drain by `run.duration_ms`, so give
//!   it at least an RTT past its last completion, or the final ACKs
//!   still in flight read as a `drained` finding.
//! * `golden` — run every driver in the canonical quick mode and diff
//!   its tables against `goldens/<driver>/`; `--bless` re-records them
//!   (byte-idempotent on an unmodified tree).
//! * `spot` — the nightly paper-scale [`bench::spot`] suite against
//!   `goldens/full/`, with each point's wall time, events, packet-hops
//!   and peak memory on a `# cost` line, and every run held to the
//!   counter census ([`bench::judge`]).
//!
//! Exit codes: 0 on success and for `--help`; 2 for a command line that
//! cannot be run (unknown subcommand, flag, driver, point or scenario
//! name, a scenario file that does not decode, an output tree of another
//! run — the message names the file and the known set or the field); 1
//! when the work itself failed (drift, a census finding not in
//! `tests/known_failures.txt`, a failed job, I/O).

use bench::scenario::Scenario;
use bench::{figures, spot};
use expt::orchestrate::{start_run, validate_dir, OrchestrateError, Plan};
use expt::{Args, Ctx, ExptArgs, RunFlags, RunMeta, Scale};
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: opera list
       opera run <driver> [--quick|--full] [--threads N] [--seed S] [--replicates R]
                 [--shard I/N] [--out DIR] [--no-write]
       opera orchestrate [--drivers all|A,B,...] [--shards N] [--workers W]
                 [--quick|--full] [--seed S] [--replicates R] [--out DIR]
       opera validate [--out DIR]
       opera run-scenario FILE [--out DIR]
       opera golden [--bless] [--threads N] [--driver NAME]...
       opera spot [--bless] [--point NAME]...
";

/// Why a subcommand did not succeed.
enum Exit {
    /// Malformed command line: message and usage, exit 2.
    Usage(String),
    /// A well-formed command line naming something unknown or
    /// unreadable; the message names the known set. Exit 2.
    Invalid(String),
    /// The work itself failed. Exit 1.
    Failed(String),
}

/// What the [`Args`] cursor and the flag parsers report is a usage error.
impl From<String> for Exit {
    fn from(msg: String) -> Exit {
        Exit::Usage(msg)
    }
}

fn failed(e: impl Display) -> Exit {
    Exit::Failed(e.to_string())
}

fn unknown(arg: &str) -> Exit {
    Exit::Usage(format!("unknown argument: {arg}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut args = Args::new(argv);
    let result = match args.next().as_deref() {
        Some("list") => list(args),
        Some("run") => run(args),
        Some("orchestrate") => orchestrate(args),
        Some("validate") => validate(args),
        Some("run-scenario") => run_scenario(args),
        Some("golden") => golden(args),
        Some("spot") => spot_suite(args),
        Some(other) => Err(Exit::Usage(format!("unknown subcommand: {other}"))),
        None => Err(Exit::Usage("a subcommand is required".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Usage(msg)) => {
            eprint!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Exit::Invalid(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(Exit::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn driver_names() -> Vec<&'static str> {
    figures::all().iter().map(|(e, _)| e.name).collect()
}

/// Every name must be one of `known`. A typo must never let a check
/// pass vacuously or a run exit 0 having scheduled nothing, so this
/// runs before any work does.
fn require_known(what: &str, names: &[String], known: &[&str]) -> Result<(), Exit> {
    match names.iter().find(|n| !known.contains(&n.as_str())) {
        Some(n) => Err(unknown_name(what, n, known)),
        None => Ok(()),
    }
}

fn unknown_name(what: &str, name: &str, known: &[&str]) -> Exit {
    Exit::Invalid(format!(
        "no {what} named {name:?}; known {what}s: {known:?}"
    ))
}

fn list(mut args: Args) -> Result<(), Exit> {
    if let Some(a) = args.next() {
        return Err(unknown(&a));
    }
    for name in driver_names() {
        println!("{name}");
    }
    Ok(())
}

fn run(mut args: Args) -> Result<(), Exit> {
    let name = args
        .next()
        .ok_or_else(|| Exit::Usage("run requires a driver name".into()))?;
    let (exp, build) =
        figures::find(&name).ok_or_else(|| unknown_name("driver", &name, &driver_names()))?;
    let ctx = Ctx::new(ExptArgs::parse_from(args)?);
    expt::emit(&exp, &ctx, &build(&ctx)).map_err(|e| {
        let dir = ctx.args.out.join(exp.name);
        Exit::Failed(format!("writing results under {}: {e}", dir.display()))
    })
}

fn orchestrate(mut args: Args) -> Result<(), Exit> {
    let mut drivers = "all".to_string();
    let mut shards = 2;
    let mut workers = 0;
    let mut flags = RunFlags::of(&ExptArgs::default());
    let mut out = PathBuf::from("results");
    while let Some(a) = args.next() {
        if flags.take_arg(&a, &mut args)? {
            continue;
        }
        // `run`'s --threads, --shard and --no-write are unknown here: a
        // job runs on one thread, the plan decides its shard, and every
        // job is written.
        match a.as_str() {
            "--drivers" => drivers = args.value(&a)?,
            "--shards" => shards = args.at_least_one(&a)?,
            "--workers" => workers = args.parsed(&a)?,
            "--out" => out = PathBuf::from(args.value(&a)?),
            other => return Err(unknown(other)),
        }
    }
    let known = driver_names();
    let drivers: Vec<String> = match drivers.as_str() {
        "all" => known.iter().map(|s| s.to_string()).collect(),
        list => list.split(',').map(|d| d.trim().to_string()).collect(),
    };
    require_known("driver", &drivers, &known)?;
    let count = drivers.len();
    let plan = Plan::new(drivers, shards).map_err(Exit::Invalid)?;
    println!(
        "# orchestrating {} driver(s) x {} shard(s), scale={}, seed={}, replicates={}",
        count, shards, flags.scale, flags.seed, flags.replicates
    );

    // Durable run: every shard committed as its job completes, merged
    // CSVs at the end; what `out` already holds of this run is kept.
    let run = start_run(&out, &plan, flags, figures::build, workers);
    let (report, csvs) = run.map_err(|e| match e {
        OrchestrateError::Job { .. } | OrchestrateError::Merge { .. } => Exit::Failed(format!(
            "{e}\n# completed shards are persisted under {}; after fixing the cause, \
             run the same command again to run only the rest",
            out.display()
        )),
        OrchestrateError::OtherRun { .. } => Exit::Invalid(format!(
            "{e}\n# a results tree belongs to one run: choose another --out, or remove {}",
            out.display()
        )),
        other => failed(other),
    })?;
    for r in &report.rerun {
        println!(
            "rerun  {} shard {}/{}: {}",
            r.job.driver, r.job.shard.0, r.job.shard.1, r.reason
        );
    }
    if report.reused > 0 {
        println!("# kept {} job(s) under {}", report.reused, out.display());
    }
    for run in &report.drivers {
        println!(
            "ok  {} [{} shard(s), {} table(s)]",
            run.driver,
            shards,
            run.merged.len()
        );
    }
    println!(
        "# {} job(s) across {} driver(s); every merge validated",
        report.drivers.len() * shards,
        report.drivers.len()
    );
    for p in csvs {
        println!("# wrote {}", p.display());
    }
    Ok(())
}

fn validate(mut args: Args) -> Result<(), Exit> {
    let mut out = PathBuf::from("results");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.value(&a)?),
            other => return Err(unknown(other)),
        }
    }
    let tables = validate_dir(&out).map_err(failed)?;
    if tables.is_empty() {
        return Err(Exit::Failed(format!(
            "no shard documents under {} (nothing to validate)",
            out.display()
        )));
    }
    for t in &tables {
        println!(
            "ok  {}/{} [{} shard(s), {} row(s)]",
            t.driver, t.table, t.shards, t.rows
        );
    }
    println!("# {} merged table(s) validated", tables.len());
    Ok(())
}

fn run_scenario(mut args: Args) -> Result<(), Exit> {
    let mut file: Option<PathBuf> = None;
    let mut out = PathBuf::from("results/scenarios");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.value(&a)?),
            _ if a.starts_with('-') => return Err(unknown(&a)),
            _ if file.is_some() => return Err(Exit::Usage(format!("unexpected argument: {a}"))),
            _ => file = Some(PathBuf::from(a)),
        }
    }
    let file = file.ok_or_else(|| Exit::Usage("run-scenario requires a scenario file".into()))?;
    // An unreadable file, an unknown key or name, or a value out of
    // bounds is exit 2, before any simulation starts.
    let sc = Scenario::load(&file).map_err(Exit::Invalid)?;
    let report = bench::scenario::run_scenario(&sc, &out.join(&sc.name)).map_err(failed)?;
    println!("# scenario {} ({} point(s))", sc.name, sc.points.len());
    for (pt, (m, r)) in sc.points.iter().zip(&report.results) {
        let counter = |name| r.counter(name).unwrap_or(0);
        println!(
            "{}/{} senders={}: {}/{} flows, avg_fct={:.1}us p99={:.1}us \
             dropped={} trimmed={} marked={}",
            pt.policy.0,
            pt.transport.0,
            pt.senders,
            m.completed,
            m.offered,
            m.avg_fct_us,
            m.p99_fct_us,
            counter("dropped"),
            counter("trimmed"),
            counter("ecn_marked")
        );
    }
    let written = [
        Some(&report.csv),
        report.trace_jsonl.as_ref(),
        report.trace_pcapng.as_ref(),
    ];
    for p in written.into_iter().flatten() {
        println!("# wrote {}", p.display());
    }
    if let Some(v) = &report.validation {
        println!(
            "# traces reconciled: {} packet(s) on {} link(s), {} jsonl record(s)",
            v.pcapng_packets, v.links, v.jsonl_records
        );
    }
    judge()
}

/// Hold every packet run of this process to the counter census, run by
/// run, less the known failures of those runs ([`bench::judge`]).
fn judge() -> Result<(), Exit> {
    let runs = bench::run_records();
    bench::judge(bench::COUNTER_CENSUS, bench::known_failures(), &runs, false).map_err(Exit::Failed)
}

fn golden(mut args: Args) -> Result<(), Exit> {
    let mut bless = false;
    let mut threads = 0usize;
    let mut only: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bless" => bless = true,
            "--threads" => threads = args.parsed(&a)?,
            "--driver" => only.push(args.value(&a)?),
            other => return Err(unknown(other)),
        }
    }
    require_known("driver", &only, &driver_names())?;
    let root = figures::golden_root();
    let ctx = figures::golden_ctx(threads);
    let mut total = 0usize;
    for (exp, build) in figures::all() {
        if !only.is_empty() && !only.iter().any(|n| n == exp.name) {
            continue;
        }
        let meta = RunMeta::new(exp.name, &ctx.args);
        let drifts = figures::golden_run(&build(&ctx), &meta, &root, bless)
            .map_err(|e| Exit::Failed(format!("{}: {e}", exp.name)))?;
        if bless {
            println!("blessed {}", exp.name);
        } else if drifts.is_empty() {
            println!("ok      {}", exp.name);
        } else {
            println!("DRIFT   {} ({} difference(s))", exp.name, drifts.len());
            for d in &drifts {
                println!("  {d}");
            }
            total += drifts.len();
        }
    }
    if total > 0 {
        return Err(Exit::Failed(format!(
            "{total} drift(s) from committed goldens; if intended, re-record with \
             `cargo run --release -p bench --bin opera -- golden --bless`"
        )));
    }
    Ok(())
}

fn spot_suite(mut args: Args) -> Result<(), Exit> {
    let mut bless = false;
    let mut only: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bless" => bless = true,
            "--point" => only.push(args.value(&a)?),
            other => return Err(unknown(other)),
        }
    }
    let known: Vec<&str> = spot::all().iter().map(|&(n, _)| n).collect();
    require_known("spot point", &only, &known)?;
    if bless && !only.is_empty() {
        // A partial bless would delete the other points' goldens.
        return Err(Exit::Usage(
            "--bless records the whole suite; drop --point".into(),
        ));
    }

    // The spot provenance: full scale, seed 0, one observation per
    // point (the spot tables are raw measurements, not replicate
    // means).
    let meta = RunMeta {
        driver: spot::DRIVER.to_string(),
        flags: RunFlags {
            scale: Scale::Full,
            seed: 0,
            replicates: 1,
        },
        shard: None,
    };
    let root = figures::golden_root();
    let mut tables = Vec::new();
    for (name, build) in spot::all() {
        if !only.is_empty() && !only.iter().any(|n| n == name) {
            continue;
        }
        eprintln!("# running spot point {name} (paper scale; minutes, not seconds)");
        let (table, cost) = spot::measure(name, build);
        println!("table,{}", table.name);
        print!("{}", table.to_csv());
        println!("# cost {name}: {cost}");
        tables.push(table);
    }
    judge()?;

    let drifts = figures::golden_run(&tables, &meta, &root, bless)
        .map_err(|e| Exit::Failed(format!("{}: {e}", spot::DRIVER)))?;
    if bless {
        for t in &tables {
            let path = root.join(spot::DRIVER).join(format!("{}.csv", t.name));
            println!("# blessed {}", path.display());
        }
        return Ok(());
    }
    // A run restricted by --point still compares its tables; it skips
    // only the whole-suite stale-file and manifest checks.
    let drifts: Vec<_> = drifts
        .into_iter()
        .filter(|d| only.is_empty() || tables.iter().any(|t| t.name == d.table) || d.table == "*")
        .collect();
    if drifts.is_empty() {
        println!("# ok: spot baselines match goldens/{}/", spot::DRIVER);
        return Ok(());
    }
    for d in &drifts {
        eprintln!("DRIFT {d}");
    }
    Err(Exit::Failed(format!(
        "{} drift(s) from goldens/{}/; if intended, re-record with \
         `cargo run --release -p bench --bin opera -- spot --bless`",
        drifts.len(),
        spot::DRIVER
    )))
}
