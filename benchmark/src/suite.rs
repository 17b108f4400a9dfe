//! `quick_suite`: the harness path bench → expt → disk.
//!
//! One pass builds all 20 `bench::figures::all()` drivers under
//! `figures::golden_ctx(1)` (quick scale, seed 0, 3 replicates), writes
//! their tables with `expt::output::write_tables`, re-parses every JSON
//! document, and compares to the committed `goldens/`. Operations are
//! tables. The goldens are seed-0, so `--seed` does not apply here.
//!
//! Timing a driver costs one `Instant` pair, so the pass always records
//! its spans: the traced and untraced passes are the same code.

use crate::alloc;
use crate::host;
use crate::measure::{more_setups, repeat, Outcome};
use crate::metrics::DRIVERS;
use crate::reference::{Meter, Timed};
use crate::spans::SpanTree;
use crate::surface::*;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::time::Duration;

struct Pass {
    setup: Timed,
    /// The pass's steps (a driver's build, write, re-parse, compare), each
    /// timed between two reference bursts, summed.
    run: Timed,
    cpu_s: f64,
    /// Allocations during set-up; allocations and bytes during the pass.
    allocs: [u64; 3],
    tables: u64,
    rows: u64,
    doc_bytes: u64,
    /// `driver/table` of every table that failed, with the first reason.
    failed: BTreeSet<String>,
    error: Option<String>,
    tree: SpanTree,
}

/// Read and parse every committed golden (the set-up a pass depends on);
/// returns how many tables the goldens hold.
fn load_goldens(root: &Path) -> Result<usize, String> {
    let mut tables = 0;
    for (exp, _) in figures::all() {
        let dir = root.join(exp.name);
        let manifest = dir.join(GoldenManifest::FILE);
        let text =
            fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
        let manifest = GoldenManifest::parse(&text)?;
        for table in &manifest.tables {
            let path = dir.join(format!("{table}.csv"));
            let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            parse_csv(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            tables += 1;
        }
    }
    Ok(tables)
}

/// Everything before the timed pass: load the goldens, make the out dir.
fn setup(root: &Path, out: &Path) -> Result<usize, String> {
    let tables = load_goldens(root)?;
    let _ = fs::remove_dir_all(out);
    fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(tables)
}

fn pass(out: &Path, meter: &mut Meter) -> Pass {
    let mut tree = SpanTree::default();
    let mut failed = BTreeSet::new();
    let mut error: Option<String> = None;
    let mut fail = |table: String, why: String| {
        error.get_or_insert(format!("{table}: {why}"));
        failed.insert(table);
    };

    let allocs_before = alloc::snapshot();
    let root = figures::golden_root();
    let ctx = figures::golden_ctx(1);
    let (golden_tables, setup_t) = meter.time(|| setup(&root, out));
    let golden_tables = golden_tables.unwrap_or_else(|e| {
        fail("setup".into(), e);
        0
    });
    tree.record("", "setup", Duration::from_secs_f64(setup_t.wall_s));

    let (mut tables, mut rows, mut doc_bytes) = (0, 0, 0);
    let cpu_before = host::cpu_s();
    let bursts_before = meter.burst_s;
    let allocs_setup = alloc::snapshot();
    let mut run = Timed::default();
    for (exp, build) in figures::all() {
        // One driver (build, write, re-parse, compare) is one timed slice.
        let ((), slice) = meter.time(|| {
            let built = tree.time("run", exp.name, || build(&ctx));
            let meta = RunMeta::new(exp.name, &ctx.args);
            let dir = out.join(exp.name);
            tables += built.len() as u64;
            rows += built.iter().map(|t| t.len() as u64).sum::<u64>();

            if let Err(e) = tree.time("run", "expt.write_tables", || {
                write_tables(&dir, &built, &meta)
            }) {
                for t in &built {
                    fail(format!("{}/{}", exp.name, t.name), format!("write: {e}"));
                }
                return;
            }
            // Every written JSON document must re-render its CSV byte-exactly.
            tree.time("run", "expt.parse", || {
                for t in &built {
                    let id = format!("{}/{}", exp.name, t.name);
                    let read =
                        |ext: &str| fs::read_to_string(dir.join(format!("{}.{ext}", t.name)));
                    match (read("json"), read("csv")) {
                        (Ok(json), Ok(csv)) => {
                            doc_bytes += json.len() as u64;
                            match TableDoc::parse(&json) {
                                Ok(doc) if doc.to_csv() == csv && csv == t.to_csv() => {}
                                Ok(_) => fail(id, "JSON round trip changed the CSV".into()),
                                Err(e) => fail(id, format!("parse: {e:?}")),
                            }
                        }
                        (Err(e), _) | (_, Err(e)) => fail(id, format!("read back: {e}")),
                    }
                }
            });
            let spec = figures::golden_spec(exp.name);
            match tree.time("run", "expt.golden_compare", || {
                compare_driver(exp.name, &built, &root, &spec, &meta)
            }) {
                Ok(drifts) => {
                    for d in drifts {
                        fail(
                            format!("{}/{}", d.driver, d.table),
                            format!("golden drift: {d}"),
                        );
                    }
                }
                Err(e) => fail(exp.name.into(), format!("golden: {e}")),
            }
        });
        run += slice;
    }
    let allocs_run = alloc::snapshot();
    tree.record("", "run", Duration::from_secs_f64(run.wall_s));
    if golden_tables as u64 != tables {
        fail(
            "goldens".into(),
            format!("{golden_tables} committed tables, {tables} built"),
        );
    }
    let _ = fs::remove_dir_all(out);
    Pass {
        setup: setup_t,
        run,
        cpu_s: (host::cpu_s() - cpu_before - (meter.burst_s - bursts_before)).max(0.0),
        allocs: [
            allocs_setup.0 - allocs_before.0,
            allocs_run.0 - allocs_setup.0,
            allocs_run.1 - allocs_setup.1,
        ],
        tables,
        rows,
        doc_bytes,
        failed,
        error,
        tree,
    }
}

fn exact(p: &Pass) -> Vec<(&'static str, f64)> {
    vec![
        ("bench.tables", p.tables as f64),
        ("bench.rows", p.rows as f64),
        ("expt.doc_bytes", p.doc_bytes as f64),
    ]
}

pub fn run(seconds: u64, trace: bool) -> Outcome {
    let out_path = crate::out_dir().join(format!("quick_suite.{}", std::process::id()));
    let mut meter = Meter::new();
    let passes = if trace {
        vec![pass(&out_path, &mut meter)]
    } else {
        repeat(seconds, || pass(&out_path, &mut meter))
    };
    let mut out = Outcome::default();
    let first = &passes[0];
    for p in &passes {
        out.attempted += p.tables;
        out.failed += (p.failed.len() as u64).min(p.tables);
        if let Some(e) = &p.error {
            out.fail(e.clone());
        }
        if (p.tables, p.rows, p.doc_bytes) != (first.tables, first.rows, first.doc_bytes) {
            out.fail("two passes over the same inputs gave different counts");
        }
    }
    out.exact = exact(first);
    if !trace {
        let setups = passes.iter().map(|p| p.setup).collect();
        let root = figures::golden_root();
        out.timed(
            passes.iter().map(|p| (p.run, p.tables as f64)).collect(),
            more_setups(seconds, setups, || meter.time(|| setup(&root, &out_path)).1),
        );
        let _ = fs::remove_dir_all(&out_path);
        return out;
    }
    out.set("host.wall_s", first.run.wall_s);
    out.set("host.ref_ns_per_event", meter.ns_per_event());
    out.set("host.cpu_s", first.cpu_s);
    out.set("host.alloc_count_setup", first.allocs[0] as f64);
    out.set("host.alloc_count_run", first.allocs[1] as f64);
    out.set("host.alloc_bytes_run", first.allocs[2] as f64);
    out.set("bench.tables", first.tables as f64);
    out.set("bench.rows", first.rows as f64);
    out.set("expt.doc_bytes", first.doc_bytes as f64);
    out.set("expt.write_tables_s", first.tree.total("expt.write_tables"));
    out.set("expt.parse_s", first.tree.total("expt.parse"));
    out.set(
        "expt.golden_compare_s",
        first.tree.total("expt.golden_compare"),
    );
    for d in DRIVERS {
        out.set(&format!("bench.driver_s.{d}"), first.tree.total(d));
    }
    out.spans = Some(first.tree.to_json());
    out
}
