//! Tier-1 golden-baseline regression test: every figure driver's
//! quick-mode tables must match the committed CSVs under `goldens/`.
//!
//! The experiment harness is deterministic — fixed quick grids, fixed
//! base seed, replicate seeds derived from `(seed, point, rep)` only,
//! thread-invariant collection — so any diff here is a behavioral change
//! in some simulation layer (topo / flowsim / netsim / transport /
//! workloads), named down to the driver, table, row, and column that
//! moved.
//!
//! After an *intended* behavioral change, re-record the baselines with
//! `OPERA_BLESS=1 cargo test -q golden` (or `cargo run -p bench --bin
//! opera -- golden --bless`) and commit the `goldens/` diff alongside
//! the change. Blessing an unmodified tree is byte-idempotent.

use bench::figures;

use std::sync::OnceLock;

use expt::{Experiment, RunMeta, Table};

/// Every driver's quick-mode tables, built once per test binary: the
/// tests below read the same build, so tier-1 pays for each
/// driver once. Whichever test comes first builds; the others wait.
fn built() -> &'static [(Experiment, Vec<Table>)] {
    static BUILT: OnceLock<Vec<(Experiment, Vec<Table>)>> = OnceLock::new();
    BUILT.get_or_init(|| {
        let ctx = figures::golden_ctx(0);
        figures::all()
            .into_iter()
            .map(|(exp, build)| {
                let tables = build(&ctx);
                (exp, tables)
            })
            .collect()
    })
}

fn blessing() -> bool {
    matches!(
        std::env::var("OPERA_BLESS").ok().as_deref(),
        Some("1") | Some("true")
    )
}

/// Every driver's fresh quick-mode tables against the committed goldens,
/// byte for byte (`figures::golden_run`, manifest provenance included):
/// a table that differs is one drift naming the row and column where it
/// first parts from its golden, or its header or row-count change. Byte
/// equality pins the CSV rendering too (column order, float formatting,
/// line endings), and it is the contract the timing-wheel scheduler
/// upholds: equal-time events fire in schedule order, so no cell moves.
/// Under `OPERA_BLESS=1` it rewrites the goldens instead.
#[test]
fn golden_figures() {
    let bless = blessing();
    let root = figures::golden_root();
    let ctx = figures::golden_ctx(0);
    let mut failures: Vec<String> = Vec::new();
    for (exp, tables) in built() {
        let meta = RunMeta::new(exp.name, &ctx.args);
        let drifts = figures::golden_run(tables, &meta, &root, bless)
            .unwrap_or_else(|e| panic!("{}: golden IO error: {e}", exp.name));
        failures.extend(drifts.iter().map(ToString::to_string));
    }
    assert!(
        failures.is_empty(),
        "{} drift(s) from committed goldens:\n  {}\n\
         If this change is intended, re-record with `OPERA_BLESS=1 cargo test -q golden` \
         and commit the goldens/ diff.",
        failures.len(),
        failures.join("\n  ")
    );
}

/// The census ROADMAP 4b asks for: the quick drivers' packet runs that
/// complete every flow and still reach their horizon, because something
/// keeps the network from ever draining (4b's NDP zombie re-arming an idle
/// RTO for ever, or 4e's packets stranded at a port whose PFC pause a
/// rewire cleared, until the slice clock restarted rewired ports). It is
/// empty: a run on it is a leak, and the points whose goldens its fix
/// moves.
#[test]
fn zombie_census() {
    built();
    let census = bench::undrained_runs();
    assert!(
        census.is_empty(),
        "runs that completed every flow but never drained: {census:#?}"
    );
}

/// ROADMAP 10's packet ledger over every quick packet run: each fabric
/// accounts for every packet it wrote (delivered, lost dark or failed,
/// drained back to RotorLB, or still queued), and no flow received more
/// than its size. A run on the list names the ledger's finding.
#[test]
fn ledger_census() {
    built();
    let census = bench::unbalanced_runs();
    assert!(
        census.is_empty(),
        "runs whose packet ledger does not balance: {census:#?}"
    );
}

/// ROADMAP 18's counter census over every quick packet run: each counter
/// `tests/counter_census.txt` names reads 0 on every run whose network has
/// it (`zero`), or more than 0 on at least one run (`some`). A row with a
/// fourth field holds only the runs whose name contains it, and at least
/// one must. A mechanism that stops working, or one that starts to fire
/// where it never should, fails here even when no golden moves.
#[test]
fn counter_census() {
    built();
    let runs = bench::run_records();
    let mut wrong = Vec::new();
    let expected = include_str!("counter_census.txt").lines();
    for line in expected.filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let fields: Vec<&str> = line.split(" | ").map(str::trim).collect();
        let (counter, expect, scope) = match fields[..] {
            [counter, expect, _why] => (counter, expect, ""),
            [counter, expect, _why, scope] => (counter, expect, scope),
            _ => panic!("three or four fields: {line}"),
        };
        let read: Vec<(&str, u64)> = runs
            .iter()
            .filter(|r| r.name.contains(scope))
            .filter_map(|r| Some((r.name.as_str(), r.counter(counter)?)))
            .collect();
        assert!(
            !read.is_empty(),
            "{line}: no run it covers counts {counter}"
        );
        match expect {
            "zero" => wrong.extend(
                read.iter()
                    .filter(|&&(_, v)| v > 0)
                    .map(|(run, v)| format!("{counter} = {v} on {run}")),
            ),
            "some" if read.iter().all(|&(_, v)| v == 0) => {
                wrong.push(format!("{line}: 0 on all {} runs", read.len()))
            }
            "some" => {}
            other => panic!("{line}: `{other}` is neither `zero` nor `some`"),
        }
    }
    assert!(
        wrong.is_empty(),
        "counters off tests/counter_census.txt: {wrong:#?}"
    );
}

/// ROADMAP 4i as a known failure that may only shrink: the quick packet
/// runs that lose low-latency packets into dark circuits are exactly the
/// runs `tests/dark_drop_runs.txt` lists, a name once per run that bears
/// it (replicates share a name). A run that joins fails here; a run a fix
/// takes off must be deleted from the file.
#[test]
fn dark_drop_runs_are_the_committed_list() {
    built();
    let mut committed: Vec<&str> = include_str!("dark_drop_runs.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut joined = Vec::new();
    for (run, dark_drops) in bench::dark_drop_runs() {
        match committed.iter().position(|&c| c == run) {
            Some(i) => {
                committed.swap_remove(i);
            }
            None => joined.push((run, dark_drops)),
        }
    }
    assert!(
        joined.is_empty() && committed.is_empty(),
        "runs that now drop into dark circuits, with their dark_drops: {joined:#?}\n\
         runs that no longer do (delete them from tests/dark_drop_runs.txt): {committed:#?}"
    );
}
