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

#[test]
fn golden_figures() {
    let bless = matches!(
        std::env::var("OPERA_BLESS").ok().as_deref(),
        Some("1") | Some("true")
    );
    let root = figures::golden_root();
    let ctx = figures::golden_ctx(0);
    let mut failures: Vec<String> = Vec::new();
    for (exp, build) in figures::all() {
        let drifts = figures::golden_run(&exp, build, &ctx, &root, bless)
            .unwrap_or_else(|e| panic!("{}: golden IO error: {e}", exp.name));
        for d in drifts {
            failures.push(d.to_string());
        }
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

/// Byte-identity companion to [`golden_figures`]: every driver's fresh
/// quick-mode CSV rendering must equal the committed golden file
/// *byte-for-byte*, not just within the tolerance-aware cell diff. This
/// is the contract the timing-wheel scheduler must uphold — equal-time
/// events fire in schedule order, so replacing the event queue moves no
/// cell anywhere — and byte equality also pins the CSV rendering
/// itself (column order, float formatting, line endings).
#[test]
fn golden_figures_byte_identical() {
    if matches!(
        std::env::var("OPERA_BLESS").ok().as_deref(),
        Some("1") | Some("true")
    ) {
        return; // a bless rewrites the files; identity is vacuous
    }
    let root = figures::golden_root();
    let ctx = figures::golden_ctx(0);
    let mut failures: Vec<String> = Vec::new();
    for (exp, build) in figures::all() {
        for table in build(&ctx) {
            let path = root.join(exp.name).join(format!("{}.csv", table.name));
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: read {}: {e}", exp.name, path.display()));
            if table.to_csv() != committed {
                failures.push(format!("{}/{}", exp.name, table.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "fresh CSV differs byte-for-byte from committed golden for: {}",
        failures.join(", ")
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
    let ctx = figures::golden_ctx(0);
    for (_, build) in figures::all() {
        build(&ctx);
    }
    let census = bench::undrained_runs();
    assert!(
        census.is_empty(),
        "runs that completed every flow but never drained: {census:#?}"
    );
}
