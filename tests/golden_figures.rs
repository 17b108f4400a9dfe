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

use bench::{figures, run_net, run_records};
use netsim::{EcnMark, JsonlSink, MultiSink, PcapngSink, PcapngWriter, QueueConfig};
use opera::opera_net::{self, OperaNetConfig};
use opera::static_net::{self, StaticNetConfig, StaticTopologyKind};
use opera::timing::SliceTiming;
use simkit::SimTime;
use std::sync::OnceLock;
use topo::expander::ExpanderParams;
use topo::opera::OperaParams;
use transport::{DctcpParams, TransportKind};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::{PoissonGen, ScenarioGen};

use expt::{Experiment, RunMeta, Table};

/// Every driver's quick-mode tables, built once per test binary, and the
/// benchmark [`mirror`] run once: the tests below read the same build and
/// the same [`run_records`], so tier-1 pays for each driver once.
/// Whichever test comes first builds; the others wait.
fn built() -> &'static [(Experiment, Vec<Table>)] {
    static BUILT: OnceLock<Vec<(Experiment, Vec<Table>)>> = OnceLock::new();
    BUILT.get_or_init(|| {
        let ctx = figures::golden_ctx(0);
        let built = figures::all()
            .into_iter()
            .map(|(exp, build)| {
                let tables = build(&ctx);
                (exp, tables)
            })
            .collect();
        mirror();
        built
    })
}

/// The benchmark's five packet workloads (`benchmark/src/packet.rs`,
/// seed 0), written out again so that the census judges the networks
/// they run: mini Opera (48 racks × 4 hosts, u = 4, `fast_sim` slices)
/// with every Websearch flow low-latency, untraced and traced into
/// discarding sinks, and with an all-to-all shuffle all bulk; the 64-rack
/// DCTCP expander; and `paper_648` Websearch. Their horizons are cut to
/// what a debug build runs in seconds, so most stop at the horizon.
fn mirror() {
    let mini_opera = |bulk_threshold| OperaNetConfig {
        params: OperaParams {
            racks: 48,
            uplinks: 4,
            hosts_per_rack: 4,
            groups: 1,
        },
        timing: SliceTiming::fast_sim(),
        bulk_threshold,
        ..OperaNetConfig::small_test()
    };
    let expander = StaticNetConfig {
        kind: StaticTopologyKind::Expander(ExpanderParams {
            racks: 64,
            uplinks: 5,
            hosts_per_rack: 3,
        }),
        queues: QueueConfig::builder()
            .policy(EcnMark::paper_default())
            .build(),
        transport: TransportKind::Dctcp(DctcpParams::paper_default()),
        ..StaticNetConfig::small_expander()
    };
    let websearch = |hosts, load, until| {
        PoissonGen::new(FlowSizeDist::of(Workload::Websearch), hosts, 10.0, load, 0)
            .flows_until(until)
    };
    let ms = SimTime::from_ms;
    simkit::pool::claim_slots(simkit::pool::cores(), 5, |i| {
        match i {
            0 => {
                let cfg = mini_opera(20_000_000);
                let mut sim = opera_net::build(cfg, websearch(cfg.hosts(), 0.10, ms(40)));
                run_net(&mut sim, ms(4), format_args!("mirror/opera_websearch"))
            }
            1 => {
                let cfg = mini_opera(20_000_000);
                let mut sim = opera_net::build(cfg, websearch(cfg.hosts(), 0.10, ms(4)));
                let sinks = MultiSink::new()
                    .with(Box::new(JsonlSink::new(std::io::sink())))
                    .with(Box::new(PcapngSink::new(
                        PcapngWriter::new(std::io::sink()).expect("a sink takes any write"),
                    )));
                sim.world.fabric.set_trace(Box::new(sinks));
                run_net(&mut sim, ms(2), format_args!("mirror/traced_websearch"))
            }
            2 => {
                let cfg = mini_opera(0);
                let flows = ScenarioGen::shuffle(cfg.hosts(), 100_000, SimTime::ZERO);
                let mut sim = opera_net::build(cfg, flows);
                run_net(&mut sim, ms(1), format_args!("mirror/opera_shuffle"))
            }
            3 => {
                let hosts = 64 * 3;
                let mut sim = static_net::build(expander.clone(), websearch(hosts, 0.25, ms(40)));
                run_net(&mut sim, ms(4), format_args!("mirror/expander_dctcp"))
            }
            _ => {
                let cfg = OperaNetConfig::paper_648();
                let mut sim = opera_net::build(cfg, websearch(cfg.hosts(), 0.25, ms(6)));
                run_net(&mut sim, ms(2), format_args!("mirror/paper648_websearch"))
            }
        };
    });
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

/// The census ROADMAP 4b asks for: the packet runs that complete every
/// flow and still reach their horizon, because something keeps the
/// network from ever draining (4b's NDP zombie re-arming an idle RTO for
/// ever, or 4e's packets stranded at a port whose PFC pause a rewire
/// cleared, until the slice clock restarted rewired ports). It is empty: a
/// run on it is a leak, and the points whose goldens its fix moves.
#[test]
fn zombie_census() {
    built();
    let census: Vec<String> = run_records()
        .into_iter()
        .filter(|r| r.finished && !r.drained)
        .map(|r| r.name)
        .collect();
    assert!(
        census.is_empty(),
        "runs that completed every flow but never drained: {census:#?}"
    );
}

/// ROADMAP 10's packet ledger over every packet run: each fabric accounts
/// for every packet it wrote (delivered, lost dark or failed, drained back
/// to the logic, or still queued), and no flow received more than its size.
/// A run on the list names the ledger's finding.
#[test]
fn ledger_census() {
    built();
    let census: Vec<(String, String)> = run_records()
        .into_iter()
        .filter_map(|r| Some((r.name, r.ledger.err()?)))
        .collect();
    assert!(
        census.is_empty(),
        "runs whose packet ledger does not balance: {census:#?}"
    );
}

/// ROADMAP 18's counter census over every packet run of this binary, the
/// quick drivers' and the benchmark [`mirror`]'s, as one suite
/// ([`bench::judge`]): each counter `tests/counter_census.txt` names
/// reads 0 on every run whose network has it (`zero`), or more than 0 on
/// at least one run (`some`); a row with a fourth field holds only the
/// runs whose name contains it, and at least one must. The findings are
/// exactly the lines of `tests/known_failures.txt` for these runs, which
/// may only shrink. A mechanism
/// that stops working, or one that starts to fire where it never should,
/// fails here even when no golden moves.
#[test]
fn counter_census() {
    built();
    // Lines for runs this binary does not make (`spot/…`) are held by
    // the command that makes them.
    let runs = run_records();
    bench::judge(bench::COUNTER_CENSUS, bench::known_failures(), &runs, true)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// ROADMAP 4i / 23 as a known failure that may only shrink, and has: the
/// packet runs that lose packets into dark circuits are exactly the
/// `dark_drops` lines of `tests/known_failures.txt` (a line once per run
/// that bears it; replicates share a name), and there are none since
/// `OperaLogic::on_dark` hands every queued packet back (§3.5). A run that
/// joins fails here.
#[test]
fn dark_drop_runs_are_the_committed_list() {
    built();
    let found = run_records()
        .into_iter()
        .filter_map(|r| {
            let dark_drops = r.counter("dark_drops").filter(|&d| d > 0)?;
            Some(format!("{}: dark_drops: {dark_drops}", r.name))
        })
        .collect();
    let mut known = bench::known_failures();
    known.retain(|&(check, _)| check == "dark_drops");
    let off = bench::against_known(found, known);
    assert!(
        off.is_empty(),
        "runs that now drop into dark circuits, with their dark_drops, and runs \
         that no longer do: {off:#?}"
    );
}
