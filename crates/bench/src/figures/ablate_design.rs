//! Ablations of Opera's key design choices, each the paper section named
//! with it (README.md's opening paragraph states them in one sentence):
//!
//! 1. **Offset vs simultaneous reconfiguration** (§3.1.1, Figure 3):
//!    fraction of time with full rack-to-rack reachability.
//! 2. **Expansion needs u−1 ≥ 3 matchings** (§3.1.2): slice connectivity
//!    and diameter as the switch count shrinks.
//! 3. **Bulk threshold** (§4.1): FCT of a mid-size flow when classified
//!    bulk vs low-latency.
//! 4. **VLB for skew** (§4.2.2): hot-rack drain time with and without
//!    two-hop Valiant.

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use opera::{opera_net, OperaNetConfig, SliceTiming};
use simkit::stats::summarize;
use simkit::SimTime;
use topo::opera::{OperaParams, OperaTopology};
use workloads::FlowSpec;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablate_design",
    title: "Ablations: offset reconfig, uplink count, bulk threshold, VLB",
};

/// Build all four ablation tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    vec![offset(ctx), uplink_count(ctx), threshold(ctx), vlb(ctx)]
}

/// 1. With offset reconfiguration at most one switch is down and the
///    remaining u−1 matchings keep the network connected; simultaneous
///    reconfiguration leaves *zero* circuits during every reconfiguration
///    window — connectivity drops to nothing r/slice of the time.
///    Closed-form at a fixed topology seed, so replicate CIs are zero.
fn offset(ctx: &Ctx) -> Table {
    let t = SliceTiming::paper_default();
    let params = ctx.by_scale(
        OperaParams {
            racks: 24,
            uplinks: 4,
            hosts_per_rack: 4,
            groups: 1,
        },
        OperaParams::example_648(),
        OperaParams::example_648(),
    );
    let (topo, _) = OperaTopology::generate_validated(params, 1, 64);
    let connected_slices = (0..topo.slices_per_cycle())
        .filter(|&s| topo.slice(s).graph().is_connected())
        .count();
    let offset_up = connected_slices as f64 / topo.slices_per_cycle() as f64;
    // Simultaneous: all switches reconfigure together; the network is
    // fully dark for r out of every matching period.
    let simultaneous_up = 1.0 - t.reconfig.as_ns() as f64 / t.slice().as_ns() as f64;

    let mut out = RepTableBuilder::new(
        "offset_vs_simultaneous",
        &["strategy", "disruption"],
        &[("fraction_fully_connected", expt::f as MetricFmt)],
    );
    out.extend(ctx.repeat((
        vec![
            Cell::from("offset"),
            Cell::from("none (expander always available)"),
        ],
        vec![offset_up],
    )));
    out.extend(ctx.repeat((
        vec![
            Cell::from("simultaneous"),
            Cell::from(format!(
                "whole-network outage every slice ({} of {})",
                t.reconfig,
                t.slice()
            )),
        ],
        vec![simultaneous_up],
    )));
    out.build()
}

/// 2. Slice expansion vs number of circuit switches. The topology seed
///    is fixed (paper construction): computed once per point, recorded
///    once per replicate, zero CI.
fn uplink_count(ctx: &Ctx) -> Table {
    let us: &[usize] = ctx.by_scale(&[3, 6], &[3, 4, 6, 8], &[3, 4, 6, 8]);
    let racks: usize = ctx.by_scale(48, 96, 96);
    let sweep = Sweep::grid1(us, |u| u);
    let per_point = ctx.run(&sweep, |&u, _| {
        let params = OperaParams {
            racks,
            uplinks: u,
            hosts_per_rack: 4,
            groups: 1,
        };
        let topo = OperaTopology::generate(params, 7);
        let mut connected = 0usize;
        let mut avg = 0.0;
        let mut max = 0usize;
        let samples = 12.min(topo.slices_per_cycle());
        for i in 0..samples {
            let s = i * topo.slices_per_cycle() / samples;
            let g = topo.slice(s).graph();
            if g.is_connected() {
                connected += 1;
            }
            let st = g.path_length_stats();
            avg += st.avg / samples as f64;
            max = max.max(st.max);
        }
        (
            vec![Cell::from(u), Cell::from(u - 1)],
            vec![connected as f64, samples as f64, avg, max as f64],
        )
    });
    let mut out = RepTableBuilder::new(
        "uplink_count",
        &["uplinks", "active_matchings"],
        &[
            ("connected_slices", expt::f0 as MetricFmt),
            ("sampled_slices", expt::f0),
            ("avg_path", expt::f2),
            ("max_path", expt::f2),
        ],
    );
    out.sweep_rows(&per_point, |_, row| ctx.repeat(row));
    out.build()
}

/// 3. The same 2 MB flow serviced as bulk vs low-latency. The single
///    flow is fixed: one simulation per case, recorded once per
///    replicate, zero CI.
fn threshold(ctx: &Ctx) -> Table {
    let racks: usize = ctx.by_scale(8, 16, 16);
    let cases = [("bulk", 1_000u64), ("low_latency", u64::MAX)];
    let sweep = Sweep::grid1(&cases, |c| c);
    let per_point = ctx.run(&sweep, |&(label, bulk_threshold), _| {
        let mut cfg = OperaNetConfig::small_test();
        cfg.params.racks = racks;
        cfg.bulk_threshold = bulk_threshold;
        let dst = cfg.hosts() - 2;
        let flows = vec![FlowSpec {
            src: 1,
            dst,
            size: 2_000_000,
            start: SimTime::ZERO,
        }];
        let mut sim = opera_net::build(cfg, flows);
        crate::run_net(
            &mut sim,
            SimTime::from_ms(100),
            format_args!("ablate_design/bulk_threshold/{label}"),
        );
        let t = sim.world.logic.tracker();
        let fct = t.get(0).fct().map(|x| x.as_ms_f64()).unwrap_or(f64::NAN);
        let note = match label {
            "bulk" => "waits for circuits, zero tax",
            _ => "immediate, pays expander tax",
        };
        (vec![Cell::from(label), Cell::from(note)], vec![fct])
    });
    // Shape: at this size the two are comparable; the threshold is the
    // size where a cycle's wait amortizes (15 MB at paper scale, §4.1).
    let mut out = RepTableBuilder::new(
        "bulk_threshold",
        &["class", "note"],
        &[("fct_ms", expt::f3 as MetricFmt)],
    );
    out.sweep_rows(&per_point, |_, row| ctx.repeat(row));
    out.build()
}

/// 4. Hot-rack drain with and without Valiant load balancing: rack 0
///    sends 1 MB to each host of rack 1. VLB sprays the hot pair over
///    idle circuits (RotorLB), cutting drain time roughly (u−1)× for a
///    single hot destination. Flow start jitter is drawn per replicate
///    seed, so the CI columns reflect genuine spread.
fn vlb(ctx: &Ctx) -> Table {
    let racks: usize = ctx.by_scale(8, 16, 16);
    let sweep = Sweep::grid1(&[true, false], |b| b);
    let per_point = ctx.run_replicated(&sweep, |&allow, rc| {
        let mut cfg = OperaNetConfig::small_test();
        cfg.params.racks = racks;
        cfg.allow_vlb = allow;
        cfg.bulk_threshold = 0;
        let mut rng = rc.rng_stream(4);
        let mut flows = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                flows.push(FlowSpec {
                    src: i,
                    dst: 4 + j,
                    size: 1_000_000,
                    start: SimTime::from_us(rng.below(100)),
                });
            }
        }
        let mut sim = opera_net::build(cfg, flows);
        crate::run_net(
            &mut sim,
            SimTime::from_ms(40),
            format_args!("ablate_design/vlb_under_skew/{allow}/rep {}", rc.rep),
        );
        let t = sim.world.logic.tracker();
        let done = t.completed() as f64 / t.len() as f64;
        let s = summarize(
            t.flows()
                .iter()
                .filter_map(|f| f.fct())
                .map(|x| x.as_ms_f64()),
        );
        (vec![Cell::from(allow)], vec![done, s.mean])
    });
    let mut out = RepTableBuilder::new(
        "vlb_under_skew",
        &["vlb"],
        &[
            ("completion_fraction_at_40ms", expt::f2 as MetricFmt),
            ("avg_bulk_fct_ms", expt::f2),
        ],
    );
    out.sweep_rows(&per_point, |_, reps| reps);
    out.build()
}
