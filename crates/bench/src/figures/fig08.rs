//! Figure 8: delivered throughput over time for an all-to-all shuffle.
//! Opera carries every flow over direct circuits (application bulk
//! tagging, §3.4); the static networks run NDP with staggered starts.

use crate::{clos_cfg, expander_cfg, opera_cfg};
use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Row, Sweep, Table};
use netsim::FlowTracker;
use opera::opera_net::OperaLogic;
use opera::static_net::StaticLogic;
use opera::PacketNet;
use simkit::stats::summarize;
use simkit::SimTime;
use workloads::gen::ScenarioGen;
use workloads::FlowSpec;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig08_shuffle_throughput",
    title: "Figure 8: 100KB all-to-all shuffle, throughput vs time",
};

const STATIC_SYSTEMS: [&str; 2] = ["expander", "folded-clos"];

fn series_rows(label: &str, series: &[(SimTime, f64)], hosts: usize) -> Vec<Row> {
    // Normalize to aggregate host capacity (hosts × 10G).
    let cap = hosts as f64 * 10e9;
    series
        .iter()
        .map(|(t, bytes_per_sec)| {
            (
                vec![
                    Cell::from(label),
                    Cell::from(format!("{:.1}", t.as_ms_f64())),
                ],
                vec![bytes_per_sec * 8.0 / cap],
            )
        })
        .collect()
}

fn summary_row(label: &str, tracker: &FlowTracker, offered: usize) -> Row {
    let fcts = tracker
        .flows()
        .iter()
        .filter_map(|f| f.fct())
        .map(|x| x.as_ms_f64());
    let s = summarize(fcts);
    (
        vec![Cell::from(label)],
        vec![tracker.completed() as f64, offered as f64, s.p99, s.mean],
    )
}

/// One shuffle on any network, delivered bytes binned by the millisecond:
/// the throughput series (bytes/s per bin), the host count and the
/// [`summary_row`].
fn shuffle_run<N: PacketNet>(
    label: &str,
    cfg: N::Config,
    shuffle: impl FnOnce(usize) -> Vec<FlowSpec>,
    horizon: SimTime,
) -> (Vec<(SimTime, f64)>, usize, Row) {
    let hosts = N::hosts(&cfg);
    let flows = shuffle(hosts);
    let total = flows.len();
    let mut sim = N::build(cfg, flows);
    sim.world
        .logic
        .ends_mut()
        .record_throughput(SimTime::from_ms(1));
    crate::run_net(
        &mut sim,
        horizon,
        format_args!("fig08/{label}/{total} flows"),
    );
    let t = sim.world.logic.tracker();
    let series = t.throughput().expect("recording is on").rate_per_sec();
    (series, hosts, summary_row(label, t, total))
}

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let scale = ctx.args.scale;
    let flow_size: u64 = ctx.by_scale(30_000, 100_000, 100_000);
    let horizon = SimTime::from_ms(ctx.by_scale(60, 150, 300));
    let sweep = Sweep::grid1(&STATIC_SYSTEMS, |s| s);
    let mut series = RepTableBuilder::new(
        "throughput_timeseries",
        &["network", "time_ms"],
        &[("normalized_throughput", expt::f as MetricFmt)],
    );
    let mut summary = RepTableBuilder::new(
        "completion_summary",
        &["network"],
        &[
            ("completed", expt::f2 as MetricFmt),
            ("offered", expt::f2),
            ("p99_fct_ms", expt::f2),
            ("mean_fct_ms", expt::f2),
        ],
    );

    // Opera is seed-independent here (application tags every flow bulk,
    // all start together): one simulation, recorded once per replicate.
    {
        let mut cfg = opera_cfg(scale);
        cfg.bulk_threshold = 0;
        let together = |hosts| ScenarioGen::shuffle(hosts, flow_size, SimTime::ZERO);
        let (rates, hosts, row) = shuffle_run::<OperaLogic>("opera", cfg, together, horizon);
        let rows = series_rows("opera", &rates, hosts);
        series.extend(rows.iter().flat_map(|row| ctx.repeat(row)));
        summary.extend(ctx.repeat(row));
    }

    // Static networks: staggered random starts, re-drawn per replicate.
    let results = ctx.run_replicated(&sweep, |&system, rc| {
        let cfg = if system == "expander" {
            expander_cfg(scale)
        } else {
            clos_cfg(scale)
        };
        let mut rng = rc.rng();
        let staggered = |hosts| {
            ScenarioGen::shuffle_staggered(hosts, flow_size, SimTime::from_ms(10), &mut rng)
        };
        shuffle_run::<StaticLogic>(system, cfg, staggered, horizon)
    });

    series.sweep_rows(&results, |&system, reps| {
        // Replicates stop emitting bins after their last delivery; a
        // replicate that finished early genuinely delivered zero in the
        // later bins, so pad its tail with zeros — otherwise tail-bin
        // means average only the slow replicates and overstate the tail.
        let times: Vec<SimTime> = reps
            .iter()
            .max_by_key(|(s, _, _)| s.len())
            .map(|(s, _, _)| s.iter().map(|&(tm, _)| tm).collect())
            .unwrap_or_default();
        reps.iter().flat_map(move |(raw, hosts, _)| {
            let padded: Vec<(SimTime, f64)> = times
                .iter()
                .enumerate()
                .map(|(i, &tm)| (tm, raw.get(i).map_or(0.0, |&(_, v)| v)))
                .collect();
            series_rows(system, &padded, *hosts)
        })
    });
    summary.sweep_rows(&results, |_, reps| reps.iter().map(|(_, _, row)| row));
    vec![series.build(), summary.build()]
}
