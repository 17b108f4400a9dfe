//! Ablation: queue depth vs end-to-end delay (§4.1's key sizing choice).
//!
//! ε — and with it the slice length, the cycle time, and the bulk
//! threshold — is driven by the switch queue depth. Deeper queues trim
//! less but inflate worst-case delay; the paper picks 24 KB (8 full
//! packets + headers) to keep ε at 90 µs. This ablation sweeps the
//! low-latency queue depth on a fixed incast-heavy workload and reports
//! trimming rates, FCTs, and the ε each depth would force.

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use netsim::fabric::QueueConfig;
use opera::timing::SliceTiming;
use opera::{opera_net, OperaNetConfig};
use simkit::stats::summarize;
use simkit::SimTime;
use workloads::FlowSpec;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablate_queue",
    title: "Ablation: low-latency queue depth (incast of 24 x 30KB flows)",
};

/// Build the ablation's table. The incast senders and start jitter are
/// drawn per replicate seed, so the CI columns reflect genuine spread.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let depths_kb: &[u64] = ctx.by_scale(&[6, 24], &[3, 6, 12, 24, 48], &[3, 6, 12, 24, 48]);
    let racks: usize = ctx.by_scale(8, 16, 16);

    let sweep = Sweep::grid1(depths_kb, |kb| kb);
    let per_point = ctx.run_replicated(&sweep, |&kb, rc| {
        let mut cfg = OperaNetConfig::small_test();
        cfg.params.racks = racks;
        cfg.bulk_threshold = u64::MAX;
        cfg.queues = QueueConfig::builder()
            .caps([12_000, kb * 1000, 24_000])
            .build();
        // Incast: many senders to hosts of one rack.
        let mut rng = rc.rng_stream(3);
        let hosts = cfg.hosts();
        let mut flows = Vec::new();
        for i in 0..24 {
            flows.push(FlowSpec {
                src: 8 + rng.index(hosts - 8), // racks 2..
                dst: i % 4,                    // rack 0
                size: 30_000,
                start: SimTime::from_us(rng.below(20)),
            });
        }
        let mut sim = opera_net::build(cfg, flows);
        sim.world.logic.set_hello_enabled(false);
        crate::run_net(
            &mut sim,
            SimTime::from_ms(60),
            format_args!("ablate_queue/{kb} KB/rep {}", rc.rep),
        );
        let t = sim.world.logic.tracker();
        let s = summarize(
            t.flows()
                .iter()
                .filter_map(|f| f.fct())
                .map(|x| x.as_us_f64()),
        );
        // The ε this queue depth forces at paper parameters (5 hops,
        // 10G, 500ns propagation), per §4.1's derivation.
        let eps = SliceTiming::derive(
            5,
            kb * 1000 + 12_000,
            10.0,
            SimTime::from_ns(500),
            SimTime::from_us(10),
        )
        .epsilon
        .as_us_f64();
        (
            vec![Cell::from(kb), Cell::from(format!("{eps:.0}"))],
            vec![
                sim.world.fabric.counters.trimmed as f64,
                s.mean,
                s.max,
                t.completed() as f64,
                t.len() as f64,
            ],
        )
    });

    // Shape: deeper queues trim less but force a longer ε (and thus a
    // longer cycle and a higher bulk threshold); 12-24 KB balances both,
    // which is exactly the paper's choice (§4.1).
    let mut out = RepTableBuilder::new(
        "queue_depth",
        &["queue_kb", "forced_epsilon_us"],
        &[
            ("trimmed_pkts", expt::f2 as MetricFmt),
            ("avg_fct_us", expt::f2),
            ("max_fct_us", expt::f2),
            ("completed", expt::f2),
            ("offered", expt::f2),
        ],
    );
    out.sweep_rows(&per_point, |_, reps| reps);
    vec![out.build()]
}
