//! Figure 16: average path length vs ToR radix for Opera and for static
//! expanders at several cost points α (Appendix C).

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use topo::cost::{expander_racks, expander_uplinks};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::opera::{OperaParams, OperaTopology};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig16_path_scaling",
    title: "Figure 16: average path length vs ToR radix",
};

const ALPHAS: [f64; 4] = [1.0, 1.4, 2.0, 3.0];

#[derive(Clone, Copy)]
enum Point {
    Opera { k: usize },
    Expander { k: usize, alpha: f64 },
}

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let ks: &[usize] = ctx.by_scale(&[12], &[12, 24], &[12, 24, 36, 48]);

    let mut points = Vec::new();
    for &k in ks {
        points.push(Point::Opera { k });
        for &alpha in &ALPHAS {
            points.push(Point::Expander { k, alpha });
        }
    }
    // Topology seeds are fixed, so each point is computed once and
    // recorded once per replicate (`Ctx::repeat`, zero CI).
    let sweep = Sweep::from_points(points);
    let rows = ctx.run(&sweep, |&p, _| match p {
        Point::Opera { k } => {
            let racks = 3 * k * k / 4;
            let hosts = racks * k / 2;
            let topo = OperaTopology::generate(OperaParams::from_radix(k, racks), 2);
            // Sample a few slices (all slices are statistically
            // identical).
            let mut avg = 0.0;
            let mut max = 0usize;
            let samples = 4.min(topo.slices_per_cycle());
            for i in 0..samples {
                let s = i * topo.slices_per_cycle() / samples;
                let st = topo.slice(s).graph().path_length_stats();
                avg += st.avg / samples as f64;
                max = max.max(st.max);
            }
            (
                vec![Cell::from(k), Cell::from(hosts), Cell::from("opera")],
                vec![avg, max as f64],
            )
        }
        Point::Expander { k, alpha } => {
            let racks = 3 * k * k / 4;
            let hosts = racks * k / 2;
            let u = expander_uplinks(alpha, k).clamp(3, k - 1);
            let r = expander_racks(hosts, k, u);
            let e = ExpanderTopology::generate(
                ExpanderParams {
                    racks: r,
                    uplinks: u,
                    hosts_per_rack: k - u,
                },
                3,
            );
            let st = e.graph().path_length_stats();
            (
                vec![
                    Cell::from(k),
                    Cell::from(hosts),
                    Cell::from(format!("expander_a{alpha}")),
                ],
                vec![st.avg, st.max as f64],
            )
        }
    });

    let mut t = RepTableBuilder::new(
        "path_length_vs_radix",
        &["k", "hosts", "series"],
        &[("avg_path", expt::f3 as MetricFmt), ("max_path", expt::f0)],
    );
    t.sweep_rows(&rows, |_, row| ctx.repeat(row));
    vec![t.build()]
}
