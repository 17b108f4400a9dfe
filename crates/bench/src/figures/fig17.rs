//! Figure 17 / Appendix D: spectral gap vs path length for Opera's
//! topology slices compared to static expanders of varying degree, all
//! on k = 12 ToRs with ~650 hosts.

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::opera::{OperaParams, OperaTopology};
use topo::spectral::adjacency_spectrum;

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig17_spectral_gap",
    title: "Figure 17: spectral gap vs path length (Opera slices vs static expanders)",
};

#[derive(Clone, Copy)]
enum Point {
    OperaSlice(usize),
    StaticU(usize),
}

/// Build the figure's tables.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let (params, slice_step, us, iters): (OperaParams, usize, &[usize], usize) = ctx.by_scale(
        (
            OperaParams {
                racks: 24,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 1,
            },
            8,
            &[4, 5],
            100,
        ),
        (OperaParams::example_648(), 6, &[5, 6, 7, 8], 300),
        (OperaParams::example_648(), 6, &[5, 6, 7, 8], 300),
    );
    // The static expanders must be same-radix, same-host-count peers of
    // the scale-selected Opera network (paper: k = 12, ~650 hosts).
    let radix = params.uplinks + params.hosts_per_rack;

    // Opera: slices of the cycle (sampled to keep it fast).
    let (topo, _) = OperaTopology::generate_validated(params, 1, 64);
    let mut points: Vec<Point> = (0..topo.slices_per_cycle())
        .step_by(slice_step)
        .map(Point::OperaSlice)
        .collect();
    // Static expanders with u uplinks (more uplinks -> fewer hosts/rack
    // -> more racks for the same host count).
    points.extend(us.iter().map(|&u| Point::StaticU(u)));
    let hosts_target = params.racks * params.hosts_per_rack;

    // Everything below is seed-independent (fixed topology seeds), so
    // each point is computed once and recorded once per replicate
    // (`Ctx::repeat`): zero CI, none of the spectral work repeated.
    let sweep = Sweep::from_points(points);
    let rows = ctx.run(&sweep, |&p, _| match p {
        Point::OperaSlice(s) => {
            let g = topo.slice(s).graph();
            let sp = adjacency_spectrum(&g, iters, 40 + s as u64);
            let st = g.path_length_stats();
            (
                vec![Cell::from("opera_slice"), Cell::from(s)],
                vec![
                    sp.gap(),
                    st.avg,
                    st.max as f64,
                    sp.lambda2,
                    sp.ramanujan_bound(),
                ],
            )
        }
        Point::StaticU(u) => {
            let d = radix - u;
            let racks = {
                let r = (hosts_target + 2).div_ceil(d);
                r + r % 2
            };
            let e = ExpanderTopology::generate(
                ExpanderParams {
                    racks,
                    uplinks: u,
                    hosts_per_rack: d,
                },
                9,
            );
            let sp = adjacency_spectrum(e.graph(), iters, 70 + u as u64);
            let st = e.graph().path_length_stats();
            (
                vec![Cell::from(format!("static_u{u}")), Cell::from(u)],
                vec![
                    sp.gap(),
                    st.avg,
                    st.max as f64,
                    sp.lambda2,
                    sp.ramanujan_bound(),
                ],
            )
        }
    });

    let mut t = RepTableBuilder::new(
        "spectral_gap",
        &["series", "index"],
        &[
            ("gap", expt::f3 as MetricFmt),
            ("avg_path", expt::f3),
            ("max_path", expt::f0),
            ("lambda2", expt::f3),
            ("ramanujan_bound", expt::f3),
        ],
    );
    t.sweep_rows(&rows, |_, row| ctx.repeat(row));
    vec![t.build()]
}
