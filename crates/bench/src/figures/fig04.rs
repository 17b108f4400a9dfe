//! Figure 4: CDF of ToR-to-ToR path lengths for the cost-equivalent
//! 648-host Opera, 650-host u=7 expander, and 648-host 3:1 folded Clos.

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Sweep, Table};
use topo::clos::{ClosParams, ClosTopology};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::opera::{OperaParams, OperaTopology};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig04_path_lengths",
    title: "Figure 4: path-length CDFs (cost-equivalent 648-host networks)",
};

#[derive(Clone, Copy)]
enum Net {
    Opera,
    Expander,
    Clos,
}

fn cdf_rows(label: &str, hist: &[u64]) -> Vec<(Vec<Cell>, Vec<f64>)> {
    let total: u64 = hist.iter().sum();
    let mut cum = 0u64;
    let mut rows = Vec::new();
    for (len, &c) in hist.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        rows.push((
            vec![Cell::from(label), Cell::from(len)],
            vec![c as f64 / total as f64, cum as f64 / total as f64],
        ));
    }
    rows
}

/// Build the figure's tables. Topology seeds are fixed, so each network
/// is computed once and recorded once per replicate (`Ctx::repeat`):
/// CIs are exactly zero, columns kept for schema uniformity.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let quick = ctx.quick();
    let sweep = Sweep::grid1(&[Net::Opera, Net::Expander, Net::Clos], |n| n);
    let per_net = ctx.run(&sweep, |&net, _| match net {
        Net::Opera => {
            // Aggregate over all slices of the cycle.
            let params = if quick {
                OperaParams {
                    racks: 24,
                    uplinks: 4,
                    hosts_per_rack: 4,
                    groups: 1,
                }
            } else {
                OperaParams::example_648()
            };
            let (opera, _seed) = OperaTopology::generate_validated(params, 1, 64);
            let mut hist = vec![0u64; 12];
            for s in 0..opera.slices_per_cycle() {
                for (l, &c) in opera
                    .slice(s)
                    .graph()
                    .path_length_histogram()
                    .iter()
                    .enumerate()
                {
                    hist[l] += c;
                }
            }
            let label = if quick { "Opera-quick" } else { "Opera-648" };
            cdf_rows(label, &hist)
        }
        Net::Expander => {
            let params = if quick {
                ExpanderParams {
                    racks: 16,
                    uplinks: 4,
                    hosts_per_rack: 3,
                }
            } else {
                ExpanderParams::example_650()
            };
            let exp = ExpanderTopology::generate(params, 1);
            let label = if quick {
                "Expander-u4-quick"
            } else {
                "Expander-u7-650"
            };
            cdf_rows(label, &exp.graph().path_length_histogram())
        }
        Net::Clos => {
            let params = if quick {
                ClosParams {
                    radix: 8,
                    oversubscription: 3,
                }
            } else {
                ClosParams::example_648()
            };
            let clos = ClosTopology::generate(params);
            // ToR-to-ToR distances only.
            let mut chist = vec![0u64; 8];
            for tor in 0..clos.tors() {
                let d = clos.graph().bfs_distances(tor);
                for other in 0..clos.tors() {
                    if other != tor {
                        chist[d[other]] += 1;
                    }
                }
            }
            cdf_rows("FoldedClos-3to1", &chist)
        }
    });

    let mut t = RepTableBuilder::new(
        "path_length_cdfs",
        &["network", "hops"],
        &[("pdf", expt::f as MetricFmt), ("cdf", expt::f)],
    );
    t.sweep_rows(&per_net, |_, rows| {
        rows.iter().flat_map(|row| ctx.repeat(row))
    });
    vec![t.build()]
}
