//! Table 2 / Appendix A: cost per "port" for a static network vs Opera,
//! and the derived cost-normalization quantities.

use expt::{Cell, Ctx, Experiment, MetricFmt, RepTableBuilder, Table};
use topo::cost::{clos_hosts, clos_oversubscription, expander_uplinks, table2_alpha, PortCost};

/// Driver identity.
pub const EXPERIMENT: Experiment = Experiment {
    name: "table2_cost_model",
    title: "Table 2: per-port cost breakdown (USD)",
};

/// Build the tables. The cost model is closed-form (no sweep, no seed
/// dependence), so every replicate observes the same values and the CI
/// columns are exactly zero — kept for schema uniformity across figures.
pub fn tables(ctx: &Ctx) -> Vec<Table> {
    let s = PortCost::static_port();
    let o = PortCost::opera_port();
    let mut cost = RepTableBuilder::new(
        "port_cost",
        &["component"],
        &[
            ("static_usd", expt::f0 as MetricFmt),
            ("opera_usd", expt::f0),
        ],
    );
    for (label, sv, ov) in [
        ("sr_transceiver", s.transceiver, o.transceiver),
        ("optical_fiber", s.fiber, o.fiber),
        ("tor_port", s.tor_port, o.tor_port),
        ("rotor_components", s.rotor_components, o.rotor_components),
        ("total", s.total(), o.total()),
    ] {
        cost.extend(ctx.repeat((vec![Cell::from(label)], vec![sv, ov])));
    }

    // Appendix A derived quantities at alpha (paper: alpha = 1.3).
    let a = table2_alpha();
    let mut derived = RepTableBuilder::new(
        "derived_quantities",
        &["quantity"],
        &[("value", expt::f3 as MetricFmt)],
    );
    for (quantity, value) in [
        ("alpha", a),
        (
            "cost_equivalent_clos_oversubscription_F",
            clos_oversubscription(a, 3),
        ),
        ("cost_equivalent_clos_hosts_k12", clos_hosts(4.0 / 3.0, 12)),
        (
            "cost_equivalent_expander_uplinks_k12",
            expander_uplinks(1.4, 12) as f64,
        ),
    ] {
        derived.extend(ctx.repeat((vec![Cell::from(quantity)], vec![value])));
    }
    vec![cost.build(), derived.build()]
}
