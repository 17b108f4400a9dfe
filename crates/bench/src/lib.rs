//! Shared configuration and figure definitions for the reproduction
//! drivers.
//!
//! Every driver regenerates one table or figure from the paper through
//! the [`expt`] harness: a declarative definition in [`figures`],
//! registered in [`figures::all`] and run by the one binary,
//! `opera run <driver>` (`src/bin/opera.rs`, which also fronts
//! [`backend`], [`scenario`], [`spot`] and [`record`]). All drivers
//! accept the shared `--quick` / `--full` / `--threads` / `--seed` /
//! `--out` flags:
//!
//! * **quick** — tiny grids and networks, the CI smoke configuration,
//! * **default** — laptop-friendly mini networks, minutes for the suite,
//! * **full** — the paper's configurations (648 / 5184 hosts, 90 µs
//!   slices) where the driver supports it.

pub mod backend;
pub mod figures;
pub mod record;
pub mod scenario;
pub mod spot;

use expt::Scale;
use opera::{OperaNetConfig, SliceTiming, StaticNetConfig, StaticTopologyKind};
use topo::clos::ClosParams;
use topo::expander::ExpanderParams;
use topo::opera::OperaParams;

/// The cost-equivalent trio at mini scale (`k = 8`, 192 hosts):
/// * Opera: 48 racks × 4 hosts, u = 4,
/// * static expander: u = 5, d = 3, 64 racks (α = 5/3, slightly favoring
///   the expander, mirroring the paper's u = 7 vs α = 1.3 choice),
/// * folded Clos: 3:1, k = 8 (32 ToRs × 6 hosts).
pub struct MiniTrio;

impl MiniTrio {
    /// Opera configuration.
    pub fn opera() -> OperaNetConfig {
        OperaNetConfig {
            params: OperaParams {
                racks: 48,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 1,
            },
            timing: SliceTiming::fast_sim(),
            bulk_threshold: 1_500_000,
            ..OperaNetConfig::small_test()
        }
    }

    /// Expander configuration.
    pub fn expander() -> StaticNetConfig {
        StaticNetConfig {
            kind: StaticTopologyKind::Expander(ExpanderParams {
                racks: 64,
                uplinks: 5,
                hosts_per_rack: 3,
            }),
            ..StaticNetConfig::small_expander()
        }
    }

    /// Folded-Clos configuration.
    pub fn clos() -> StaticNetConfig {
        StaticNetConfig {
            kind: StaticTopologyKind::FoldedClos(ClosParams {
                radix: 8,
                oversubscription: 3,
            }),
            ..StaticNetConfig::small_expander()
        }
    }

    /// Host count shared by the trio (192, matched within rack rounding).
    pub fn hosts() -> usize {
        192
    }
}

/// Paper-scale trio (648 / 650 / 648 hosts).
pub struct PaperTrio;

impl PaperTrio {
    /// 648-host Opera.
    pub fn opera() -> OperaNetConfig {
        OperaNetConfig::paper_648()
    }
    /// 650-host u=7 expander.
    pub fn expander() -> StaticNetConfig {
        StaticNetConfig::paper_expander_650()
    }
    /// 648-host 3:1 Clos.
    pub fn clos() -> StaticNetConfig {
        StaticNetConfig::paper_clos_648()
    }
    /// Host count (Opera/Clos; the expander has 650).
    pub fn hosts() -> usize {
        648
    }
}

/// The smoke-test trio for `--quick` mode: not cost-equivalent, just the
/// smallest networks that exercise every code path (8-rack Opera, 8-rack
/// expander, k = 4 Clos).
pub struct QuickTrio;

impl QuickTrio {
    /// 48-host Opera. 12 racks, not `small_test`'s 8: hybrid-RotorNet
    /// runs drop one uplink (4 → 3), and the uplink count must divide
    /// the rack count.
    pub fn opera() -> OperaNetConfig {
        OperaNetConfig {
            params: OperaParams {
                racks: 12,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 1,
            },
            ..OperaNetConfig::small_test()
        }
    }
    /// 32-host expander.
    pub fn expander() -> StaticNetConfig {
        StaticNetConfig::small_expander()
    }
    /// 24-host k = 4 Clos.
    pub fn clos() -> StaticNetConfig {
        StaticNetConfig {
            kind: StaticTopologyKind::FoldedClos(ClosParams {
                radix: 4,
                oversubscription: 3,
            }),
            ..StaticNetConfig::small_expander()
        }
    }
}

/// The Opera configuration for a scale.
pub fn opera_cfg(scale: Scale) -> OperaNetConfig {
    match scale {
        Scale::Quick => QuickTrio::opera(),
        Scale::Default => MiniTrio::opera(),
        Scale::Full => PaperTrio::opera(),
    }
}

/// The static-expander configuration for a scale.
pub fn expander_cfg(scale: Scale) -> StaticNetConfig {
    match scale {
        Scale::Quick => QuickTrio::expander(),
        Scale::Default => MiniTrio::expander(),
        Scale::Full => PaperTrio::expander(),
    }
}

/// The folded-Clos configuration for a scale.
pub fn clos_cfg(scale: Scale) -> StaticNetConfig {
    match scale {
        Scale::Quick => QuickTrio::clos(),
        Scale::Default => MiniTrio::clos(),
        Scale::Full => PaperTrio::clos(),
    }
}

/// Host count of a static-network configuration.
pub fn static_hosts(cfg: &StaticNetConfig) -> usize {
    match &cfg.kind {
        StaticTopologyKind::Expander(p) => p.racks * p.hosts_per_rack,
        StaticTopologyKind::FoldedClos(p) => p.hosts(),
    }
}
