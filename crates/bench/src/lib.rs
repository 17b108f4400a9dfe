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
//!
//! The packet-level networks behind each scale are [`opera_cfg`],
//! [`expander_cfg`] and [`clos_cfg`]: the cost-equivalent trio at 192
//! hosts (default; `k = 8`, matched within rack rounding) and at the
//! paper's 648 / 650 / 648 (full), and for quick not cost-equivalent at
//! all, just the smallest networks that exercise every code path. A
//! driver that runs more than one of them does so through one body
//! generic over [`opera::PacketNet`].

pub mod backend;
pub mod figures;
pub mod record;
pub mod scenario;
pub mod spot;

use expt::Scale;
use netsim::NetWorld;
use opera::{OperaNetConfig, PacketNet, StaticNetConfig, StaticTopologyKind};
use simkit::{SimTime, Simulator};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;
use topo::clos::ClosParams;
use topo::expander::ExpanderParams;
use topo::opera::OperaParams;

/// The Opera configuration for a scale.
///
/// * quick — 12 racks × 4 hosts, u = 4: not `small_test`'s 8 racks,
///   because hybrid-RotorNet runs drop one uplink (4 → 3) and the uplink
///   count must divide the rack count;
/// * default — 48 racks × 4 hosts, u = 4;
/// * full — the paper's 648 hosts.
pub fn opera_cfg(scale: Scale) -> OperaNetConfig {
    let mini = |racks| OperaParams {
        racks,
        uplinks: 4,
        hosts_per_rack: 4,
        groups: 1,
    };
    match scale {
        Scale::Quick => OperaNetConfig {
            params: mini(12),
            ..OperaNetConfig::small_test()
        },
        Scale::Default => OperaNetConfig {
            params: mini(48),
            bulk_threshold: 1_500_000,
            ..OperaNetConfig::small_test()
        },
        Scale::Full => OperaNetConfig::paper_648(),
    }
}

/// The static-expander configuration for a scale: 8 racks × 4 hosts
/// (quick); u = 5, d = 3, 64 racks (default: α = 5/3, slightly favoring
/// the expander, mirroring the paper's u = 7 vs α = 1.3 choice); the
/// paper's 650-host u = 7 expander (full).
pub fn expander_cfg(scale: Scale) -> StaticNetConfig {
    match scale {
        Scale::Quick => StaticNetConfig::small_expander(),
        Scale::Default => StaticNetConfig {
            kind: StaticTopologyKind::Expander(ExpanderParams {
                racks: 64,
                uplinks: 5,
                hosts_per_rack: 3,
            }),
            ..StaticNetConfig::small_expander()
        },
        Scale::Full => StaticNetConfig::paper_expander_650(),
    }
}

/// The 3:1 folded-Clos configuration for a scale: k = 4, 24 hosts
/// (quick); k = 8, 32 ToRs × 6 hosts (default); the paper's 648 hosts
/// (full).
pub fn clos_cfg(scale: Scale) -> StaticNetConfig {
    let k = |radix| StaticNetConfig {
        kind: StaticTopologyKind::FoldedClos(ClosParams {
            radix,
            oversubscription: 3,
        }),
        ..StaticNetConfig::small_expander()
    };
    match scale {
        Scale::Quick => k(4),
        Scale::Default => k(8),
        Scale::Full => StaticNetConfig::paper_clos_648(),
    }
}

/// What this process's [`run_net`] runs left behind, by run name.
struct Census {
    /// Runs that reached their horizon with every flow complete: something
    /// kept the network from ever draining (ROADMAP 4b's NDP zombie
    /// re-arming its RTO, or packets stranded at an idle port, as 4e's were
    /// before rewired ports were restarted).
    undrained: BTreeSet<String>,
    /// Runs whose packet ledger ([`PacketNet::ledger`]) did not balance,
    /// with what it found.
    unbalanced: Vec<(String, String)>,
    /// Runs that lost packets into dark circuits (ROADMAP 4i), with how
    /// many. Replicates share a name, so a name is entered once per run.
    dark_drops: Vec<(String, u64)>,
}

static CENSUS: Mutex<Census> = Mutex::new(Census {
    undrained: BTreeSet::new(),
    unbalanced: Vec::new(),
    dark_drops: Vec::new(),
});

fn census() -> std::sync::MutexGuard<'static, Census> {
    CENSUS.lock().expect("no panic while the census is held")
}

/// How every driver runs a packet network: [`PacketNet::run`], which
/// stops at the first instant the network has drained, however far off
/// `horizon` is. The run is then entered under `name` in
/// [`undrained_runs`] if it finished its flows and still reached the
/// horizon, in [`unbalanced_runs`] if its packet ledger does not balance,
/// and in [`dark_drop_runs`] if it lost a packet into a dark circuit.
pub(crate) fn run_net<N: PacketNet>(
    sim: &mut Simulator<NetWorld<N>>,
    horizon: SimTime,
    name: fmt::Arguments<'_>,
) {
    let drained = N::run(sim, horizon);
    let mut census = census();
    if !drained && sim.world.logic.ends().finished() {
        census.undrained.insert(name.to_string());
    }
    if let Err(imbalance) = N::ledger(sim) {
        census.unbalanced.push((name.to_string(), imbalance));
    }
    let dark = sim.world.fabric.counters.dark_drops;
    if dark > 0 {
        census.dark_drops.push((name.to_string(), dark));
    }
}

/// The census of this process's driver runs, sorted by name: those whose
/// flows all completed but whose network never drained, and which
/// therefore ran to their horizon.
pub fn undrained_runs() -> Vec<String> {
    census().undrained.iter().cloned().collect()
}

/// This process's driver runs whose packet ledger did not balance, sorted
/// by name, each with what its ledger found.
pub fn unbalanced_runs() -> Vec<(String, String)> {
    let mut runs = census().unbalanced.clone();
    runs.sort();
    runs
}

/// This process's driver runs that lost packets into dark circuits
/// (ROADMAP 4i), sorted, each with its `dark_drops`; a name appears once
/// per run that bears it.
pub fn dark_drop_runs() -> Vec<(String, u64)> {
    let mut runs = census().dark_drops.clone();
    runs.sort();
    runs
}
