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
use netsim::{FlowTracker, NetWorld};
use opera::{OperaNetConfig, PacketNet, StaticNetConfig, StaticTopologyKind};
use simkit::stats::{summarize, Summary};
use simkit::{SimTime, Simulator};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use topo::clos::ClosParams;
use topo::cost::{expander_racks, expander_uplinks};
use topo::expander::{ExpanderParams, ExpanderTopology};
use topo::opera::OperaParams;
use workloads::FlowSpec;

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

/// The expander of radix-`k` ToRs that costs what relative cost `alpha`
/// buys ([`topo::cost`]) for `hosts` hosts, generated from `seed`: `u`
/// uplinks, kept within 3 ..= k − 1, and `k − u` hosts a rack.
pub(crate) fn cost_equivalent_expander(
    alpha: f64,
    k: usize,
    hosts: usize,
    seed: u64,
) -> ExpanderTopology {
    let uplinks = expander_uplinks(alpha, k).clamp(3, k - 1);
    let params = ExpanderParams {
        racks: expander_racks(hosts, k, uplinks),
        uplinks,
        hosts_per_rack: k - uplinks,
    };
    ExpanderTopology::generate(params, seed)
}

/// A shuffle among `hosts` hosts: each sends 100 KB, all at once, to
/// `peers` others spread around the host ring.
pub(crate) fn ring_shuffle(hosts: usize, peers: usize) -> Vec<FlowSpec> {
    let mut flows = Vec::with_capacity(hosts * peers);
    for src in 0..hosts {
        for k in 1..=peers {
            flows.push(FlowSpec {
                src,
                dst: (src + k * (hosts / peers + 1)) % hosts,
                size: 100_000,
                start: SimTime::ZERO,
            });
        }
    }
    flows
}

/// One packet run: its name, its counters, how it stopped and its packet
/// ledger, all deterministic, so runs that leave equal records are one
/// record (see [`run_records`]). Wall time and memory are not in it; they
/// are measured around whatever makes the runs ([`spot::measure`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunRecord {
    /// The run's name; replicates share it.
    pub name: String,
    /// Every counter as the run ended, by name: `events` (simulator
    /// events processed), then [`PacketNet::counters`], whose `delivered`
    /// is the run's packet-hops.
    pub counters: Vec<(&'static str, u64)>,
    /// Every flow was injected and completed ([`opera::net::Endpoints::finished`]).
    pub finished: bool,
    /// The network drained before the horizon ([`PacketNet::run`]).
    pub drained: bool,
    /// What [`PacketNet::ledger`] found, if the ledger did not balance.
    pub ledger: Result<(), String>,
}

impl RunRecord {
    /// The counter called `name`, if this run's network has one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Every record [`run_net`] made in this process, with how many runs left
/// it: a process that builds the drivers again (the benchmark's repeated
/// passes) adds counts, not records.
static RUNS: Mutex<BTreeMap<RunRecord, usize>> = Mutex::new(BTreeMap::new());

/// How every packet network of the harness is run and recorded:
/// [`PacketNet::run`], which stops at the first instant the network has
/// drained, however far off `horizon` is, and for a network with a trace
/// sink then [`Simulator::run_until`] `horizon` (what an idle network does
/// is part of its trace; the events are the same up to the drain). The
/// run's record is entered under `name` in [`run_records`] and returned.
pub fn run_net<N: PacketNet>(
    sim: &mut Simulator<NetWorld<N>>,
    horizon: SimTime,
    name: fmt::Arguments<'_>,
) -> RunRecord {
    let drained = N::run(sim, horizon);
    if sim.world.fabric.tracing() {
        sim.run_until(horizon);
    }
    let record = RunRecord {
        name: name.to_string(),
        counters: [("events", sim.events_processed())]
            .into_iter()
            .chain(N::counters(sim))
            .collect(),
        finished: sim.world.logic.ends().finished(),
        drained,
        ledger: N::ledger(sim),
    };
    let mut runs = RUNS.lock().expect("no panic while the records are held");
    *runs.entry(record.clone()).or_default() += 1;
    record
}

/// The record of every packet run of this process, sorted, a record once
/// per run that left it.
pub fn run_records() -> Vec<RunRecord> {
    let runs = RUNS.lock().expect("no panic while the records are held");
    runs.iter().flat_map(|(r, &n)| vec![r.clone(); n]).collect()
}

/// [`summarize`] of the completion times of `tracker`'s finished flows,
/// each read by `unit` (`SimTime::as_us_f64`, `as_ms_f64`).
pub(crate) fn fct_stats(tracker: &FlowTracker, unit: fn(SimTime) -> f64) -> Summary {
    summarize(tracker.flows().iter().filter_map(|f| f.fct()).map(unit))
}

/// `tests/counter_census.txt`, the census every packet run is held to.
pub const COUNTER_CENSUS: &str = include_str!("../../../tests/counter_census.txt");

/// Hold `runs` to `census`, the text of a counter census (the format is
/// `tests/counter_census.txt`'s header), and name each way one is off it
/// as `<run>: <counter or check>: <what was read>`. Every run is held to
/// the `zero` rows, its ledger and having drained if it finished every
/// flow. With `whole_suite` the runs are also held together (run `*`) to
/// the `some` rows and to every row covering a run, which only the whole
/// quick suite can meet.
pub fn census(census: &str, runs: &[RunRecord], whole_suite: bool) -> Vec<String> {
    let mut found = Vec::new();
    for r in runs {
        if let Err(e) = &r.ledger {
            found.push(format!("{}: ledger: {e}", r.name));
        }
        if r.finished && !r.drained {
            let read = "every flow completed and the network had not drained by the horizon";
            found.push(format!("{}: drained: {read}", r.name));
        }
    }
    for line in census
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split(" | ").map(str::trim).collect();
        let (counter, expect, scope) = match fields[..] {
            [counter, expect, _why] => (counter, expect, ""),
            [counter, expect, _why, scope] => (counter, expect, scope),
            _ => panic!("{line}: three or four fields"),
        };
        let read: Vec<(&str, u64)> = runs
            .iter()
            .filter(|r| r.name.contains(scope))
            .filter_map(|r| Some((r.name.as_str(), r.counter(counter)?)))
            .collect();
        let above = read.iter().filter(|&&(_, v)| v > 0);
        match expect {
            "zero" => {
                found.extend(above.map(|(run, v)| format!("{run}: {counter}: {v}, off `{line}`")))
            }
            "some" if whole_suite && !read.is_empty() && above.count() == 0 => found.push(format!(
                "*: {counter}: 0 on all {} runs, off `{line}`",
                read.len()
            )),
            "some" => {}
            other => panic!("{line}: `{other}` is neither `zero` nor `some`"),
        }
        if whole_suite && read.is_empty() {
            found.push(format!("*: {counter}: no run `{line}` covers counts it"));
        }
    }
    found
}

/// `tests/known_failures.txt`: `(check, run)` once per run that bears a
/// finding the repo knows of and has not fixed yet.
pub fn known_failures() -> Vec<(&'static str, &'static str)> {
    include_str!("../../../tests/known_failures.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(" | "))
        .collect()
}

/// Match `found` ([`census`] findings) against `known` (`(check, run)`
/// lines, each excusing one finding of `check` on the run named `run`):
/// every finding no line excuses, then every line no finding used.
pub fn against_known(found: Vec<String>, mut known: Vec<(&str, &str)>) -> Vec<String> {
    let mut off: Vec<String> = found
        .into_iter()
        .filter(|f| {
            let excuse = known
                .iter()
                .position(|(check, run)| f.starts_with(&format!("{run}: {check}: ")));
            excuse.map(|i| known.swap_remove(i)).is_none()
        })
        .collect();
    off.extend(known.iter().map(|(check, run)| {
        format!("{run}: {check}: no longer found; delete its line of tests/known_failures.txt")
    }));
    off
}

/// Hold `runs` to `census_text` ([`census`]) with the `known` failures
/// (`(check, run)`, a line once per run that bears it) whose run is among
/// `runs` excused, each line at most once ([`against_known`]): `Err`
/// names every finding no line excuses and every such line no finding
/// used.
pub fn judge(
    census_text: &str,
    mut known: Vec<(&str, &str)>,
    runs: &[RunRecord],
    whole_suite: bool,
) -> Result<(), String> {
    known.retain(|&(_, run)| runs.iter().any(|r| r.name == run));
    let off = against_known(census(census_text, runs, whole_suite), known);
    match off.len() {
        0 => Ok(()),
        n => Err(format!(
            "{n} finding(s) off tests/counter_census.txt less tests/known_failures.txt:\n  {}",
            off.join("\n  ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, counters: &[(&'static str, u64)]) -> RunRecord {
        RunRecord {
            name: name.into(),
            counters: counters.to_vec(),
            finished: true,
            drained: true,
            ledger: Ok(()),
        }
    }

    /// Every kind of finding comes out of [`census`] naming its run and
    /// its counter or check, and a clean suite has none.
    #[test]
    fn census_names_every_finding() {
        let rows = "# a comment\n\
                    lost | zero | nothing is lost\n\
                    paused | zero | only pfc pauses | /pfc/\n\
                    trimmed | some | ndp trims\n";
        let clean = [
            run("a/pfc/1", &[("lost", 0), ("paused", 0), ("trimmed", 1)]),
            run("a/ndp/1", &[("lost", 0), ("paused", 5), ("trimmed", 0)]),
        ];
        assert_eq!(census(rows, &clean, true), Vec::<String>::new());

        let mut undrained = run("b/pfc/2", &[("lost", 3), ("paused", 2), ("trimmed", 0)]);
        undrained.drained = false;
        let mut unbalanced = run("c/ndp/3", &[("lost", 0), ("trimmed", 0)]);
        unbalanced.ledger = Err("flow 7: received 9 of 8".into());
        let mut unfinished = run("d/ndp/4", &[("lost", 0), ("trimmed", 0)]);
        (unfinished.finished, unfinished.drained) = (false, false);
        let found = census(rows, &[undrained, unbalanced, unfinished], true);
        let named: Vec<&str> = found
            .iter()
            .filter_map(|f| f.rsplit_once(": "))
            .map(|(named, _)| named)
            .collect();
        assert_eq!(
            named,
            [
                "b/pfc/2: drained",
                "c/ndp/3: ledger: flow 7",
                "b/pfc/2: lost",
                "b/pfc/2: paused",
                "*: trimmed",
            ],
            "{found:#?}"
        );
        // Run by run, a `some` row is no finding; a row no run covers
        // neither.
        let one = [run("e/ndp/5", &[("lost", 0)])];
        assert_eq!(census(rows, &one, false), Vec::<String>::new());
        let uncovered = census(rows, &one, true);
        assert!(
            uncovered[0].starts_with("*: paused: no run"),
            "{uncovered:?}"
        );
        assert!(
            uncovered[1].starts_with("*: trimmed: no run"),
            "{uncovered:?}"
        );
        assert_eq!(uncovered.len(), 2);
    }

    /// [`judge`] excuses a finding once per known line whose run is among
    /// the runs, and names every other finding and every line of those
    /// runs that no finding used.
    #[test]
    fn judge_holds_runs_to_exactly_their_known_lines() {
        let rows = "lost | zero | nothing is lost\n";
        let lost = |name| run(name, &[("lost", 1)]);
        let known = vec![("lost", "a/1"), ("lost", "a/1"), ("lost", "elsewhere")];
        assert_eq!(
            judge(rows, known.clone(), &[lost("a/1"), lost("a/1")], false),
            Ok(())
        );

        let err = judge(rows, known.clone(), &vec![lost("a/1"); 3], false).unwrap_err();
        assert!(err.starts_with("1 finding(s)"), "{err}");
        assert!(err.ends_with("\n  a/1: lost: 1, off `lost | zero | nothing is lost`"));
        // A run whose name only ends in a known one is not excused.
        let err = judge(rows, known.clone(), &[lost("x/a/1")], false).unwrap_err();
        assert!(err.ends_with("\n  x/a/1: lost: 1, off `lost | zero | nothing is lost`"));

        let fixed = [run("a/1", &[("lost", 0)]), lost("a/1")];
        let err = judge(rows, known, &fixed, false).unwrap_err();
        assert!(err.starts_with("1 finding(s)"), "{err}");
        assert!(
            err.ends_with(
                "\n  a/1: lost: no longer found; delete its line of \
                               tests/known_failures.txt"
            ),
            "{err}"
        );
    }
}
