//! The committed performance trajectory behind `opera bench-record`.
//!
//! The ROADMAP asks for engine speed "proven with a committed perf
//! trajectory". This module is that proof: a fixed scenario set — a raw
//! engine-churn microbenchmark plus bounded fig08 (shuffle) and fig09
//! (Websearch) slices — measured through the same core as the criterion
//! benches ([`criterion::sample_batched`] / [`criterion::Summary`]) and
//! appended to the **append-only** `BENCH_hot_paths.json` at the
//! workspace root. Each entry records, per scenario:
//!
//! * `events` — deterministic simulator event count of one run,
//! * `wall_ms_median` / `wall_ms_stddev` — wall time over the samples,
//! * `events_per_sec` — `events / median wall`, the headline number,
//! * `peak_pending` — high-water mark of the pending-event queue,
//!
//! plus which engine produced it ([`simkit::engine::ENGINE_NAME`]), the
//! scale mode, the git revision, and a timestamp. Because entries are
//! never rewritten, the file reads as a performance time series over the
//! PR history, and CI's `bench-record` job can gate regressions by
//! comparing a fresh run against the latest committed entry (see
//! [`check`]; the threshold is generous — shared runners are noisy — so
//! only real cliffs fail the build).

use crate::opera_cfg;
use criterion::{sample_batched, Summary};
use expt::json::Json;
use expt::Scale;
use simkit::engine::{EventContext, EventHandler, Simulator};
use simkit::{SimRng, SimTime};
use std::io;
use std::path::Path;
use topo::cost::{expander_racks, expander_uplinks};
use topo::expander::{ExpanderParams, ExpanderTopology};
use workloads::dists::{FlowSizeDist, Workload};
use workloads::gen::{PoissonGen, ScenarioGen};
use workloads::FlowSpec;

/// Default trajectory file, at the workspace root next to `goldens/`.
pub const DEFAULT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hot_paths.json");

/// Default regression-gate threshold: fail when a scenario's fresh
/// `events_per_sec` drops more than 30% below the committed baseline.
/// Generous on purpose — CI runners share cores and wall time jitters —
/// so the gate catches algorithmic cliffs, not scheduler noise.
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// One measured scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (JSON key).
    pub name: &'static str,
    /// Simulator events processed by one run (deterministic).
    pub events: u64,
    /// Wall-time statistics over the samples.
    pub wall: Summary,
    /// `events / median wall`, in events per wall-clock second.
    pub events_per_sec: f64,
    /// High-water mark of pending events in the engine queue.
    pub peak_pending: usize,
}

/// Run the fixed scenario set. `full` selects the nightly configuration
/// (larger networks, longer horizons, more samples); quick is the
/// per-push CI configuration.
pub fn run_all(full: bool) -> Vec<ScenarioResult> {
    vec![
        engine_churn(full),
        fig08_shuffle_slice(full),
        fig09_websearch_slice(full),
        mcf_solve(full),
        mcf_sweep_warm(full),
    ]
}

/// World for the raw engine microbenchmark: a constant population of
/// events, every one rescheduling itself onto a future slot boundary.
/// This is the rotor-network shape the scheduler must be fast for —
/// nearly all events land on a small set of known slot-aligned times.
struct Churn {
    slot_ns: u64,
    remaining: u64,
}

impl EventHandler for Churn {
    type Event = u32;
    fn handle_event(&mut self, ev: u32, ctx: &mut EventContext<'_, u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            // Hop 1–4 slots ahead, deterministically per event id, so
            // pending events spread over a handful of future boundaries.
            let hop = 1 + (ev as u64 & 3);
            ctx.schedule_in(SimTime::from_ns(self.slot_ns * hop), ev);
        }
    }
}

/// Raw engine churn: `pending` concurrent events over 90 µs-style slot
/// boundaries, `total` pops. No fabric, no packets — pure scheduler.
fn engine_churn(full: bool) -> ScenarioResult {
    let (pending, total, samples) = if full {
        (262_144u32, 15_000_000u64, 7)
    } else {
        (65_536u32, 1_500_000u64, 5)
    };
    let slot_ns = 1_000;
    let mut peak = 0usize;
    let wall = sample_batched(
        samples,
        || {
            let mut sim = Simulator::new(Churn {
                slot_ns,
                remaining: total,
            });
            for i in 0..pending {
                sim.schedule_at(SimTime::from_ns(slot_ns * (1 + (i as u64 & 3))), i);
            }
            sim
        },
        |mut sim| {
            sim.run_events(total);
            peak = sim.peak_pending();
            sim.events_processed()
        },
    );
    finish("engine_churn", total, wall, peak)
}

/// A bounded slice of fig08: bulk shuffle on the Opera network, every
/// flow over direct circuits (RotorLB + circuit scheduling hot paths).
fn fig08_shuffle_slice(full: bool) -> ScenarioResult {
    let (mut cfg, peers, horizon, samples) = if full {
        (opera_cfg(Scale::Default), 8, SimTime::from_ms(40), 5)
    } else {
        (opera_cfg(Scale::Quick), 4, SimTime::from_ms(20), 3)
    };
    cfg.bulk_threshold = 0; // application tags everything bulk (§3.4)
    let hosts = cfg.hosts();
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
    measure_net("fig08_shuffle_slice", samples, horizon, move || {
        opera::opera_net::build(cfg, flows.clone())
    })
}

/// A bounded slice of fig09: a short Websearch Poisson window at 10%
/// load, all flows low-latency (NDP + indirect expander paths).
fn fig09_websearch_slice(full: bool) -> ScenarioResult {
    let (mut cfg, window, horizon, samples) = if full {
        (
            opera_cfg(Scale::Default),
            SimTime::from_ms(10),
            SimTime::from_ms(40),
            5,
        )
    } else {
        (
            opera_cfg(Scale::Quick),
            SimTime::from_ms(2),
            SimTime::from_ms(10),
            3,
        )
    };
    cfg.bulk_threshold = 20_000_000; // fig09's premise: all low-latency
    let hosts = cfg.hosts();
    let flows = PoissonGen::new(FlowSizeDist::of(Workload::Websearch), hosts, 10.0, 0.10, 0)
        .flows_until(window);
    measure_net("fig09_websearch_slice", samples, horizon, move || {
        opera::opera_net::build(cfg, flows.clone())
    })
}

/// Fixed-topology Garg–Könemann solves: the cost-equivalent expander of
/// fig12/fig15 under the hot-rack and permutation demand matrices. For
/// the solver scenarios `events` counts **MCF solves**, so
/// `events_per_sec` reads as solves per second, and `peak_pending` is 0
/// (no engine queue is involved).
fn mcf_solve(full: bool) -> ScenarioResult {
    // Quick: the paper's k = 12 cost-equivalent expander (130 × 5 hosts)
    // at fig12's quick-scale phase count (`mcf_iters` = 25), i.e. the
    // solver exactly as the quick driver runs it. Full: the k = 24
    // α = 1.0 point of the nightly fig12_k24 spot check at the full-scale
    // phase count.
    let (params, phases, samples) = if full {
        (
            ExpanderParams {
                racks: 432,
                uplinks: 12,
                hosts_per_rack: 12,
            },
            60usize,
            5,
        )
    } else {
        (ExpanderParams::example_650(), 25, 5)
    };
    let rate = 10.0;
    let exp = ExpanderTopology::generate(params, 7);
    let tor: Vec<usize> = (0..params.racks).collect();
    let hot = ScenarioGen::hotrack_demands(params.hosts_per_rack, rate);
    let mut rng = SimRng::new(11);
    let perm =
        ScenarioGen::permutation_demands(params.racks, params.hosts_per_rack, rate, &mut rng);
    let host_cap = params.hosts_per_rack as f64 * rate;
    let mut solver = flowsim::McfSolver::new(exp.graph());
    let wall = sample_batched(
        samples,
        || (),
        |()| {
            let h = solver.solve(&tor, &hot, rate, host_cap, phases);
            let p = solver.solve(&tor, &perm, rate, host_cap, phases);
            (h.lambda, p.lambda)
        },
    );
    finish("mcf_solve", 2, wall, 0)
}

/// The fig12-shaped α-sweep: one cost-equivalent expander per α under
/// hot-rack + permutation demands. α points with the same uplink count
/// pose the *identical* problem (same seed-7 topology, demands keyed on
/// the uplink count), so, as in fig12, each distinct uplink count is
/// solved once (cold, through [`flowsim::McfSolver::solve`]) and its λ
/// reused for the points that repeat it. `events` counts α points.
fn mcf_sweep_warm(full: bool) -> ScenarioResult {
    let (k, phases, samples) = if full {
        (24usize, 60usize, 3)
    } else {
        (12, 25, 5)
    };
    let rate = 10.0;
    let hosts = (3 * k * k / 4) * (k / 2);
    let alphas: Vec<f64> = (0..=10).map(|i| 1.0 + 0.1 * i as f64).collect();
    let points: Vec<(usize, usize, ExpanderTopology)> = alphas
        .iter()
        .map(|&alpha| {
            let u = expander_uplinks(alpha, k).clamp(3, k - 1);
            let de = k - u;
            let racks_e = expander_racks(hosts, k, u);
            let exp = ExpanderTopology::generate(
                ExpanderParams {
                    racks: racks_e,
                    uplinks: u,
                    hosts_per_rack: de,
                },
                7,
            );
            (u, de, exp)
        })
        .collect();
    let demand_sets: Vec<(Vec<flowsim::models::Demand>, Vec<usize>, f64)> = points
        .iter()
        .map(|(u, de, exp)| {
            let racks_e = exp.racks();
            let mut demands = ScenarioGen::hotrack_demands(*de, rate);
            // Keyed on the uplink count, not the α index, so equal-u
            // points stay byte-identical problems.
            let mut rng = SimRng::new(1000 + *u as u64);
            demands.extend(ScenarioGen::permutation_demands(
                racks_e, *de, rate, &mut rng,
            ));
            let tor: Vec<usize> = (0..racks_e).collect();
            (demands, tor, *de as f64 * rate)
        })
        .collect();
    let wall = sample_batched(
        samples,
        || (),
        |()| {
            let mut solved: Vec<(usize, f64)> = Vec::with_capacity(points.len());
            for ((u, _, exp), (demands, tor, host_cap)) in points.iter().zip(&demand_sets) {
                if !solved.iter().any(|(v, _)| v == u) {
                    let r = flowsim::McfSolver::new(exp.graph())
                        .solve(tor, demands, rate, *host_cap, phases);
                    solved.push((*u, r.lambda));
                }
            }
            solved
        },
    );
    finish("mcf_sweep_warm", alphas.len() as u64, wall, 0)
}

/// Measure a packet-level scenario: build the simulation per sample
/// (setup excluded from timing), run to `horizon`, count engine events.
fn measure_net<W, F>(
    name: &'static str,
    samples: usize,
    horizon: SimTime,
    mut build: F,
) -> ScenarioResult
where
    W: EventHandler,
    F: FnMut() -> Simulator<W>,
{
    let mut events = 0u64;
    let mut peak = 0usize;
    let wall = sample_batched(samples, &mut build, |mut sim| {
        sim.run_until(horizon);
        events = sim.events_processed();
        peak = sim.peak_pending();
    });
    finish(name, events, wall, peak)
}

fn finish(
    name: &'static str,
    events: u64,
    wall_samples: Vec<std::time::Duration>,
    peak_pending: usize,
) -> ScenarioResult {
    let wall = Summary::from_samples(&wall_samples).expect("sampled at least once");
    let events_per_sec = events as f64 / wall.median.as_secs_f64();
    ScenarioResult {
        name,
        events,
        wall,
        events_per_sec,
        peak_pending,
    }
}

/// Build the JSON object for one trajectory entry.
pub fn entry(results: &[ScenarioResult], mode: &str, recorded_at_unix: u64, git_rev: &str) -> Json {
    let ms = |d: std::time::Duration| Json::Num(format!("{:.3}", d.as_secs_f64() * 1e3));
    let scenario = |r: &ScenarioResult| {
        Json::obj([
            ("events", Json::Num(r.events.to_string())),
            (
                "events_per_sec",
                Json::Num(format!("{:.1}", r.events_per_sec)),
            ),
            ("peak_pending", Json::Num(r.peak_pending.to_string())),
            ("wall_ms_median", ms(r.wall.median)),
            ("wall_ms_stddev", ms(r.wall.stddev)),
        ])
    };
    let host = format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH);
    Json::obj([
        ("engine", Json::Str(simkit::engine::ENGINE_NAME.into())),
        ("git_rev", Json::Str(git_rev.into())),
        ("host", Json::Str(host)),
        ("mode", Json::Str(mode.into())),
        ("recorded_at_unix", Json::Num(recorded_at_unix.to_string())),
        (
            "scenarios",
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.name.to_string(), scenario(r)))
                    .collect(),
            ),
        ),
    ])
}

/// Load a trajectory document, or the empty skeleton if `path` does not
/// exist yet.
pub fn load(path: &Path) -> io::Result<Json> {
    if !path.exists() {
        let unit = "events_per_sec = simulator events per wall-clock second, \
                    median over samples; see README \"Performance trajectory\"";
        return Ok(Json::obj([
            ("entries", Json::Arr(vec![])),
            ("schema", Json::Num("1".into())),
            ("unit", Json::Str(unit.into())),
        ]));
    }
    let text = std::fs::read_to_string(path)?;
    Json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Append `new_entry` to the trajectory at `path` (append-only: existing
/// entries are re-rendered byte-losslessly, never modified).
pub fn append(path: &Path, new_entry: Json) -> io::Result<()> {
    let mut doc = load(path)?;
    let Json::Obj(members) = &mut doc else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: root is not an object", path.display()),
        ));
    };
    match members
        .entry("entries".to_string())
        .or_insert_with(|| Json::Arr(vec![]))
    {
        Json::Arr(entries) => entries.push(new_entry),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: \"entries\" is not an array", path.display()),
            ))
        }
    }
    std::fs::write(path, doc.render() + "\n")
}

/// The latest committed baseline for `(scenario, mode)`: scans entries
/// newest-last, returning that scenario's `events_per_sec`.
pub fn latest_baseline(doc: &Json, scenario: &str, mode: &str) -> Option<f64> {
    doc.get("entries")?
        .as_arr()?
        .iter()
        .rev()
        .filter(|e| e.get("mode").and_then(Json::as_str) == Some(mode))
        .find_map(|e| {
            e.get("scenarios")?
                .get(scenario)?
                .get("events_per_sec")?
                .as_f64()
        })
}

/// The CI regression gate: compare fresh results against the latest
/// committed entry of the same mode. Returns human-readable failures —
/// empty means the gate passes. A scenario with no committed baseline
/// passes (first recording), and improvements always pass.
pub fn check(doc: &Json, fresh: &[ScenarioResult], mode: &str, threshold: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for r in fresh {
        let Some(base) = latest_baseline(doc, r.name, mode) else {
            continue;
        };
        let floor = base * (1.0 - threshold);
        if r.events_per_sec < floor {
            failures.push(format!(
                "{}: {:.0} events/sec is {:.0}% below the committed baseline \
                 {:.0} (floor {:.0} at threshold {:.0}%)",
                r.name,
                r.events_per_sec,
                (1.0 - r.events_per_sec / base) * 100.0,
                base,
                floor,
                threshold * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn result(name: &'static str, eps: f64) -> ScenarioResult {
        ScenarioResult {
            name,
            events: 1000,
            wall: Summary::from_samples(&[Duration::from_millis(5)]).unwrap(),
            events_per_sec: eps,
            peak_pending: 7,
        }
    }

    fn doc_with(eps: f64) -> Json {
        let e = entry(&[result("engine_churn", eps)], "quick", 123, "abc");
        Json::obj([("entries", Json::Arr(vec![e]))])
    }

    #[test]
    fn entry_round_trips_through_render() {
        let results = [result("engine_churn", 1_000_000.0)];
        let e = entry(&results, "quick", 1_700_000_000, "deadbeef");
        let text = e.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("mode").unwrap().as_str(), Some("quick"));
        assert_eq!(
            back.get("scenarios")
                .unwrap()
                .get("engine_churn")
                .unwrap()
                .get("events_per_sec")
                .unwrap()
                .as_f64(),
            Some(1_000_000.0)
        );
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_below() {
        let doc = doc_with(1_000_000.0);
        // 25% down: inside the 30% budget.
        assert!(check(&doc, &[result("engine_churn", 750_000.0)], "quick", 0.30).is_empty());
        // Improvement passes.
        assert!(check(&doc, &[result("engine_churn", 2_000_000.0)], "quick", 0.30).is_empty());
        // 40% down: fails, message names scenario and numbers.
        let fails = check(&doc, &[result("engine_churn", 600_000.0)], "quick", 0.30);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("engine_churn"), "{}", fails[0]);
        // Unknown scenario or mismatched mode has no baseline: passes.
        assert!(check(&doc, &[result("other", 1.0)], "quick", 0.30).is_empty());
        assert!(check(&doc, &[result("engine_churn", 1.0)], "full", 0.30).is_empty());
    }

    #[test]
    fn append_is_append_only() {
        let dir = std::env::temp_dir().join(format!("bench-record-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);
        append(
            &path,
            entry(&[result("engine_churn", 10.0)], "quick", 1, "a"),
        )
        .unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        append(
            &path,
            entry(&[result("engine_churn", 20.0)], "quick", 2, "b"),
        )
        .unwrap();
        let doc = load(&path).unwrap();
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 2);
        // The first entry survives byte-identically inside the new doc.
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains(first.lines().nth(3).unwrap()));
        // Latest baseline is the newest matching entry.
        assert_eq!(latest_baseline(&doc, "engine_churn", "quick"), Some(20.0));
        std::fs::remove_file(&path).unwrap();
    }
}
