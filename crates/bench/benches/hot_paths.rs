//! Criterion microbenchmarks of the simulator's hot paths: event queue,
//! factorization + Kempe mixing, per-slice table construction, packet
//! forwarding through the fabric, the max-min and MCF solvers, and
//! spectral analysis.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simkit::engine::{EventContext, EventHandler, Simulator};
use simkit::{SimRng, SimTime};
use std::time::Duration;

struct Ticker {
    remaining: u64,
}
impl EventHandler for Ticker {
    type Event = u32;
    fn handle_event(&mut self, _ev: u32, ctx: &mut EventContext<'_, u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule_in(SimTime::from_ns(100), 0);
        }
    }
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("simkit_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(Ticker { remaining: 100_000 });
            sim.schedule_at(SimTime::ZERO, 0);
            sim.run();
            sim.events_processed()
        })
    });
}

fn bench_factorization(c: &mut Criterion) {
    c.bench_function("factorize_108_racks_mixed", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(1);
            topo::matching::factorize_complete(108, &mut rng).len()
        })
    });
    c.bench_function("lifted_factorize_432_racks", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(1);
            topo::lifting::factorize_lifted(432, &mut rng).len()
        })
    });
}

fn bench_tables(c: &mut Criterion) {
    let topo = topo::opera::OperaTopology::generate(topo::opera::OperaParams::example_648(), 1);
    c.bench_function("slice_graph_bfs_648", |b| {
        b.iter(|| topo.slice(17).graph().path_length_stats())
    });
    c.bench_function("build_bulk_tables_648", |b| {
        b.iter(|| opera::tables::BulkTables::build(&topo))
    });
}

fn bench_packet_sim(c: &mut Criterion) {
    use opera::{opera_net, OperaNetConfig};
    use workloads::FlowSpec;
    c.bench_function("opera_32host_1MB_bulk_flow", |b| {
        b.iter_batched(
            || {
                opera_net::build(
                    OperaNetConfig::small_test(),
                    vec![FlowSpec {
                        src: 0,
                        dst: 31,
                        size: 1_000_000,
                        start: SimTime::ZERO,
                    }],
                )
            },
            |mut sim| {
                sim.run_until(SimTime::from_ms(30));
                sim.events_processed()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_solvers(c: &mut Criterion) {
    use flowsim::models::Demand;
    let topo = topo::opera::OperaTopology::generate(
        topo::opera::OperaParams {
            racks: 108,
            uplinks: 6,
            hosts_per_rack: 6,
            groups: 1,
        },
        2,
    );
    let demands: Vec<Demand> = (0..108)
        .map(|r| Demand {
            src: r,
            dst: (r + 54) % 108,
            amount: 60.0,
        })
        .collect();
    c.bench_function("flowsim_opera_mesh_108", |b| {
        b.iter(|| flowsim::opera_model(&topo, &demands, 10.0, 0.98, true).delivered())
    });

    let exp = topo::expander::ExpanderTopology::generate(
        topo::expander::ExpanderParams::example_650(),
        3,
    );
    let tor: Vec<usize> = (0..130).collect();
    let dem: Vec<Demand> = (0..130)
        .map(|r| Demand {
            src: r,
            dst: (r + 65) % 130,
            amount: 50.0,
        })
        .collect();
    c.bench_function("mcf_expander_130_20phases", |b| {
        b.iter(|| flowsim::max_concurrent_flow(exp.graph(), &tor, &dem, 10.0, 50.0, 20).lambda)
    });

    // Same solve through a kept solver instance: isolates the steady
    // state (CSR + reverse adjacency built once, scratch/heap recycled)
    // from the one-shot wrapper above.
    let mut solver = flowsim::McfSolver::new(exp.graph());
    c.bench_function("mcf_expander_130_20phases_reused", |b| {
        b.iter(|| solver.solve(&tor, &dem, 10.0, 50.0, 20).lambda)
    });
}

fn bench_spectral(c: &mut Criterion) {
    let exp = topo::expander::ExpanderTopology::generate(
        topo::expander::ExpanderParams::example_650(),
        4,
    );
    c.bench_function("spectral_gap_130racks", |b| {
        b.iter(|| topo::spectral::adjacency_spectrum(exp.graph(), 300, 1).gap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_event_queue,
        bench_factorization,
        bench_tables,
        bench_packet_sim,
        bench_solvers,
        bench_spectral
}
criterion_main!(benches);
