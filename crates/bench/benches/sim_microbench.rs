//! Criterion micro-benchmarks for the simulator's hot paths: graph
//! generation, CSR construction, data-placement arithmetic, queue
//! operations and raw NoC message movement.  These guard the performance of
//! the substrate the figure experiments are built on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dalorex_graph::generators::rmat::RmatConfig;
use dalorex_graph::CsrGraph;
use dalorex_kernels::SsspKernel;
use dalorex_noc::message::Message;
use dalorex_noc::network::Network;
use dalorex_noc::topology::{GridShape, Topology};
use dalorex_noc::{NocConfig, RouterScheduler};
use dalorex_sim::config::{GridConfig, SimConfigBuilder};
use dalorex_sim::placement::{ArraySpace, Placement, VertexPlacement};
use dalorex_sim::queues::WordQueue;
use dalorex_sim::Simulation;

fn bench_rmat_generation(c: &mut Criterion) {
    c.bench_function("rmat_scale10_generation", |b| {
        b.iter(|| {
            let graph = RmatConfig::new(10, 8).seed(7).build().unwrap();
            black_box(graph.num_edges())
        })
    });
}

fn bench_csr_round_trip(c: &mut Criterion) {
    let edges = RmatConfig::new(10, 8).seed(7).build_edge_list().unwrap();
    c.bench_function("csr_from_edge_list_scale10", |b| {
        b.iter(|| black_box(CsrGraph::from_edge_list(&edges).num_edges()))
    });
}

fn bench_placement_mapping(c: &mut Criterion) {
    let placement = Placement::new(256, 1 << 20, 10 << 20, VertexPlacement::Interleaved);
    c.bench_function("placement_owner_and_local_1M_lookups", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in (0..(1 << 20)).step_by(17) {
                acc += placement.owner(ArraySpace::Vertex, i);
                acc += placement.to_local(ArraySpace::Edge, i);
            }
            black_box(acc)
        })
    });
}

fn bench_word_queue(c: &mut Criterion) {
    c.bench_function("word_queue_push_pop_4k", |b| {
        b.iter(|| {
            // Queues are storage-less ring descriptors over an arena slab;
            // the bench prices the descriptor arithmetic plus slab access.
            let mut slab = vec![0u32; 4096];
            let mut queue = WordQueue::new(0, 4096);
            for i in 0..1024u32 {
                queue.try_push(&mut slab, &[i, i + 1, i + 2]);
            }
            let mut acc = 0u32;
            while let Some(word) = queue.pop_word(&slab) {
                acc = acc.wrapping_add(word);
            }
            black_box(acc)
        })
    });
}

fn bench_noc_uniform_traffic(c: &mut Criterion) {
    c.bench_function("torus_8x8_uniform_traffic_drain", |b| {
        b.iter(|| {
            let mut net = Network::new(NocConfig::new(GridShape::new(8, 8), Topology::Torus));
            for src in 0..64usize {
                let dst = (src * 29 + 7) % 64;
                let _ = net.try_inject(src, Message::new(dst, 0, vec![src as u32, 1]));
            }
            let mut cycles = 0;
            while net.in_flight() > 0 && cycles < 10_000 {
                net.cycle();
                cycles += 1;
            }
            for tile in 0..64 {
                while net.pop_delivered(tile).is_some() {}
            }
            black_box(net.stats().delivered_messages)
        })
    });
}

/// One dense 64x64 wave: every tile sends three 2-flit messages (one of
/// them across the grid, as an engine-driven run's scattered traffic
/// does), the fabric drains, then the endpoints empty their ejection
/// buffers — deliveries pile up in the ejection buffers during the wave,
/// exactly the endpoint-bound regime the tile simulator produces.
fn torus_64x64_wave(net: &mut Network) -> u64 {
    const N: usize = 64 * 64;
    for src in 0..N {
        for k in 1..4usize {
            let dst = (src * 13 + k * 977 + N / 2) % N;
            if dst != src {
                let _ = net.try_inject(src, Message::new(dst, k % 4, vec![src as u32, 1]));
            }
        }
    }
    let mut cycles = 0u64;
    while net.in_flight() > 0 {
        net.cycle();
        cycles += 1;
    }
    for tile in 0..N {
        while net.pop_delivered(tile).is_some() {}
    }
    cycles
}

/// The calendar router scheduler against the reference scheduler (the
/// pre-overhaul scan, kept as the schedule oracle) on a dense 64x64 torus.
/// Both drain the identical wave, so time per iteration is inversely
/// proportional to cycles/sec.
fn bench_noc_cycle_64x64(c: &mut Criterion) {
    let config = NocConfig::new(GridShape::new(64, 64), Topology::Torus);
    c.bench_function("torus_64x64_cycle_event_driven", |b| {
        let mut net = Network::new(config.clone());
        b.iter(|| black_box(torus_64x64_wave(&mut net)))
    });
    c.bench_function("torus_64x64_cycle_reference_scan", |b| {
        let mut net = Network::new(
            config
                .clone()
                .with_router_scheduler(RouterScheduler::Reference),
        );
        b.iter(|| black_box(torus_64x64_wave(&mut net)))
    });
}

/// End-to-end `Simulation::run` on a tile-bound 64x64 SSSP sweep (RMAT
/// scale 14, degree 8 — a few vertices per tile, so the per-cycle TSU path,
/// not the kernel bodies, dominates).  `Simulation::run` drives the
/// production calendar engine (allocation-free tile path, calendar router
/// scheduler, skip-to-next-event jumps); `Simulation::run_reference` the
/// reference oracle.  Both produce cycle-exact identical outcomes (the
/// equivalence tests pin that), so per-iteration time is inversely
/// proportional to cycles/sec.
fn bench_sim_tile_path_64x64(c: &mut Criterion) {
    // Under plain `cargo test` the criterion shim smoke-runs each bench
    // once in the debug profile (with debug assertions); the full 64x64
    // case takes minutes there, so shrink it to an 8x8 smoke — the real
    // measurement only happens under `cargo bench`.
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let (scale, side) = if bench_mode { (14, 64) } else { (10, 8) };
    let graph = RmatConfig::new(scale, 8).seed(11).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let mut group = c.benchmark_group("sim_64x64_sssp");
    group.sample_size(3);
    group.bench_function("tile_path_incremental", |b| {
        b.iter(|| black_box(sim.run(&SsspKernel::new(0)).unwrap().cycles))
    });
    group.bench_function("tile_path_reference_scan", |b| {
        b.iter(|| black_box(sim.run_reference(&SsspKernel::new(0)).unwrap().cycles))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rmat_generation,
    bench_csr_round_trip,
    bench_placement_mapping,
    bench_word_queue,
    bench_noc_uniform_traffic,
    bench_noc_cycle_64x64,
    bench_sim_tile_path_64x64
);
criterion_main!(benches);
