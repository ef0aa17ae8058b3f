//! The memory-regression test tier: modeled per-subsystem byte totals are
//! pinned like cycle goldens.
//!
//! The tentpole claim of the arena/SoA refactor is that the simulator's
//! footprint scales like the hardware it models: the distributed CSR and
//! the NoC buffers grow with the dataset and the grid, and every tile
//! holds one arena slab exactly the size of its modelled scratchpad image
//! (kernel arrays, variables, IQ and CQ rings).  These tests pin the
//! per-subsystem totals for two grid sizes, price one tile's arena from
//! the kernel's declarations, and check that the report's CSR line equals
//! the graph's own accounting, so any future allocation regression (a
//! grown queue ring, a padded arena) fails CI the same way a schedule
//! regression would.

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::CsrGraph;
use dalorex::kernels::SsspKernel;
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::kernel::{LocalArrayLen, QueueCapacity};
use dalorex::sim::{Kernel, MemoryReport, Simulation};

fn run_sssp(side: usize, graph: &CsrGraph) -> dalorex::sim::SimOutcome {
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, graph).unwrap();
    sim.run(&SsspKernel::new(0)).unwrap()
}

/// Golden per-subsystem byte totals for a 16x16 grid running SSSP on an
/// RMAT graph with 1024 vertices, on the default (calendar) engine.  Any
/// drift means the modeled memory footprint changed; the calendar line is
/// the calendar router scheduler's own bookkeeping.
#[test]
fn golden_memory_budget_16x16_sssp() {
    let graph = RmatConfig::new(10, 8).seed(17).build().unwrap();
    let outcome = run_sssp(16, &graph);
    assert_eq!(
        outcome.memory,
        MemoryReport {
            csr_bytes: 61_664,
            tile_arena_bytes: 2_731_008,
            materialized_tiles: 256,
            total_tiles: 256,
            noc_buffer_bytes: 262_144,
            calendar_bytes: 13_376,
        },
        "16x16 memory budget drifted: {:?}",
        outcome.memory
    );
    assert_eq!(
        outcome.memory.csr_bytes,
        graph.distributed_footprint_bytes(),
        "the report's CSR line must equal the graph's own distributed accounting"
    );
}

/// Same pin at 64x64 (4096 tiles): the NoC buffer line scales with the
/// fabric, the CSR line with the dataset, and the arena line with the
/// tiles and the vertices each one owns.
#[test]
fn golden_memory_budget_64x64_sssp() {
    let graph = RmatConfig::new(12, 8).seed(17).build().unwrap();
    let outcome = run_sssp(64, &graph);
    assert_eq!(
        outcome.memory,
        MemoryReport {
            csr_bytes: 261_472,
            tile_arena_bytes: 43_646_976,
            materialized_tiles: 4096,
            total_tiles: 4096,
            noc_buffer_bytes: 6_291_456,
            calendar_bytes: 214_016,
        },
        "64x64 memory budget drifted: {:?}",
        outcome.memory
    );
    assert_eq!(
        outcome.memory.csr_bytes,
        graph.distributed_footprint_bytes()
    );
}

/// One SSSP tile's arena in bytes, priced from the kernel's declarations
/// for a tile owning `vertices` vertices: its arrays, its variables, and
/// the words of its IQ and CQ rings (a queue holds at least one word).
fn sssp_tile_arena_bytes(vertices: usize) -> usize {
    let kernel = SsspKernel::new(0);
    let array_words: usize = kernel
        .arrays()
        .iter()
        .map(|array| match array.len {
            LocalArrayLen::PerVertex => vertices,
            LocalArrayLen::VertexBitmap => vertices.div_ceil(32),
            LocalArrayLen::Words(n) => n,
            LocalArrayLen::PerEdge => panic!("SSSP declares no per-edge array"),
        })
        .sum();
    let iq_words: usize = kernel
        .tasks()
        .iter()
        .map(|task| match task.iq_capacity {
            QueueCapacity::Words(n) => n,
            QueueCapacity::PerVertex => vertices,
            QueueCapacity::VertexBlocks => vertices.div_ceil(32),
        })
        .map(|words| words.max(1))
        .sum();
    let cq_words: usize = kernel
        .channels()
        .iter()
        .map(|channel| channel.cq_capacity_words.max(1))
        .sum();
    4 * (array_words + kernel.num_tile_vars() + iq_words + cq_words)
}

/// The arena line prices every tile of the grid: with 1024 vertices
/// interleaved over 256 tiles every tile owns the same 4 vertices, so the
/// total must be exactly 256 times one tile's arena as the SSSP
/// declarations price it.  The NoC buffer line scales exactly with the
/// router count.
#[test]
fn arena_bytes_count_exactly_the_materialized_tiles() {
    let graph = RmatConfig::new(10, 8).seed(17).build().unwrap();
    let outcome = run_sssp(16, &graph);
    assert_eq!(outcome.memory.total_tiles, 256);
    assert_eq!(
        outcome.memory.materialized_tiles,
        outcome.memory.total_tiles
    );
    assert_eq!(
        outcome.memory.tile_arena_bytes,
        256 * sssp_tile_arena_bytes(4),
        "every tile holds one arena the size its declarations price"
    );
    // Fabric scaling: 4x the routers on a 16x16 grid vs an 8x8 grid means
    // exactly 4x the modeled buffer bytes.
    let small = run_sssp(8, &graph);
    assert_eq!(
        outcome.memory.noc_buffer_bytes,
        small.memory.noc_buffer_bytes * 4
    );
}
