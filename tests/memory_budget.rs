//! The memory-regression test tier: modeled per-subsystem byte totals are
//! pinned like cycle goldens.
//!
//! The tentpole claim of the arena/SoA refactor is that the simulator's
//! footprint scales like the hardware it models: the distributed CSR and
//! the NoC buffers grow with the dataset and the grid, while per-tile
//! arena slabs exist only for tiles that saw activity — an all-idle tile
//! contributes exactly 0 arena bytes.  These tests pin the per-subsystem
//! totals for two grid sizes, assert the idle-tile guarantee directly, and
//! check that the report's CSR line equals the graph's own accounting, so
//! any future allocation regression (a hidden eager allocation, a grown
//! queue ring, a padded arena) fails CI the same way a schedule
//! regression would.

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::{CsrGraph, Edge, EdgeList};
use dalorex::kernels::SsspKernel;
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::{MemoryReport, Simulation, VertexPlacement};

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
            tile_arena_bytes: 2_688_336,
            materialized_tiles: 252,
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
/// fabric, the CSR line with the dataset, and the arena line only with
/// the tiles that actually ran something.
#[test]
fn golden_memory_budget_64x64_sssp() {
    let graph = RmatConfig::new(12, 8).seed(17).build().unwrap();
    let outcome = run_sssp(64, &graph);
    assert_eq!(
        outcome.memory,
        MemoryReport {
            csr_bytes: 261_472,
            tile_arena_bytes: 43_508_448,
            materialized_tiles: 4_083,
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

/// The idle-tile guarantee, asserted directly: a root with no out-edges
/// touches exactly one tile (its owner, materialized by the bootstrap
/// push), and the other 15 tiles of the grid finish the run hollow —
/// contributing 0 arena bytes.  The eager-init oracle on the same
/// workload allocates all 16 uniform arenas, so the lazy total must be
/// exactly one sixteenth of the eager total.
#[test]
fn all_idle_tiles_contribute_zero_arena_bytes() {
    // 64 vertices, one edge between two vertices both owned by tile 0
    // under chunked placement (4 vertices per tile on a 4x4 grid; the
    // default interleaved placement would put vertex 1 on tile 1), and
    // the SSSP root is vertex 0: no message ever leaves tile 0.
    let edges = EdgeList::from_edges(64, [Edge::new(0, 1, 3)]).unwrap();
    let graph = CsrGraph::from_edge_list(&edges);
    let base = SimConfigBuilder::new(GridConfig::square(4))
        .scratchpad_bytes(1 << 20)
        .vertex_placement(VertexPlacement::Chunked);
    let lazy_sim = Simulation::new(base.clone().build().unwrap(), &graph).unwrap();
    let lazy = lazy_sim.run(&SsspKernel::new(0)).unwrap();
    assert_eq!(lazy.memory.total_tiles, 16);
    assert_eq!(
        lazy.memory.materialized_tiles, 1,
        "only the root's owner tile saw activity"
    );
    assert!(lazy.memory.tile_arena_bytes > 0);

    let eager_sim = Simulation::new(base.eager_tile_init(true).build().unwrap(), &graph).unwrap();
    let eager = eager_sim.run(&SsspKernel::new(0)).unwrap();
    assert_eq!(eager.memory.materialized_tiles, 16);
    // Chunked placement gives every tile the same 4-vertex chunk, so all
    // 16 arenas are the same size: 15 idle tiles contribute exactly 0.
    assert_eq!(
        eager.memory.tile_arena_bytes,
        16 * lazy.memory.tile_arena_bytes
    );
    // And the schedule itself is untouched by laziness.
    assert_eq!(lazy.cycles, eager.cycles);
    assert_eq!(lazy.stats, eager.stats);
    assert_eq!(lazy.output, eager.output);
}

/// The arena line counts exactly the materialized tiles, at per-tile
/// granularity: with 1024 vertices interleaved over 256 tiles every tile
/// owns the same 4-vertex chunk, so every arena is the same size — the
/// eager oracle prices one tile as `eager_total / 256`, and the lazy
/// total must be exactly `materialized x that price`.  The physical
/// fabric lines are unaffected by laziness, and the NoC buffer line
/// scales exactly with the router count.
#[test]
fn arena_bytes_count_exactly_the_materialized_tiles() {
    let graph = RmatConfig::new(10, 8).seed(17).build().unwrap();
    let lazy = run_sssp(16, &graph);
    let eager_config = SimConfigBuilder::new(GridConfig::square(16))
        .scratchpad_bytes(1 << 20)
        .eager_tile_init(true)
        .build()
        .unwrap();
    let eager_sim = Simulation::new(eager_config, &graph).unwrap();
    let eager = eager_sim.run(&SsspKernel::new(0)).unwrap();
    assert_eq!(eager.memory.materialized_tiles, 256);
    assert_eq!(eager.memory.tile_arena_bytes % 256, 0, "arenas are uniform");
    let per_tile = eager.memory.tile_arena_bytes / 256;
    assert_eq!(
        lazy.memory.tile_arena_bytes,
        lazy.memory.materialized_tiles * per_tile,
        "the lazy arena total must price exactly the materialized tiles"
    );
    assert_eq!(lazy.memory.csr_bytes, eager.memory.csr_bytes);
    assert_eq!(lazy.memory.noc_buffer_bytes, eager.memory.noc_buffer_bytes);
    // Fabric scaling: 4x the routers on a 16x16 grid vs an 8x8 grid means
    // exactly 4x the modeled buffer bytes.
    let small = run_sssp(8, &graph);
    assert_eq!(
        lazy.memory.noc_buffer_bytes,
        small.memory.noc_buffer_bytes * 4
    );
}
