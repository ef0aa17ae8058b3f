//! Cross-crate integration tests: every kernel, run through the full
//! cycle-level simulator on non-trivial datasets and across the
//! configuration space the paper's ablation explores, must reproduce the
//! sequential reference output exactly.

use dalorex::baseline::Workload;
use dalorex::graph::datasets::{DatasetCatalog, DatasetLabel};
use dalorex::graph::generators::realworld::ScaleFreeConfig;
use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::reference;
use dalorex::kernels::{BfsKernel, PageRankKernel, SpmvKernel, SsspKernel, WccKernel};
use dalorex::noc::Topology;
use dalorex::sim::config::{BarrierMode, GridConfig, SchedulingPolicy, SimConfigBuilder};
use dalorex::sim::{Simulation, VertexPlacement};

fn run_workload(
    graph: &dalorex::graph::CsrGraph,
    workload: Workload,
    side: usize,
) -> dalorex::sim::SimOutcome {
    let prepared = workload.prepare_graph(graph);
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(2 << 20)
        .barrier_mode(if workload.requires_barrier() {
            BarrierMode::EpochBarrier
        } else {
            BarrierMode::Barrierless
        })
        .build()
        .unwrap();
    let sim = Simulation::new(config, &prepared).unwrap();
    let kernel = workload.kernel();
    sim.run(kernel.as_ref()).unwrap()
}

#[test]
fn all_five_workloads_match_their_references_on_an_rmat_graph() {
    let graph = RmatConfig::new(10, 8).seed(77).build().unwrap();
    for workload in Workload::full_set() {
        let prepared = workload.prepare_graph(&graph);
        let outcome = run_workload(&graph, workload, 4);
        match workload {
            Workload::Bfs { root } => assert_eq!(
                outcome.output.as_u32_array("value"),
                reference::bfs(&prepared, root).depths(),
                "BFS diverged"
            ),
            Workload::Sssp { root } => assert_eq!(
                outcome.output.as_u32_array("value"),
                reference::sssp(&prepared, root).distances(),
                "SSSP diverged"
            ),
            Workload::Wcc => assert_eq!(
                outcome.output.as_u32_array("value"),
                reference::wcc(&prepared).labels(),
                "WCC diverged"
            ),
            Workload::PageRank { epochs } => assert_eq!(
                outcome.output.as_u64_array("rank"),
                reference::pagerank(&prepared, epochs).ranks(),
                "PageRank diverged"
            ),
            Workload::Spmv => {
                let x = SpmvKernel::with_default_input().input_vector(prepared.num_vertices());
                let expected: Vec<u32> = reference::spmv(&prepared, &x)
                    .values()
                    .iter()
                    .map(|&v| u32::try_from(v).unwrap())
                    .collect();
                assert_eq!(outcome.output.as_u32_array("y"), expected, "SPMV diverged");
            }
        }
    }
}

#[test]
fn bfs_is_correct_across_the_whole_configuration_space() {
    let graph = ScaleFreeConfig::new(600, 8).seed(5).build().unwrap();
    let expected = reference::bfs(&graph, 0);
    for topology in [
        Topology::Mesh,
        Topology::Torus,
        Topology::TorusRuche { factor: 2 },
    ] {
        for placement in [VertexPlacement::Chunked, VertexPlacement::Interleaved] {
            for scheduling in [
                SchedulingPolicy::RoundRobin,
                SchedulingPolicy::OccupancyPriority,
            ] {
                for barrier in [BarrierMode::Barrierless, BarrierMode::EpochBarrier] {
                    let config = SimConfigBuilder::new(GridConfig::new(4, 2))
                        .scratchpad_bytes(1 << 20)
                        .topology(topology)
                        .vertex_placement(placement)
                        .scheduling(scheduling)
                        .barrier_mode(barrier)
                        .build()
                        .unwrap();
                    let sim = Simulation::new(config, &graph).unwrap();
                    let outcome = sim.run(&BfsKernel::new(0)).unwrap();
                    assert_eq!(
                        outcome.output.as_u32_array("value"),
                        expected.depths(),
                        "BFS diverged under {topology:?}/{placement:?}/{scheduling:?}/{barrier:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn catalogued_figure5_datasets_run_end_to_end() {
    // Small catalogue scale so the whole figure-5 dataset set is exercised.
    let catalog = DatasetCatalog::new().with_scale_shift(13);
    for label in DatasetLabel::figure5_set() {
        let graph = catalog.build(label).unwrap();
        let outcome = run_workload(&graph, Workload::Sssp { root: 0 }, 4);
        let expected = reference::sssp(&graph, 0);
        assert_eq!(
            outcome.output.as_u32_array("value"),
            expected.distances(),
            "SSSP diverged on {}",
            label.as_str()
        );
        assert!(outcome.cycles > 0);
        assert!(outcome.total_energy_j() > 0.0);
    }
}

#[test]
fn statistics_are_internally_consistent() {
    let graph = RmatConfig::new(9, 8).seed(3).build().unwrap();
    let outcome = run_workload(&graph, Workload::Sssp { root: 0 }, 4);
    let stats = &outcome.stats;
    // Four tasks declared by the propagation pipeline.
    assert_eq!(stats.task_invocations.len(), 4);
    assert!(stats.total_invocations() > 0);
    // Every sent message was delivered; nothing remains in flight.
    assert_eq!(stats.messages_sent, stats.noc.injected_messages);
    assert_eq!(stats.noc.injected_messages, stats.noc.delivered_messages);
    // The PU utilization grid matches the grid shape.
    assert_eq!(stats.per_tile_busy_cycles.len(), 16);
    assert_eq!(stats.router_busy_fraction.len(), 16);
    // Energy groups are all populated and shares sum to 100%.
    let (logic, memory, network) = outcome.energy.shares_percent();
    assert!(logic > 0.0 && memory > 0.0 && network > 0.0);
    assert!((logic + memory + network - 100.0).abs() < 1e-6);
    // Edges processed cannot exceed relaxations: at least reachable edges,
    // at most total relaxation work (finite).
    assert!(stats.edges_processed >= graph.num_edges() as u64 / 4);
}

#[test]
fn larger_grids_do_not_change_results_only_performance() {
    let graph = RmatConfig::new(10, 6).seed(11).build().unwrap();
    let expected = reference::sssp(&graph, 0);
    let mut cycles = Vec::new();
    for side in [1usize, 2, 4, 8] {
        let config = SimConfigBuilder::new(GridConfig::square(side))
            .scratchpad_bytes(4 << 20)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&SsspKernel::new(0)).unwrap();
        assert_eq!(outcome.output.as_u32_array("value"), expected.distances());
        cycles.push(outcome.cycles);
    }
    // Strong scaling: 64 tiles must be much faster than 1 tile.
    assert!(
        cycles[3] * 4 < cycles[0],
        "64 tiles ({}) not at least 4x faster than 1 tile ({})",
        cycles[3],
        cycles[0]
    );
}

#[test]
fn pagerank_and_wcc_share_the_simulator_with_different_epoch_behaviour() {
    let graph = RmatConfig::new(9, 6)
        .seed(23)
        .symmetric(true)
        .build()
        .unwrap();
    let pagerank = run_workload(&graph, Workload::PageRank { epochs: 4 }, 4);
    let wcc = run_workload(&graph, Workload::Wcc, 4);
    // PageRank runs exactly epochs+1 triggers; barrierless WCC runs in one.
    assert_eq!(pagerank.stats.epochs, 5);
    assert_eq!(wcc.stats.epochs, 1);
    let _ = PageRankKernel::new(4);
    let _ = WccKernel::new();
}
