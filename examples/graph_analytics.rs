//! Graph-analytics suite: run all four graph applications of the paper
//! (BFS, SSSP, PageRank, WCC) plus SPMV on a scale-free social-network
//! stand-in, validating each against its sequential reference and printing
//! a per-application summary — the workloads the paper's introduction
//! motivates (social networks, web graphs, sparse algebra).
//!
//! Run with:
//! ```text
//! cargo run --release --example graph_analytics
//! ```
//!
//! It takes no arguments: any argument exits 2, naming the first one.

use dalorex::baseline::Workload;
use dalorex::graph::generators::realworld::RealWorldDataset;
use dalorex::graph::reference;
use dalorex::sim::config::{BarrierMode, GridConfig, SimConfigBuilder};
use dalorex::sim::Simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument {arg:?}");
        std::process::exit(2);
    }
    // A LiveJournal-shaped scale-free graph at reproduction scale.
    let graph = RealWorldDataset::LiveJournal.config(1 << 12).build()?;
    println!(
        "dataset: LiveJournal stand-in ({} vertices, {} edges)",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:>9}  {:>12}  {:>12}  {:>10}  {:>8}  {:>7}",
        "app", "cycles", "energy (mJ)", "edges/s", "PU util", "checked"
    );

    for workload in Workload::full_set() {
        let prepared = workload.prepare_graph(&graph);
        let config = SimConfigBuilder::new(GridConfig::square(8))
            .scratchpad_bytes(1 << 20)
            .barrier_mode(if workload.requires_barrier() {
                BarrierMode::EpochBarrier
            } else {
                BarrierMode::Barrierless
            })
            .build()?;
        let sim = Simulation::new(config, &prepared)?;
        let kernel = workload.kernel();
        let outcome = sim.run(kernel.as_ref())?;

        // Validate each application against its reference implementation.
        let checked = match workload {
            Workload::Bfs { root } => {
                outcome.output.as_u32_array("value") == reference::bfs(&prepared, root).depths()
            }
            Workload::Sssp { root } => {
                outcome.output.as_u32_array("value") == reference::sssp(&prepared, root).distances()
            }
            Workload::Wcc => {
                outcome.output.as_u32_array("value") == reference::wcc(&prepared).labels()
            }
            Workload::PageRank { epochs } => {
                outcome.output.as_u64_array("rank")
                    == reference::pagerank(&prepared, epochs).ranks()
            }
            Workload::Spmv => {
                let kernel = dalorex::kernels::SpmvKernel::with_default_input();
                let x = kernel.input_vector(prepared.num_vertices());
                let expected: Vec<u32> = reference::spmv(&prepared, &x)
                    .values()
                    .iter()
                    .map(|&v| v as u32)
                    .collect();
                outcome.output.as_u32_array("y") == expected
            }
        };

        println!(
            "{:>9}  {:>12}  {:>12.3}  {:>10.2e}  {:>7.1}%  {:>7}",
            workload.name(),
            outcome.cycles,
            outcome.total_energy_j() * 1e3,
            outcome.stats.edges_per_second(1.0e9),
            100.0 * outcome.stats.mean_pu_utilization(),
            if checked { "ok" } else { "MISMATCH" }
        );
        assert!(
            checked,
            "{} output diverged from the reference",
            workload.name()
        );
    }
    Ok(())
}
