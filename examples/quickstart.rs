//! Quickstart: simulate BFS on a small RMAT graph and validate the result
//! against the sequential reference, then print the headline statistics the
//! paper reports for every run (cycles, energy, utilization, bandwidth).
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! It takes no arguments: any argument exits 2, naming the first one.

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::reference;
use dalorex::kernels::BfsKernel;
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::Simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument {arg:?}");
        std::process::exit(2);
    }
    // 1. Generate a dataset: RMAT with 2^12 vertices and average degree 10,
    //    the same family as the paper's RMAT-16..26 datasets.
    let graph = RmatConfig::new(12, 10).seed(1).build()?;
    println!(
        "dataset: RMAT-12  ({} vertices, {} edges, avg degree {:.1})",
        graph.num_vertices(),
        graph.num_edges(),
        graph.average_degree()
    );

    // 2. Configure a Dalorex grid. The builder defaults follow the paper:
    //    torus NoC, occupancy-priority scheduling, interleaved placement,
    //    barrierless frontiers.
    let config = SimConfigBuilder::new(GridConfig::square(8))
        .scratchpad_bytes(1 << 20)
        .build()?;
    let sim = Simulation::new(config, &graph)?;

    // 3. Run BFS from vertex 0 on the simulated chip.
    let outcome = sim.run(&BfsKernel::new(0))?;

    // 4. Validate against the sequential reference (the paper validates its
    //    simulator against x86 runs the same way).
    let expected = reference::bfs(&graph, 0);
    assert_eq!(outcome.output.as_u32_array("value"), expected.depths());
    println!(
        "result matches the sequential reference ({} vertices reached)",
        expected.reached()
    );

    // 5. Report the run the way the paper's figures do.
    println!("cycles            : {}", outcome.cycles);
    println!(
        "runtime           : {:.3} ms at 1 GHz",
        outcome.seconds * 1e3
    );
    println!(
        "energy            : {:.3} mJ",
        outcome.total_energy_j() * 1e3
    );
    println!(
        "energy breakdown  : logic {:.1}% / memory {:.1}% / network {:.1}%",
        outcome.energy.shares_percent().0,
        outcome.energy.shares_percent().1,
        outcome.energy.shares_percent().2
    );
    println!(
        "mean PU utilization: {:.1}%",
        100.0 * outcome.stats.mean_pu_utilization()
    );
    println!(
        "edges/s           : {:.3e}",
        outcome.stats.edges_per_second(1.0e9)
    );
    println!(
        "memory bandwidth  : {:.3e} B/s (chip area {:.1} mm^2, {:.0} mW/mm^2)",
        outcome.memory_bandwidth_bytes_per_s,
        outcome.chip_area_mm2,
        outcome.power_density_mw_per_mm2
    );
    Ok(())
}
