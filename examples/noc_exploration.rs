//! NoC design-space exploration (a miniature of the paper's Figures 8 and
//! 10): run SSSP on the same dataset and grid while swapping the
//! interconnect between a 2D mesh, a 2D torus and a torus with ruche
//! channels, and show how the torus relieves the centre-of-mesh contention
//! and improves runtime.
//!
//! Run with:
//! ```text
//! cargo run --release --example noc_exploration
//! ```
//!
//! It takes no arguments: any argument exits 2, naming the first one.

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::kernels::SsspKernel;
use dalorex::noc::Topology;
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::Simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument {arg:?}");
        std::process::exit(2);
    }
    let graph = RmatConfig::new(12, 10).seed(9).build()?;
    let side = 8;
    println!(
        "dataset: RMAT-12 ({} vertices, {} edges) on a {side}x{side} grid",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:>12}  {:>12}  {:>14}  {:>16}  {:>16}",
        "topology", "cycles", "speedup/mesh", "router util var", "avg msg latency"
    );

    let mut mesh_cycles: Option<u64> = None;
    for topology in [
        Topology::Mesh,
        Topology::Torus,
        Topology::TorusRuche { factor: 4 },
    ] {
        let config = SimConfigBuilder::new(GridConfig::square(side))
            .scratchpad_bytes(1 << 20)
            .topology(topology)
            .build()?;
        let sim = Simulation::new(config, &graph)?;
        let outcome = sim.run(&SsspKernel::new(0))?;
        let mesh = *mesh_cycles.get_or_insert(outcome.cycles);
        println!(
            "{:>12}  {:>12}  {:>13.2}x  {:>16.3}  {:>16.1}",
            topology.name(),
            outcome.cycles,
            mesh as f64 / outcome.cycles as f64,
            outcome.stats.router_utilization_grid().variation(),
            outcome.stats.noc.average_latency()
        );
    }

    println!();
    println!(
        "The torus spreads router load (lower variation) and shortens paths, which is\n\
         exactly the effect the paper's Figure 10 heatmaps visualise; ruche channels\n\
         only pay off on much larger grids (Figure 8)."
    );
    Ok(())
}
