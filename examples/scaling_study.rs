//! Strong-scaling study (a miniature of the paper's Figure 6): run BFS on a
//! fixed RMAT dataset while growing the Dalorex grid, and watch runtime
//! shrink until each tile holds too few vertices to keep its PU busy —
//! the paper's "parallelization limit" near ~1,000 vertices per tile —
//! while energy reaches its optimum earlier.
//!
//! Run with:
//! ```text
//! cargo run --release --example scaling_study [-- --max-side <n>]
//! ```
//!
//! `--max-side` caps the sweep (default 16); any other argument, or a
//! value that is not a positive integer, exits 2.  `--max-side 1` runs only the
//! single-tile step — the configuration that once livelocked on the
//! T4-vs-T1 occupancy-priority tie (fixed by T4's `requires_iq_space`
//! output-queue guarantee); CI runs that step as a regression smoke.
//!
//! Each row also prints the run's modeled memory footprint and how many of
//! the grid's tiles materialized an arena slab: tile state is allocated
//! lazily on first activity, so idle tiles cost nothing — the mechanism
//! that lets the same simulator hold paper-scale (millions-of-vertices)
//! datasets in a CI machine's RAM.

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::kernels::BfsKernel;
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::Simulation;

fn max_side_arg() -> usize {
    let fail = |message: String| -> ! {
        eprintln!("{message}");
        std::process::exit(2)
    };
    let mut max_side = 16;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = match arg.strip_prefix("--max-side=") {
            Some(value) => value.to_string(),
            None if arg == "--max-side" => args.next().unwrap_or_default(),
            None => fail(format!("unknown argument {arg:?}")),
        };
        match value.parse::<usize>() {
            Ok(side) if side > 0 => max_side = side,
            _ => fail(format!("--max-side {value:?} is not a positive integer")),
        }
    }
    max_side
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let max_side = max_side_arg();
    let graph = RmatConfig::new(13, 10).seed(3).build()?;
    println!(
        "dataset: RMAT-13 ({} vertices, {} edges)",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:>6}  {:>14}  {:>12}  {:>12}  {:>10}  {:>8}  {:>13}  {:>12}",
        "tiles",
        "vertices/tile",
        "cycles",
        "speedup",
        "energy(mJ)",
        "PU util",
        "modeled-bytes",
        "active-tiles"
    );

    let mut baseline_cycles: Option<u64> = None;
    for side in [1usize, 2, 4, 8, 16].into_iter().filter(|&s| s <= max_side) {
        let tiles = side * side;
        // Size the scratchpad to the chunk (plus reserve), as a real
        // deployment would provision it.
        let per_tile_bytes = ((2 * graph.num_vertices() + 2 * graph.num_edges()) * 4 / tiles
            + 256 * 1024)
            .next_power_of_two();
        let config = SimConfigBuilder::new(GridConfig::square(side))
            .scratchpad_bytes(per_tile_bytes)
            .build()?;
        let sim = Simulation::new(config, &graph)?;
        let outcome = sim.run(&BfsKernel::new(0))?;
        let baseline = *baseline_cycles.get_or_insert(outcome.cycles);
        println!(
            "{:>6}  {:>14}  {:>12}  {:>11.1}x  {:>10.3}  {:>7.1}%  {:>13}  {:>9}/{:<3}",
            tiles,
            graph.num_vertices() / tiles,
            outcome.cycles,
            baseline as f64 / outcome.cycles as f64,
            outcome.total_energy_j() * 1e3,
            100.0 * outcome.stats.mean_pu_utilization(),
            outcome.memory.modeled_total_bytes(),
            outcome.memory.materialized_tiles,
            outcome.memory.total_tiles
        );
    }
    println!();
    println!(
        "Speedup grows close to linearly while tiles hold thousands of vertices and\n\
         flattens as the per-tile chunk approaches the ~1k-vertex parallelization limit\n\
         the paper reports in Section V-B."
    );
    Ok(())
}
