//! Figure 7: throughput (edges/s and operations/s) and average memory
//! bandwidth while strong-scaling the largest RMAT dataset across grid
//! sizes, for all five applications.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin fig07_throughput -- \
//!     [--csv] [--json <path>] [--max-side <n>] [--drains <a,b,...>]
//! ```
//!
//! `--max-side` overrides `DALOREX_MAX_SIDE` (set it to 32 or 64 to sweep
//! the paper's 32x32 and 64x64 grids), and `--drains` sweeps the endpoint
//! bandwidth (messages drained/injected per tile per cycle; default 1, the
//! paper's single local router port).  The drain budget and the NoC's
//! injection-rejection count are emitted into the JSON report.
//!
//! `--max-side 32` additionally unlocks the *paper-scale rung*: SSSP over
//! a 1M-vertex (~16M-edge) scale-free graph on the full grid, with the
//! run's per-subsystem memory report printed alongside the throughput
//! tables (`--max-side 64` raises it to 4M vertices, the
//! Wikipedia/LiveJournal size class).  Arena tile state is what makes this
//! rung CI-feasible: each tile is one slab the size of its modelled
//! scratchpad image.

use dalorex_baseline::Workload;
use dalorex_bench::cli::{cell_outcome, FigureCli};
use dalorex_bench::datasets;
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_bench::runner::{run_dalorex, scaling_sides, RunOptions};
use dalorex_graph::datasets::DatasetLabel;
use dalorex_graph::generators::realworld::ScaleFreeConfig;
use dalorex_sim::energy::EnergyConstants;

fn main() {
    let cli = FigureCli::parse(&[]);
    let max_side = cli.max_side.unwrap_or_else(datasets::max_grid_side);
    let drains_sweep = cli.drains();
    // The paper scales RMAT-26; the catalog reduces it while keeping it the
    // largest dataset of the suite.
    let label = DatasetLabel::Rmat(26);
    let graph = datasets::build(label);
    let clock = EnergyConstants::paper_7nm().clock_hz;

    let mut table = Table::new(vec![
        "app",
        "tiles",
        "drains",
        "edges/s",
        "operations/s",
        "avg-memory-BW (B/s)",
        "peak-memory-BW (B/s)",
    ]);
    let mut measurements = Vec::new();

    for workload in Workload::full_set() {
        // Start the sweep at 16 tiles as the paper starts at 256; small
        // grids make the reduced dataset trivially fast.
        for side in scaling_sides(max_side).into_iter().filter(|&s| s >= 4) {
            for &drains in &drains_sweep {
                let tiles = side * side;
                let scratchpad = datasets::fitting_scratchpad_bytes(&graph, tiles);
                let options = RunOptions::new(side, scratchpad)
                    .with_endpoint_drains(drains)
                    .with_faults(cli.faults.clone())
                    .with_verify(cli.verify);
                let cell = format!("{} on {tiles} tiles, {drains} drains", workload.name());
                let Some(outcome) = cell_outcome(&cell, run_dalorex(&graph, workload, options))
                else {
                    continue;
                };
                let peak = tiles as f64 * 8.0 * clock;
                table.push_row(vec![
                    workload.name().to_string(),
                    tiles.to_string(),
                    drains.to_string(),
                    format!("{:.3e}", outcome.stats.edges_per_second(clock)),
                    format!("{:.3e}", outcome.stats.operations_per_second(clock)),
                    format!("{:.3e}", outcome.memory_bandwidth_bytes_per_s),
                    format!("{peak:.3e}"),
                ]);
                measurements.push(Measurement {
                    experiment: "fig7".to_string(),
                    workload: workload.name().to_string(),
                    dataset: label.as_str(),
                    configuration: format!("{tiles} tiles, {drains} drains"),
                    cycles: outcome.cycles,
                    energy_j: outcome.total_energy_j(),
                    value: outcome.stats.edges_per_second(clock),
                    endpoint_drains: drains,
                    rejected_injections: outcome.stats.noc.total_injection_rejections(),
                    memory: Some(MemoryColumns::from_report(&outcome.memory)),
                    peak_rss_bytes: None,
                    walk: Some(WalkColumns::from_outcome(&outcome)),
                });
            }
        }
    }

    table.print(
        &format!(
            "Figure 7: throughput and memory bandwidth scaling ({} at reproduction scale)",
            label.as_str()
        ),
        cli.csv,
    );
    paper_scale_rung(&cli, max_side, clock, &mut measurements);
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}

/// The dataset size of the paper-scale rung unlocked by `--max-side`:
/// nothing below 32 (the default sweep stays CI-trivial), 1M vertices /
/// ~16M edges at 32x32 (about 1k vertices per tile, the paper's
/// parallelization knee), and 4M — the Wikipedia/LiveJournal size class —
/// at 64x64 and beyond.
fn paper_scale_vertices(max_side: usize) -> Option<usize> {
    match max_side {
        side if side >= 64 => Some(4_000_000),
        side if side >= 32 => Some(1_000_000),
        _ => None,
    }
}

/// Runs SSSP over a paper-sized scale-free graph on the largest requested
/// grid and prints the run's memory report — the end-to-end demonstration
/// that one arena slab per tile keeps paper-scale datasets inside a CI
/// machine.  Skipped below `--max-side 32`.
fn paper_scale_rung(
    cli: &FigureCli,
    max_side: usize,
    clock: f64,
    measurements: &mut Vec<Measurement>,
) {
    let Some(vertices) = paper_scale_vertices(max_side) else {
        return;
    };
    let graph = ScaleFreeConfig::new(vertices, 12)
        .seed(7)
        .build()
        .expect("the paper-scale configuration is valid");
    let workload = Workload::Sssp { root: 0 };
    let tiles = max_side * max_side;
    let scratchpad = datasets::fitting_scratchpad_bytes(&graph, tiles);
    let options = RunOptions::new(max_side, scratchpad)
        .with_faults(cli.faults.clone())
        .with_verify(cli.verify);
    let cell = format!("the paper-scale rung on {tiles} tiles");
    let Some(outcome) = cell_outcome(&cell, run_dalorex(&graph, workload, options)) else {
        return;
    };
    let memory = &outcome.memory;
    let mut table = Table::new(vec!["line", "bytes"]);
    table.push_row(vec!["CSR chunks".to_string(), memory.csr_bytes.to_string()]);
    table.push_row(vec![
        "tile arenas".to_string(),
        memory.tile_arena_bytes.to_string(),
    ]);
    table.push_row(vec![
        "NoC buffers".to_string(),
        memory.noc_buffer_bytes.to_string(),
    ]);
    table.push_row(vec![
        "modeled total".to_string(),
        memory.modeled_total_bytes().to_string(),
    ]);
    table.print(
        &format!(
            "Paper-scale rung: SSSP over a {vertices}-vertex / {}-edge scale-free graph \
             on {tiles} tiles ({} cycles) — memory report",
            graph.num_edges(),
            outcome.cycles
        ),
        cli.csv,
    );
    measurements.push(Measurement {
        experiment: "fig7-paper-scale".to_string(),
        workload: workload.name().to_string(),
        dataset: format!("scale-free-{vertices}"),
        configuration: format!("{tiles} tiles, 1 drains"),
        cycles: outcome.cycles,
        energy_j: outcome.total_energy_j(),
        value: outcome.stats.edges_per_second(clock),
        endpoint_drains: 1,
        rejected_injections: outcome.stats.noc.total_injection_rejections(),
        memory: Some(MemoryColumns::from_report(memory)),
        peak_rss_bytes: None,
        walk: Some(WalkColumns::from_outcome(&outcome)),
    });
}
