//! Figure 6 + Section V-B: strong scaling of BFS over RMAT datasets —
//! runtime (cycles) and energy (Joules) as the tile count grows, with the
//! per-tile memory annotation, plus the two knee points the paper calls
//! out: performance stops scaling when a tile holds fewer than ~1,000
//! vertices, and energy is minimal around ~10,000 vertices per tile.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin fig06_scaling -- \
//!     [--csv] [--json <path>] [--max-side <n>] [--drains <a,b,...>]
//! ```
//!
//! `--max-side` overrides `DALOREX_MAX_SIDE` (32 or 64 reach the paper's
//! 32x32 and 64x64 grids), and `--drains` sweeps the endpoint bandwidth
//! (messages drained/injected per tile per cycle).  Measurements, including
//! the drain budget and the NoC's injection-rejection count, are written by
//! `--json <path>`.

use dalorex_baseline::Workload;
use dalorex_bench::cli::{cell_outcome, FigureCli};
use dalorex_bench::datasets;
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_bench::runner::{run_dalorex, scaling_sides, RunOptions};
use dalorex_graph::datasets::DatasetLabel;

fn main() {
    let cli = FigureCli::parse(&[]);
    let max_side = cli.max_side.unwrap_or_else(datasets::max_grid_side);
    let drains_sweep = cli.drains();
    let labels = DatasetLabel::figure6_set();
    let workload = Workload::Bfs { root: 0 };

    let mut table = Table::new(vec![
        "dataset",
        "tiles",
        "drains",
        "vertices/tile",
        "KB/tile",
        "runtime-cycles",
        "energy-J",
    ]);
    let mut knees = Table::new(vec![
        "dataset",
        "fastest tiles",
        "vertices/tile at perf limit",
        "energy-optimal tiles",
        "vertices/tile at energy optimum",
    ]);
    let mut measurements = Vec::new();

    for label in labels {
        let graph = datasets::build(label);
        // The knee detection tracks the drains=1 rows only: the paper's
        // Section V-B comparison is made at the single-local-port endpoint
        // bandwidth, so knees from wider endpoints would describe a
        // different machine.  A sweep without drains=1 prints no knees.
        let mut best_cycles: Option<(usize, u64)> = None;
        let mut best_energy: Option<(usize, f64)> = None;
        for side in scaling_sides(max_side) {
            for &drains in &drains_sweep {
                let tiles = side * side;
                let scratchpad = datasets::fitting_scratchpad_bytes(&graph, tiles);
                let options = RunOptions::new(side, scratchpad)
                    .with_endpoint_drains(drains)
                    .with_faults(cli.faults.clone())
                    .with_verify(cli.verify);
                let cell = format!("{} on {tiles} tiles, {drains} drains", label.as_str());
                let Some(outcome) = cell_outcome(&cell, run_dalorex(&graph, workload, options))
                else {
                    continue;
                };
                let vertices_per_tile = graph.num_vertices().div_ceil(tiles);
                let kb_per_tile = (2 * graph.num_vertices().div_ceil(tiles)
                    + 2 * graph.num_edges().div_ceil(tiles))
                    * 4
                    / 1024;
                let energy = outcome.total_energy_j();
                table.push_row(vec![
                    label.as_str(),
                    tiles.to_string(),
                    drains.to_string(),
                    vertices_per_tile.to_string(),
                    kb_per_tile.to_string(),
                    outcome.cycles.to_string(),
                    format!("{energy:.3e}"),
                ]);
                measurements.push(Measurement {
                    experiment: "fig6".to_string(),
                    workload: workload.name().to_string(),
                    dataset: label.as_str(),
                    configuration: format!("{tiles} tiles, {drains} drains"),
                    cycles: outcome.cycles,
                    energy_j: energy,
                    value: vertices_per_tile as f64,
                    endpoint_drains: drains,
                    rejected_injections: outcome.stats.noc.total_injection_rejections(),
                    memory: Some(MemoryColumns::from_report(&outcome.memory)),
                    peak_rss_bytes: None,
                    host_parallelism: None,
                    walk: Some(WalkColumns::from_outcome(&outcome)),
                });
                if drains != 1 {
                    continue;
                }
                if best_cycles.map(|(_, c)| outcome.cycles < c).unwrap_or(true) {
                    best_cycles = Some((tiles, outcome.cycles));
                }
                if best_energy.map(|(_, e)| energy < e).unwrap_or(true) {
                    best_energy = Some((tiles, energy));
                }
            }
        }
        if let (Some((perf_tiles, _)), Some((energy_tiles, _))) = (best_cycles, best_energy) {
            knees.push_row(vec![
                label.as_str(),
                perf_tiles.to_string(),
                graph.num_vertices().div_ceil(perf_tiles).to_string(),
                energy_tiles.to_string(),
                graph.num_vertices().div_ceil(energy_tiles).to_string(),
            ]);
        }
    }

    table.print(
        "Figure 6: BFS strong scaling on RMAT datasets (runtime and energy)",
        cli.csv,
    );
    knees.print(
        "Section V-B knees (computed from the drains=1 rows, the paper's endpoint bandwidth): paper reports the parallelization limit near ~1k vertices/tile and the energy optimum near ~10k vertices/tile",
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}
