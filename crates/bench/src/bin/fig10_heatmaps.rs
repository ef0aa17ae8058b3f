//! Figure 10: heatmaps of PU and router utilization (as a percentage of
//! runtime) while running SSSP on RMAT-22, on a 16x16 grid connected by a
//! mesh versus a torus.  The paper's point is visual: the mesh concentrates
//! router load toward the centre of the grid and starves the PUs, while the
//! torus spreads it uniformly.  We print ASCII heatmaps (0–9 intensity
//! buckets) plus the summary statistics that quantify the same contrast.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin fig10_heatmaps -- \
//!     [--csv] [--json <path>] [--max-side <n>] [--drains <a,b,...>] \
//!     [--faults <plan>] [--verify <mode>]
//! ```
//!
//! `--max-side` overrides `DALOREX_MAX_SIDE`, **clamped to 4..=16**: the
//! heatmaps are printed one ASCII digit per tile, so larger grids would
//! not fit a terminal (the paper's own Figure 10 is a 16x16 grid).  A
//! clamped value is reported on stderr.
//!
//! Like `fig08_noc`, the runs default to an endpoint budget of **2**
//! drains/injections per tile per cycle so the mesh-vs-torus contrast is
//! fabric-bound (at a single-port endpoint the local port serializes both
//! topologies equally and the heatmaps flatten); pass `--drains 1` for the
//! paper's single-port tile.  The budget of every row is emitted in the
//! summary table and in the `--json` measurements.

use dalorex_baseline::Workload;
use dalorex_bench::cli::{cell_outcome, FigureCli, FABRIC_BOUND_DRAINS};
use dalorex_bench::datasets;
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_bench::runner::{run_dalorex, RunOptions};
use dalorex_graph::datasets::DatasetLabel;
use dalorex_noc::Topology;

fn main() {
    let cli = FigureCli::parse(&[]);
    let requested = cli.max_side.unwrap_or_else(datasets::max_grid_side);
    let side = requested.clamp(4, 16);
    if side != requested {
        eprintln!(
            "clamping grid side {requested} to {side} (ASCII heatmaps are one digit per tile)"
        );
    }
    let graph = datasets::build(DatasetLabel::Rmat(22));
    let workload = Workload::Sssp { root: 0 };
    let scratchpad = datasets::fitting_scratchpad_bytes(&graph, side * side);
    let drains_sweep = cli.drains_or(&[FABRIC_BOUND_DRAINS]);

    let mut summary = Table::new(vec![
        "topology",
        "drains",
        "cycles",
        "mean-PU-util-%",
        "router-util-variation",
        "max-router-util-%",
    ]);
    let mut measurements = Vec::new();

    for &drains in &drains_sweep {
        for topology in [Topology::Mesh, Topology::Torus] {
            let options = RunOptions::new(side, scratchpad)
                .with_topology(topology)
                .with_endpoint_drains(drains)
                .with_faults(cli.faults.clone())
                .with_verify(cli.verify);
            let cell = format!("{} / {drains} drains", topology.name());
            let Some(outcome) = cell_outcome(&cell, run_dalorex(&graph, workload, options)) else {
                continue;
            };
            let pu = outcome.stats.pu_utilization_grid();
            let routers = outcome.stats.router_utilization_grid();
            println!(
                "## {} — PU utilization heatmap ({side}x{side} tiles, SSSP on {}, {drains} drains/cycle)",
                topology.name(),
                DatasetLabel::Rmat(22).as_str()
            );
            print!("{}", pu.to_ascii());
            println!(
                "## {} — router utilization heatmap ({side}x{side} tiles, {drains} drains/cycle)",
                topology.name()
            );
            print!("{}", routers.to_ascii());
            println!();
            summary.push_row(vec![
                topology.name().to_string(),
                drains.to_string(),
                outcome.cycles.to_string(),
                format!("{:.1}", 100.0 * outcome.stats.mean_pu_utilization()),
                format!("{:.3}", routers.variation()),
                format!("{:.1}", 100.0 * routers.max()),
            ]);
            measurements.push(Measurement {
                experiment: "fig10".to_string(),
                workload: workload.name().to_string(),
                dataset: DatasetLabel::Rmat(22).as_str(),
                configuration: format!("{} tiles, {}", side * side, topology.name()),
                cycles: outcome.cycles,
                energy_j: outcome.total_energy_j(),
                value: routers.variation(),
                endpoint_drains: drains,
                rejected_injections: outcome.stats.noc.total_injection_rejections(),
                memory: Some(MemoryColumns::from_report(&outcome.memory)),
                peak_rss_bytes: None,
                host_parallelism: None,
                walk: Some(WalkColumns::from_outcome(&outcome)),
            });
        }
    }

    summary.print(
        "Figure 10 summary: mesh concentrates load (higher variation), torus spreads it (endpoint budget per row in the drains column)",
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}
