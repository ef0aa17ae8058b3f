//! Figure 8: performance improvement of the 2D torus and the torus with
//! ruche channels over the 2D mesh, for all five applications on the
//! Wikipedia, LiveJournal, RMAT-22 and RMAT-26 datasets.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin fig08_noc -- \
//!     [--csv] [--json <path>] [--max-side <n>] [--drains <a,b,...>]
//! ```
//!
//! `--max-side` overrides `DALOREX_MAX_SIDE` for the RMAT-26 grid (the
//! other datasets run at a quarter of it, floored at 4, as in the paper).
//!
//! Topology only differentiates once the fabric, not the endpoint, is the
//! bottleneck — at one message per tile per cycle the single local router
//! port serializes everything and the three topologies converge (the
//! ROADMAP's "endpoint-bound on small grids" observation).  This figure
//! therefore defaults to an endpoint budget of **2** drains/injections per
//! tile per cycle, the smallest value at which the dense runs go
//! fabric-bound; `--drains` overrides (pass `--drains 1` for the paper's
//! single-port endpoint).  The drain budget of every row is emitted in the
//! table and in the `--json` measurements, like fig06/fig07.

use dalorex_baseline::Workload;
use dalorex_bench::cli::{cell_outcome, FigureCli, FABRIC_BOUND_DRAINS};
use dalorex_bench::datasets;
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_bench::runner::{run_dalorex, RunOptions};
use dalorex_graph::datasets::DatasetLabel;
use dalorex_noc::Topology;

fn main() {
    let cli = FigureCli::parse(&[]);
    let labels = [
        DatasetLabel::Wikipedia,
        DatasetLabel::LiveJournal,
        DatasetLabel::Rmat(22),
        DatasetLabel::Rmat(26),
    ];
    let topologies = [
        Topology::Mesh,
        Topology::Torus,
        Topology::TorusRuche { factor: 4 },
    ];
    let max_side = cli.max_side.unwrap_or_else(datasets::max_grid_side);
    let drains_sweep = cli.drains_or(&[FABRIC_BOUND_DRAINS]);

    let mut table = Table::new(vec![
        "app",
        "dataset",
        "tiles",
        "drains",
        "topology",
        "cycles",
        "speedup-vs-mesh",
    ]);
    let mut measurements = Vec::new();

    for workload in Workload::full_set() {
        for label in labels {
            // The paper runs RMAT-26 on 64x64 tiles and the rest on 16x16;
            // scale both down proportionally to the configured cap.
            let side = if matches!(label, DatasetLabel::Rmat(26)) {
                max_side
            } else {
                (max_side / 4).max(4)
            };
            let graph = datasets::build(label);
            let scratchpad = datasets::fitting_scratchpad_bytes(&graph, side * side);
            for &drains in &drains_sweep {
                let mut mesh_cycles: Option<u64> = None;
                for topology in topologies {
                    let options = RunOptions::new(side, scratchpad)
                        .with_topology(topology)
                        .with_endpoint_drains(drains)
                        .with_faults(cli.faults.clone())
                        .with_verify(cli.verify);
                    let cell = format!(
                        "{} / {} / {} / {drains} drains",
                        workload.name(),
                        label.as_str(),
                        topology.name()
                    );
                    let Some(outcome) = cell_outcome(&cell, run_dalorex(&graph, workload, options))
                    else {
                        continue;
                    };
                    let mesh = *mesh_cycles.get_or_insert(outcome.cycles);
                    let speedup = mesh as f64 / outcome.cycles.max(1) as f64;
                    table.push_row(vec![
                        workload.name().to_string(),
                        label.as_str(),
                        (side * side).to_string(),
                        drains.to_string(),
                        topology.name().to_string(),
                        outcome.cycles.to_string(),
                        format!("{speedup:.2}"),
                    ]);
                    measurements.push(Measurement {
                        experiment: "fig8".to_string(),
                        workload: workload.name().to_string(),
                        dataset: label.as_str(),
                        configuration: format!("{} tiles, {}", side * side, topology.name()),
                        cycles: outcome.cycles,
                        energy_j: outcome.total_energy_j(),
                        value: speedup,
                        endpoint_drains: drains,
                        rejected_injections: outcome.stats.noc.total_injection_rejections(),
                        memory: Some(MemoryColumns::from_report(&outcome.memory)),
                        peak_rss_bytes: None,
                        host_parallelism: None,
                        walk: Some(WalkColumns::from_outcome(&outcome)),
                    });
                }
            }
        }
    }

    table.print(
        "Figure 8: Torus and Torus-Ruche performance improvement over Mesh (fabric-bound endpoint budget)",
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}
