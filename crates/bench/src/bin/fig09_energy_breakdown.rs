//! Figure 9: breakdown of the energy consumed by the computing logic, the
//! SRAM cells and the network, as a percentage of the total, for all five
//! applications across four datasets.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin fig09_energy_breakdown -- \
//!     [--csv] [--json <path>] [--max-side <n>] [--drains <a,b,...>]
//! ```
//!
//! `--max-side` overrides `DALOREX_MAX_SIDE` for the RMAT-26 grid (the
//! other datasets run at a quarter of it, floored at 4, like `fig08_noc`).
//!
//! Like `fig08_noc`, the runs default to an endpoint budget of **2**
//! drains/injections per tile per cycle so the breakdown reflects the
//! fabric-bound regime the rest of the suite measures; pass `--drains 1`
//! for the paper's single-port endpoint (an endpoint-bound run idles the
//! PUs and shifts the breakdown toward static SRAM energy).  The budget of
//! every row is emitted in the table and in the `--json` measurements.

use dalorex_baseline::Workload;
use dalorex_bench::cli::{cell_outcome, FigureCli, FABRIC_BOUND_DRAINS};
use dalorex_bench::datasets;
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_bench::runner::{run_dalorex, RunOptions};
use dalorex_graph::datasets::DatasetLabel;

fn main() {
    let cli = FigureCli::parse(&[]);
    let labels = [
        DatasetLabel::Wikipedia,
        DatasetLabel::LiveJournal,
        DatasetLabel::Rmat(22),
        DatasetLabel::Rmat(26),
    ];
    let max_side = cli.max_side.unwrap_or_else(datasets::max_grid_side);
    let drains_sweep = cli.drains_or(&[FABRIC_BOUND_DRAINS]);

    let mut table = Table::new(vec![
        "app",
        "dataset",
        "tiles",
        "drains",
        "logic-%",
        "memory-%",
        "network-%",
        "total-J",
    ]);
    let mut measurements = Vec::new();

    for workload in Workload::full_set() {
        for label in labels {
            let side = if matches!(label, DatasetLabel::Rmat(26)) {
                max_side
            } else {
                (max_side / 4).max(4)
            };
            let graph = datasets::build(label);
            let scratchpad = datasets::fitting_scratchpad_bytes(&graph, side * side);
            for &drains in &drains_sweep {
                let options = RunOptions::new(side, scratchpad)
                    .with_endpoint_drains(drains)
                    .with_faults(cli.faults.clone())
                    .with_verify(cli.verify);
                let cell = format!("{} / {} / {drains} drains", workload.name(), label.as_str());
                let Some(outcome) = cell_outcome(&cell, run_dalorex(&graph, workload, options))
                else {
                    continue;
                };
                let (logic, memory, network) = outcome.energy.shares_percent();
                table.push_row(vec![
                    workload.name().to_string(),
                    label.as_str(),
                    (side * side).to_string(),
                    drains.to_string(),
                    format!("{logic:.1}"),
                    format!("{memory:.1}"),
                    format!("{network:.1}"),
                    format!("{:.3e}", outcome.total_energy_j()),
                ]);
                measurements.push(Measurement {
                    experiment: "fig9".to_string(),
                    workload: workload.name().to_string(),
                    dataset: label.as_str(),
                    configuration: format!("{} tiles", side * side),
                    cycles: outcome.cycles,
                    energy_j: outcome.total_energy_j(),
                    value: network,
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

    table.print(
        "Figure 9: energy breakdown (logic / memory / network), % of total (endpoint budget per row in the drains column)",
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}
