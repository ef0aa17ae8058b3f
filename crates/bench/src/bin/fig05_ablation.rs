//! Figure 5 + Section V-A: performance and energy improvement over
//! Tesseract for the eight-configuration ablation ladder, across four
//! applications (BFS, WCC, PageRank, SSSP) and four datasets (AZ, WK, LJ,
//! R22), all at an equal processor count.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin fig05_ablation -- \
//!     [--csv] [--json <path>] [--geomean] [--verify <mode>]
//! ```
//!
//! The ladder compares against analytical Tesseract rungs at fixed
//! endpoint budgets on a `DALOREX_FIG5_SIDE` grid, so `--faults`,
//! `--drains` and `--max-side` exit 2 instead of being ignored.
//!
//! The paper's headline numbers derived from this figure are the compounded
//! geomean factors of Section V-A (performance: 6.2x, 4.7x, 2.6x, 1.7x,
//! 1.8x -> 221x; energy -> 325x); pass `--geomean` (default on) to print
//! the reproduction's factors next to the paper's.

use dalorex_baseline::ablation::{geomean, run_rung_with, AblationOutcome, AblationRung};
use dalorex_baseline::Workload;
use dalorex_bench::cli::{cell_outcome, env_number, CommonFlag, FigureCli};
use dalorex_bench::datasets;
use dalorex_bench::report::{format_factor, Measurement, MemoryColumns, Table};
use dalorex_graph::datasets::DatasetLabel;
use std::collections::BTreeMap;

fn grid_side() -> usize {
    // The paper uses 16x16 = 256 cores to match Tesseract; reduced-scale
    // runs default to 8x8 so the whole matrix stays fast on one machine.
    // Zero or a malformed DALOREX_FIG5_SIDE exits with code 2.
    env_number("DALOREX_FIG5_SIDE", 1).unwrap_or_else(|| {
        if datasets::scale_shift() <= 4 {
            16
        } else {
            8
        }
    })
}

fn main() {
    let cli = FigureCli::parse(&[]);
    cli.reject_unapplied(&[CommonFlag::Faults, CommonFlag::Drains, CommonFlag::MaxSide]);
    let side = grid_side();
    let workloads = Workload::figure5_set();
    let labels = DatasetLabel::figure5_set();

    let mut perf = Table::new(vec![
        "app",
        "dataset",
        "config",
        "cycles",
        "perf-improvement",
    ]);
    let mut energy = Table::new(vec![
        "app",
        "dataset",
        "config",
        "energy-J",
        "energy-improvement",
    ]);
    // (rung -> improvements over the previous rung), for the geomean ladder.
    let mut step_speedups: BTreeMap<AblationRung, Vec<f64>> = BTreeMap::new();
    let mut step_energy: BTreeMap<AblationRung, Vec<f64>> = BTreeMap::new();
    let mut full_speedups = Vec::new();
    let mut full_energy_gains = Vec::new();
    let mut measurements = Vec::new();

    for workload in workloads {
        for label in labels {
            let graph = datasets::build(label);
            let scratchpad = datasets::fitting_scratchpad_bytes(&graph, side * side);
            let mut baseline: Option<AblationOutcome> = None;
            let mut previous: Option<AblationOutcome> = None;
            for rung in AblationRung::ALL {
                let cell = format!(
                    "{} / {} / {}",
                    workload.name(),
                    label.as_str(),
                    rung.label()
                );
                let result = run_rung_with(rung, &graph, workload, side, scratchpad, cli.verify);
                let Some(outcome) = cell_outcome(&cell, result) else {
                    continue;
                };
                let tesseract = *baseline.get_or_insert(outcome);
                let speedup = outcome.speedup_over(&tesseract);
                let energy_gain = outcome.energy_gain_over(&tesseract);
                perf.push_row(vec![
                    workload.name().to_string(),
                    label.as_str(),
                    rung.label().to_string(),
                    outcome.cycles.to_string(),
                    format!("{speedup:.2}"),
                ]);
                energy.push_row(vec![
                    workload.name().to_string(),
                    label.as_str(),
                    rung.label().to_string(),
                    format!("{:.3e}", outcome.energy_j),
                    format!("{energy_gain:.2}"),
                ]);
                measurements.push(Measurement {
                    experiment: "fig5".to_string(),
                    workload: workload.name().to_string(),
                    dataset: label.as_str(),
                    configuration: rung.label().to_string(),
                    cycles: outcome.cycles,
                    energy_j: outcome.energy_j,
                    value: speedup,
                    endpoint_drains: if rung == AblationRung::WideEndpoint {
                        2
                    } else {
                        1
                    },
                    rejected_injections: 0,
                    // The analytical Tesseract rungs carry no memory model,
                    // so their rows omit the memory object entirely.
                    memory: outcome.memory.map(|r| MemoryColumns::from_report(&r)),
                    peak_rss_bytes: None,
                    host_parallelism: None,
                    // The ablation outcome aggregates to cycles + energy
                    // (the Tesseract rungs are analytical), so no walk
                    // counters here.
                    walk: None,
                });
                if let Some(prev) = previous {
                    step_speedups
                        .entry(rung)
                        .or_default()
                        .push(prev.cycles as f64 / outcome.cycles.max(1) as f64);
                    step_energy
                        .entry(rung)
                        .or_default()
                        .push(prev.energy_j / outcome.energy_j.max(f64::MIN_POSITIVE));
                }
                if rung == AblationRung::Dalorex {
                    full_speedups.push(speedup);
                    full_energy_gains.push(energy_gain);
                }
                previous = Some(outcome);
            }
        }
    }

    perf.print(
        &format!("Figure 5 (top): performance improvement over Tesseract, {side}x{side} tiles"),
        cli.csv,
    );
    energy.print(
        &format!("Figure 5 (bottom): energy improvement over Tesseract, {side}x{side} tiles"),
        cli.csv,
    );

    // Section V-A compound factors.
    let mut ladder = Table::new(vec![
        "step",
        "paper (perf)",
        "measured (perf)",
        "paper (energy)",
        "measured (energy)",
    ]);
    let paper_perf: &[(&str, &str)] = &[
        ("Data-Local", "6.2x"),
        ("Basic-TSU", "4.7x"),
        ("Uniform-Distr", "2.6x"),
        ("Traffic-Aware", "1.7x"),
        ("Torus-NoC + barrierless", "1.8x"),
    ];
    let steps = [
        AblationRung::DataLocal,
        AblationRung::BasicTsu,
        AblationRung::UniformDistr,
        AblationRung::TrafficAware,
        AblationRung::TorusNoc,
    ];
    for (i, step) in steps.iter().enumerate() {
        let mut perf_ratio = geomean(step_speedups.get(step).map(Vec::as_slice).unwrap_or(&[]));
        let mut energy_ratio = geomean(step_energy.get(step).map(Vec::as_slice).unwrap_or(&[]));
        // The paper folds the Torus-NoC and barrier-removal steps into one
        // reported 1.8x factor; combine them the same way.
        if *step == AblationRung::TorusNoc {
            perf_ratio *= geomean(
                step_speedups
                    .get(&AblationRung::Dalorex)
                    .map(Vec::as_slice)
                    .unwrap_or(&[1.0]),
            );
            energy_ratio *= geomean(
                step_energy
                    .get(&AblationRung::Dalorex)
                    .map(Vec::as_slice)
                    .unwrap_or(&[1.0]),
            );
        }
        ladder.push_row(vec![
            paper_perf[i].0.to_string(),
            paper_perf[i].1.to_string(),
            format_factor(perf_ratio),
            "-".to_string(),
            format_factor(energy_ratio),
        ]);
    }
    ladder.push_row(vec![
        "TOTAL (Dalorex vs Tesseract)".to_string(),
        "221x".to_string(),
        format_factor(geomean(&full_speedups)),
        "325x".to_string(),
        format_factor(geomean(&full_energy_gains)),
    ]);
    // The beyond-paper Wide-Endpoint rung: how much of full Dalorex's
    // remaining runtime is endpoint serialization (2 drains/injections per
    // tile per cycle instead of the paper's single local router port).
    ladder.push_row(vec![
        "Wide-Endpoint (beyond paper)".to_string(),
        "-".to_string(),
        format_factor(geomean(
            step_speedups
                .get(&AblationRung::WideEndpoint)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        )),
        "-".to_string(),
        format_factor(geomean(
            step_energy
                .get(&AblationRung::WideEndpoint)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        )),
    ]);
    ladder.print(
        "Section V-A: compounded geomean improvement factors (plus the beyond-paper wide-endpoint step)",
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}
