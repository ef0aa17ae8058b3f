//! Figure 11 (reproduction extension): graceful degradation under
//! deterministic fault injection — runtime slowdown as a function of fault
//! count and outage duration.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin fig11_resilience -- \
//!     [--csv] [--json <path>] [--max-side <n>] [--faults <plan>]
//! ```
//!
//! The sweep runs SSSP on a fixed grid (`--max-side` sets the side,
//! default 8) and layers deterministic fault plans on top of the baseline:
//! for every (fault count × outage duration) cell it opens `count` windows
//! of `duration` cycles — alternating whole-router link outages and router
//! stalls, spread over distinct tiles with staggered onsets — and reports
//! the slowdown against the fault-free run, the throughput loss, and the
//! cycles of delay the fabric attributed to the injected windows.
//!
//! `--faults` composes: a user-supplied plan becomes the *baseline* (and
//! is included in every sweep cell), so the figure then measures the
//! marginal impact of the swept windows on an already-faulted machine.

use dalorex_baseline::Workload;
use dalorex_bench::cli::{cell_outcome, CommonFlag, FigureCli};
use dalorex_bench::datasets;
use dalorex_bench::report::{format_factor, Measurement, Table, WalkColumns};
use dalorex_bench::runner::{run_dalorex, RunOptions};
use dalorex_graph::datasets::DatasetLabel;
use dalorex_sim::{FaultEvent, FaultPlan, FaultReport};

/// Outage/stall window lengths swept, in cycles.
const DURATIONS: [u64; 3] = [100, 400, 1600];

/// Concurrent fault counts swept.
const COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Builds the plan of one sweep cell: the user's base plan plus `count`
/// windows of `duration` cycles, alternating whole-router link outages and
/// router stalls, spread over distinct tiles with staggered onsets (so the
/// windows overlap the early wavefront without all opening at once).
fn sweep_plan(base: &FaultPlan, num_tiles: usize, count: usize, duration: u64) -> FaultPlan {
    let mut plan = base.clone();
    for k in 0..count {
        let tile = (k * num_tiles / count) % num_tiles;
        let start = 100 + 37 * k as u64;
        let end = start + duration;
        plan.events.push(if k % 2 == 0 {
            FaultEvent::LinkOutage {
                tile,
                port: None,
                start,
                end,
            }
        } else {
            FaultEvent::RouterStall { tile, start, end }
        });
    }
    plan
}

fn main() {
    let cli = FigureCli::parse(&[]);
    cli.reject_unapplied(&[CommonFlag::Drains]);
    let side = cli.max_side.unwrap_or(8).clamp(2, 64);
    let tiles = side * side;
    let label = DatasetLabel::Rmat(20);
    let graph = datasets::build(label);
    let scratchpad = datasets::fitting_scratchpad_bytes(&graph, tiles);
    let workload = Workload::Sssp { root: 0 };
    let options = |plan: FaultPlan| {
        RunOptions::new(side, scratchpad)
            .with_faults(plan)
            .with_verify(cli.verify)
    };

    let cell = format!("the baseline on {tiles} tiles");
    let baseline = run_dalorex(&graph, workload, options(cli.faults.clone()));
    let Some(baseline) = cell_outcome(&cell, baseline) else {
        // Every cell is measured against the baseline.
        std::process::exit(1);
    };

    let mut table = Table::new(vec![
        "faults",
        "duration",
        "cycles",
        "slowdown",
        "throughput-loss",
        "delayed-cycles",
    ]);
    let mut measurements = vec![Measurement {
        experiment: "fig11".to_string(),
        workload: workload.name().to_string(),
        dataset: label.as_str(),
        configuration: "baseline".to_string(),
        cycles: baseline.cycles,
        energy_j: baseline.total_energy_j(),
        value: 1.0,
        endpoint_drains: 1,
        rejected_injections: baseline.stats.noc.total_injection_rejections(),
        memory: None,
        peak_rss_bytes: None,
        host_parallelism: None,
        walk: Some(WalkColumns::from_outcome(&baseline)),
    }];

    for &duration in &DURATIONS {
        for &count in &COUNTS {
            let plan = sweep_plan(&cli.faults, tiles, count, duration);
            let cell = format!("{count} faults x {duration} cycles");
            let Some(outcome) = cell_outcome(&cell, run_dalorex(&graph, workload, options(plan)))
            else {
                continue;
            };
            let slowdown = outcome.cycles as f64 / baseline.cycles.max(1) as f64;
            let loss = FaultReport::throughput_loss(baseline.cycles, outcome.cycles);
            table.push_row(vec![
                count.to_string(),
                duration.to_string(),
                outcome.cycles.to_string(),
                format_factor(slowdown),
                format!("{:.1}%", loss * 100.0),
                outcome.fault.total_delayed_cycles().to_string(),
            ]);
            measurements.push(Measurement {
                experiment: "fig11".to_string(),
                workload: workload.name().to_string(),
                dataset: label.as_str(),
                configuration: format!("{count} faults x {duration} cycles"),
                cycles: outcome.cycles,
                energy_j: outcome.total_energy_j(),
                value: slowdown,
                endpoint_drains: 1,
                rejected_injections: outcome.stats.noc.total_injection_rejections(),
                memory: None,
                peak_rss_bytes: None,
                host_parallelism: None,
                walk: Some(WalkColumns::from_outcome(&outcome)),
            });
        }
    }

    table.print(
        &format!(
            "Figure 11: SSSP resilience on {tiles} tiles ({} — baseline {} cycles)",
            label.as_str(),
            baseline.cycles
        ),
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}
