//! Engine performance snapshot: wall-clock cycles/sec of the production
//! calendar engine on representative workloads, emitted as the repo's
//! `BENCH_<n>.json` series so engine-throughput regressions are visible in
//! review diffs.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin perf_snapshot -- \
//!     [--csv] [--json <path>] [--full]
//! ```
//!
//! Each row runs one workload cell `REPS` times and reports the best
//! wall-clock (least-noise) repetition; `value` in the JSON is modelled
//! cycles per wall-clock second.
//!
//! Each row also carries the run's modeled memory footprint
//! (`modeled_bytes`, from the per-subsystem memory report) next to the
//! process's peak resident set (`peak_rss`, the `VmHWM` high-water mark on
//! Linux, absent elsewhere): the first is the memory the simulated machine
//! would need, the second is what the simulator itself costs — the pair
//! catches host-footprint regressions that the modeled numbers cannot see.
//! Every row also carries the host's core count (`host_parallelism`), so
//! a `BENCH_<n>.json` file names the host it was measured on.
//!
//! Two workloads run by default: a light 32x32 SSSP and the dense 64x64
//! SSSP middle.  `--full` adds a dense 128x128 grid.
//!
//! The snapshot ends with the *zero-fault-overhead rung*: the light cell
//! rerun under an armed-but-never-firing fault plan (windows parked far
//! beyond the run's horizon) against the empty-plan hot path.  The two
//! must model the identical cycle count — armed-idle plans are
//! schedule-invisible, asserted here where the numbers are published —
//! and the median wall-clock ratio of `RUNG_PAIRS` back-to-back pairs is
//! emitted as the `fault-overhead` row (a ratio above 1.25 aborts the
//! snapshot).
use dalorex_bench::cli::{CommonFlag, FigureCli};
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_graph::generators::rmat::RmatConfig;
use dalorex_graph::CsrGraph;
use dalorex_kernels::SsspKernel;
use dalorex_sim::config::{GridConfig, SimConfigBuilder};
use dalorex_sim::{FaultPlan, Simulation};
use std::time::Instant;

/// Repetitions per cell; the fastest is reported.
const REPS: usize = 2;

/// Empty-plan/armed-plan pairs of the zero-fault-overhead rung; the
/// median pair ratio is gated.
const RUNG_PAIRS: usize = 5;

struct Cell {
    dataset: String,
    side: usize,
    graph: CsrGraph,
}

/// The process's peak resident-set size in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, `None` where that file does not exist.
/// The high-water mark is process-wide, so across a snapshot's rows it
/// only ever grows — each row bounds the simulator's own footprint on
/// every cell up to it.
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    let cli = FigureCli::parse(&["--full"]);
    // The snapshot's cells and fault plans are fixed, so its rows stay
    // comparable across the BENCH series.
    cli.reject_unapplied(&[
        CommonFlag::MaxSide,
        CommonFlag::Drains,
        CommonFlag::Faults,
        CommonFlag::Verify,
    ]);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("host parallelism: {cores}");

    let mut cells = vec![
        Cell {
            dataset: "RMAT-12".to_string(),
            side: 32,
            graph: RmatConfig::new(12, 8).seed(11).build().unwrap(),
        },
        Cell {
            dataset: "RMAT-14".to_string(),
            side: 64,
            graph: RmatConfig::new(14, 8).seed(11).build().unwrap(),
        },
    ];
    if cli.switch("--full") {
        cells.push(Cell {
            dataset: "RMAT-16".to_string(),
            side: 128,
            graph: RmatConfig::new(16, 8).seed(11).build().unwrap(),
        });
    }

    let mut table = Table::new(vec![
        "workload",
        "dataset",
        "tiles",
        "cycles",
        "best wall (s)",
        "cycles/sec",
        "modeled-bytes",
        "peak-rss",
    ]);
    let mut measurements = Vec::new();

    for cell in &cells {
        let config = SimConfigBuilder::new(GridConfig::square(cell.side))
            .scratchpad_bytes(1 << 20)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &cell.graph).unwrap();
        let mut cycles = 0;
        let mut energy_j = 0.0;
        let mut rejections = 0;
        let mut modeled_bytes = 0;
        let mut memory = None;
        let mut walk = None;
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let started = Instant::now();
            let outcome = sim.run(&SsspKernel::new(0)).unwrap();
            best = best.min(started.elapsed().as_secs_f64());
            cycles = outcome.cycles;
            energy_j = outcome.total_energy_j();
            rejections = outcome.stats.noc.total_injection_rejections();
            modeled_bytes = outcome.memory.modeled_total_bytes();
            memory = Some(MemoryColumns::from_report(&outcome.memory));
            walk = Some(WalkColumns::from_outcome(&outcome));
        }
        let peak_rss = peak_rss_bytes();
        let throughput = cycles as f64 / best;
        table.push_row(vec![
            "SSSP".to_string(),
            cell.dataset.clone(),
            (cell.side * cell.side).to_string(),
            cycles.to_string(),
            format!("{best:.3}"),
            format!("{throughput:.3e}"),
            modeled_bytes.to_string(),
            peak_rss.map_or_else(|| "-".to_string(), |b| b.to_string()),
        ]);
        measurements.push(Measurement {
            experiment: "engine-throughput".to_string(),
            workload: "SSSP".to_string(),
            dataset: cell.dataset.clone(),
            // The engine stays in the label so rows match the BENCH series.
            configuration: format!("{} tiles, engine calendar", cell.side * cell.side),
            cycles,
            energy_j,
            value: throughput,
            endpoint_drains: 1,
            rejected_injections: rejections,
            memory,
            peak_rss_bytes: peak_rss,
            host_parallelism: Some(cores),
            walk,
        });
    }

    fault_overhead_rung(&mut measurements, cores);

    table.print(
        &format!("Engine throughput snapshot (modelled cycles per wall-clock second, host parallelism {cores})"),
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}

/// The zero-fault-overhead rung: the light cell under an armed-but-idle
/// fault plan (one window of every kind, all parked billions of cycles
/// past the run) against the empty-plan hot path, on the calendar engine.
/// Asserts the armed-idle plan is schedule-invisible and that the
/// fault-state checks cost at most 25% wall-clock (a cap loose enough to
/// survive noisy CI hosts without letting a real regression through).
///
/// The two plans run in `RUNG_PAIRS` back-to-back pairs, alternating which
/// goes first, and the median pair ratio is gated: host speed drifts over
/// seconds, so only adjacent runs compare like with like, and alternating
/// keeps any first-run or second-run advantage from favouring one plan.
fn fault_overhead_rung(measurements: &mut Vec<Measurement>, cores: usize) {
    let graph = RmatConfig::new(12, 8).seed(11).build().unwrap();
    let armed: FaultPlan = "link:tile=5,start=4000000000,end=4000000100;\
                            stall:tile=9,start=4000000000,end=4000000100;\
                            slow:tile=3,factor=4,start=4000000000,end=4000000100;\
                            throttle:tile=7,budget=1,start=4000000000,end=4000000100"
        .parse()
        .unwrap();
    let sim = |plan: FaultPlan| {
        let config = SimConfigBuilder::new(GridConfig::square(32))
            .scratchpad_bytes(1 << 20)
            .faults(plan)
            .build()
            .unwrap();
        Simulation::new(config, &graph).unwrap()
    };
    let (empty_sim, armed_sim) = (sim(FaultPlan::empty()), sim(armed));
    let time = |sim: &Simulation| {
        let started = Instant::now();
        let cycles = sim.run(&SsspKernel::new(0)).unwrap().cycles;
        (cycles, started.elapsed().as_secs_f64())
    };
    let mut empty_cycles = 0;
    let mut ratios = Vec::with_capacity(RUNG_PAIRS);
    for pair in 0..RUNG_PAIRS {
        let ((empty, empty_s), (armed, armed_s)) = if pair % 2 == 0 {
            let empty = time(&empty_sim);
            (empty, time(&armed_sim))
        } else {
            let armed = time(&armed_sim);
            (time(&empty_sim), armed)
        };
        assert_eq!(
            armed, empty,
            "an armed-but-idle fault plan moved the schedule ({armed} vs {empty} cycles) — \
             armed-idle plans must be schedule-invisible"
        );
        empty_cycles = empty;
        ratios.push(armed_s / empty_s);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[RUNG_PAIRS / 2];
    eprintln!(
        "zero-fault overhead (armed-idle / empty plan, calendar engine, median of \
         pairs {ratios:.3?}): {ratio:.3} (cap 1.25)"
    );
    assert!(
        ratio <= 1.25,
        "armed-idle fault checks cost {ratio:.3}x wall-clock on the empty-plan hot path — \
         fix the fast path before snapshotting"
    );
    measurements.push(Measurement {
        experiment: "fault-overhead".to_string(),
        workload: "SSSP".to_string(),
        dataset: "RMAT-12".to_string(),
        configuration: "armed-idle vs empty plan, 1024 tiles, engine calendar".to_string(),
        cycles: empty_cycles,
        energy_j: 0.0,
        value: ratio,
        endpoint_drains: 1,
        rejected_injections: 0,
        memory: None,
        peak_rss_bytes: peak_rss_bytes(),
        host_parallelism: Some(cores),
        walk: None,
    });
}
