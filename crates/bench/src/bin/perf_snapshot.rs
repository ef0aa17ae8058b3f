//! Engine performance snapshot: wall-clock cycles/sec of the production
//! calendar engine (and, on the light cell, the reference oracle) on
//! representative workloads, emitted as the repo's `BENCH_<n>.json`
//! series so engine-throughput regressions are visible in review diffs.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin perf_snapshot -- \
//!     [--csv] [--json <path>] [--full]
//! ```
//!
//! Each row runs one (engine, workload) cell `REPS` times and reports the
//! best wall-clock (least-noise) repetition; `value` in the JSON is
//! modelled cycles per wall-clock second.  The modelled cycle counts are
//! engine-independent (the equivalence tests pin that), so cycles/sec
//! comparisons across engines are exact throughput ratios — and the
//! binary *asserts* the equality per cell: an engine disagreeing on the
//! modelled cycle count aborts the snapshot, so a stale `BENCH_<n>.json`
//! can never paper over an equivalence break.
//!
//! Each row also carries the run's modeled memory footprint
//! (`modeled_bytes`, from the per-subsystem memory report) next to the
//! process's peak resident set (`peak_rss`, the `VmHWM` high-water mark on
//! Linux, absent elsewhere): the first is the memory the simulated machine
//! would need, the second is what the simulator itself costs — the pair
//! catches host-footprint regressions that the modeled numbers cannot see.
//!
//! Two workloads run by default: a light 32x32 SSSP (calendar and the
//! reference oracle) and the dense 64x64 SSSP middle (calendar only — the
//! oracle takes minutes there and its ratio is already covered by the
//! light cell).  `--full` adds a dense 128x128 grid.
//!
//! The snapshot ends with the *zero-fault-overhead rung*: the light cell
//! rerun under an armed-but-never-firing fault plan (windows parked far
//! beyond the run's horizon) against the empty-plan hot path.  The two
//! must model the identical cycle count — armed-idle plans are
//! schedule-invisible, asserted here where the numbers are published —
//! and the wall-clock ratio is emitted as the `fault-overhead` row
//! (target <= 1.02; a ratio above 1.25 aborts the snapshot).
use dalorex_bench::cli::{CommonFlag, FigureCli};
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_graph::generators::rmat::RmatConfig;
use dalorex_graph::CsrGraph;
use dalorex_kernels::SsspKernel;
use dalorex_sim::config::{Engine, GridConfig, SimConfigBuilder};
use dalorex_sim::{FaultPlan, Simulation};
use std::time::Instant;

/// Repetitions per cell; the fastest is reported.
const REPS: usize = 2;

struct Cell {
    dataset: String,
    side: usize,
    graph: CsrGraph,
    engines: Vec<Engine>,
}

/// The process's peak resident-set size in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, `None` where that file does not exist.
/// The high-water mark is process-wide, so across a snapshot's rows it
/// only ever grows — the last row of a dataset bounds the simulator's own
/// footprint for every engine on that dataset.
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    let cli = FigureCli::parse();
    // The snapshot's cells, engines and fault plans are fixed, so its rows
    // stay comparable across the BENCH series.
    cli.reject_unapplied(&[
        CommonFlag::MaxSide,
        CommonFlag::Drains,
        CommonFlag::Engine,
        CommonFlag::Faults,
        CommonFlag::Verify,
    ]);
    let full = std::env::args().any(|a| a == "--full");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("host parallelism: {cores}");

    let mut cells = vec![
        Cell {
            dataset: "RMAT-12".to_string(),
            side: 32,
            graph: RmatConfig::new(12, 8).seed(11).build().unwrap(),
            engines: vec![Engine::Reference, Engine::Calendar],
        },
        Cell {
            dataset: "RMAT-14".to_string(),
            side: 64,
            graph: RmatConfig::new(14, 8).seed(11).build().unwrap(),
            engines: vec![Engine::Calendar],
        },
    ];
    if full {
        cells.push(Cell {
            dataset: "RMAT-16".to_string(),
            side: 128,
            graph: RmatConfig::new(16, 8).seed(11).build().unwrap(),
            engines: vec![Engine::Calendar],
        });
    }

    let mut table = Table::new(vec![
        "workload",
        "dataset",
        "tiles",
        "engine",
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
        // The first engine's modelled cycle count anchors the per-cell
        // equivalence assertion below.
        let mut cell_cycles: Option<u64> = None;
        for &engine in &cell.engines {
            let mut cycles = 0;
            let mut energy_j = 0.0;
            let mut rejections = 0;
            let mut modeled_bytes = 0;
            let mut memory = None;
            let mut walk = None;
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let started = Instant::now();
                let outcome = sim.run_with_engine(&SsspKernel::new(0), engine).unwrap();
                best = best.min(started.elapsed().as_secs_f64());
                cycles = outcome.cycles;
                energy_j = outcome.total_energy_j();
                rejections = outcome.stats.noc.total_injection_rejections();
                modeled_bytes = outcome.memory.modeled_total_bytes();
                memory = Some(MemoryColumns::from_report(&outcome.memory));
                walk = Some(WalkColumns::from_stats(&outcome.stats.noc));
            }
            // The equivalence tests' guarantee, enforced where the numbers
            // are published: both engines model the same cycle count, or
            // the snapshot dies instead of writing BENCH_<n>.json.
            let anchor = *cell_cycles.get_or_insert(cycles);
            assert_eq!(
                cycles, anchor,
                "{}: engine {engine} modelled {cycles} cycles but {} modelled {anchor} — \
                 the engines have diverged; fix the equivalence break before snapshotting",
                cell.dataset, cell.engines[0]
            );
            let peak_rss = peak_rss_bytes();
            let throughput = cycles as f64 / best;
            table.push_row(vec![
                "SSSP".to_string(),
                cell.dataset.clone(),
                (cell.side * cell.side).to_string(),
                engine.to_string(),
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
                configuration: format!("{} tiles, engine {engine}", cell.side * cell.side),
                cycles,
                energy_j,
                value: throughput,
                endpoint_drains: 1,
                rejected_injections: rejections,
                memory,
                peak_rss_bytes: peak_rss,
                walk,
            });
        }
    }

    fault_overhead_rung(&mut measurements);

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
/// fault-state checks cost at most 25% wall-clock (the target is 2%; the
/// hard cap only exists to survive noisy CI hosts without letting a real
/// regression through).
fn fault_overhead_rung(measurements: &mut Vec<Measurement>) {
    const RUNG_REPS: usize = 3;
    let graph = RmatConfig::new(12, 8).seed(11).build().unwrap();
    let armed: FaultPlan = "link:tile=5,start=4000000000,end=4000000100;\
                            stall:tile=9,start=4000000000,end=4000000100;\
                            slow:tile=3,factor=4,start=4000000000,end=4000000100;\
                            throttle:tile=7,budget=1,start=4000000000,end=4000000100"
        .parse()
        .unwrap();
    let time = |plan: FaultPlan| {
        let config = SimConfigBuilder::new(GridConfig::square(32))
            .scratchpad_bytes(1 << 20)
            .faults(plan)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let mut best = f64::INFINITY;
        let mut cycles = 0;
        for _ in 0..RUNG_REPS {
            let started = Instant::now();
            let outcome = sim
                .run_with_engine(&SsspKernel::new(0), Engine::Calendar)
                .unwrap();
            best = best.min(started.elapsed().as_secs_f64());
            cycles = outcome.cycles;
        }
        (cycles, best)
    };
    let (empty_cycles, empty_best) = time(FaultPlan::empty());
    let (armed_cycles, armed_best) = time(armed);
    assert_eq!(
        armed_cycles, empty_cycles,
        "an armed-but-idle fault plan moved the schedule ({armed_cycles} vs {empty_cycles} \
         cycles) — armed-idle plans must be schedule-invisible"
    );
    let ratio = armed_best / empty_best;
    eprintln!(
        "zero-fault overhead (armed-idle / empty plan, calendar engine): {ratio:.3} \
         (target <= 1.02, hard cap 1.25)"
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
        walk: None,
    });
}
