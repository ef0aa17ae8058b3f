//! Smoke tests: the failure-injection and ablation-shape scenarios, shrunk
//! to a 2x2 grid, must finish in a few seconds of wall clock.
//!
//! The cycle engine's active-tile and active-router tracking is what keeps
//! small runs cheap; a regression to scanning every tile and every router
//! every cycle (accidental quadratic blowup) shows up here immediately,
//! long before the full suites time out.

use dalorex::baseline::ablation::{run_rung, AblationRung};
use dalorex::baseline::Workload;
use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::CsrGraph;
use dalorex::kernels::BfsKernel;
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::{SimError, Simulation};
use std::time::{Duration, Instant};

/// Generous per-scenario wall-clock budget.  Each scenario takes well under
/// a second in release and tens of milliseconds to low seconds in debug; a
/// quadratic cycle engine overshoots this by orders of magnitude.
const BUDGET: Duration = Duration::from_secs(5);

fn assert_within_budget(label: &str, start: Instant) {
    let elapsed = start.elapsed();
    assert!(
        elapsed <= BUDGET,
        "{label} took {elapsed:?}, over the {BUDGET:?} smoke budget — \
         did the cycle engine lose its active-set tracking?"
    );
}

fn smoke_graph() -> CsrGraph {
    RmatConfig::new(9, 8).seed(21).build().unwrap()
}

#[test]
fn failure_injection_scenarios_are_fast_on_a_2x2_grid() {
    let start = Instant::now();
    let graph = smoke_graph();

    // Scenario 1: oversized dataset rejected before any cycle is simulated
    // (32 KiB cannot even hold the simulator's 64 KiB code/queue reserve).
    let config = SimConfigBuilder::new(GridConfig::square(2))
        .scratchpad_bytes(32 * 1024)
        .build()
        .unwrap();
    assert!(matches!(
        Simulation::new(config, &graph),
        Err(SimError::DatasetTooLarge { .. })
    ));

    // Scenario 2: the cycle limit aborts a run promptly.
    let config = SimConfigBuilder::new(GridConfig::square(2))
        .scratchpad_bytes(1 << 20)
        .max_cycles(2_000)
        .watchdog_cycles(500)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let err = sim.run(&BfsKernel::new(0)).unwrap_err();
    assert!(matches!(
        err,
        SimError::CycleLimitExceeded { .. } | SimError::Deadlock { .. }
    ));

    // Scenario 3: an unreachable root completes (almost) immediately.
    let config = SimConfigBuilder::new(GridConfig::square(2))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let outcome = sim.run(&BfsKernel::new(u32::MAX)).unwrap();
    assert!(outcome
        .output
        .as_u32_array("value")
        .iter()
        .all(|&v| v == u32::MAX));

    assert_within_budget("failure-injection smoke", start);
}

#[test]
fn ablation_ladder_is_fast_on_a_2x2_grid() {
    let start = Instant::now();
    let graph = smoke_graph();
    let workload = Workload::Bfs { root: 0 };
    let mut cycles = Vec::new();
    for rung in AblationRung::ALL {
        let outcome = run_rung(rung, &graph, workload, 2, 1 << 20).unwrap();
        assert!(outcome.cycles > 0, "{} produced zero cycles", rung.label());
        cycles.push(outcome.cycles);
    }
    // The ladder endpoints must still point the right way, even at 4 tiles.
    assert!(
        cycles.last().unwrap() < cycles.first().unwrap(),
        "full Dalorex ({}) should beat Tesseract ({}) on 4 tiles",
        cycles.last().unwrap(),
        cycles.first().unwrap()
    );
    assert_within_budget("ablation-ladder smoke", start);
}

#[test]
fn every_workload_completes_quickly_on_a_2x2_grid() {
    let start = Instant::now();
    let graph = smoke_graph();
    for workload in Workload::full_set() {
        let outcome = run_rung(AblationRung::Dalorex, &graph, workload, 2, 1 << 20).unwrap();
        assert!(
            outcome.cycles > 0,
            "{} produced zero cycles",
            workload.name()
        );
    }
    assert_within_budget("all-workloads smoke", start);
}
