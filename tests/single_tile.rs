//! Regression test for the single-tile scheduling livelock.
//!
//! On one tile, every propagation-kernel queue lives on the same TSU, and
//! RMAT-scale datasets give T4's frontier IQ (one entry per 32 local
//! vertices) a larger capacity than T1's 64-word IQ.  Under
//! occupancy-priority scheduling both sit at High priority when full, the
//! tie goes to the larger queue, and — before T4 declared its
//! `requires_iq_space(T1, 1)` output-queue guarantee — the TSU dispatched
//! T4 every cycle forever: each invocation found IQ1 full, pushed nothing,
//! popped nothing, and still counted as watchdog progress, so
//! `scaling_study`'s first sweep step (1 tile, RMAT-13) crawled into
//! `CycleLimitExceeded { limit: 200000000 }`.  This test pins the fixed
//! behaviour on a scaled-down instance of the exact same configuration
//! (single tile, RMAT graph large enough that IQ4's capacity exceeds
//! IQ1's).

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::reference;
use dalorex::kernels::BfsKernel;
use dalorex::sim::config::{Engine, GridConfig, SimConfigBuilder};
use dalorex::sim::Simulation;

#[test]
fn single_tile_bfs_terminates_and_matches_the_reference() {
    // RMAT-12: 4096 vertices -> 128 frontier blocks on one tile, exceeding
    // T1's 64-word IQ capacity — the tie-break regime that livelocked.
    let graph = RmatConfig::new(12, 8).seed(3).build().unwrap();
    let per_tile_bytes =
        ((2 * graph.num_vertices() + 2 * graph.num_edges()) * 4 + 256 * 1024).next_power_of_two();
    let config = SimConfigBuilder::new(GridConfig::square(1))
        .scratchpad_bytes(per_tile_bytes)
        // Generous for a healthy run (a few hundred thousand cycles), far
        // below the livelocked behaviour (which burned the full 200M).
        .max_cycles(20_000_000)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let outcome = sim
        .run(&BfsKernel::new(0))
        .expect("single-tile BFS must terminate (T4/T1 livelock regression)");
    let expected = reference::bfs(&graph, 0);
    assert_eq!(outcome.output.as_u32_array("value"), expected.depths());
    // A healthy single-tile run is PU/endpoint-bound, not stuck: T4 must
    // not dominate the invocation counts the way the livelock did (it
    // spun millions of no-op dispatches while T1 starved).
    let invocations = &outcome.stats.task_invocations;
    assert!(
        invocations[3] < invocations[2],
        "T4 dispatched {} times vs T3's {} — the frontier task is spinning",
        invocations[3],
        invocations[2]
    );
}

#[test]
fn single_tile_run_is_identical_across_engines() {
    // Engine and oracle agree even degenerately (no fabric hops at all:
    // every message self-delivers through the ejection buffer).
    let graph = RmatConfig::new(9, 6).seed(5).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(1))
        .scratchpad_bytes(8 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let reference = sim
        .run_with_engine(&BfsKernel::new(0), Engine::Reference)
        .unwrap();
    for engine in Engine::ALL {
        let outcome = sim.run_with_engine(&BfsKernel::new(0), engine).unwrap();
        assert_eq!(outcome.cycles, reference.cycles, "{engine}");
        assert_eq!(outcome.stats, reference.stats, "{engine}");
        assert_eq!(outcome.output, reference.output, "{engine}");
    }
}
