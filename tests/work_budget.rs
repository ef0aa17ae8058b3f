//! The work-regression test tier: the simulator's own work counters are
//! pinned like cycle goldens.
//!
//! Wall-clock gates are noisy on a shared host; the units of work behind
//! them are not.  Every run reports how many tiles the cycle loop visited,
//! how many of those visits ran a tile cycle, how many injections the
//! tiles attempted (`SimOutcome::work`), and how much the calendar router
//! walk visited, scanned and wasted (the `walk_*` fields of `NocStats`).
//! These tests pin those counts for SSSP and for faulted epoch-barrier
//! PageRank at 16x16 and 32x32, so "does fewer units of work" is a tier-1
//! fact: a change that moves a counter re-pins it here on purpose, with an
//! old→new table in CHANGES.md, exactly like a memory or cycle golden.

use dalorex::baseline::Workload;
use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::CsrGraph;
use dalorex::sim::config::{BarrierMode, Engine, GridConfig, SimConfigBuilder};
use dalorex::sim::{FaultPlan, SimOutcome, Simulation};

/// Every work counter of one run, in one comparable value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    tile_visits: u64,
    tile_cycles_run: u64,
    injection_attempts: u64,
    routers_visited: u64,
    routers_scanned: u64,
    walks_elided: u64,
    idle_scans: u64,
}

impl Work {
    fn of(outcome: &SimOutcome) -> Self {
        let noc = &outcome.stats.noc;
        Work {
            tile_visits: outcome.work.tile_visits,
            tile_cycles_run: outcome.work.tile_cycles_run,
            injection_attempts: outcome.work.injection_attempts,
            routers_visited: noc.walk_routers_visited,
            routers_scanned: noc.walk_routers_scanned,
            walks_elided: noc.walks_elided,
            idle_scans: noc.walk_idle_scans,
        }
    }
}

fn rmat(scale: u32) -> CsrGraph {
    RmatConfig::new(scale, 8).seed(17).build().unwrap()
}

fn run_sssp(side: usize, graph: &CsrGraph) -> SimOutcome {
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, graph).unwrap();
    sim.run(Workload::Sssp { root: 0 }.kernel().as_ref())
        .unwrap()
}

/// Three epochs of epoch-barrier PageRank under the oracle tiers' seeded
/// random fault plan: the barrier wakes, the broadcast ticks and the
/// fault windows all show in the counters.
fn run_faulted_pagerank(side: usize, graph: &CsrGraph) -> SimOutcome {
    let plan: FaultPlan = "random:seed=7,count=12,horizon=20000".parse().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .barrier_mode(BarrierMode::EpochBarrier)
        .faults(plan)
        .build()
        .unwrap();
    let sim = Simulation::new(config, graph).unwrap();
    sim.run(Workload::PageRank { epochs: 3 }.kernel().as_ref())
        .unwrap()
}

fn assert_work(outcome: &SimOutcome, golden: Work, label: &str) {
    let work = Work::of(outcome);
    assert!(
        work.tile_cycles_run <= work.tile_visits,
        "{label}: {work:?}"
    );
    assert!(
        work.idle_scans <= work.routers_scanned && work.routers_scanned <= work.routers_visited,
        "{label}: {work:?}"
    );
    assert_eq!(work, golden, "{label}: work counters drifted");
}

#[test]
fn golden_work_16x16_sssp() {
    let outcome = run_sssp(16, &rmat(10));
    assert_work(
        &outcome,
        Work {
            tile_visits: 167_461,
            tile_cycles_run: 72_636,
            injection_attempts: 33_559,
            routers_visited: 376_789,
            routers_scanned: 193_117,
            walks_elided: 516,
            idle_scans: 5_998,
        },
        "16x16 SSSP",
    );
}

#[test]
fn golden_work_32x32_sssp() {
    let outcome = run_sssp(32, &rmat(12));
    assert_work(
        &outcome,
        Work {
            tile_visits: 864_521,
            tile_cycles_run: 455_138,
            injection_attempts: 255_921,
            routers_visited: 4_559_043,
            routers_scanned: 2_277_677,
            walks_elided: 16,
            idle_scans: 90_312,
        },
        "32x32 SSSP",
    );
}

#[test]
fn golden_work_16x16_faulted_pagerank_barrier() {
    let outcome = run_faulted_pagerank(16, &rmat(10));
    assert_work(
        &outcome,
        Work {
            tile_visits: 141_771,
            tile_cycles_run: 68_378,
            injection_attempts: 34_952,
            routers_visited: 274_516,
            routers_scanned: 150_188,
            walks_elided: 2_494,
            idle_scans: 6_564,
        },
        "16x16 faulted PageRank-barrier",
    );
}

#[test]
fn golden_work_32x32_faulted_pagerank_barrier() {
    let outcome = run_faulted_pagerank(32, &rmat(12));
    assert_work(
        &outcome,
        Work {
            tile_visits: 496_311,
            tile_cycles_run: 314_776,
            injection_attempts: 190_679,
            routers_visited: 2_516_530,
            routers_scanned: 1_337_621,
            walks_elided: 2_768,
            idle_scans: 52_710,
        },
        "32x32 faulted PageRank-barrier",
    );
}

/// The oracle counts its own tile path: it runs every tile it visits and
/// does no calendar walk, so its router-walk counters stay 0.
#[test]
fn the_oracle_runs_every_tile_it_visits_and_walks_no_calendar() {
    let graph = RmatConfig::new(9, 8).seed(17).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(4))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let kernel = Workload::Sssp { root: 0 }.kernel();
    let oracle = sim
        .run_with_engine(kernel.as_ref(), Engine::Reference)
        .unwrap();
    let work = Work::of(&oracle);
    assert!(work.tile_visits > 0);
    assert_eq!(work.tile_cycles_run, work.tile_visits);
    assert!(work.injection_attempts >= oracle.stats.noc.injected_messages);
    assert_eq!(
        (
            work.routers_visited,
            work.routers_scanned,
            work.walks_elided,
            work.idle_scans
        ),
        (0, 0, 0, 0)
    );
    // Every attempt the oracle makes is either accepted or counted as a
    // rejection: it never skips one.
    assert_eq!(
        work.injection_attempts,
        oracle.stats.noc.injected_messages + oracle.stats.noc.total_injection_rejections()
    );
}
