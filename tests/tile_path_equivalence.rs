//! Schedule-equivalence tests: the production engine and its oracle must
//! be *indistinguishable*.
//!
//! [`Engine::Calendar`] drives the overhauled per-cycle tile path
//! (ring-buffer queues, inline message payloads, O(1) idle tracking,
//! incrementally maintained readiness masks, the no-op skip of action-free
//! tiles read from the network's delivery and blocked-channel bits, and
//! parked tiles that sleep until a delivery or an unblock wakes them)
//! against the NoC's calendar router scheduler (per-router `next_possible`
//! due stamps, a bitset of stamped routers walked in tile-id order, and
//! per-buffer waiters that only a pop from the awaited buffer wakes).
//! [`Engine::Reference`] is the preserved pre-overhaul tile path running
//! every active tile every cycle against the NoC's reference router
//! scheduler.  The two must agree on everything — cycle counts, gathered
//! outputs, every tile counter and every NoC statistic (including the
//! per-tile injection rejections that the engine counts for known-blocked
//! channels and settles for sleeping tiles instead of re-attempting) —
//! across every topology, placement and scheduling policy, in barrierless
//! and barrier mode, at wider endpoint-drain budgets, under fault plans,
//! and on grids up to 16x16, a factor-4 ruche torus included (32x32, and
//! 64x64 on the factor-4 ruche torus, in the ignored release-mode tier).
//!
//! A small golden table additionally pins absolute cycle counts for
//! non-default configurations, so both engines drifting *together* (a bug
//! in shared machinery) still fails loudly.

use dalorex::baseline::Workload;
use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::CsrGraph;
use dalorex::noc::Topology;
use dalorex::sim::config::{BarrierMode, Engine, GridConfig, SchedulingPolicy, SimConfigBuilder};
use dalorex::sim::{FaultPlan, Simulation, VertexPlacement};

fn assert_paths_identical(sim: &Simulation, workload: Workload, label: &str) -> u64 {
    let kernel = workload.kernel();
    let reference = sim
        .run_with_engine(kernel.as_ref(), Engine::Reference)
        .unwrap();
    let outcome = sim
        .run_with_engine(kernel.as_ref(), Engine::Calendar)
        .unwrap();
    assert_outcomes_match(&outcome, &reference, label);
    reference.cycles
}

fn assert_outcomes_match(
    outcome: &dalorex::sim::SimOutcome,
    reference: &dalorex::sim::SimOutcome,
    label: &str,
) {
    assert_eq!(outcome.cycles, reference.cycles, "{label}: cycles diverged");
    assert_eq!(
        outcome.output, reference.output,
        "{label}: outputs diverged"
    );
    assert_eq!(
        outcome.stats, reference.stats,
        "{label}: statistics diverged"
    );
    assert_eq!(
        outcome.total_energy_j(),
        reference.total_energy_j(),
        "{label}: energy diverged"
    );
    assert_eq!(
        outcome.fault, reference.fault,
        "{label}: fault reports diverged"
    );
}

fn graph() -> CsrGraph {
    RmatConfig::new(9, 8).seed(17).build().unwrap()
}

#[test]
fn fast_path_matches_reference_across_topologies_placements_and_policies() {
    let graph = graph();
    for topology in [
        Topology::Mesh,
        Topology::Torus,
        Topology::TorusRuche { factor: 2 },
    ] {
        for placement in [VertexPlacement::Chunked, VertexPlacement::Interleaved] {
            for policy in [
                SchedulingPolicy::RoundRobin,
                SchedulingPolicy::OccupancyPriority,
            ] {
                let config = SimConfigBuilder::new(GridConfig::square(4))
                    .scratchpad_bytes(1 << 20)
                    .topology(topology)
                    .vertex_placement(placement)
                    .scheduling(policy)
                    .build()
                    .unwrap();
                let sim = Simulation::new(config, &graph).unwrap();
                assert_paths_identical(
                    &sim,
                    Workload::Sssp { root: 0 },
                    &format!("{topology:?}/{placement:?}/{policy:?}"),
                );
            }
        }
    }
}

/// Every kernel on a `side`x`side` grid, unfaulted and under a seeded
/// random fault plan: the production engine must reproduce the oracle.
fn assert_every_workload_matches_reference(side: usize, graph: &CsrGraph) {
    let faults: FaultPlan = "random:seed=7,count=12,horizon=20000".parse().unwrap();
    for plan in [FaultPlan::empty(), faults] {
        let base = || {
            SimConfigBuilder::new(GridConfig::square(side))
                .scratchpad_bytes(1 << 20)
                .faults(plan.clone())
        };
        let sim = Simulation::new(base().build().unwrap(), graph).unwrap();
        for workload in [
            Workload::Bfs { root: 0 },
            Workload::Sssp { root: 0 },
            Workload::Wcc,
            Workload::Spmv,
        ] {
            let label = format!("{side}x{side}/{}/faults={plan}", workload.name());
            assert_paths_identical(&sim, workload, &label);
        }
        // PageRank exercises the epoch-barrier wake path.
        let barrier = base()
            .barrier_mode(BarrierMode::EpochBarrier)
            .build()
            .unwrap();
        let sim = Simulation::new(barrier, graph).unwrap();
        let label = format!("{side}x{side}/pagerank-barrier/faults={plan}");
        assert_paths_identical(&sim, Workload::PageRank { epochs: 3 }, &label);
    }
}

#[test]
fn fast_path_matches_reference_for_every_workload() {
    assert_every_workload_matches_reference(4, &graph());
    // The scaled tier: 256 tiles, a few vertices each.
    let rmat10 = RmatConfig::new(10, 8).seed(17).build().unwrap();
    assert_every_workload_matches_reference(16, &rmat10);
}

/// The 32x32 tier on RMAT-12: minutes in a debug build, so it runs in
/// release (`cargo test --release --test tile_path_equivalence --
/// --ignored`).
#[test]
#[ignore = "32x32 oracle tier; run in release with --ignored"]
fn fast_path_matches_reference_for_every_workload_at_32x32() {
    let rmat12 = RmatConfig::new(12, 8).seed(17).build().unwrap();
    assert_every_workload_matches_reference(32, &rmat12);
}

/// A `side`x`side` factor-4 ruche torus, the topology the simulator
/// defaults to above 32x32 and the benchmark's SSSP cell runs on.
fn ruche4(side: usize) -> SimConfigBuilder {
    SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .topology(Topology::TorusRuche { factor: 4 })
}

/// SSSP and epoch-barrier PageRank on a 16x16 factor-4 ruche torus,
/// unfaulted and under a seeded random fault plan.  Express links land
/// four tiles away, so routers wait on buffers of neighbours that plain
/// torus links never reach.
#[test]
fn fast_path_matches_reference_on_a_factor_4_ruche_torus() {
    let rmat10 = RmatConfig::new(10, 8).seed(17).build().unwrap();
    let faults: FaultPlan = "random:seed=7,count=12,horizon=20000".parse().unwrap();
    for plan in [FaultPlan::empty(), faults] {
        let sim =
            Simulation::new(ruche4(16).faults(plan.clone()).build().unwrap(), &rmat10).unwrap();
        assert_paths_identical(
            &sim,
            Workload::Sssp { root: 0 },
            &format!("16x16/ruche4/sssp/faults={plan}"),
        );
        let barrier = ruche4(16)
            .faults(plan.clone())
            .barrier_mode(BarrierMode::EpochBarrier)
            .build()
            .unwrap();
        let sim = Simulation::new(barrier, &rmat10).unwrap();
        assert_paths_identical(
            &sim,
            Workload::PageRank { epochs: 3 },
            &format!("16x16/ruche4/pagerank-barrier/faults={plan}"),
        );
    }
}

/// SSSP on RMAT-12 at 64x64 on a factor-4 ruche torus, the benchmark SSSP
/// cell's grid and topology: too slow for a debug build, so it runs in
/// release with the 32x32 tier (`--ignored`).
#[test]
#[ignore = "64x64 oracle case; run in release with --ignored"]
fn fast_path_matches_reference_at_64x64_on_a_factor_4_ruche_torus() {
    let rmat12 = RmatConfig::new(12, 8).seed(17).build().unwrap();
    let sim = Simulation::new(ruche4(64).build().unwrap(), &rmat12).unwrap();
    assert_paths_identical(&sim, Workload::Sssp { root: 0 }, "64x64/ruche4/sssp");
}

#[test]
fn fast_path_matches_reference_at_wider_endpoint_budgets() {
    // The drain/inject budget interacts with the parked-channel rejection
    // accounting (channels beyond the budget's break point accrue no
    // rejection) and with how far the calendar engine can jump (wider
    // endpoints change the back-pressure pattern), so sweep budget ×
    // topology explicitly.
    let graph = graph();
    for drains in [1usize, 2, 4] {
        for topology in [Topology::Mesh, Topology::Torus] {
            let config = SimConfigBuilder::new(GridConfig::square(4))
                .scratchpad_bytes(1 << 20)
                .topology(topology)
                .endpoint_drains_per_cycle(drains)
                .build()
                .unwrap();
            let sim = Simulation::new(config, &graph).unwrap();
            assert_paths_identical(
                &sim,
                Workload::Sssp { root: 0 },
                &format!("drains={drains}/{topology:?}"),
            );
        }
    }
}

#[test]
fn fast_path_matches_reference_under_tight_buffers() {
    // Small router buffers maximise back-pressure, the regime in which the
    // parked-injection elision does the most skipping.
    let graph = graph();
    let config = SimConfigBuilder::new(GridConfig::square(4))
        .scratchpad_bytes(1 << 20)
        .noc_buffer_flits(8)
        .noc_ejection_flits(8)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    assert_paths_identical(&sim, Workload::Sssp { root: 0 }, "tight-buffers");
}

/// The worst case for due-stamp churn: traffic that alternates between
/// dense waves (every router due nearly every cycle — the due-only walk
/// at its fullest) and sparse trickles (long elided stretches broken only
/// by endpoint drains waking blocked waiters).
/// Epoch-barrier PageRank produces exactly that shape — a burst of rank
/// updates per epoch, then a global quiesce before the barrier releases
/// the next wave — and tight ejection buffers plus a 2-wide endpoint
/// budget add blocked-head waiter churn on top.  The engine and its oracle
/// must stay bit-identical through the alternation.
#[test]
fn engines_agree_on_alternating_sparse_dense_traffic() {
    let graph = graph();
    for topology in [Topology::Mesh, Topology::Torus] {
        let config = SimConfigBuilder::new(GridConfig::square(4))
            .scratchpad_bytes(1 << 20)
            .topology(topology)
            .barrier_mode(BarrierMode::EpochBarrier)
            .noc_ejection_flits(8)
            .endpoint_drains_per_cycle(2)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        assert_paths_identical(
            &sim,
            Workload::PageRank { epochs: 5 },
            &format!("sparse-dense-alternation/{topology:?}"),
        );
    }
}

/// Lazy tile-arena allocation must be schedule-invisible: the eager-init
/// oracle (`eager_tile_init(true)`, which materializes every tile's arena
/// slab up front exactly like the pre-arena engine) and the default lazy
/// mode must agree on cycles, outputs and every statistic, on both
/// engines.  Only the memory report may differ — and only in its arena
/// lines, in the expected direction: lazily materialized tiles are a
/// subset of the grid, and the physical lines (CSR, NoC buffers) are
/// identical.
#[test]
fn lazy_tile_allocation_is_schedule_invisible() {
    let graph = graph();
    for workload in [Workload::Sssp { root: 0 }, Workload::Wcc] {
        let kernel = workload.kernel();
        let base = SimConfigBuilder::new(GridConfig::square(4)).scratchpad_bytes(1 << 20);
        let lazy_sim = Simulation::new(base.clone().build().unwrap(), &graph).unwrap();
        let eager_sim =
            Simulation::new(base.eager_tile_init(true).build().unwrap(), &graph).unwrap();
        for engine in Engine::ALL {
            let lazy = lazy_sim.run_with_engine(kernel.as_ref(), engine).unwrap();
            let eager = eager_sim.run_with_engine(kernel.as_ref(), engine).unwrap();
            let label = format!("{}/{engine}", workload.name());
            assert_eq!(lazy.cycles, eager.cycles, "{label}: cycles diverged");
            assert_eq!(lazy.output, eager.output, "{label}: outputs diverged");
            assert_eq!(lazy.stats, eager.stats, "{label}: statistics diverged");
            assert_eq!(
                lazy.total_energy_j(),
                eager.total_energy_j(),
                "{label}: energy diverged"
            );
            assert_eq!(eager.memory.materialized_tiles, eager.memory.total_tiles);
            assert!(lazy.memory.materialized_tiles <= eager.memory.materialized_tiles);
            assert!(lazy.memory.tile_arena_bytes <= eager.memory.tile_arena_bytes);
            assert_eq!(lazy.memory.csr_bytes, eager.memory.csr_bytes);
            assert_eq!(lazy.memory.noc_buffer_bytes, eager.memory.noc_buffer_bytes);
        }
    }
}

/// The fault-injection half of the equivalence tests: the engine and its
/// oracle must stay bit-identical under non-empty fault plans — including the per-event `FaultReport` — and a
/// faulted run must never finish earlier than its fault-free twin (faults
/// delay, never drop).
#[test]
fn engines_agree_under_fault_plans() {
    let graph = graph();
    // A 2-wide endpoint budget so the `throttle` events (cap 1) actually
    // bite; the fault-free twin uses the same budget so the cycle
    // comparison below is apples-to-apples.
    let base = || {
        SimConfigBuilder::new(GridConfig::square(4))
            .scratchpad_bytes(1 << 20)
            .endpoint_drains_per_cycle(2)
    };
    let fault_free = {
        let sim = Simulation::new(base().build().unwrap(), &graph).unwrap();
        assert_paths_identical(&sim, Workload::Sssp { root: 0 }, "fault-free-twin")
    };
    let scenarios: &[(&str, &str)] = &[
        (
            "link-outage",
            "link:tile=5,port=east,start=200,end=900;link:tile=6,start=400,end=700",
        ),
        (
            "router-stall",
            "stall:tile=5,start=100,end=600;stall:tile=10,start=300,end=800",
        ),
        (
            "tile-side",
            "slow:tile=3,factor=4,start=0,end=4000;throttle:tile=9,budget=1,start=50,end=2500",
        ),
        ("mixed-random", "random:seed=2026,count=12,horizon=4000"),
    ];
    for &(label, spec) in scenarios {
        let plan: FaultPlan = spec.parse().unwrap();
        let sim = Simulation::new(base().faults(plan).build().unwrap(), &graph).unwrap();
        let faulted = assert_paths_identical(&sim, Workload::Sssp { root: 0 }, label);
        assert!(
            faulted >= fault_free,
            "{label}: the faulted run finished in {faulted} cycles, before its \
             fault-free twin's {fault_free}"
        );
        let kernel = Workload::Sssp { root: 0 }.kernel();
        let outcome = sim.run(kernel.as_ref()).unwrap();
        assert!(
            !outcome.fault.is_empty(),
            "{label}: a non-empty plan must produce fault-report entries"
        );
    }
}

/// An armed plan whose windows all open after quiescence must be
/// observation-identical to the empty plan — cycles, outputs, statistics
/// and energy unmoved, with the only trace an all-zero fault report.  This
/// pins the claim that fault support costs nothing on the hot path beyond
/// a branch: the fault machinery being *armed* is not itself a
/// perturbation.
#[test]
fn armed_but_never_firing_plan_is_schedule_invisible() {
    let graph = graph();
    let base = SimConfigBuilder::new(GridConfig::square(4)).scratchpad_bytes(1 << 20);
    let empty_sim = Simulation::new(base.clone().build().unwrap(), &graph).unwrap();
    // Far beyond any 4x4 SSSP run (the golden run quiesces near 10^4).
    let plan: FaultPlan = "link:tile=1,start=40000000,end=50000000;\
                           stall:tile=2,start=40000000,end=50000000;\
                           slow:tile=3,factor=8,start=40000000,end=50000000;\
                           throttle:tile=4,budget=1,start=40000000,end=50000000"
        .parse()
        .unwrap();
    let armed_sim = Simulation::new(base.faults(plan).build().unwrap(), &graph).unwrap();
    let kernel = Workload::Sssp { root: 0 }.kernel();
    for engine in Engine::ALL {
        let empty = empty_sim.run_with_engine(kernel.as_ref(), engine).unwrap();
        let armed = armed_sim.run_with_engine(kernel.as_ref(), engine).unwrap();
        let label = format!("armed-idle/{engine}");
        assert_eq!(empty.cycles, armed.cycles, "{label}: cycles diverged");
        assert_eq!(empty.output, armed.output, "{label}: outputs diverged");
        assert_eq!(empty.stats, armed.stats, "{label}: statistics diverged");
        assert_eq!(
            empty.total_energy_j(),
            armed.total_energy_j(),
            "{label}: energy diverged"
        );
        assert!(
            empty.fault.is_empty(),
            "{label}: empty plan must report nothing"
        );
        assert_eq!(armed.fault.entries.len(), 4, "{label}: one entry per event");
        assert!(
            armed.fault.is_zero_impact(),
            "{label}: windows after quiescence must have zero impact"
        );
    }
}

/// Golden cycle counts for non-default configurations, captured when the
/// overhaul landed.  Both engines must keep reproducing them exactly; a
/// drift here with the equivalence tests still green means shared
/// machinery changed the modelled schedule itself.  The mesh golden was
/// re-captured when router arbitration became ascending tile id; the
/// torus golden did not move.
#[test]
fn golden_cycles_pin_both_paths() {
    let graph = graph();
    let cases: &[(&str, Topology, VertexPlacement, SchedulingPolicy, u64)] = &[
        (
            "mesh/chunked/round-robin",
            Topology::Mesh,
            VertexPlacement::Chunked,
            SchedulingPolicy::RoundRobin,
            GOLDEN_MESH_CHUNKED_RR,
        ),
        (
            "torus/interleaved/occupancy",
            Topology::Torus,
            VertexPlacement::Interleaved,
            SchedulingPolicy::OccupancyPriority,
            GOLDEN_TORUS_INTERLEAVED_OCC,
        ),
    ];
    for &(label, topology, placement, policy, golden) in cases {
        let config = SimConfigBuilder::new(GridConfig::square(4))
            .scratchpad_bytes(1 << 20)
            .topology(topology)
            .vertex_placement(placement)
            .scheduling(policy)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let cycles = assert_paths_identical(&sim, Workload::Sssp { root: 0 }, label);
        assert_eq!(
            cycles, golden,
            "{label}: cycle count drifted from the golden"
        );
    }
}

const GOLDEN_MESH_CHUNKED_RR: u64 = 11120;
const GOLDEN_TORUS_INTERLEAVED_OCC: u64 = 9476;

/// Fault windows are in engine time, epoch broadcasts included: a faulted
/// epoch-barrier PageRank run keeps its cycle count and the delay its
/// fault windows caused.  Both engines agree with each other even if the
/// network's clock slips behind the engine's at each broadcast, so only a
/// golden sees that slip (it moves the run to 13,602 cycles and 42,019
/// delayed cycles).
#[test]
fn golden_faulted_epoch_barrier_pagerank_keeps_fault_windows_in_engine_time() {
    let plan: FaultPlan = "random:seed=7,count=12,horizon=20000".parse().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(4))
        .scratchpad_bytes(1 << 20)
        .barrier_mode(BarrierMode::EpochBarrier)
        .faults(plan)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph()).unwrap();
    let kernel = Workload::PageRank { epochs: 3 }.kernel();
    let reference = sim
        .run_with_engine(kernel.as_ref(), Engine::Reference)
        .unwrap();
    let outcome = sim
        .run_with_engine(kernel.as_ref(), Engine::Calendar)
        .unwrap();
    assert_outcomes_match(&outcome, &reference, "faulted-pagerank-barrier");
    assert_eq!(
        (outcome.cycles, outcome.fault.total_delayed_cycles()),
        (13_578, 41_675),
        "cycles and fault-delayed cycles drifted from the golden"
    );
}
