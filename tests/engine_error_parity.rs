//! Engine parity at the exact error boundaries.
//!
//! [`SimError::CycleLimitExceeded`] and [`SimError::Deadlock`] must fire
//! at the *identical* cycle, with the identical payload, on the calendar
//! engine and on the reference oracle: `max_cycles`, and the watchdog
//! deadline `last_progress_cycle + watchdog_cycles + 1`, are checked by
//! both engines' loops, and the deadlock diagnostics read only
//! schedule-identical state.  These tests pin that contract at the
//! boundary itself: limits landing exactly on, one before and one after
//! the interesting cycle, plus a property-style sweep of
//! `max_cycles`/`watchdog_cycles` near the completion cycle.  Any
//! divergence shows up as the engine erroring a cycle early, a cycle late,
//! or with different queue/message counts in the payload.

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::CsrGraph;
use dalorex::kernels::SsspKernel;
use dalorex::sim::config::{Engine, GridConfig, SimConfigBuilder};
use dalorex::sim::kernel::{
    BootstrapContext, ChannelDecl, EpochContext, EpochDecision, Kernel, LocalArrayDecl,
    TaskContext, TaskDecl, TaskParams,
};
use dalorex::sim::{ArraySpace, FaultEvent, FaultPlan, SimError, Simulation, VertexPlacement};

/// Runs `kernel` under both engines and asserts the result is identical:
/// either both succeed with the same cycle count and statistics, or both
/// fail with the exact same [`SimError`] value (`SimError` is
/// `PartialEq`, so the comparison covers the payload — the cycle the
/// watchdog fired at, the in-flight message count, the queued
/// invocations — not just the variant).
fn assert_error_parity(sim: &Simulation, kernel: &dyn Kernel, label: &str) {
    let reference = sim.run_with_engine(kernel, Engine::Reference);
    let outcome = sim.run_with_engine(kernel, Engine::Calendar);
    match (&reference, &outcome) {
        (Ok(want), Ok(got)) => {
            assert_eq!(got.cycles, want.cycles, "{label}: cycles diverged");
            assert_eq!(got.stats, want.stats, "{label}: stats diverged");
        }
        (Err(want), Err(got)) => {
            assert_eq!(got, want, "{label}: errors diverged");
        }
        (want, got) => panic!(
            "{label}: reference {} but calendar {}",
            if want.is_ok() { "succeeded" } else { "failed" },
            if got.is_ok() { "succeeded" } else { "failed" },
        ),
    }
}

fn graph() -> CsrGraph {
    RmatConfig::new(8, 6).seed(23).build().unwrap()
}

fn sim_with_limits(graph: &CsrGraph, max_cycles: u64, watchdog_cycles: u64) -> Simulation {
    let config = SimConfigBuilder::new(GridConfig::square(4))
        .scratchpad_bytes(1 << 20)
        .vertex_placement(VertexPlacement::Interleaved)
        .max_cycles(max_cycles)
        .watchdog_cycles(watchdog_cycles)
        .build()
        .unwrap();
    Simulation::new(config.clone(), graph).unwrap()
}

/// The cycle-limit boundary: `max_cycles` landing exactly on, just below
/// and just above the run's natural completion cycle must produce the
/// same outcome — success or `CycleLimitExceeded { limit }` — on both
/// engines.
#[test]
fn cycle_limit_fires_identically_at_the_exact_boundary() {
    let graph = graph();
    let kernel = SsspKernel::new(0);
    let completion = sim_with_limits(&graph, u64::MAX / 2, u64::MAX / 4)
        .run(&kernel)
        .expect("unlimited run completes")
        .cycles;
    for limit in [
        completion - 2,
        completion - 1,
        completion,
        completion + 1,
        completion + 17,
        completion / 2,
    ] {
        let sim = sim_with_limits(&graph, limit, u64::MAX / 4);
        assert_error_parity(&sim, &kernel, &format!("max_cycles={limit}"));
    }
}

/// A deliberately wedged kernel (a flood whose 5-word invocations can
/// never fit the consumer's 4-word IQ, as in `failure_injection.rs`): the
/// watchdog deadline `last_progress_cycle + watchdog_cycles + 1` is the
/// only exit, and every engine must report the identical `Deadlock`
/// payload — same cycle, same stuck-message census.
struct StuckKernel;

impl Kernel for StuckKernel {
    fn name(&self) -> &str {
        "stuck"
    }
    fn tasks(&self) -> Vec<TaskDecl> {
        vec![
            TaskDecl::new("producer", 16, TaskParams::AutoPop(1)).requires_cq_space(0, 4),
            TaskDecl::new("consumer", 4, TaskParams::AutoPop(5)),
        ]
    }
    fn channels(&self) -> Vec<ChannelDecl> {
        vec![ChannelDecl::new("flood", 1, ArraySpace::Vertex, 1, 8)]
    }
    fn arrays(&self) -> Vec<LocalArrayDecl> {
        vec![]
    }
    fn output_arrays(&self) -> Vec<&'static str> {
        vec![]
    }
    fn bootstrap(&self, ctx: &mut dyn BootstrapContext) {
        if ctx.tile() == 0 {
            let _ = ctx.push_invocation(0, &[1]);
        }
    }
    fn execute(&self, task: usize, params: &[u32], ctx: &mut dyn TaskContext) {
        if task == 0 {
            for _ in 0..4 {
                let _ = ctx.try_send(0, &[params[0]]);
            }
            let _ = ctx.try_push_local(0, params);
        }
    }
    fn on_global_idle(&self, _epoch: usize, _ctx: &mut dyn EpochContext) -> EpochDecision {
        EpochDecision::Finish
    }
}

#[test]
fn watchdog_deadline_fires_identically_on_wedged_pipelines() {
    let graph = RmatConfig::new(7, 4).seed(9).build().unwrap();
    for watchdog in [64u64, 65, 1000, 4999] {
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(1 << 20)
            .vertex_placement(VertexPlacement::Interleaved)
            .max_cycles(1_000_000)
            .watchdog_cycles(watchdog)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let err = sim.run(&StuckKernel).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { .. }),
            "watchdog={watchdog}: expected Deadlock, got {err:?}"
        );
        assert_error_parity(&sim, &StuckKernel, &format!("watchdog={watchdog}"));
    }
}

/// The cycle-limit boundary under a non-empty fault plan:
/// `CycleLimitExceeded` still fires on the identical cycle with the
/// identical payload on both engines.
#[test]
fn cycle_limit_fires_identically_under_faults() {
    let graph = graph();
    let kernel = SsspKernel::new(0);
    let plan: FaultPlan = "stall:tile=3,start=50,end=400;link:tile=5,port=east,start=100,end=800"
        .parse()
        .unwrap();
    let faulted_sim = |max_cycles: u64| {
        let config = SimConfigBuilder::new(GridConfig::square(4))
            .scratchpad_bytes(1 << 20)
            .vertex_placement(VertexPlacement::Interleaved)
            .max_cycles(max_cycles)
            .watchdog_cycles(u64::MAX / 4)
            .faults(plan.clone())
            .build()
            .unwrap();
        Simulation::new(config, &graph).unwrap()
    };
    let completion = faulted_sim(u64::MAX / 2)
        .run(&kernel)
        .expect("faulted run still completes")
        .cycles;
    for limit in [completion - 1, completion, completion + 1, completion / 2] {
        assert_error_parity(
            &faulted_sim(limit),
            &kernel,
            &format!("faulted/max_cycles={limit}"),
        );
    }
}

/// The watchdog boundary under a non-empty fault plan, including a fault
/// transition landing *exactly on* the watchdog deadline.  Both engines
/// must report the identical `Deadlock` payload — `SimError` is
/// `PartialEq`, so the comparison covers the structured diagnostics too.
#[test]
fn watchdog_fires_identically_under_faults_even_on_a_transition_cycle() {
    let graph = RmatConfig::new(7, 4).seed(9).build().unwrap();
    let build = |plan: FaultPlan, watchdog: u64| {
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(1 << 20)
            .vertex_placement(VertexPlacement::Interleaved)
            .max_cycles(1_000_000)
            .watchdog_cycles(watchdog)
            .faults(plan)
            .build()
            .unwrap();
        Simulation::new(config, &graph).unwrap()
    };
    let base: FaultPlan = "slow:tile=1,factor=3,start=10,end=60;stall:tile=0,start=20,end=45"
        .parse()
        .unwrap();
    for watchdog in [64u64, 65, 1000] {
        let sim = build(base.clone(), watchdog);
        let err = sim.run(&StuckKernel).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { .. }),
            "faulted/watchdog={watchdog}: expected Deadlock, got {err:?}"
        );
        assert_error_parity(&sim, &StuckKernel, &format!("faulted/watchdog={watchdog}"));
    }
    // Observe the deadline under the base plan, then open a window exactly
    // on it.  A window opening at the deadline cannot affect any earlier
    // cycle, so the deadline must not move.
    let watchdog = 64u64;
    let SimError::Deadlock { cycle: deadline, .. } =
        build(base.clone(), watchdog).run(&StuckKernel).unwrap_err()
    else {
        panic!("wedged kernel must deadlock");
    };
    let mut plan = base;
    plan.events.push(FaultEvent::RouterStall {
        tile: 1,
        start: deadline,
        end: deadline + 50,
    });
    let sim = build(plan, watchdog);
    let SimError::Deadlock { cycle, .. } = sim.run(&StuckKernel).unwrap_err() else {
        panic!("wedged kernel must deadlock under the extended plan");
    };
    assert_eq!(
        cycle, deadline,
        "a window opening at the deadline must not move the deadline"
    );
    assert_error_parity(&sim, &StuckKernel, "faulted/transition-on-deadline");
}

/// Property-style sweep of both limits near the completion cycle: a grid
/// of `max_cycles` × `watchdog_cycles` values straddling it, including
/// combinations where both limits fall on the same cycle and the tighter
/// one must win on every engine.
#[test]
fn limit_sweep_near_the_event_horizon_stays_in_parity() {
    let graph = graph();
    let kernel = SsspKernel::new(0);
    let completion = sim_with_limits(&graph, u64::MAX / 2, u64::MAX / 4)
        .run(&kernel)
        .expect("unlimited run completes")
        .cycles;
    // Offsets around the completion cycle: deep inside the run, hugging
    // the boundary from both sides, and past it.
    let max_cycle_points = [completion / 3, completion - 1, completion, completion + 3];
    let watchdog_points = [
        completion / 4,
        completion / 2 + 1,
        completion - 1,
        completion + 10,
    ];
    for &max_cycles in &max_cycle_points {
        for &watchdog in &watchdog_points {
            let sim = sim_with_limits(&graph, max_cycles, watchdog);
            assert_error_parity(
                &sim,
                &kernel,
                &format!("max_cycles={max_cycles}/watchdog={watchdog}"),
            );
        }
    }
}
