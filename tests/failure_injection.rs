//! Failure-injection tests: the simulator must reject impossible
//! configurations and detect runs that cannot terminate, rather than
//! producing silently wrong results.

use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::graph::reference;
use dalorex::kernels::{BfsKernel, SsspKernel};
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::kernel::{
    BootstrapContext, ChannelDecl, EpochContext, EpochDecision, Kernel, LocalArrayDecl,
    TaskContext, TaskDecl, TaskParams,
};
use dalorex::sim::placement::VertexPlacement;
use dalorex::sim::{ArraySpace, SimError, Simulation};

#[test]
fn dataset_larger_than_the_scratchpad_is_rejected_up_front() {
    let graph = RmatConfig::new(12, 10).seed(1).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(2))
        .scratchpad_bytes(96 * 1024)
        .build()
        .unwrap();
    let err = Simulation::new(config, &graph).unwrap_err();
    match err {
        SimError::DatasetTooLarge {
            required_bytes,
            scratchpad_bytes,
        } => {
            assert!(required_bytes > scratchpad_bytes);
        }
        other => panic!("expected DatasetTooLarge, got {other:?}"),
    }
}

#[test]
fn zero_sized_configuration_is_rejected() {
    assert!(SimConfigBuilder::new(GridConfig::new(0, 1))
        .build()
        .is_err());
    assert!(SimConfigBuilder::new(GridConfig::square(2))
        .noc_buffer_flits(0)
        .build()
        .is_err());
}

#[test]
fn buffers_the_network_store_cannot_index_are_rejected_at_run() {
    let graph = RmatConfig::new(6, 4).seed(1).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(2))
        .noc_ejection_flits(1 << 16)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let err = sim.run(&BfsKernel::new(0)).unwrap_err();
    match err {
        SimError::InvalidConfig { reason } => assert!(reason.contains("65535"), "{reason}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// A router buffer must hold a message plus an equal bubble, so 5-flit
/// buffers can never take SSSP's 3-flit CQ1 messages.  The verifier
/// rejects the configuration as V010 before the first cycle instead of
/// letting every injection fail until the watchdog reports a deadlock.
/// Buffers of 6 flits run.
#[test]
fn router_buffers_too_small_for_a_kernels_messages_fail_verification() {
    let graph = RmatConfig::new(8, 8).seed(1).build().unwrap();
    let sim = |buffer_flits| {
        let config = SimConfigBuilder::new(GridConfig::square(4))
            .noc_buffer_flits(buffer_flits)
            .build()
            .unwrap();
        Simulation::new(config, &graph).unwrap()
    };
    match sim(5).run(&SsspKernel::new(0)).unwrap_err() {
        SimError::Verification { report } => assert!(report.has_code("V010"), "{report}"),
        other => panic!("expected a V010 verification error, got {other}"),
    }
    let outcome = sim(6).run(&SsspKernel::new(0)).unwrap();
    let distances = reference::sssp(&graph, 0);
    assert_eq!(outcome.output.as_u32_array("value"), distances.distances());
}

#[test]
fn cycle_limit_is_enforced() {
    let graph = RmatConfig::new(9, 8).seed(2).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(2))
        .scratchpad_bytes(1 << 20)
        .max_cycles(50)
        .watchdog_cycles(10)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let err = sim.run(&BfsKernel::new(0)).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::CycleLimitExceeded { limit: 50 } | SimError::Deadlock { .. }
        ),
        "unexpected error {err:?}"
    );
}

/// A deliberately broken kernel: the producer floods a consumer whose
/// parameter count (5 words) can never fit in its 4-word input queue, so
/// the consumer is never eligible, its IQ backs the network up, the
/// producer's channel queue fills, and the whole pipeline wedges.  The
/// watchdog must flag this as a deadlock instead of spinning forever.
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
            // Flood the consumer on another tile with single-word messages
            // it can never consume as full 5-word invocations.
            for _ in 0..4 {
                let _ = ctx.try_send(0, &[params[0]]);
            }
            // Keep the producer alive by re-queueing itself locally.
            let _ = ctx.try_push_local(0, params);
        }
    }
    fn on_global_idle(&self, _epoch: usize, _ctx: &mut dyn EpochContext) -> EpochDecision {
        EpochDecision::Finish
    }
}

#[test]
fn wedged_pipelines_are_reported_as_deadlock_or_cycle_limit() {
    let graph = RmatConfig::new(7, 4).seed(9).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(2))
        .scratchpad_bytes(1 << 20)
        .vertex_placement(VertexPlacement::Interleaved)
        .max_cycles(200_000)
        .watchdog_cycles(5_000)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let err = sim.run(&StuckKernel).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::Deadlock { .. } | SimError::CycleLimitExceeded { .. }
        ),
        "unexpected error {err:?}"
    );
}

#[test]
fn out_of_range_bfs_root_returns_all_unreached_instead_of_crashing() {
    let graph = RmatConfig::new(7, 4).seed(4).build().unwrap();
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
}
