//! Integration tests for `dalorex-verify`, the static task-graph verifier.
//!
//! Three claims are pinned here:
//!
//! 1. **Zero false positives** — every shipped kernel verifies clean under
//!    [`VerifyMode::Deny`], and a `Deny` run aborts *before the first
//!    simulated cycle* when (and only when) the graph is defective.
//! 2. **The PR 5 livelock is statically rediscovered** — the pre-PR-5
//!    `scaling_study` shape (the shipped propagation kernel with
//!    `T4-frontier`'s `requires_iq_space` escape removed) is rejected with
//!    its stable code, `V031`.  The fixture is derived from the *shipped*
//!    declarations, so if the kernel's queue geometry ever drifts, the
//!    regression pin drifts with it.
//! 3. **The verifier tracks reality** — a property test generates random
//!    small task/channel graphs, runs each through the verifier, and
//!    executes the clean ones on a single tile with a synthetic
//!    message-forwarding kernel: a graph the verifier passes in `Deny`
//!    mode must terminate (no watchdog deadlock, no cycle-limit livelock).

use dalorex::graph::generators::grid2d::GridConfig as Grid2d;
use dalorex::graph::CsrGraph;
use dalorex::kernels::{BfsKernel, PageRankKernel, SpmvKernel, SsspKernel, WccKernel};
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::kernel::{
    BootstrapContext, ChannelDecl, EpochContext, EpochDecision, Kernel, LocalArrayDecl,
    TaskContext, TaskDecl, TaskId, TaskParams,
};
use dalorex::sim::verify::{verify_decls, verify_kernel, VerifyContext, VerifyMode};
use dalorex::sim::{ArraySpace, SimError, Simulation};
use proptest::prelude::*;

fn ctx() -> VerifyContext {
    VerifyContext::paper_default()
}

fn mesh4x4() -> CsrGraph {
    Grid2d::new(4, 4).build().unwrap()
}

#[test]
fn every_shipped_kernel_is_clean_under_deny() {
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(BfsKernel::new(0)),
        Box::new(SsspKernel::new(0)),
        Box::new(WccKernel::new()),
        Box::new(PageRankKernel::new(10)),
        Box::new(SpmvKernel::with_default_input()),
    ];
    for kernel in &kernels {
        let report = verify_kernel(kernel.as_ref(), &ctx());
        assert!(
            !report.has_errors(),
            "shipped kernel must be deny-clean: {report}"
        );
        assert_eq!(
            report.warnings().count(),
            0,
            "shipped kernel warnings must be fixed or suppressed: {report}"
        );
        assert!(
            report.dataflow_analyzed,
            "{} skipped dataflow analysis",
            report.kernel
        );
    }
}

/// The pre-PR-5 `scaling_study` livelock, statically rediscovered: strip
/// `T4-frontier`'s `requires_iq_space` gate from the *shipped* propagation
/// declarations and the verifier must reject the graph with `V031` — the
/// occupancy-priority local-push livelock (T4's workload-sized IQ outranks
/// T1's bounded IQ forever once both fill, and without the gate T4 spins).
#[test]
fn pre_pr5_livelock_fixture_is_rejected_with_v031() {
    let shipped = BfsKernel::new(0).tasks();
    let channels = BfsKernel::new(0).channels();

    // Sanity: the fixture is the shipped kernel minus exactly one gate.
    let frontier = shipped
        .iter()
        .position(|t| t.name.contains("frontier"))
        .expect("shipped propagation kernel has a frontier task");
    assert!(
        !shipped[frontier].iq_space_required.is_empty(),
        "the shipped kernel carries the PR 5 fix"
    );

    let mut fixture = shipped.clone();
    fixture[frontier].iq_space_required.clear();

    let report = verify_decls("scaling_study_pre_pr5", &fixture, &channels, &ctx());
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code("V031"), "{report}");
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == "V031")
        .unwrap();
    assert!(
        diag.subject.contains("frontier"),
        "the finding names the spinning task: {diag}"
    );

    // And the shipped declarations (gate intact) stay clean.
    let clean = verify_decls("scaling_study", &shipped, &channels, &ctx());
    assert!(!clean.has_errors(), "{clean}");
}

/// A deliberately hazardous kernel: self-managed producer with a large IQ,
/// ungated local push into a small consumer IQ — the V031 class, reduced
/// to two tasks.  The body never actually misbehaves (it pops and exits),
/// which is exactly the point: `Deny` rejects the *declarations* before a
/// single cycle runs, while `Warn`/`Off` let the run complete.
struct HazardKernel;

impl Kernel for HazardKernel {
    fn name(&self) -> &str {
        "hazard"
    }
    fn tasks(&self) -> Vec<TaskDecl> {
        vec![
            TaskDecl::new("producer", 64, TaskParams::SelfManaged)
                .pushes_local(1)
                .entry(),
            TaskDecl::new("consumer", 8, TaskParams::AutoPop(1)),
        ]
    }
    fn channels(&self) -> Vec<ChannelDecl> {
        vec![]
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
    fn execute(&self, task: TaskId, _params: &[u32], ctx: &mut dyn TaskContext) {
        if task == 0 {
            ctx.iq_pop();
        }
    }
    fn on_global_idle(&self, _epoch: usize, _ctx: &mut dyn EpochContext) -> EpochDecision {
        EpochDecision::Finish
    }
}

#[test]
fn deny_rejects_hazards_before_the_first_cycle_and_warn_does_not() {
    let graph = mesh4x4();
    let config = |mode: VerifyMode| {
        SimConfigBuilder::new(GridConfig::square(1))
            .scratchpad_bytes(1 << 20)
            .verify(mode)
            .build()
            .unwrap()
    };

    // Deny: the run fails with the verification report before cycle 0.
    let sim = Simulation::new(config(VerifyMode::Deny), &graph).unwrap();
    match sim.run(&HazardKernel) {
        Err(SimError::Verification { report }) => {
            assert!(report.has_code("V031"), "{report}");
        }
        other => panic!("expected a verification error under Deny, got {other:?}"),
    }

    // Warn (the default) and Off: the declarations are hazardous in
    // general but this body never trips the hazard, so the run completes.
    for mode in [VerifyMode::Warn, VerifyMode::Off] {
        let sim = Simulation::new(config(mode), &graph).unwrap();
        let outcome = sim.run(&HazardKernel).unwrap();
        assert!(outcome.cycles > 0, "{mode}");
    }
}

/// A kernel `tasks` tasks and `channels` channels wide whose tasks each
/// auto-pop `autopop` words, every declaration otherwise valid.  Its
/// bootstrap panics: a kernel the verifier rejects must never reach
/// cycle 0.
struct WideKernel {
    tasks: usize,
    channels: usize,
    autopop: usize,
}

impl Kernel for WideKernel {
    fn name(&self) -> &str {
        "wide"
    }
    fn tasks(&self) -> Vec<TaskDecl> {
        (0..self.tasks)
            .map(|_| TaskDecl::new("t", 64, TaskParams::AutoPop(self.autopop)))
            .collect()
    }
    fn channels(&self) -> Vec<ChannelDecl> {
        (0..self.channels)
            .map(|_| ChannelDecl::new("c", 0, ArraySpace::Vertex, 1, 8))
            .collect()
    }
    fn arrays(&self) -> Vec<LocalArrayDecl> {
        vec![]
    }
    fn output_arrays(&self) -> Vec<&'static str> {
        vec![]
    }
    fn bootstrap(&self, _ctx: &mut dyn BootstrapContext) {
        panic!("a kernel the verifier rejects must never reach cycle 0");
    }
    fn execute(&self, _task: TaskId, _params: &[u32], _ctx: &mut dyn TaskContext) {}
    fn on_global_idle(&self, _epoch: usize, _ctx: &mut dyn EpochContext) -> EpochDecision {
        EpochDecision::Finish
    }
}

/// V015: more than 64 tasks (the TSU's ready-mask width) or more than 32
/// channels (the router's channel-mask width) is a structural error under
/// every mode, returned before the first cycle.  The widths themselves
/// verify clean.
#[test]
fn kernels_wider_than_the_masks_are_rejected_with_v015() {
    for (tasks, channels) in [(1, 33), (65, 1)] {
        let kernel = WideKernel {
            tasks,
            channels,
            autopop: 1,
        };
        assert_rejected_before_cycle_0(&kernel, "V015");
    }
    let widest = WideKernel {
        tasks: 64,
        channels: 32,
        autopop: 1,
    };
    let report = verify_kernel(&widest, &ctx());
    assert!(!report.has_code("V015"), "{report}");
}

/// V016: a task auto-popping more than 16 words (the TSU's parameter
/// buffer) is a structural error under every mode, returned before the
/// first cycle.  16 words verify clean.
#[test]
fn tasks_auto_popping_more_than_the_parameter_buffer_are_rejected_with_v016() {
    let kernel = WideKernel {
        tasks: 1,
        channels: 1,
        autopop: 17,
    };
    assert_rejected_before_cycle_0(&kernel, "V016");
    let widest = WideKernel {
        tasks: 1,
        channels: 1,
        autopop: 16,
    };
    let report = verify_kernel(&widest, &ctx());
    assert!(!report.has_code("V016"), "{report}");
}

/// Runs `kernel` under `Off` and `Deny` and asserts that both return a
/// verification error carrying `code` (the kernel's bootstrap panics, so
/// reaching cycle 0 fails the test).
fn assert_rejected_before_cycle_0(kernel: &WideKernel, code: &str) {
    let graph = mesh4x4();
    for mode in [VerifyMode::Off, VerifyMode::Deny] {
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(1 << 20)
            .verify(mode)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        match sim.run(kernel) {
            Err(SimError::Verification { report }) => {
                assert!(report.has_code(code), "{report}");
            }
            other => panic!(
                "{} tasks, {} channels, auto-pop {}: expected {code}, got {other:?}",
                kernel.tasks, kernel.channels, kernel.autopop
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: verifier-clean graphs terminate on a single tile.
// ---------------------------------------------------------------------------

/// A randomly generated task graph, interpreted by [`SyntheticKernel`]:
/// every message is one word, a TTL; every task forwards `ttl - 1` along
/// each of its declared outputs while `ttl > 0`.
#[derive(Debug, Clone)]
struct GraphSpec {
    tasks: Vec<TaskDecl>,
    channels: Vec<ChannelDecl>,
}

/// Interprets a [`GraphSpec`] as a runnable kernel.  Auto-pop tasks
/// forward best-effort (a full destination drops the message — allowed,
/// since an ungated auto-pop producer cannot block).  Self-managed tasks
/// hold their head word until *every* declared output has accepted the
/// forward, tracking already-sent outputs in a per-task tile variable so
/// retries resume instead of duplicating messages — exactly the
/// partial-progress shape that made the PR 5 livelock reachable.
struct SyntheticKernel {
    spec: GraphSpec,
}

impl SyntheticKernel {
    /// Output list of `task`: declared channel sends, then local pushes.
    /// Each entry is `(channel, dest_task)`; `channel` is `None` for a
    /// same-tile local push.
    fn outputs(&self, task: usize) -> Vec<(Option<usize>, usize)> {
        let decl = &self.spec.tasks[task];
        decl.sends
            .iter()
            .map(|&c| (Some(c), self.spec.channels[c].dest_task))
            .chain(decl.local_pushes.iter().map(|&t| (None, t)))
            .collect()
    }
}

impl Kernel for SyntheticKernel {
    fn name(&self) -> &str {
        "synthetic"
    }
    fn tasks(&self) -> Vec<TaskDecl> {
        self.spec.tasks.clone()
    }
    fn channels(&self) -> Vec<ChannelDecl> {
        self.spec.channels.clone()
    }
    fn arrays(&self) -> Vec<LocalArrayDecl> {
        vec![]
    }
    fn num_tile_vars(&self) -> usize {
        // One sent-outputs bitmask per self-managed task.
        self.spec.tasks.len()
    }
    fn output_arrays(&self) -> Vec<&'static str> {
        vec![]
    }
    fn bootstrap(&self, ctx: &mut dyn BootstrapContext) {
        for (t, task) in self.spec.tasks.iter().enumerate() {
            if task.entry {
                // TTL 2: enough to traverse the graph and fan out twice,
                // while keeping total message work bounded.
                let _ = ctx.push_invocation(t, &[2]);
            }
        }
    }
    fn execute(&self, task: TaskId, params: &[u32], ctx: &mut dyn TaskContext) {
        let outputs = self.outputs(task);
        match self.spec.tasks[task].params {
            TaskParams::AutoPop(_) => {
                let ttl = params[0];
                if ttl == 0 {
                    return;
                }
                for &(channel, dest) in &outputs {
                    // Best-effort: a rejected forward is dropped.  (Head
                    // word 0/1 is a valid global vertex index on the 4x4
                    // mesh dataset.)
                    let _ = match channel {
                        Some(c) => ctx.try_send(c, &[ttl - 1]),
                        None => ctx.try_push_local(dest, &[ttl - 1]),
                    };
                }
            }
            TaskParams::SelfManaged => {
                let Some(ttl) = ctx.iq_peek() else {
                    return;
                };
                if ttl > 0 {
                    let mut sent = ctx.var(task);
                    for (i, &(channel, dest)) in outputs.iter().enumerate() {
                        if sent & (1 << i) != 0 {
                            continue;
                        }
                        let accepted = match channel {
                            Some(c) => ctx.try_send(c, &[ttl - 1]),
                            None => ctx.try_push_local(dest, &[ttl - 1]),
                        };
                        if !accepted {
                            // Partial progress: persist what was sent and
                            // retry the rest on the next dispatch.
                            ctx.set_var(task, sent);
                            return;
                        }
                        sent |= 1 << i;
                        ctx.set_var(task, sent);
                    }
                }
                ctx.set_var(task, 0);
                ctx.iq_pop();
            }
        }
    }
    fn on_global_idle(&self, _epoch: usize, _ctx: &mut dyn EpochContext) -> EpochDecision {
        EpochDecision::Finish
    }
}

const TASK_NAMES: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
const CHANNEL_NAMES: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];

/// Random small task graphs, structural defects included: channel and
/// local-push destinations may dangle (`num_tasks + 1` range), so the
/// structurally-rejected part of the space is exercised too.
fn arb_graph_spec() -> impl Strategy<Value = GraphSpec> {
    // (task count, channel count, raw randomness consumed as a stream)
    (
        1usize..5,
        0usize..4,
        proptest::collection::vec(0u32..1_000_000, 40..41),
    )
        .prop_map(|(num_tasks, num_channels, seed)| {
            let mut draw = seed.into_iter().cycle();
            let mut next = move |bound: usize| -> usize {
                if bound == 0 {
                    0
                } else {
                    draw.next().unwrap() as usize % bound
                }
            };
            let mut channels = Vec::new();
            for &name in CHANNEL_NAMES.iter().take(num_channels) {
                let dest = next(num_tasks + 1);
                channels.push(ChannelDecl::new(
                    name,
                    dest,
                    ArraySpace::Vertex,
                    1,
                    1 + next(12),
                ));
            }
            let mut tasks = Vec::new();
            for (t, &name) in TASK_NAMES.iter().enumerate().take(num_tasks) {
                let params = if next(2) == 0 {
                    TaskParams::SelfManaged
                } else {
                    TaskParams::AutoPop(1)
                };
                let mut task = TaskDecl::new(name, 1 + next(15), params);
                // Up to two outputs per task: a channel send and/or a
                // local push (either possibly dangling or self-directed).
                if num_channels > 0 && next(2) == 0 {
                    let c = next(num_channels);
                    task = task.sends(c);
                    if next(2) == 0 {
                        task = task.requires_cq_space(c, 1);
                    }
                }
                if next(3) == 0 {
                    let dest = next(num_tasks + 1);
                    task = task.pushes_local(dest);
                    if next(2) == 0 && dest < num_tasks {
                        task = task.requires_iq_space(dest, 1);
                    }
                }
                if t == 0 || next(3) == 0 {
                    task = task.entry();
                }
                tasks.push(task);
            }
            GraphSpec { tasks, channels }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any graph the verifier passes in `Deny` mode must terminate on a
    /// single-tile run: no watchdog deadlock, no cycle-limit livelock.
    /// (The reverse is not asserted — the hazard passes are deliberately
    /// conservative, and a flagged graph may still happen to terminate.)
    #[test]
    fn verifier_clean_graphs_terminate_on_a_single_tile(spec in arb_graph_spec()) {
        let report = verify_decls("synthetic", &spec.tasks, &spec.channels, &ctx());
        if !report.has_errors() {
            let graph = mesh4x4();
            let config = SimConfigBuilder::new(GridConfig::square(1))
                .scratchpad_bytes(1 << 20)
                .verify(VerifyMode::Deny)
                .max_cycles(200_000)
                .watchdog_cycles(10_000)
                .build()
                .unwrap();
            let sim = Simulation::new(config, &graph).unwrap();
            let kernel = SyntheticKernel { spec: spec.clone() };
            match sim.run(&kernel) {
                Ok(_) => {}
                Err(SimError::Deadlock { .. }) => {
                    panic!("verifier-clean graph deadlocked: {spec:?}\n{report}")
                }
                Err(SimError::CycleLimitExceeded { .. }) => {
                    panic!("verifier-clean graph livelocked: {spec:?}\n{report}")
                }
                Err(other) => panic!("unexpected error on {spec:?}: {other}"),
            }
        }
    }
}
