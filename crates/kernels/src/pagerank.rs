//! PageRank in the Dalorex programming model.
//!
//! PageRank ranks vertices by the potential flow of users to each page
//! (paper Section IV).  The paper notes that PageRank "necessitates
//! per-epoch synchronization": each epoch, every vertex pushes
//! `damping * rank / out_degree` to its out-neighbours, and only after all
//! pushes of the epoch have landed may ranks be updated.  The kernel
//! therefore drives its epochs from the global-idle signal regardless of
//! the simulator's barrier mode, exactly as described in Section III-C
//! (the host triggers the next epoch when the chip goes idle).
//!
//! Arithmetic is integer fixed point with scale
//! [`PAGERANK_ONE`], matching the
//! sequential reference bit for bit.

use dalorex_graph::reference::{PAGERANK_DAMPING, PAGERANK_ONE};
use dalorex_sim::kernel::{
    ArrayInit, BootstrapContext, ChannelDecl, EpochContext, EpochDecision, Kernel, LocalArrayDecl,
    LocalArrayLen, TaskContext, TaskDecl, TaskParams,
};
use dalorex_sim::ArraySpace;

/// Maximum edges covered by one epoch-task→T2 message (see
/// [`crate::propagation::OQT2`]).
const OQT2: u32 = 64;

/// Kernel array holding the fixed-point rank per vertex.
pub const RANK: usize = 0;
/// Kernel array accumulating incoming rank mass during an epoch.
pub const INCOMING: usize = 1;

/// Task indices.
pub const T_EPOCH: usize = 0;
/// See [`T_EPOCH`].
pub const T2_EXPAND: usize = 1;
/// See [`T_EPOCH`].
pub const T3_ACCUMULATE: usize = 2;

/// Channel indices.
pub const CQ1_TO_EDGES: usize = 0;
/// See [`CQ1_TO_EDGES`].
pub const CQ2_TO_VERTICES: usize = 1;

// Per-tile scalar variables (emit/apply progress of the epoch task).
const V_APPLY_NEXT: usize = 0;
const V_EMIT_NEXT: usize = 1;
const V_EMIT_ACTIVE: usize = 2;
const V_EMIT_BEGIN: usize = 3;
const V_EMIT_END: usize = 4;
const V_EMIT_SHARE: usize = 5;
const NUM_VARS: usize = 6;

// Epoch-trigger flag bits.
const FLAG_APPLY: u32 = 1;
const FLAG_EMIT: u32 = 2;

/// Push-based PageRank kernel running a fixed number of epochs.
///
/// The output array `"rank"` holds the fixed-point rank per vertex after
/// the configured number of epochs, comparable to
/// [`dalorex_graph::reference::pagerank`].
///
/// ```
/// use dalorex_kernels::PageRankKernel;
/// let kernel = PageRankKernel::new(10);
/// assert_eq!(kernel.epochs(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct PageRankKernel {
    epochs: usize,
}

impl PageRankKernel {
    /// Creates a PageRank kernel that runs `epochs` push/update rounds.
    pub fn new(epochs: usize) -> Self {
        PageRankKernel { epochs }
    }

    /// Number of epochs this kernel runs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    fn execute_epoch_task(&self, ctx: &mut dyn TaskContext) {
        let Some(flags) = ctx.iq_peek() else {
            return;
        };
        let nlocal = ctx.num_local_vertices();

        // Apply phase: fold the incoming mass of the previous epoch into the
        // ranks and clear the accumulators.
        if flags & FLAG_APPLY != 0 {
            let mut next = ctx.var(V_APPLY_NEXT) as usize;
            let base = (PAGERANK_ONE - PAGERANK_DAMPING) as u32;
            while next < nlocal {
                let incoming = ctx.read(INCOMING, next);
                ctx.write(RANK, next, base.wrapping_add(incoming));
                ctx.write(INCOMING, next, 0);
                ctx.charge_ops(1);
                next += 1;
            }
            ctx.set_var(V_APPLY_NEXT, nlocal as u32);
        }

        // Emit phase: every vertex with out-edges pushes its share to the
        // edge owners, splitting ranges at chunk boundaries and the OQT2 cap.
        if flags & FLAG_EMIT != 0 {
            let chunk = ctx.edges_per_chunk() as u32;
            let mut v = ctx.var(V_EMIT_NEXT) as usize;
            let mut resume = ctx.var(V_EMIT_ACTIVE) == 1;
            while v < nlocal {
                let (mut begin, end, share) = if resume {
                    resume = false;
                    (
                        ctx.var(V_EMIT_BEGIN),
                        ctx.var(V_EMIT_END),
                        ctx.var(V_EMIT_SHARE),
                    )
                } else {
                    let begin = ctx.row_begin(v);
                    let end = ctx.row_end(v);
                    let degree = end - begin;
                    if degree == 0 {
                        ctx.charge_ops(1);
                        v += 1;
                        continue;
                    }
                    let rank = u64::from(ctx.read(RANK, v));
                    let share =
                        ((rank * PAGERANK_DAMPING / PAGERANK_ONE) / u64::from(degree)) as u32;
                    ctx.charge_ops(3);
                    (begin, end, share)
                };
                while begin < end {
                    let tile_boundary = (begin / chunk + 1) * chunk;
                    let piece_end = end.min(tile_boundary).min(begin + OQT2);
                    ctx.charge_ops(3);
                    if !ctx.try_send(CQ1_TO_EDGES, &[begin, piece_end - begin, share]) {
                        ctx.set_var(V_EMIT_ACTIVE, 1);
                        ctx.set_var(V_EMIT_NEXT, v as u32);
                        ctx.set_var(V_EMIT_BEGIN, begin);
                        ctx.set_var(V_EMIT_END, end);
                        ctx.set_var(V_EMIT_SHARE, share);
                        return;
                    }
                    begin = piece_end;
                }
                ctx.set_var(V_EMIT_ACTIVE, 0);
                v += 1;
                ctx.set_var(V_EMIT_NEXT, v as u32);
            }
        }

        // Both phases complete: reset progress state and consume the trigger.
        ctx.set_var(V_APPLY_NEXT, 0);
        ctx.set_var(V_EMIT_NEXT, 0);
        ctx.set_var(V_EMIT_ACTIVE, 0);
        ctx.iq_pop();
    }

    fn execute_expand(&self, params: &[u32], ctx: &mut dyn TaskContext) {
        let begin = params[0] as usize;
        let count = params[1] as usize;
        let share = params[2];
        for i in 0..count {
            let dst = ctx.edge_dst(begin + i);
            let sent = ctx.try_send(CQ2_TO_VERTICES, &[dst, share]);
            debug_assert!(sent, "TSU reserved CQ2 space before dispatching T2");
        }
        ctx.count_edges(count as u64);
    }

    fn execute_accumulate(&self, params: &[u32], ctx: &mut dyn TaskContext) {
        let v = params[0] as usize;
        let share = params[1];
        let incoming = ctx.read(INCOMING, v);
        ctx.write(INCOMING, v, incoming.wrapping_add(share));
    }
}

impl Kernel for PageRankKernel {
    fn name(&self) -> &str {
        "pagerank"
    }

    fn tasks(&self) -> Vec<TaskDecl> {
        vec![
            TaskDecl::new("epoch", 8, TaskParams::SelfManaged)
                .sends(CQ1_TO_EDGES)
                .entry(),
            TaskDecl::new("expand", 192, TaskParams::AutoPop(3))
                .requires_cq_space(CQ2_TO_VERTICES, 2 * OQT2 as usize)
                .sends(CQ2_TO_VERTICES),
            TaskDecl::new("accumulate", 2048, TaskParams::AutoPop(2)),
        ]
    }

    fn channels(&self) -> Vec<ChannelDecl> {
        vec![
            ChannelDecl::new("CQ1", T2_EXPAND, ArraySpace::Edge, 3, 96),
            ChannelDecl::new(
                "CQ2",
                T3_ACCUMULATE,
                ArraySpace::Vertex,
                2,
                4 * OQT2 as usize,
            ),
        ]
    }

    fn arrays(&self) -> Vec<LocalArrayDecl> {
        vec![
            LocalArrayDecl::new(
                "rank",
                LocalArrayLen::PerVertex,
                ArrayInit::Const(PAGERANK_ONE as u32),
            ),
            LocalArrayDecl::new("incoming", LocalArrayLen::PerVertex, ArrayInit::Zero),
        ]
    }

    fn num_tile_vars(&self) -> usize {
        NUM_VARS
    }

    fn output_arrays(&self) -> Vec<&'static str> {
        vec!["rank"]
    }

    fn bootstrap(&self, _ctx: &mut dyn BootstrapContext) {
        // Epochs are driven entirely from the global-idle signal.
    }

    fn execute(&self, task: usize, params: &[u32], ctx: &mut dyn TaskContext) {
        match task {
            T_EPOCH => self.execute_epoch_task(ctx),
            T2_EXPAND => self.execute_expand(params, ctx),
            T3_ACCUMULATE => self.execute_accumulate(params, ctx),
            other => unreachable!("undeclared task {other}"),
        }
    }

    fn on_global_idle(&self, epoch: usize, ctx: &mut dyn EpochContext) -> EpochDecision {
        // Trigger sequence for N epochs: emit, (apply+emit) x (N-1), apply.
        let flags = if self.epochs == 0 || epoch > self.epochs {
            return EpochDecision::Finish;
        } else if epoch == 0 {
            FLAG_EMIT
        } else if epoch == self.epochs {
            FLAG_APPLY
        } else {
            FLAG_APPLY | FLAG_EMIT
        };
        let mut scheduled = false;
        for tile in 0..ctx.num_tiles() {
            if ctx.num_local_vertices(tile) == 0 {
                continue;
            }
            if ctx.push_invocation(tile, T_EPOCH, &[flags]) {
                scheduled = true;
            }
        }
        if scheduled {
            EpochDecision::Continue
        } else {
            EpochDecision::Finish
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalorex_graph::generators::rmat::RmatConfig;
    use dalorex_graph::reference;
    use dalorex_sim::config::{GridConfig, SimConfigBuilder};
    use dalorex_sim::Simulation;

    #[test]
    fn pagerank_matches_fixed_point_reference() {
        let graph = RmatConfig::new(7, 5).seed(17).build().unwrap();
        let epochs = 5;
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(512 * 1024)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&PageRankKernel::new(epochs)).unwrap();
        let expected = reference::pagerank(&graph, epochs);
        let got = outcome.output.as_u64_array("rank");
        assert_eq!(got, expected.ranks());
        // N emit triggers + 1 final apply trigger.
        assert_eq!(outcome.stats.epochs as usize, epochs + 1);
    }

    #[test]
    fn zero_epochs_returns_initial_ranks() {
        let graph = RmatConfig::new(6, 4).seed(1).build().unwrap();
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(512 * 1024)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&PageRankKernel::new(0)).unwrap();
        assert!(outcome
            .output
            .as_u32_array("rank")
            .iter()
            .all(|&r| u64::from(r) == PAGERANK_ONE));
    }

    #[test]
    fn one_epoch_matches_reference() {
        let graph = RmatConfig::new(6, 4).seed(2).build().unwrap();
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(512 * 1024)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&PageRankKernel::new(1)).unwrap();
        let expected = reference::pagerank(&graph, 1);
        assert_eq!(outcome.output.as_u64_array("rank"), expected.ranks());
    }

    #[test]
    fn constructor_exposes_epochs() {
        assert_eq!(PageRankKernel::new(7).epochs(), 7);
        assert_eq!(PageRankKernel::new(7).name(), "pagerank");
    }
}
