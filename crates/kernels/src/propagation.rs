//! The shared value-propagation pipeline behind BFS, SSSP and WCC.
//!
//! Figure 2 of the paper splits the SSSP inner loop into three tasks at its
//! pointer indirections, plus a fourth task that re-explores the local
//! frontier (Listing 1):
//!
//! * **T1 — explore vertex**: read the vertex's value and its adjacency
//!   range, and send one message per tile-chunk piece of that range to the
//!   edge owners (splitting at `EDGES_PER_CHUNK` boundaries and capping each
//!   piece at [`OQT2`] edges so T2 can always run to completion).
//! * **T2 — expand edges**: for every edge in the received range, compute
//!   the neighbour's candidate value and send it to the neighbour's owner.
//! * **T3 — update vertex**: keep the minimum value; when it improves,
//!   insert the vertex into the local bitmap frontier (and, in barrierless
//!   mode, notify T4).
//! * **T4 — re-explore frontier**: drain frontier blocks back into T1's IQ.
//!
//! BFS, SSSP and WCC differ only in their initial values and in how an edge
//! combines the source value into a candidate for the destination; that
//! difference is captured by [`PropagationMode`].

use dalorex_sim::kernel::{
    ArrayInit, BootstrapContext, ChannelDecl, EpochContext, EpochDecision, Kernel, LocalArrayDecl,
    LocalArrayLen, QueueCapacity, TaskContext, TaskDecl, TaskParams,
};
use dalorex_sim::ArraySpace;

/// Maximum number of edges a single T1→T2 message may cover (the paper's
/// `OQT2` constant), chosen so that T2's output always fits the space the
/// TSU reserves on CQ2 before dispatching it.
pub const OQT2: u32 = 64;

/// Kernel array holding the propagated per-vertex value (depth, distance or
/// label).
pub const VALUE: usize = 0;
/// Kernel array holding the local bitmap frontier.
pub const FRONTIER: usize = 1;

/// Task indices.
pub const T1_EXPLORE: usize = 0;
/// See [`T1_EXPLORE`].
pub const T2_EXPAND: usize = 1;
/// See [`T1_EXPLORE`].
pub const T3_UPDATE: usize = 2;
/// See [`T1_EXPLORE`].
pub const T4_FRONTIER: usize = 3;

/// Channel indices.
pub const CQ1_TO_EDGES: usize = 0;
/// See [`CQ1_TO_EDGES`].
pub const CQ2_TO_VERTICES: usize = 1;

// Per-tile scalar variables.
const V_BLOCKS: usize = 0;
const V_T1_ACTIVE: usize = 1;
const V_T1_BEGIN: usize = 2;
const V_T1_END: usize = 3;
const V_T1_VAL: usize = 4;
/// Number of per-tile scalar variables used by the pipeline.
pub const NUM_VARS: usize = 5;

/// What the pipeline propagates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationMode {
    /// Hop counts from a root (BFS): neighbours receive `value + 1` and the
    /// edge weight is never read.
    HopCount,
    /// Weighted distances from a root (SSSP): neighbours receive
    /// `value + weight`.
    WeightedDistance,
    /// Minimum labels (WCC via graph colouring): neighbours receive the
    /// label unchanged; every vertex starts labelled with its own id.
    MinLabel,
}

/// The generic propagation kernel.  Use [`crate::BfsKernel`],
/// [`crate::SsspKernel`] or [`crate::WccKernel`] for the concrete
/// applications.
#[derive(Debug, Clone)]
pub struct PropagationKernel {
    mode: PropagationMode,
    root: Option<u32>,
    name: String,
}

impl PropagationKernel {
    /// Creates a propagation kernel. Rooted modes (BFS, SSSP) require a
    /// root; [`PropagationMode::MinLabel`] activates every vertex instead.
    pub fn new(mode: PropagationMode, root: Option<u32>) -> Self {
        let name = match mode {
            PropagationMode::HopCount => "bfs",
            PropagationMode::WeightedDistance => "sssp",
            PropagationMode::MinLabel => "wcc",
        };
        PropagationKernel {
            mode,
            root,
            name: name.to_string(),
        }
    }

    /// The propagation mode.
    pub fn mode(&self) -> PropagationMode {
        self.mode
    }

    /// The root vertex, if the mode is rooted.
    pub fn root(&self) -> Option<u32> {
        self.root
    }

    fn combine(&self, value: u32, weight: u32) -> u32 {
        match self.mode {
            PropagationMode::HopCount => value.saturating_add(1),
            PropagationMode::WeightedDistance => value.saturating_add(weight),
            PropagationMode::MinLabel => value,
        }
    }

    fn execute_t1(&self, ctx: &mut dyn TaskContext) {
        let Some(v_local) = ctx.iq_peek() else {
            return;
        };
        let v = v_local as usize;
        let (mut begin, end, value) = if ctx.var(V_T1_ACTIVE) == 1 {
            (ctx.var(V_T1_BEGIN), ctx.var(V_T1_END), ctx.var(V_T1_VAL))
        } else {
            (ctx.row_begin(v), ctx.row_end(v), ctx.read(VALUE, v))
        };
        let chunk = ctx.edges_per_chunk() as u32;
        while begin < end {
            let tile_boundary = (begin / chunk + 1) * chunk;
            let piece_end = end.min(tile_boundary).min(begin + OQT2);
            ctx.charge_ops(3);
            if !ctx.try_send(CQ1_TO_EDGES, &[begin, piece_end - begin, value]) {
                // The channel queue is full: remember where we stopped and
                // retry on a later invocation without popping the vertex.
                ctx.set_var(V_T1_ACTIVE, 1);
                ctx.set_var(V_T1_BEGIN, begin);
                ctx.set_var(V_T1_END, end);
                ctx.set_var(V_T1_VAL, value);
                return;
            }
            begin = piece_end;
        }
        ctx.set_var(V_T1_ACTIVE, 0);
        ctx.iq_pop();
    }

    fn execute_t2(&self, params: &[u32], ctx: &mut dyn TaskContext) {
        let begin = params[0] as usize;
        let count = params[1] as usize;
        let value = params[2];
        for i in 0..count {
            let dst = ctx.edge_dst(begin + i);
            let candidate = match self.mode {
                PropagationMode::WeightedDistance => {
                    let weight = ctx.edge_value(begin + i);
                    self.combine(value, weight)
                }
                _ => self.combine(value, 0),
            };
            let sent = ctx.try_send(CQ2_TO_VERTICES, &[dst, candidate]);
            debug_assert!(sent, "TSU reserved CQ2 space before dispatching T2");
        }
        ctx.count_edges(count as u64);
    }

    fn execute_t3(&self, params: &[u32], ctx: &mut dyn TaskContext) {
        let v = params[0] as usize;
        let candidate = params[1];
        let current = ctx.read(VALUE, v);
        if candidate >= current {
            return;
        }
        ctx.write(VALUE, v, candidate);
        let block = v >> 5;
        let bits = ctx.read(FRONTIER, block);
        let mask = 1u32 << (v & 31);
        ctx.write(FRONTIER, block, bits | mask);
        if bits == 0 {
            let blocks = ctx.var(V_BLOCKS);
            ctx.set_var(V_BLOCKS, blocks + 1);
            if !ctx.barrier_mode() {
                let pushed = ctx.try_push_local(T4_FRONTIER, &[block as u32]);
                debug_assert!(pushed, "IQ4 holds one entry per frontier block");
            }
        }
    }

    fn execute_t4(&self, ctx: &mut dyn TaskContext) {
        loop {
            let Some(block) = ctx.iq_peek() else {
                return;
            };
            let block = block as usize;
            let mut bits = ctx.read(FRONTIER, block);
            let base = (block << 5) as u32;
            while bits != 0 {
                if ctx.iq_free(T1_EXPLORE) == 0 {
                    // IQ1 is full: persist the remaining bits and resume on
                    // the next invocation.
                    ctx.write(FRONTIER, block, bits);
                    return;
                }
                let idx = 31 - bits.leading_zeros();
                bits &= !(1u32 << idx);
                ctx.charge_ops(2);
                let pushed = ctx.try_push_local(T1_EXPLORE, &[base + idx]);
                debug_assert!(pushed, "checked iq_free above");
            }
            ctx.write(FRONTIER, block, 0);
            let blocks = ctx.var(V_BLOCKS);
            ctx.set_var(V_BLOCKS, blocks.saturating_sub(1));
            ctx.iq_pop();
        }
    }
}

impl Kernel for PropagationKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tasks(&self) -> Vec<TaskDecl> {
        vec![
            TaskDecl::new("T1-explore", 64, TaskParams::SelfManaged)
                .sends(CQ1_TO_EDGES)
                .entry(),
            TaskDecl::new("T2-expand", 192, TaskParams::AutoPop(3))
                .requires_cq_space(CQ2_TO_VERTICES, 2 * OQT2 as usize)
                .sends(CQ2_TO_VERTICES),
            TaskDecl::new("T3-update", 2048, TaskParams::AutoPop(2)).pushes_local(T4_FRONTIER),
            // T4's output queue is T1's IQ: without the dispatch-time space
            // guarantee, occupancy-priority scheduling can pin a large-IQ4
            // tile on T4 forever while IQ1 sits full (each invocation finds
            // no room, pops nothing, and outranks T1 in the tie-break) — the
            // single-tile scaling_study livelock.  The verifier rediscovers
            // exactly this hazard (V031) if the gate below is removed; see
            // `tests/verifier.rs`.
            TaskDecl::with_capacity(
                "T4-frontier",
                QueueCapacity::VertexBlocks,
                TaskParams::SelfManaged,
            )
            .requires_iq_space(T1_EXPLORE, 1)
            .pushes_local(T1_EXPLORE)
            .entry(),
        ]
    }

    fn channels(&self) -> Vec<ChannelDecl> {
        vec![
            ChannelDecl::new("CQ1", T2_EXPAND, ArraySpace::Edge, 3, 96),
            ChannelDecl::new("CQ2", T3_UPDATE, ArraySpace::Vertex, 2, 4 * OQT2 as usize),
        ]
    }

    fn arrays(&self) -> Vec<LocalArrayDecl> {
        let value_init = match self.mode {
            PropagationMode::MinLabel => ArrayInit::GlobalVertexId,
            _ => ArrayInit::MaxU32,
        };
        vec![
            LocalArrayDecl::new("value", LocalArrayLen::PerVertex, value_init),
            LocalArrayDecl::new("frontier", LocalArrayLen::VertexBitmap, ArrayInit::Zero),
        ]
    }

    fn num_tile_vars(&self) -> usize {
        NUM_VARS
    }

    fn output_arrays(&self) -> Vec<&'static str> {
        vec!["value"]
    }

    fn bootstrap(&self, ctx: &mut dyn BootstrapContext) {
        match self.mode {
            PropagationMode::MinLabel => {
                // Every vertex starts in the frontier: fill the bitmap and
                // queue every block for exploration.
                let nlocal = ctx.num_local_vertices();
                let nblocks = nlocal.div_ceil(32);
                for block in 0..nblocks {
                    let vertices_in_block = (nlocal - block * 32).min(32);
                    let bits = if vertices_in_block == 32 {
                        u32::MAX
                    } else {
                        (1u32 << vertices_in_block) - 1
                    };
                    ctx.write_array(FRONTIER, block, bits);
                    let pushed = ctx.push_invocation(T4_FRONTIER, &[block as u32]);
                    debug_assert!(pushed, "IQ4 holds one entry per block");
                }
                ctx.set_var(V_BLOCKS, nblocks as u32);
            }
            PropagationMode::HopCount | PropagationMode::WeightedDistance => {
                let root = self.root.expect("rooted modes carry a root");
                if let Some(local) = ctx.local_vertex(root) {
                    ctx.write_array(VALUE, local, 0);
                    let pushed = ctx.push_invocation(T1_EXPLORE, &[local as u32]);
                    debug_assert!(pushed, "bootstrap pushes into an empty IQ");
                }
            }
        }
    }

    fn execute(&self, task: usize, params: &[u32], ctx: &mut dyn TaskContext) {
        match task {
            T1_EXPLORE => self.execute_t1(ctx),
            T2_EXPAND => self.execute_t2(params, ctx),
            T3_UPDATE => self.execute_t3(params, ctx),
            T4_FRONTIER => self.execute_t4(ctx),
            other => unreachable!("undeclared task {other}"),
        }
    }

    fn on_global_idle(&self, _epoch: usize, ctx: &mut dyn EpochContext) -> EpochDecision {
        if !ctx.barrier_mode() {
            return EpochDecision::Finish;
        }
        // Barrier mode: the host notices the chip is idle and triggers T4 on
        // every tile that accumulated frontier updates during the epoch.
        let mut scheduled = false;
        for tile in 0..ctx.num_tiles() {
            if ctx.read_var(tile, V_BLOCKS) == 0 {
                continue;
            }
            let blocks = ctx.num_local_vertices(tile).div_ceil(32);
            for block in 0..blocks {
                if ctx.read_array(tile, FRONTIER, block) != 0
                    && ctx.push_invocation(tile, T4_FRONTIER, &[block as u32])
                {
                    scheduled = true;
                }
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
    use dalorex_graph::{reference, CsrGraph};
    use dalorex_sim::config::{BarrierMode, GridConfig, SimConfigBuilder};
    use dalorex_sim::{Simulation, VertexPlacement};

    fn run(
        graph: &CsrGraph,
        kernel: &PropagationKernel,
        barrier: BarrierMode,
        placement: VertexPlacement,
    ) -> Vec<u32> {
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(1024 * 1024)
            .barrier_mode(barrier)
            .vertex_placement(placement)
            .build()
            .unwrap();
        let sim = Simulation::new(config, graph).unwrap();
        let outcome = sim.run(kernel).unwrap();
        outcome.output.as_u32_array("value").to_vec()
    }

    #[test]
    fn kernel_metadata_is_consistent() {
        let kernel = PropagationKernel::new(PropagationMode::HopCount, Some(0));
        assert_eq!(kernel.name(), "bfs");
        assert_eq!(kernel.tasks().len(), 4);
        assert_eq!(kernel.channels().len(), 2);
        assert_eq!(kernel.num_tile_vars(), NUM_VARS);
        assert_eq!(kernel.mode(), PropagationMode::HopCount);
        assert_eq!(kernel.root(), Some(0));
        assert_eq!(
            PropagationKernel::new(PropagationMode::MinLabel, None).name(),
            "wcc"
        );
    }

    #[test]
    fn bfs_matches_reference_on_rmat() {
        let graph = RmatConfig::new(7, 6).seed(11).build().unwrap();
        let expected = reference::bfs(&graph, 0);
        for barrier in [BarrierMode::Barrierless, BarrierMode::EpochBarrier] {
            for placement in [VertexPlacement::Interleaved, VertexPlacement::Chunked] {
                let kernel = PropagationKernel::new(PropagationMode::HopCount, Some(0));
                let value = run(&graph, &kernel, barrier, placement);
                assert_eq!(
                    value,
                    expected.depths(),
                    "mismatch under {barrier:?}/{placement:?}"
                );
            }
        }
    }

    #[test]
    fn sssp_matches_reference_on_rmat() {
        let graph = RmatConfig::new(7, 6).seed(5).build().unwrap();
        let expected = reference::sssp(&graph, 0);
        for barrier in [BarrierMode::Barrierless, BarrierMode::EpochBarrier] {
            let kernel = PropagationKernel::new(PropagationMode::WeightedDistance, Some(0));
            let value = run(&graph, &kernel, barrier, VertexPlacement::Interleaved);
            assert_eq!(value, expected.distances(), "mismatch under {barrier:?}");
        }
    }

    #[test]
    fn wcc_matches_reference_on_symmetric_rmat() {
        let graph = RmatConfig::new(7, 4)
            .seed(9)
            .symmetric(true)
            .build()
            .unwrap();
        let expected = reference::wcc(&graph);
        let kernel = PropagationKernel::new(PropagationMode::MinLabel, None);
        let value = run(
            &graph,
            &kernel,
            BarrierMode::Barrierless,
            VertexPlacement::Interleaved,
        );
        assert_eq!(value, expected.labels());
    }

    #[test]
    fn unreachable_root_yields_all_unreached_except_root() {
        // A graph with an isolated last vertex: rooting there reaches nothing.
        let graph = RmatConfig::new(6, 4).seed(3).build().unwrap();
        let root = (graph.num_vertices() - 1) as u32;
        let expected = reference::bfs(&graph, root);
        let kernel = PropagationKernel::new(PropagationMode::HopCount, Some(root));
        let value = run(
            &graph,
            &kernel,
            BarrierMode::Barrierless,
            VertexPlacement::Interleaved,
        );
        assert_eq!(value, expected.depths());
    }
}
