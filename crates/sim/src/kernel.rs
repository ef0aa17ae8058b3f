//! The Dalorex programming model: kernel, task, channel and array
//! declarations.
//!
//! Section III-B of the paper splits a parallel-loop iteration into tasks at
//! every pointer indirection.  Each task reads its parameters from an input
//! queue (IQ), operates only on data local to the tile, and invokes the next
//! task by writing the parameters — head flit first — into a channel queue
//! (CQ) that the network delivers to the tile owning the next datum.  A
//! kernel is the set of task bodies plus the static declarations the TSU
//! needs: queue sizes, parameter counts, channel targets, and the local
//! arrays the tasks operate on.
//!
//! Kernels implement the [`Kernel`] trait; the simulator in
//! [`crate::engine`] provides the execution contexts.

use crate::placement::ArraySpace;
use std::sync::Arc;

/// Index of a task within a kernel (`T1` is task 0, and so on).
pub type TaskId = usize;

/// Index of a kernel-declared local array, in declaration order.
pub type ArrayId = usize;

/// How a task's parameters reach its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskParams {
    /// The TSU pops `n` words from the IQ and passes them as `params` —
    /// like tasks T2 and T3 in the paper's Listing 1.
    AutoPop(usize),
    /// The task reads its IQ itself through peek/pop, allowing partial
    /// progress across invocations — like tasks T1 and T4.
    SelfManaged,
}

/// Capacity of a task's input queue.  Queue sizes are configured when the
/// program is loaded (paper Section III-E), so they may depend on the size
/// of the tile's data chunk — e.g. the frontier-exploration task T4 declares
/// an IQ of `FRONTIER_LEN = NODES_PER_CHUNK / 32` entries in Listing 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueCapacity {
    /// A fixed number of 32-bit words.
    Words(usize),
    /// One word per locally owned vertex.
    PerVertex,
    /// One word per 32 locally owned vertices (`FRONTIER_LEN`).
    VertexBlocks,
}

/// Static declaration of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDecl {
    /// Short name used in statistics ("T1", "explore", ...).
    pub name: &'static str,
    /// Input-queue capacity.
    pub iq_capacity: QueueCapacity,
    /// Parameter-delivery mode.
    pub params: TaskParams,
    /// Output-space guarantees the TSU must check before dispatch: pairs of
    /// `(channel, words)` meaning "only invoke this task when channel's CQ
    /// has at least `words` free".  Tasks that check fullness themselves
    /// (T1) leave this empty.
    pub cq_space_required: Vec<(usize, usize)>,
    /// Output-space guarantees on *local* input queues: pairs of
    /// `(task, words)` meaning "only invoke this task when `task`'s IQ has
    /// at least `words` free".  A task whose output is a local push (the
    /// frontier re-explore task T4 pushes into T1's IQ) declares its
    /// output-queue requirement here, exactly as a channel-writing task
    /// declares `cq_space_required`: the TSU must not dispatch a task whose
    /// output queue cannot absorb any progress, or an occupancy-priority
    /// schedule can spin it forever against the full queue (the single-tile
    /// T4/T1 livelock).
    pub iq_space_required: Vec<(usize, usize)>,
    /// Declared dataflow: channels this task's body writes through
    /// [`TaskContext::try_send`].  Purely descriptive — the simulator does
    /// not enforce it — but it is what lets the static verifier
    /// ([`crate::verify`]) build the producer graph and prove the absence
    /// of capacity cycles and occupancy-priority livelocks before the first
    /// simulated cycle.  Kernels that declare no dataflow at all skip those
    /// analysis passes.
    pub sends: Vec<usize>,
    /// Declared dataflow: tasks whose IQ this task's body pushes into
    /// through [`TaskContext::try_push_local`] (same-tile chaining, e.g.
    /// T3 → IQ4 and T4 → IQ1).  See [`TaskDecl::sends`].
    pub local_pushes: Vec<TaskId>,
    /// Whether the host injects invocations into this task's IQ from
    /// outside the task graph ([`Kernel::bootstrap`] or
    /// [`Kernel::on_global_idle`]).  Entry tasks seed the verifier's
    /// reachability analysis.
    pub entry: bool,
}

impl TaskDecl {
    /// Creates a task declaration with a fixed IQ capacity in words and no
    /// dispatch-time output guarantee.
    pub fn new(name: &'static str, iq_capacity_words: usize, params: TaskParams) -> Self {
        TaskDecl {
            name,
            iq_capacity: QueueCapacity::Words(iq_capacity_words),
            params,
            cq_space_required: Vec::new(),
            iq_space_required: Vec::new(),
            sends: Vec::new(),
            local_pushes: Vec::new(),
            entry: false,
        }
    }

    /// Creates a task declaration whose IQ capacity scales with the tile's
    /// data chunk.
    pub fn with_capacity(
        name: &'static str,
        iq_capacity: QueueCapacity,
        params: TaskParams,
    ) -> Self {
        TaskDecl {
            name,
            iq_capacity,
            params,
            cq_space_required: Vec::new(),
            iq_space_required: Vec::new(),
            sends: Vec::new(),
            local_pushes: Vec::new(),
            entry: false,
        }
    }

    /// Adds a dispatch-time guarantee: the task only runs when `channel` has
    /// at least `words` free entries.
    pub fn requires_cq_space(mut self, channel: usize, words: usize) -> Self {
        self.cq_space_required.push((channel, words));
        self
    }

    /// Adds a dispatch-time guarantee on a local IQ: the task only runs
    /// when `task`'s input queue has at least `words` free entries.  Declare
    /// this for tasks whose output is a local push into another task's IQ.
    pub fn requires_iq_space(mut self, task: TaskId, words: usize) -> Self {
        self.iq_space_required.push((task, words));
        self
    }

    /// Declares that this task's body sends messages on `channel` (see
    /// [`TaskDecl::sends`]).
    pub fn sends(mut self, channel: usize) -> Self {
        self.sends.push(channel);
        self
    }

    /// Declares that this task's body pushes invocations into `task`'s IQ
    /// on the same tile (see [`TaskDecl::local_pushes`]).
    pub fn pushes_local(mut self, task: TaskId) -> Self {
        self.local_pushes.push(task);
        self
    }

    /// Marks this task as a host entry point: the bootstrap or the
    /// global-idle hook pushes invocations into its IQ.
    pub fn entry(mut self) -> Self {
        self.entry = true;
        self
    }
}

/// Static declaration of one network channel (CQ → remote IQ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDecl {
    /// Short name used in statistics ("CQ1", ...).
    pub name: &'static str,
    /// Task whose IQ receives messages sent on this channel.
    pub dest_task: TaskId,
    /// Array space the head flit indexes; the head encoder derives the
    /// destination tile from it, and the head decoder converts it to a local
    /// offset at the receiver.
    pub space: ArraySpace,
    /// Flits per message (the head plus the remaining parameters).
    pub flits_per_message: usize,
    /// Capacity of the sending side's channel queue, in words.
    pub cq_capacity_words: usize,
}

impl ChannelDecl {
    /// Creates a channel declaration.
    pub fn new(
        name: &'static str,
        dest_task: TaskId,
        space: ArraySpace,
        flits_per_message: usize,
        cq_capacity_words: usize,
    ) -> Self {
        ChannelDecl {
            name,
            dest_task,
            space,
            flits_per_message,
            cq_capacity_words,
        }
    }
}

/// Length of a kernel-declared local array, per tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalArrayLen {
    /// One word per locally owned vertex.
    PerVertex,
    /// One word per locally owned edge.
    PerEdge,
    /// One word per 32 locally owned vertices (a frontier bitmap).
    VertexBitmap,
    /// A fixed number of words.
    Words(usize),
}

/// Initial contents of a kernel-declared local array.
#[derive(Clone)]
pub enum ArrayInit {
    /// All zeros.
    Zero,
    /// All entries set to a constant.
    Const(u32),
    /// All entries set to `u32::MAX` (the "unreached" sentinel).
    MaxU32,
    /// Per-vertex arrays only: entry for global vertex `v` set to `v` (used
    /// by WCC's initial labels).
    GlobalVertexId,
    /// Per-vertex arrays only: entry for global vertex `v` set to `f(v)`
    /// (used by SPMV's input vector).
    PerVertexFn(Arc<dyn Fn(u32) -> u32 + Send + Sync>),
}

impl std::fmt::Debug for ArrayInit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayInit::Zero => write!(f, "Zero"),
            ArrayInit::Const(v) => write!(f, "Const({v})"),
            ArrayInit::MaxU32 => write!(f, "MaxU32"),
            ArrayInit::GlobalVertexId => write!(f, "GlobalVertexId"),
            ArrayInit::PerVertexFn(_) => write!(f, "PerVertexFn(..)"),
        }
    }
}

/// Static declaration of one kernel-local array.
#[derive(Debug, Clone)]
pub struct LocalArrayDecl {
    /// Array name; output arrays are gathered by this name.
    pub name: &'static str,
    /// Per-tile length.
    pub len: LocalArrayLen,
    /// Initial contents.
    pub init: ArrayInit,
}

impl LocalArrayDecl {
    /// Creates an array declaration.
    pub fn new(name: &'static str, len: LocalArrayLen, init: ArrayInit) -> Self {
        LocalArrayDecl { name, len, init }
    }
}

/// Decision returned by [`Kernel::on_global_idle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochDecision {
    /// More work was scheduled; run another epoch.
    Continue,
    /// The computation is complete.
    Finish,
}

/// A kernel written for the Dalorex programming model.
///
/// The declaration methods ([`Kernel::tasks`], [`Kernel::channels`],
/// [`Kernel::arrays`]) are called once at simulation setup; they must return
/// the same declarations every time.  [`Kernel::execute`] is the task body
/// dispatched by the TSU; it must only touch tile-local state through the
/// provided context (that restriction is what makes every memory operation
/// local, the core of the paper's execution model).
pub trait Kernel {
    /// Kernel name used in reports ("bfs", "sssp", ...).
    fn name(&self) -> &str;

    /// Task declarations, `T1` first.
    fn tasks(&self) -> Vec<TaskDecl>;

    /// Channel declarations.
    fn channels(&self) -> Vec<ChannelDecl>;

    /// Kernel-local array declarations.
    fn arrays(&self) -> Vec<LocalArrayDecl>;

    /// Number of per-tile scalar variables (the paper's "memory-stored
    /// variables" such as `blocks_in_frontier`).
    fn num_tile_vars(&self) -> usize {
        0
    }

    /// Names of the arrays that constitute the kernel's output, gathered
    /// into global order at the end of the run.
    fn output_arrays(&self) -> Vec<&'static str>;

    /// Called once per tile before the first cycle; pushes the initial task
    /// invocations (e.g. the BFS root into T1's IQ on the root's owner).
    fn bootstrap(&self, ctx: &mut dyn BootstrapContext);

    /// The task bodies. `params` holds the auto-popped parameters for
    /// [`TaskParams::AutoPop`] tasks and is empty for self-managed tasks.
    fn execute(&self, task: TaskId, params: &[u32], ctx: &mut dyn TaskContext);

    /// Called whenever the whole chip (tiles and network) is idle. Barrier
    /// kernels trigger the next epoch here; barrierless kernels return
    /// [`EpochDecision::Finish`] once nothing remains.
    fn on_global_idle(&self, epoch: usize, ctx: &mut dyn EpochContext) -> EpochDecision;

    /// Diagnostic codes from [`crate::verify`] this kernel deliberately
    /// suppresses (e.g. `"V041"`).  Use sparingly, with a comment next to
    /// the override justifying each code: a suppression silences the
    /// finding for every run of this kernel.
    fn verify_suppressions(&self) -> Vec<&'static str> {
        Vec::new()
    }
}

/// Context handed to [`Kernel::bootstrap`], scoped to one tile.
pub trait BootstrapContext {
    /// This tile's id.
    fn tile(&self) -> usize;
    /// Number of vertices this tile owns.
    fn num_local_vertices(&self) -> usize;
    /// Number of edges this tile owns.
    fn num_local_edges(&self) -> usize;
    /// Local offset of global vertex `v` if this tile owns it.
    fn local_vertex(&self, global: u32) -> Option<usize>;
    /// Global id of the local vertex at `local`.
    fn global_vertex(&self, local: usize) -> u32;
    /// Pushes an invocation into a local task's IQ; returns false if full.
    fn push_invocation(&mut self, task: TaskId, words: &[u32]) -> bool;
    /// Sets a per-tile scalar variable.
    fn set_var(&mut self, index: usize, value: u32);
    /// Writes directly into a local array (initial state beyond `ArrayInit`).
    fn write_array(&mut self, array: ArrayId, index: usize, value: u32);
    /// Reads a local array entry.
    fn read_array(&self, array: ArrayId, index: usize) -> u32;
}

/// Context handed to [`Kernel::execute`]; every access is tile-local and is
/// charged to the tile's cycle/energy counters.
pub trait TaskContext {
    // ---- identity and geometry -------------------------------------------
    /// This tile's id.
    fn tile(&self) -> usize;
    /// Number of vertices this tile owns.
    fn num_local_vertices(&self) -> usize;
    /// Number of edges this tile owns.
    fn num_local_edges(&self) -> usize;
    /// Vertex chunk capacity per tile (`NODES_PER_CHUNK`).
    fn vertices_per_chunk(&self) -> usize;
    /// Edge chunk capacity per tile (`EDGES_PER_CHUNK`).
    fn edges_per_chunk(&self) -> usize;
    /// Global id of the local vertex at `local`.
    fn global_vertex(&self, local: usize) -> u32;
    /// Whether the simulation runs with per-epoch barriers
    /// ([`crate::config::BarrierMode::EpochBarrier`]).
    fn barrier_mode(&self) -> bool;

    // ---- CSR chunk (read-only dataset arrays) ----------------------------
    /// Global edge index at which local vertex `local`'s out-edges start.
    fn row_begin(&mut self, local: usize) -> u32;
    /// Global edge index one past local vertex `local`'s out-edges.
    fn row_end(&mut self, local: usize) -> u32;
    /// Destination (global vertex id) of the local edge at `local`.
    fn edge_dst(&mut self, local: usize) -> u32;
    /// Weight of the local edge at `local`.
    fn edge_value(&mut self, local: usize) -> u32;

    // ---- kernel arrays and variables -------------------------------------
    /// Reads a kernel array entry.
    fn read(&mut self, array: ArrayId, index: usize) -> u32;
    /// Writes a kernel array entry.
    fn write(&mut self, array: ArrayId, index: usize, value: u32);
    /// Reads a per-tile scalar variable.
    fn var(&mut self, index: usize) -> u32;
    /// Writes a per-tile scalar variable.
    fn set_var(&mut self, index: usize, value: u32);

    // ---- queues ------------------------------------------------------------
    /// Free words in a channel queue.
    fn cq_free(&self, channel: usize) -> usize;
    /// Sends one message (head flit = **global** index into the channel's
    /// array space) if the CQ has room; returns whether it was accepted.
    fn try_send(&mut self, channel: usize, words: &[u32]) -> bool;
    /// Free words in a local task's IQ.
    fn iq_free(&self, task: TaskId) -> usize;
    /// Pushes an invocation into a local task's IQ (same-tile task chaining,
    /// e.g. T3 → IQ4); returns whether it was accepted.
    fn try_push_local(&mut self, task: TaskId, words: &[u32]) -> bool;
    /// Peeks the head word of the *current* task's IQ (self-managed tasks).
    fn iq_peek(&mut self) -> Option<u32>;
    /// Pops the head word of the current task's IQ (self-managed tasks).
    fn iq_pop(&mut self) -> Option<u32>;
    /// Words currently queued in the current task's IQ.
    fn iq_len(&self) -> usize;

    // ---- accounting --------------------------------------------------------
    /// Charges `n` ALU operations to the current invocation.
    fn charge_ops(&mut self, n: u64);
    /// Records `n` edges as processed (the work-efficiency metric of
    /// Figures 6 and 7).
    fn count_edges(&mut self, n: u64);

    // ---- routing helpers ---------------------------------------------------
    /// Splits the global edge range `[begin, end)` at tile-chunk boundaries,
    /// streaming `(owner_tile, begin, end)` per piece to `part` — what task
    /// T1 does when a neighbour range crosses `EDGES_PER_CHUNK`.  The
    /// pieces are streamed, so task bodies allocate nothing.
    fn for_each_edge_part(&mut self, begin: u32, end: u32, part: &mut dyn FnMut(usize, u32, u32));
}

/// Context handed to [`Kernel::on_global_idle`], spanning all tiles.
pub trait EpochContext {
    /// Number of tiles.
    fn num_tiles(&self) -> usize;
    /// Number of vertices owned by `tile`.
    fn num_local_vertices(&self, tile: usize) -> usize;
    /// Reads a per-tile scalar variable.
    fn read_var(&self, tile: usize, index: usize) -> u32;
    /// Reads a kernel array entry on `tile`.
    fn read_array(&self, tile: usize, array: ArrayId, index: usize) -> u32;
    /// Writes a kernel array entry on `tile` (host-mediated, charged as a
    /// broadcast rather than per-word traffic).
    fn write_array(&mut self, tile: usize, array: ArrayId, index: usize, value: u32);
    /// Sets a per-tile scalar variable.
    fn set_var(&mut self, tile: usize, index: usize, value: u32);
    /// Pushes an invocation into a task's IQ on `tile`; returns false if the
    /// queue is full.
    fn push_invocation(&mut self, tile: usize, task: TaskId, words: &[u32]) -> bool;
    /// Whether the simulation runs with per-epoch barriers.
    fn barrier_mode(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_decl_builder_accumulates_requirements() {
        let decl = TaskDecl::new("T2", 128, TaskParams::AutoPop(3))
            .requires_cq_space(1, 64)
            .requires_cq_space(2, 8);
        assert_eq!(decl.cq_space_required, vec![(1, 64), (2, 8)]);
        assert_eq!(decl.params, TaskParams::AutoPop(3));
    }

    #[test]
    fn array_init_debug_is_nonempty() {
        let inits = [
            ArrayInit::Zero,
            ArrayInit::Const(7),
            ArrayInit::MaxU32,
            ArrayInit::GlobalVertexId,
            ArrayInit::PerVertexFn(Arc::new(|v| v * 2)),
        ];
        for init in inits {
            assert!(!format!("{init:?}").is_empty());
        }
    }

    #[test]
    fn channel_decl_holds_fields() {
        let decl = ChannelDecl::new("CQ1", 1, ArraySpace::Edge, 3, 128);
        assert_eq!(decl.dest_task, 1);
        assert_eq!(decl.flits_per_message, 3);
        assert_eq!(decl.space, ArraySpace::Edge);
    }
}
