//! Per-tile state: the distributed dataset chunk, kernel arrays, queues and
//! activity counters.
//!
//! A Dalorex tile (paper Fig. 4) is dominated by its scratchpad, which holds
//! the tile's chunk of every dataset array, the kernel's state arrays, the
//! task code and the queues.  [`TileCsr`] is the read-only dataset chunk
//! produced by distributing a [`dalorex_graph::CsrGraph`] with a
//! [`crate::placement::Placement`]; [`TileState`] is the mutable
//! part (kernel arrays, variables, queues, counters).
//!
//! # Arena layout
//!
//! The mutable scratchpad image of a tile is a single `Vec<u32>` arena slab
//! laid out `[kernel arrays][variables][IQ rings][CQ rings]`, indexed by
//! `u32` spans ([`crate::queues::WordQueue`] descriptors and array spans) —
//! one allocation per tile instead of one per array and per queue, sized
//! exactly like the hardware scratchpad it models.  Every tile builds its
//! slab when the run starts, from the declaration-derived metadata shared
//! across the grid behind an `Arc` ([`TileInit`]: capacity rules, array
//! declarations, readiness metadata), with the kernel arrays holding their
//! declared initial values.  [`TileState::arena_bytes`] is what the memory
//! budget report sums per tile.
//!
//! # Incremental readiness tracking
//!
//! [`TileState`] is on the engine's per-tile per-cycle path, so it answers
//! the TSU's standing questions in O(1) instead of rescanning queues:
//!
//! * **Queued work?** — a single queued-word counter, maintained at every
//!   queue mutation, makes [`TileState::has_queued_work`] a counter test.
//! * **Which task can dispatch?** — a per-tile *task-ready bitmask* (bit
//!   `t` set when task `t` satisfies [`crate::tsu::Scheduler::is_eligible`])
//!   is updated at the mutation points; the scheduler walks set bits
//!   instead of probing queues.
//! * **Which channel can inject?** — a *channel-ready bitmask* (bit `c`
//!   set when channel `c`'s CQ holds at least one full message) drives the
//!   engine's inject loop.
//!
//! Every queue mutation therefore goes through a [`TileState`] method
//! (`push_iq`, `pop_cq_into`, ...) rather than touching a queue directly;
//! the queues themselves are read-only to the outside
//! ([`TileState::iqs`] / [`TileState::cqs`]).  The mask-free rescans the
//! masks replaced are preserved as [`TileState::is_idle_scan`] and
//! [`crate::tsu::Scheduler::pick_reference`], which the engine's reference
//! tile path and the equivalence tests drive.
//!
//! The masks are [`MAX_TASKS`] and [`dalorex_noc::MAX_CHANNELS`] bits wide
//! (the paper's kernels declare at most four tasks and channels); the
//! verifier rejects wider kernels before the first cycle (V015), and tasks
//! auto-popping more than [`MAX_AUTOPOP_WORDS`] parameters (V016), which
//! the engine's stack buffers cannot hold.

use crate::kernel::{
    ArrayInit, ChannelDecl, LocalArrayDecl, LocalArrayLen, QueueCapacity, TaskDecl, TaskParams,
};
use crate::placement::{ArraySpace, Placement};
use crate::queues::WordQueue;
use dalorex_graph::CsrGraph;
use std::sync::Arc;

/// The most tasks a kernel may declare: the width of the per-tile
/// task-ready bitmask.
pub const MAX_TASKS: usize = 64;

/// The most parameter words a task may auto-pop per invocation: the size
/// of the stack buffer the TSU pops them into.
pub const MAX_AUTOPOP_WORDS: usize = 16;

/// The read-only chunk of the dataset owned by one tile.
///
/// Instead of replicating the paper's `ptr` array (whose entry `v+1` may
/// live on a different tile), each tile stores, per owned vertex, the global
/// begin and end edge indices of that vertex's adjacency — the same two
/// words task T1 reads, local under any vertex placement.  `DESIGN.md` §2
/// records this representation choice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileCsr {
    /// Global edge index where each owned vertex's out-edges begin.
    pub row_begin: Vec<u32>,
    /// Global edge index one past each owned vertex's out-edges.
    pub row_end: Vec<u32>,
    /// Destination vertex (global id) of each owned edge.
    pub edge_idx: Vec<u32>,
    /// Weight of each owned edge.
    pub edge_values: Vec<u32>,
}

impl TileCsr {
    /// Scratchpad bytes occupied by this chunk (32-bit words).
    pub fn footprint_bytes(&self) -> usize {
        4 * (self.row_begin.len()
            + self.row_end.len()
            + self.edge_idx.len()
            + self.edge_values.len())
    }
}

/// Distributes a graph across tiles according to a placement.
///
/// Tile `t` receives `row_begin`/`row_end` for every vertex it owns (in
/// local-offset order) and the contiguous edge chunk
/// `[t * edges_per_tile, (t+1) * edges_per_tile)`.
pub fn distribute_graph(graph: &CsrGraph, placement: &Placement) -> Vec<TileCsr> {
    let num_tiles = placement.num_tiles();
    let mut chunks: Vec<TileCsr> = (0..num_tiles)
        .map(|tile| {
            let vertices = placement.local_len(ArraySpace::Vertex, tile);
            let edges = placement.local_len(ArraySpace::Edge, tile);
            TileCsr {
                row_begin: vec![0; vertices],
                row_end: vec![0; vertices],
                edge_idx: Vec::with_capacity(edges),
                edge_values: Vec::with_capacity(edges),
            }
        })
        .collect();

    let ptr = graph.ptr();
    for v in 0..graph.num_vertices() {
        let tile = placement.owner(ArraySpace::Vertex, v);
        let local = placement.to_local(ArraySpace::Vertex, v);
        chunks[tile].row_begin[local] = ptr[v];
        chunks[tile].row_end[local] = ptr[v + 1];
    }
    for e in 0..graph.num_edges() {
        let tile = placement.owner(ArraySpace::Edge, e);
        debug_assert_eq!(
            placement.to_local(ArraySpace::Edge, e),
            chunks[tile].edge_idx.len()
        );
        chunks[tile].edge_idx.push(graph.edge_idx()[e]);
        chunks[tile].edge_values.push(graph.edge_values()[e]);
    }
    chunks
}

/// Activity counters accumulated by one tile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileCounters {
    /// 32-bit scratchpad reads (arrays, variables and queue entries).
    pub sram_reads: u64,
    /// 32-bit scratchpad writes.
    pub sram_writes: u64,
    /// PU operations (ALU plus queue-register operations).
    pub pu_ops: u64,
    /// Cycles during which the PU was executing a task.
    pub pu_busy_cycles: u64,
    /// Invocations executed, one entry per declared task.
    pub task_invocations: Vec<u64>,
    /// Edges processed (reported by the kernel via `count_edges`).
    pub edges_processed: u64,
    /// Messages sent into the network from this tile.
    pub messages_sent: u64,
    /// Messages drained from this tile's ejection buffers into task IQs.
    /// With `endpoint_drains_per_cycle > 1` a tile can receive several per
    /// cycle; conservation (`received == delivered` network-wide at
    /// quiescence) is what the property suite checks.
    pub messages_received: u64,
    /// Task dispatches whose PU cost a fault-plan PU slowdown multiplied.
    /// The fault counters feed the per-run `FaultReport`, not `SimStats` —
    /// they are attribution metadata, not modelled activity.
    pub fault_dispatches_slowed: u64,
    /// Extra PU-busy cycles those slowed dispatches cost versus fault-free.
    pub fault_extra_pu_cycles: u64,
    /// Messages drained or injected on cycles an endpoint-throttle fault
    /// capped this tile's bandwidth.
    pub fault_throttled_messages: u64,
}

/// Per-task scheduling metadata derived from the kernel declarations once,
/// at [`TileInit`] construction, so the readiness masks can be recomputed
/// without consulting the declarations again.
#[derive(Debug)]
struct ReadyMeta {
    /// Minimum IQ words for the task to have input: `AutoPop(n)` needs `n`,
    /// `SelfManaged` needs 1, and the (invalid, engine-rejected)
    /// `AutoPop(0)` is encoded as `usize::MAX` so it is never ready —
    /// exactly the `n > 0` guard in `Scheduler::is_eligible`.
    iq_need: Vec<usize>,
    /// Per task, the `(channel, words)` output-space guarantees.
    cq_reqs: Vec<Box<[(usize, usize)]>>,
    /// Per task, the `(task, words)` local-IQ output-space guarantees.
    iq_reqs: Vec<Box<[(usize, usize)]>>,
    /// Per channel, the tasks whose eligibility watches that CQ's free
    /// space (the reverse map of `cq_reqs`).
    cq_watchers: Vec<Box<[usize]>>,
    /// Per task IQ, the *other* tasks whose eligibility watches its free
    /// space (the reverse map of `iq_reqs`).
    iq_watchers: Vec<Box<[usize]>>,
    /// Per channel, the words of one full message (`flits_per_message`).
    cq_msg_words: Vec<usize>,
}

impl ReadyMeta {
    fn new(tasks: &[TaskDecl], channels: &[ChannelDecl]) -> Self {
        let iq_need = tasks
            .iter()
            .map(|t| match t.params {
                TaskParams::AutoPop(0) => usize::MAX,
                TaskParams::AutoPop(n) => n,
                TaskParams::SelfManaged => 1,
            })
            .collect();
        let cq_reqs: Vec<Box<[(usize, usize)]>> = tasks
            .iter()
            .map(|t| t.cq_space_required.clone().into_boxed_slice())
            .collect();
        let mut cq_watchers: Vec<Vec<usize>> = vec![Vec::new(); channels.len()];
        for (task, reqs) in cq_reqs.iter().enumerate() {
            for &(channel, _) in reqs.iter() {
                if channel < channels.len() && !cq_watchers[channel].contains(&task) {
                    cq_watchers[channel].push(task);
                }
            }
        }
        let iq_reqs: Vec<Box<[(usize, usize)]>> = tasks
            .iter()
            .map(|t| t.iq_space_required.clone().into_boxed_slice())
            .collect();
        let mut iq_watchers: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
        for (task, reqs) in iq_reqs.iter().enumerate() {
            for &(watched, _) in reqs.iter() {
                if watched < tasks.len() && watched != task && !iq_watchers[watched].contains(&task)
                {
                    iq_watchers[watched].push(task);
                }
            }
        }
        ReadyMeta {
            iq_need,
            cq_reqs,
            iq_reqs,
            cq_watchers: cq_watchers.into_iter().map(Vec::into_boxed_slice).collect(),
            iq_watchers: iq_watchers.into_iter().map(Vec::into_boxed_slice).collect(),
            cq_msg_words: channels.iter().map(|c| c.flits_per_message).collect(),
        }
    }
}

/// Declaration-derived tile metadata, built once per run and shared across
/// every [`TileState`] behind an `Arc`: what a tile's arena is built from,
/// and what its readiness masks are maintained by.
#[derive(Debug)]
pub struct TileInit {
    /// Per-task IQ capacity rule.
    iq_capacity: Vec<QueueCapacity>,
    /// Per-channel CQ capacity in words.
    cq_capacity_words: Vec<usize>,
    /// Kernel array declarations, in declaration order.
    arrays: Vec<LocalArrayDecl>,
    /// Number of per-tile scalar variables.
    num_vars: usize,
    /// Readiness metadata (see [`ReadyMeta`]).
    meta: ReadyMeta,
}

impl TileInit {
    /// Captures the kernel declarations' tile-shaping facts.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_TASKS`] tasks or more than
    /// [`dalorex_noc::MAX_CHANNELS`] channels, which the readiness masks
    /// cannot represent (the verifier reports such kernels as V015).
    pub fn new(
        tasks: &[TaskDecl],
        channels: &[ChannelDecl],
        arrays: &[LocalArrayDecl],
        num_vars: usize,
    ) -> Self {
        assert!(
            tasks.len() <= MAX_TASKS && channels.len() <= dalorex_noc::MAX_CHANNELS,
            "a tile supports at most {MAX_TASKS} tasks and {} channels, got {} and {}",
            dalorex_noc::MAX_CHANNELS,
            tasks.len(),
            channels.len()
        );
        TileInit {
            iq_capacity: tasks.iter().map(|t| t.iq_capacity).collect(),
            cq_capacity_words: channels.iter().map(|c| c.cq_capacity_words).collect(),
            arrays: arrays.to_vec(),
            num_vars,
            meta: ReadyMeta::new(tasks, channels),
        }
    }

    /// Number of declared tasks.
    pub fn num_tasks(&self) -> usize {
        self.iq_capacity.len()
    }
}

/// Declared length of a kernel array on a tile owning `local_vertices`
/// vertices and `local_edges` edges.
fn declared_array_len(len: LocalArrayLen, local_vertices: usize, local_edges: usize) -> usize {
    match len {
        LocalArrayLen::PerVertex => local_vertices,
        LocalArrayLen::PerEdge => local_edges,
        LocalArrayLen::VertexBitmap => local_vertices.div_ceil(32),
        LocalArrayLen::Words(n) => n,
    }
}

/// Declared IQ capacity in words for a tile owning `local_vertices`.
fn declared_iq_words(capacity: QueueCapacity, local_vertices: usize) -> usize {
    let words = match capacity {
        QueueCapacity::Words(n) => n,
        QueueCapacity::PerVertex => local_vertices,
        QueueCapacity::VertexBlocks => local_vertices.div_ceil(32),
    };
    words.max(1)
}

/// A `u32`-indexed window of a tile's arena slab holding one kernel array.
#[derive(Debug, Clone, Copy)]
struct Span {
    off: u32,
    len: u32,
}

impl Span {
    fn new(off: usize, len: usize) -> Self {
        let end = off
            .checked_add(len)
            .filter(|&e| e <= u32::MAX as usize)
            .expect("tile arena span exceeds the 32-bit index space");
        let _ = end;
        Span {
            off: off as u32,
            len: len as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// The mutable per-tile state of a running simulation.
#[derive(Debug, Clone)]
pub struct TileState {
    /// Tile id.
    pub tile: usize,
    /// Shared declaration-derived metadata.
    init: Arc<TileInit>,
    /// The arena slab: `[arrays][vars][IQ rings][CQ rings]`.
    slab: Vec<u32>,
    /// Kernel array windows into the slab, in declaration order.
    array_spans: Box<[Span]>,
    /// First slab index of the variables window.
    vars_off: u32,
    /// One input queue per task.  Private so every mutation flows through
    /// the counter-maintaining methods below.
    iqs: Box<[WordQueue]>,
    /// One channel queue per channel.
    cqs: Box<[WordQueue]>,
    /// Cycle until which the PU is busy with the current task.
    pub pu_busy_until: u64,
    /// The cycle from which the engine has let the tile sleep (every
    /// inject-ready channel known blocked, no task ready, out of the
    /// active set), and `u64::MAX` while it is awake.  Each cycle it
    /// sleeps, the oracle would attempt and see rejected every inject-ready
    /// channel once; the wake settles those rejections.
    pub(crate) asleep_since: u64,
    /// Activity counters.
    pub counters: TileCounters,
    /// Total words queued across every IQ and CQ (the O(1) idle signal).
    queued_words: usize,
    /// Bit `t` set when task `t` is dispatch-eligible.
    task_ready: u64,
    /// Bit `c` set when channel `c`'s CQ holds at least one full message.
    cq_ready: u64,
}

impl TileState {
    /// Builds the state for `tile`: allocates its arena slab from the shared
    /// declarations, sized by the tile's share of the dataset under
    /// `placement`, and fills the kernel arrays with their declared initial
    /// values.  Every queue starts empty, so no task or channel is ready.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds the 32-bit index space.
    pub fn new(tile: usize, placement: &Placement, init: Arc<TileInit>) -> Self {
        let lv = placement.local_len(ArraySpace::Vertex, tile);
        let le = placement.local_len(ArraySpace::Edge, tile);

        let mut off = 0usize;
        let array_spans: Box<[Span]> = init
            .arrays
            .iter()
            .map(|decl| {
                let len = declared_array_len(decl.len, lv, le);
                let span = Span::new(off, len);
                off += len;
                span
            })
            .collect();
        let vars_off = off;
        off += init.num_vars;
        let iqs: Box<[WordQueue]> = init
            .iq_capacity
            .iter()
            .map(|&capacity| {
                let words = declared_iq_words(capacity, lv);
                let q = WordQueue::new(off, words);
                off += words;
                q
            })
            .collect();
        let cqs: Box<[WordQueue]> = init
            .cq_capacity_words
            .iter()
            .map(|&capacity| {
                let words = capacity.max(1);
                let q = WordQueue::new(off, words);
                off += words;
                q
            })
            .collect();
        assert!(
            off <= u32::MAX as usize,
            "tile arena exceeds the 32-bit index space"
        );

        let mut slab = vec![0u32; off];
        let global = |local: usize| placement.to_global(ArraySpace::Vertex, tile, local) as u32;
        for (decl, span) in init.arrays.iter().zip(array_spans.iter()) {
            let window = &mut slab[span.range()];
            match &decl.init {
                ArrayInit::Zero => {}
                ArrayInit::Const(v) => window.fill(*v),
                ArrayInit::MaxU32 => window.fill(u32::MAX),
                ArrayInit::GlobalVertexId => {
                    for (local, word) in window.iter_mut().enumerate() {
                        *word = global(local);
                    }
                }
                ArrayInit::PerVertexFn(f) => {
                    for (local, word) in window.iter_mut().enumerate() {
                        *word = f(global(local));
                    }
                }
            }
        }

        let counters = TileCounters {
            task_invocations: vec![0; init.num_tasks()],
            ..TileCounters::default()
        };
        TileState {
            tile,
            init,
            slab,
            array_spans,
            vars_off: vars_off as u32,
            iqs,
            cqs,
            pu_busy_until: 0,
            asleep_since: u64::MAX,
            counters,
            queued_words: 0,
            task_ready: 0,
            cq_ready: 0,
        }
    }

    /// Heap bytes held by this tile's arena slab — the per-tile line the
    /// memory budget report sums.
    pub fn arena_bytes(&self) -> usize {
        self.slab.len() * std::mem::size_of::<u32>()
    }

    /// The task input queues, in declaration order (read-only: mutations go
    /// through [`TileState::push_iq`] and friends so the incremental
    /// counters stay exact).
    pub fn iqs(&self) -> &[WordQueue] {
        &self.iqs
    }

    /// The channel (output) queues, in declaration order (read-only).
    pub fn cqs(&self) -> &[WordQueue] {
        &self.cqs
    }

    /// Bitmask of dispatch-eligible tasks (bit `t` set when task `t`
    /// satisfies [`crate::tsu::Scheduler::is_eligible`]).
    pub fn task_ready_mask(&self) -> u64 {
        self.task_ready
    }

    /// Bitmask of channels whose CQ holds at least one full message.
    pub fn cq_ready_mask(&self) -> u64 {
        self.cq_ready
    }

    /// The head word of task `task`'s IQ without consuming it.
    pub fn iq_peek(&self, task: usize) -> Option<u32> {
        self.iqs[task].peek(&self.slab)
    }

    /// The head word of channel `channel`'s CQ without consuming it.
    pub fn cq_peek(&self, channel: usize) -> Option<u32> {
        self.cqs[channel].peek(&self.slab)
    }

    /// Pushes an invocation into task `task`'s IQ; returns `false` if it
    /// does not fit.
    pub fn push_iq(&mut self, task: usize, words: &[u32]) -> bool {
        let accepted = self.iqs[task].try_push(&mut self.slab, words);
        if accepted {
            self.queued_words += words.len();
            self.note_iq_changed(task);
        }
        accepted
    }

    /// Pops one word from task `task`'s IQ (the self-managed `iq_pop`).
    pub fn pop_iq_word(&mut self, task: usize) -> Option<u32> {
        let word = self.iqs[task].pop_word(&self.slab);
        if word.is_some() {
            self.queued_words -= 1;
            self.note_iq_changed(task);
        }
        word
    }

    /// Pops `count` words from task `task`'s IQ into `out[..count]`,
    /// allocation-free.  Returns `false` (queue unchanged) if fewer than
    /// `count` words are queued.
    pub fn pop_iq_into(&mut self, task: usize, count: usize, out: &mut [u32]) -> bool {
        let popped = self.iqs[task].pop_invocation_into(&self.slab, count, out);
        if popped {
            self.queued_words -= count;
            self.note_iq_changed(task);
        }
        popped
    }

    /// Pushes a message into channel `channel`'s CQ; returns `false` if it
    /// does not fit.
    pub fn push_cq(&mut self, channel: usize, words: &[u32]) -> bool {
        let accepted = self.cqs[channel].try_push(&mut self.slab, words);
        if accepted {
            self.queued_words += words.len();
            self.note_cq_changed(channel);
        }
        accepted
    }

    /// Pops `count` words from channel `channel`'s CQ into `out[..count]`,
    /// allocation-free.  Returns `false` (queue unchanged) if fewer than
    /// `count` words are queued.
    pub fn pop_cq_into(&mut self, channel: usize, count: usize, out: &mut [u32]) -> bool {
        let popped = self.cqs[channel].pop_invocation_into(&self.slab, count, out);
        if popped {
            self.queued_words -= count;
            self.note_cq_changed(channel);
        }
        popped
    }

    /// Restores a speculatively popped message at the head of channel
    /// `channel`'s CQ (the network rejected the injection this cycle).
    ///
    /// # Panics
    ///
    /// Panics if the words no longer fit (they always do when undoing a pop
    /// performed in the same cycle).
    pub fn restore_cq_front(&mut self, channel: usize, words: &[u32]) {
        self.cqs[channel].push_front_invocation(&mut self.slab, words);
        self.queued_words += words.len();
        self.note_cq_changed(channel);
    }

    /// Kernel array `array` as a slice.
    pub fn array(&self, array: usize) -> &[u32] {
        &self.slab[self.array_spans[array].range()]
    }

    /// Reads `array[index]`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the array.
    pub fn read_array_word(&self, array: usize, index: usize) -> u32 {
        self.array(array)[index]
    }

    /// Writes `array[index] = value`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the array.
    pub fn write_array_word(&mut self, array: usize, index: usize, value: u32) {
        let range = self.array_spans[array].range();
        self.slab[range][index] = value;
    }

    /// Reads variable `index`.
    pub fn var(&self, index: usize) -> u32 {
        self.vars()[index]
    }

    /// Writes variable `index`.
    pub fn set_var(&mut self, index: usize, value: u32) {
        let off = self.vars_off as usize;
        self.slab[off..off + self.init.num_vars][index] = value;
    }

    /// The variables window as a slice.
    pub fn vars(&self) -> &[u32] {
        let off = self.vars_off as usize;
        &self.slab[off..off + self.init.num_vars]
    }

    /// Whether task `task` is dispatch-eligible, computed from the stored
    /// metadata.  Kept bit-identical to
    /// [`crate::tsu::Scheduler::is_eligible`]; the scheduler debug-asserts
    /// the two agree.
    fn compute_task_ready(&self, task: usize) -> bool {
        if self.iqs[task].len() < self.init.meta.iq_need[task] {
            return false;
        }
        self.init.meta.cq_reqs[task]
            .iter()
            .all(|&(channel, words)| self.cqs[channel].free() >= words)
            && self.init.meta.iq_reqs[task]
                .iter()
                .all(|&(watched, words)| self.iqs[watched].free() >= words)
    }

    #[inline]
    fn note_iq_changed(&mut self, task: usize) {
        let bit = 1u64 << task;
        if self.compute_task_ready(task) {
            self.task_ready |= bit;
        } else {
            self.task_ready &= !bit;
        }
        // An IQ mutation moves its free space, which can flip the
        // eligibility of tasks holding an output-space guarantee on it (T4
        // watches T1's IQ).
        for i in 0..self.init.meta.iq_watchers[task].len() {
            let watcher = self.init.meta.iq_watchers[task][i];
            let watcher_bit = 1u64 << watcher;
            if self.compute_task_ready(watcher) {
                self.task_ready |= watcher_bit;
            } else {
                self.task_ready &= !watcher_bit;
            }
        }
    }

    #[inline]
    fn note_cq_changed(&mut self, channel: usize) {
        let bit = 1u64 << channel;
        if self.cqs[channel].len() >= self.init.meta.cq_msg_words[channel] {
            self.cq_ready |= bit;
        } else {
            self.cq_ready &= !bit;
        }
        // A CQ mutation moves its free space, which can flip the
        // eligibility of every task holding an output-space guarantee on
        // this channel.
        for i in 0..self.init.meta.cq_watchers[channel].len() {
            let task = self.init.meta.cq_watchers[channel][i];
            let task_bit = 1u64 << task;
            if self.compute_task_ready(task) {
                self.task_ready |= task_bit;
            } else {
                self.task_ready &= !task_bit;
            }
        }
    }

    /// Whether any IQ or CQ holds words, in O(1) via the incrementally
    /// maintained queued-word counter.  The engine keeps a tile active
    /// while it has queued work (or a delivery waits for it).
    pub fn has_queued_work(&self) -> bool {
        debug_assert_eq!(self.queued_words == 0, self.scan_queues_empty());
        self.queued_words > 0
    }

    /// The pre-overhaul idle check, scanning every queue — preserved for
    /// the reference tile path and as the oracle the O(1) counter is
    /// validated against.
    pub fn is_idle_scan(&self, cycle: u64) -> bool {
        self.pu_busy_until <= cycle && self.scan_queues_empty()
    }

    fn scan_queues_empty(&self) -> bool {
        self.iqs.iter().all(WordQueue::is_empty) && self.cqs.iter().all(WordQueue::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::VertexPlacement;
    use dalorex_graph::{Edge, EdgeList};
    use std::sync::Arc;

    fn small_graph() -> CsrGraph {
        let edges = EdgeList::from_edges(
            6,
            [
                Edge::new(0, 1, 1),
                Edge::new(0, 2, 2),
                Edge::new(1, 3, 3),
                Edge::new(2, 4, 4),
                Edge::new(3, 5, 5),
                Edge::new(4, 5, 6),
                Edge::new(5, 0, 7),
            ],
        )
        .unwrap();
        CsrGraph::from_edge_list(&edges)
    }

    #[test]
    fn distribute_preserves_every_vertex_and_edge() {
        let graph = small_graph();
        for placement_kind in [VertexPlacement::Chunked, VertexPlacement::Interleaved] {
            let placement = Placement::new(3, 6, 7, placement_kind);
            let chunks = distribute_graph(&graph, &placement);
            assert_eq!(chunks.len(), 3);
            // Every vertex's row range is stored on its owner.
            for v in 0..6 {
                let tile = placement.owner(ArraySpace::Vertex, v);
                let local = placement.to_local(ArraySpace::Vertex, v);
                assert_eq!(chunks[tile].row_begin[local], graph.ptr()[v]);
                assert_eq!(chunks[tile].row_end[local], graph.ptr()[v + 1]);
            }
            // Edge chunks concatenate back to the global arrays.
            let all_edges: Vec<u32> = chunks.iter().flat_map(|c| c.edge_idx.clone()).collect();
            assert_eq!(all_edges, graph.edge_idx());
            let all_values: Vec<u32> = chunks.iter().flat_map(|c| c.edge_values.clone()).collect();
            assert_eq!(all_values, graph.edge_values());
        }
    }

    #[test]
    fn footprint_counts_words() {
        let graph = small_graph();
        let placement = Placement::new(2, 6, 7, VertexPlacement::Chunked);
        let chunks = distribute_graph(&graph, &placement);
        let total: usize = chunks.iter().map(TileCsr::footprint_bytes).sum();
        // 2 words per vertex + 2 words per edge.
        assert_eq!(total, 4 * (2 * 6 + 2 * 7));
    }

    fn test_decls() -> (Vec<TaskDecl>, Vec<ChannelDecl>, Vec<LocalArrayDecl>) {
        (
            vec![
                TaskDecl::new("T1", 32, TaskParams::SelfManaged),
                TaskDecl::new("T2", 64, TaskParams::AutoPop(2)),
            ],
            vec![ChannelDecl::new("CQ1", 1, ArraySpace::Vertex, 2, 16)],
            vec![
                LocalArrayDecl::new("dist", LocalArrayLen::PerVertex, ArrayInit::MaxU32),
                LocalArrayDecl::new("frontier", LocalArrayLen::VertexBitmap, ArrayInit::Zero),
                LocalArrayDecl::new(
                    "labels",
                    LocalArrayLen::PerVertex,
                    ArrayInit::GlobalVertexId,
                ),
                LocalArrayDecl::new(
                    "x",
                    LocalArrayLen::PerVertex,
                    ArrayInit::PerVertexFn(Arc::new(|v| v + 100)),
                ),
                LocalArrayDecl::new("scratch", LocalArrayLen::Words(4), ArrayInit::Const(9)),
            ],
        )
    }

    /// Builds tile `tile`'s state from `decls` and `num_vars` variables.
    fn build(
        tile: usize,
        placement: &Placement,
        (tasks, channels, arrays): &(Vec<TaskDecl>, Vec<ChannelDecl>, Vec<LocalArrayDecl>),
        num_vars: usize,
    ) -> TileState {
        let init = TileInit::new(tasks, channels, arrays, num_vars);
        TileState::new(tile, placement, Arc::new(init))
    }

    #[test]
    fn tile_state_builds_arrays_with_declared_inits() {
        let placement = Placement::new(2, 10, 20, VertexPlacement::Interleaved);
        let state = build(1, &placement, &test_decls(), 3);
        assert_eq!(state.array_spans.len(), 5);
        // Tile 1 owns vertices 1, 3, 5, 7, 9 under interleaved placement.
        assert_eq!(state.array(0), &[u32::MAX; 5]);
        assert_eq!(state.array(1).len(), 1); // bitmap: ceil(5/32)
        assert_eq!(state.array(2), &[1, 3, 5, 7, 9]);
        assert_eq!(state.array(3), &[101, 103, 105, 107, 109]);
        assert_eq!(state.array(4), &[9, 9, 9, 9]);
        assert_eq!(state.vars(), &[0, 0, 0]);
        assert_eq!(state.iqs().len(), 2);
        assert_eq!(state.cqs().len(), 1);
        assert_eq!(state.counters.task_invocations, vec![0, 0]);
        // Empty queues: no work, and nothing ready.
        assert!(!state.has_queued_work());
        assert_eq!(state.task_ready_mask(), 0);
        assert_eq!(state.cq_ready_mask(), 0);
        // The arena holds exactly the modelled scratchpad image: 20 array
        // words, 3 variables, IQs of 32 and 64 words and a 16-word CQ.
        assert_eq!(state.arena_bytes(), 4 * (20 + 3 + 32 + 64 + 16));
    }

    #[test]
    fn tile_is_not_idle_with_queued_work_or_busy_pu() {
        let placement = Placement::new(2, 10, 20, VertexPlacement::Chunked);
        let mut state = build(0, &placement, &test_decls(), 0);
        assert!(!state.has_queued_work() && state.is_idle_scan(5));
        state.push_iq(0, &[7]);
        assert!(state.has_queued_work());
        assert!(!state.is_idle_scan(5));
        state.pop_iq_word(0);
        state.pu_busy_until = 10;
        // A busy PU is not queued work, but the scanning check waits for it.
        assert!(!state.has_queued_work());
        assert!(!state.is_idle_scan(5));
        assert!(state.is_idle_scan(10));
    }

    #[test]
    fn queue_mutations_keep_the_word_counter_exact() {
        let placement = Placement::new(2, 10, 20, VertexPlacement::Chunked);
        let mut state = build(0, &placement, &test_decls(), 0);
        assert_eq!(state.queued_words, 0);
        assert!(state.push_iq(1, &[1, 2]));
        assert!(state.push_cq(0, &[3, 4]));
        assert_eq!(state.queued_words, 4);
        let mut buf = [0u32; 2];
        assert!(state.pop_cq_into(0, 2, &mut buf));
        assert_eq!(buf, [3, 4]);
        assert_eq!(state.queued_words, 2);
        state.restore_cq_front(0, &buf);
        assert_eq!(state.queued_words, 4);
        let mut buf = [0u32; 2];
        assert!(state.pop_cq_into(0, 2, &mut buf));
        assert_eq!(buf, [3, 4]);
        assert!(state.pop_iq_into(1, 2, &mut buf));
        assert_eq!(buf, [1, 2]);
        assert_eq!(state.queued_words, 0);
        assert!(!state.has_queued_work());
    }

    #[test]
    fn task_ready_mask_tracks_inputs_and_output_space() {
        let placement = Placement::new(2, 10, 20, VertexPlacement::Chunked);
        let mut decls = test_decls();
        // T2 (AutoPop(2)) additionally needs 4 free words on channel 0.
        decls.0[1] = TaskDecl::new("T2", 64, TaskParams::AutoPop(2)).requires_cq_space(0, 4);
        let mut state = build(0, &placement, &decls, 0);
        assert_eq!(state.task_ready_mask(), 0);
        // One word is not a full AutoPop(2) invocation.
        state.push_iq(1, &[1]);
        assert_eq!(state.task_ready_mask(), 0);
        state.push_iq(1, &[2]);
        assert_eq!(state.task_ready_mask(), 0b10);
        // SelfManaged T1 becomes ready with any input.
        state.push_iq(0, &[9]);
        assert_eq!(state.task_ready_mask(), 0b11);
        // Fill channel 0 so fewer than 4 words remain: T2 loses its bit.
        let mut filler = vec![0u32; 13];
        assert!(state.push_cq(0, &filler));
        assert_eq!(state.task_ready_mask(), 0b01);
        // Draining the CQ restores it.
        assert!(state.pop_cq_into(0, 13, &mut filler));
        assert_eq!(state.task_ready_mask(), 0b11);
        // Consuming T2's invocation clears its bit again.
        let mut buf = [0u32; 2];
        assert!(state.pop_iq_into(1, 2, &mut buf));
        assert_eq!(state.task_ready_mask(), 0b01);
    }

    #[test]
    fn cq_ready_mask_requires_one_full_message() {
        let placement = Placement::new(2, 10, 20, VertexPlacement::Chunked);
        // Channel 0 sends 2-flit messages.
        let mut state = build(0, &placement, &test_decls(), 0);
        assert_eq!(state.cq_ready_mask(), 0);
        state.push_cq(0, &[1]);
        assert_eq!(state.cq_ready_mask(), 0);
        state.push_cq(0, &[2]);
        assert_eq!(state.cq_ready_mask(), 0b1);
        let mut buf = [0u32; 2];
        state.pop_cq_into(0, 2, &mut buf);
        assert_eq!(state.cq_ready_mask(), 0);
        state.restore_cq_front(0, &buf);
        assert_eq!(state.cq_ready_mask(), 0b1);
    }
}
