//! Concrete execution contexts handed to kernels by the engine.
//!
//! These implement the context traits of [`crate::kernel`] over the per-tile
//! state, charging every scratchpad access, queue operation and ALU
//! operation to the tile's activity counters — the raw material of the
//! paper's cycle and energy results.
//!
//! Cost model (`DESIGN.md` §2): one cycle per scratchpad read, per scratchpad
//! write, per ALU operation and per queue word moved, plus one dispatch
//! cycle per invocation.  Queue entries live in the scratchpad (paper
//! Fig. 4), so queue words also count as SRAM accesses.

use crate::kernel::{ArrayId, BootstrapContext, ChannelDecl, EpochContext, TaskContext, TaskId};
use crate::placement::{ArraySpace, Placement};
use crate::tile::{TileCsr, TileState};

/// Converts a global index to the `u32` that travels in a message head (or
/// is handed to a kernel), failing loudly when the dataset exceeds the
/// 32-bit index space instead of silently truncating — a sweep over a
/// ≥2³²-element array must abort, not corrupt indices.
#[track_caller]
fn index_to_u32(value: usize, what: &str) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| {
        panic!("{what} {value} exceeds the 32-bit index space of the Dalorex message format")
    })
}

/// Accumulates the cycle cost of the invocation currently executing.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct InvocationCost {
    pub cycles: u64,
}

/// Context for [`crate::kernel::Kernel::execute`].
pub(crate) struct SimTaskContext<'a> {
    pub tile: &'a mut TileState,
    pub csr: &'a TileCsr,
    pub placement: &'a Placement,
    pub channels: &'a [ChannelDecl],
    pub current_task: TaskId,
    pub barrier_mode: bool,
    pub cost: InvocationCost,
}

impl SimTaskContext<'_> {
    fn charge_read(&mut self, n: u64) {
        self.tile.counters.sram_reads += n;
        self.cost.cycles += n;
    }

    fn charge_write(&mut self, n: u64) {
        self.tile.counters.sram_writes += n;
        self.cost.cycles += n;
    }

    fn charge_alu(&mut self, n: u64) {
        self.tile.counters.pu_ops += n;
        self.cost.cycles += n;
    }
}

impl TaskContext for SimTaskContext<'_> {
    fn tile(&self) -> usize {
        self.tile.tile
    }

    fn num_local_vertices(&self) -> usize {
        self.csr.row_begin.len()
    }

    fn num_local_edges(&self) -> usize {
        self.csr.edge_idx.len()
    }

    fn vertices_per_chunk(&self) -> usize {
        self.placement.chunk_capacity(ArraySpace::Vertex)
    }

    fn edges_per_chunk(&self) -> usize {
        self.placement.chunk_capacity(ArraySpace::Edge)
    }

    fn global_vertex(&self, local: usize) -> u32 {
        index_to_u32(
            self.placement
                .to_global(ArraySpace::Vertex, self.tile.tile, local),
            "global vertex id",
        )
    }

    fn barrier_mode(&self) -> bool {
        self.barrier_mode
    }

    fn row_begin(&mut self, local: usize) -> u32 {
        self.charge_read(1);
        self.csr.row_begin[local]
    }

    fn row_end(&mut self, local: usize) -> u32 {
        self.charge_read(1);
        self.csr.row_end[local]
    }

    fn edge_dst(&mut self, local: usize) -> u32 {
        self.charge_read(1);
        self.csr.edge_idx[local]
    }

    fn edge_value(&mut self, local: usize) -> u32 {
        self.charge_read(1);
        self.csr.edge_values[local]
    }

    fn read(&mut self, array: ArrayId, index: usize) -> u32 {
        self.charge_read(1);
        self.tile.read_array_word(array, index)
    }

    fn write(&mut self, array: ArrayId, index: usize, value: u32) {
        self.charge_write(1);
        self.tile.write_array_word(array, index, value);
    }

    fn var(&mut self, index: usize) -> u32 {
        self.charge_read(1);
        self.tile.var(index)
    }

    fn set_var(&mut self, index: usize, value: u32) {
        self.charge_write(1);
        self.tile.set_var(index, value);
    }

    fn cq_free(&self, channel: usize) -> usize {
        self.tile.cqs()[channel].free()
    }

    fn try_send(&mut self, channel: usize, words: &[u32]) -> bool {
        debug_assert_eq!(
            words.len(),
            self.channels[channel].flits_per_message,
            "message length must match the channel declaration"
        );
        let accepted = self.tile.push_cq(channel, words);
        if accepted {
            // Writing the parameters into the CQ: one scratchpad write per
            // word (the CQ lives in the scratchpad).
            self.charge_write(words.len() as u64);
            self.tile.counters.messages_sent += 1;
        } else {
            // Checking fullness costs an operation either way.
            self.charge_alu(1);
        }
        accepted
    }

    fn iq_free(&self, task: TaskId) -> usize {
        self.tile.iqs()[task].free()
    }

    fn try_push_local(&mut self, task: TaskId, words: &[u32]) -> bool {
        let accepted = self.tile.push_iq(task, words);
        if accepted {
            self.charge_write(words.len() as u64);
        } else {
            self.charge_alu(1);
        }
        accepted
    }

    fn iq_peek(&mut self) -> Option<u32> {
        self.charge_read(1);
        self.tile.iq_peek(self.current_task)
    }

    fn iq_pop(&mut self) -> Option<u32> {
        self.charge_read(1);
        self.tile.pop_iq_word(self.current_task)
    }

    fn iq_len(&self) -> usize {
        self.tile.iqs()[self.current_task].len()
    }

    fn charge_ops(&mut self, n: u64) {
        self.charge_alu(n);
    }

    fn count_edges(&mut self, n: u64) {
        self.tile.counters.edges_processed += n;
    }

    fn for_each_edge_part(&mut self, begin: u32, end: u32, part: &mut dyn FnMut(usize, u32, u32)) {
        // Computing each split point costs a couple of ALU operations; the
        // pieces are streamed to the callback so the hot path allocates
        // nothing.
        let mut parts = 0u64;
        for (tile, b, e) in self
            .placement
            .split_edge_range(begin as usize, end as usize)
        {
            parts += 1;
            part(
                tile,
                index_to_u32(b, "edge range begin"),
                index_to_u32(e, "edge range end"),
            );
        }
        self.charge_alu(2 * parts.max(1));
    }
}

/// Context for [`crate::kernel::Kernel::bootstrap`].
pub(crate) struct SimBootstrapContext<'a> {
    pub tile: &'a mut TileState,
    pub csr: &'a TileCsr,
    pub placement: &'a Placement,
}

impl BootstrapContext for SimBootstrapContext<'_> {
    fn tile(&self) -> usize {
        self.tile.tile
    }

    fn num_local_vertices(&self) -> usize {
        self.csr.row_begin.len()
    }

    fn num_local_edges(&self) -> usize {
        self.csr.edge_idx.len()
    }

    fn local_vertex(&self, global: u32) -> Option<usize> {
        let global = global as usize;
        if global >= self.placement.num_vertices() {
            return None;
        }
        if self.placement.owner(ArraySpace::Vertex, global) == self.tile.tile {
            Some(self.placement.to_local(ArraySpace::Vertex, global))
        } else {
            None
        }
    }

    fn global_vertex(&self, local: usize) -> u32 {
        index_to_u32(
            self.placement
                .to_global(ArraySpace::Vertex, self.tile.tile, local),
            "global vertex id",
        )
    }

    fn push_invocation(&mut self, task: TaskId, words: &[u32]) -> bool {
        self.tile.push_iq(task, words)
    }

    fn set_var(&mut self, index: usize, value: u32) {
        self.tile.set_var(index, value);
    }

    fn write_array(&mut self, array: ArrayId, index: usize, value: u32) {
        self.tile.write_array_word(array, index, value);
    }

    fn read_array(&self, array: ArrayId, index: usize) -> u32 {
        self.tile.read_array_word(array, index)
    }
}

/// Context for [`crate::kernel::Kernel::on_global_idle`].
pub(crate) struct SimEpochContext<'a> {
    pub tiles: &'a mut [TileState],
    pub placement: &'a Placement,
    pub barrier_mode: bool,
    /// Tiles that received new work during this epoch trigger, so the engine
    /// can re-activate them.
    pub woken: Vec<usize>,
}

impl EpochContext for SimEpochContext<'_> {
    fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    fn num_local_vertices(&self, tile: usize) -> usize {
        self.placement.local_len(ArraySpace::Vertex, tile)
    }

    fn read_var(&self, tile: usize, index: usize) -> u32 {
        self.tiles[tile].var(index)
    }

    fn read_array(&self, tile: usize, array: ArrayId, index: usize) -> u32 {
        self.tiles[tile].read_array_word(array, index)
    }

    fn write_array(&mut self, tile: usize, array: ArrayId, index: usize, value: u32) {
        self.tiles[tile].write_array_word(array, index, value);
    }

    fn set_var(&mut self, tile: usize, index: usize, value: u32) {
        self.tiles[tile].set_var(index, value);
    }

    fn push_invocation(&mut self, tile: usize, task: TaskId, words: &[u32]) -> bool {
        let accepted = self.tiles[tile].push_iq(task, words);
        if accepted {
            self.woken.push(tile);
        }
        accepted
    }

    fn barrier_mode(&self) -> bool {
        self.barrier_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArrayInit, LocalArrayDecl, LocalArrayLen, TaskDecl, TaskParams};
    use crate::placement::VertexPlacement;
    use crate::tile::{distribute_graph, TileInit};
    use dalorex_graph::generators::grid2d::GridConfig;
    use std::sync::Arc;

    fn setup() -> (
        Placement,
        Vec<TileCsr>,
        Vec<TaskDecl>,
        Vec<ChannelDecl>,
        Vec<LocalArrayDecl>,
    ) {
        let graph = GridConfig::new(4, 4).build().unwrap();
        let placement = Placement::new(
            4,
            graph.num_vertices(),
            graph.num_edges(),
            VertexPlacement::Interleaved,
        );
        let csr = distribute_graph(&graph, &placement);
        let tasks = vec![
            TaskDecl::new("T1", 32, TaskParams::SelfManaged),
            TaskDecl::new("T2", 64, TaskParams::AutoPop(2)),
        ];
        let channels = vec![ChannelDecl::new("CQ1", 1, ArraySpace::Vertex, 2, 8)];
        let arrays = vec![LocalArrayDecl::new(
            "dist",
            LocalArrayLen::PerVertex,
            ArrayInit::MaxU32,
        )];
        (placement, csr, tasks, channels, arrays)
    }

    fn tile_state(
        tile: usize,
        placement: &Placement,
        tasks: &[TaskDecl],
        channels: &[ChannelDecl],
        arrays: &[LocalArrayDecl],
        num_vars: usize,
    ) -> TileState {
        let init = TileInit::new(tasks, channels, arrays, num_vars);
        TileState::new(tile, placement, Arc::new(init))
    }

    #[test]
    fn task_context_charges_accesses() {
        let (placement, csr, tasks, channels, arrays) = setup();
        let mut tile = tile_state(0, &placement, &tasks, &channels, &arrays, 2);
        let mut ctx = SimTaskContext {
            tile: &mut tile,
            csr: &csr[0],
            placement: &placement,
            channels: &channels,

            current_task: 0,
            barrier_mode: false,
            cost: InvocationCost::default(),
        };
        let begin = ctx.row_begin(0);
        let end = ctx.row_end(0);
        assert!(end >= begin);
        ctx.write(0, 0, 5);
        assert_eq!(ctx.read(0, 0), 5);
        ctx.set_var(1, 9);
        assert_eq!(ctx.var(1), 9);
        ctx.charge_ops(3);
        ctx.count_edges(2);
        assert!(ctx.try_send(0, &[1, 2]));
        assert!(ctx.try_push_local(1, &[4, 5]));
        let cost = ctx.cost.cycles;
        assert!(cost >= 10, "cost {cost}");
        assert_eq!(tile.counters.sram_reads, 4);
        assert_eq!(tile.counters.sram_writes, 2 + 2 + 2);
        assert_eq!(tile.counters.pu_ops, 3);
        assert_eq!(tile.counters.edges_processed, 2);
        assert_eq!(tile.counters.messages_sent, 1);
        assert_eq!(tile.cqs()[0].len(), 2);
        assert_eq!(tile.iqs()[1].len(), 2);
    }

    #[test]
    fn edge_parts_stream_back_to_back_and_charge_per_piece() {
        let (placement, csr, tasks, channels, arrays) = setup();
        let mut tile = tile_state(0, &placement, &tasks, &channels, &arrays, 2);
        let mut ctx = SimTaskContext {
            tile: &mut tile,
            csr: &csr[0],
            placement: &placement,
            channels: &channels,
            current_task: 0,
            barrier_mode: false,
            cost: InvocationCost::default(),
        };
        // edges_per_tile for 48 edges over 4 tiles is 12; [5, 30) spans
        // three chunks.
        let edges = ctx.num_local_edges() as u32;
        assert!(edges > 0);
        let mut streamed = Vec::new();
        let cost_before = ctx.cost.cycles;
        ctx.for_each_edge_part(5, 30, &mut |tile, b, e| streamed.push((tile, b, e)));
        let cost_streamed = ctx.cost.cycles;
        assert!(!streamed.is_empty());
        // Pieces tile the range back-to-back and stay within one owner each.
        assert_eq!(streamed.first().unwrap().1, 5);
        assert_eq!(streamed.last().unwrap().2, 30);
        for pair in streamed.windows(2) {
            assert_eq!(pair[0].2, pair[1].1);
        }
        // Each piece charges two ALU operations.
        assert_eq!(cost_streamed - cost_before, 2 * streamed.len() as u64);
        // An empty range still charges the minimum probe cost and streams
        // nothing.
        let mut none = 0;
        ctx.for_each_edge_part(7, 7, &mut |_, _, _| none += 1);
        assert_eq!(none, 0);
        assert_eq!(ctx.cost.cycles, cost_streamed + 2);
    }

    #[test]
    fn task_context_send_respects_capacity() {
        let (placement, csr, tasks, channels, arrays) = setup();
        let mut tile = tile_state(1, &placement, &tasks, &channels, &arrays, 0);
        let mut ctx = SimTaskContext {
            tile: &mut tile,
            csr: &csr[1],
            placement: &placement,
            channels: &channels,

            current_task: 0,
            barrier_mode: true,
            cost: InvocationCost::default(),
        };
        assert!(ctx.barrier_mode());
        // CQ capacity is 8 words; four 2-word messages fit, the fifth fails.
        for i in 0..4 {
            assert!(ctx.try_send(0, &[i, i]));
        }
        assert!(!ctx.try_send(0, &[9, 9]));
        assert_eq!(ctx.cq_free(0), 0);
    }

    #[test]
    fn bootstrap_context_maps_vertices() {
        let (placement, csr, tasks, channels, arrays) = setup();
        let mut tile = tile_state(2, &placement, &tasks, &channels, &arrays, 1);
        let mut ctx = SimBootstrapContext {
            tile: &mut tile,
            csr: &csr[2],
            placement: &placement,
        };
        // Interleaved placement: tile 2 owns vertices 2, 6, 10, 14.
        assert_eq!(ctx.local_vertex(6), Some(1));
        assert_eq!(ctx.local_vertex(3), None);
        assert_eq!(ctx.local_vertex(999), None);
        assert_eq!(ctx.global_vertex(0), 2);
        assert!(ctx.push_invocation(0, &[0]));
        ctx.set_var(0, 3);
        ctx.write_array(0, 0, 11);
        assert_eq!(ctx.read_array(0, 0), 11);
        assert_eq!(ctx.num_local_vertices(), 4);
        assert_eq!(tile.iqs()[0].len(), 1);
        assert_eq!(tile.vars()[0], 3);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "exceeds the 32-bit index space")]
    fn oversized_indices_fail_loudly_instead_of_truncating() {
        // Graphs with >= 2^32 vertices/edges must abort the sweep with a
        // diagnosable error, not silently corrupt wrapped indices.
        let _ = index_to_u32(1usize << 33, "global vertex id");
    }

    #[test]
    fn epoch_context_wakes_tiles_it_pushes_to() {
        let (placement, _csr, tasks, channels, arrays) = setup();
        let mut tiles: Vec<TileState> = (0..4)
            .map(|t| tile_state(t, &placement, &tasks, &channels, &arrays, 1))
            .collect();
        let mut ctx = SimEpochContext {
            tiles: &mut tiles,
            placement: &placement,
            barrier_mode: true,
            woken: Vec::new(),
        };
        assert_eq!(ctx.num_tiles(), 4);
        assert!(ctx.barrier_mode());
        assert!(ctx.push_invocation(3, 0, &[7]));
        ctx.set_var(1, 0, 5);
        ctx.write_array(2, 0, 0, 42);
        assert_eq!(ctx.read_array(2, 0, 0), 42);
        assert_eq!(ctx.read_var(1, 0), 5);
        assert_eq!(ctx.num_local_vertices(0), 4);
        assert_eq!(ctx.woken, vec![3]);
    }
}
