//! The memory budget report: modeled per-subsystem resident bytes.
//!
//! DL-PIM's critique (and ours): data-locality wins are only credible when
//! the resident working set is *measured*, not estimated.  Every run
//! therefore reports where its modeled memory went — the distributed CSR,
//! the per-tile arena slabs (which, under lazy allocation, only exist for
//! tiles that saw activity), the NoC's router buffers, and the calendar
//! scheduler's bookkeeping — alongside cycles and energy.  The
//! `tests/memory_budget.rs` tier pins these totals like the cycle goldens,
//! so a memory regression fails CI the same way a schedule regression does.
//!
//! The report lives on [`crate::SimOutcome`], not on [`crate::SimStats`]:
//! the calendar line is engine bookkeeping that legitimately differs
//! between the engine and its oracle, while stats are pinned bit-identical
//! between the two.

/// Modeled resident bytes, by subsystem, for one completed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// The distributed CSR chunks (2 row words per vertex + 2 words per
    /// edge; equals `CsrGraph::distributed_footprint_bytes`).
    pub csr_bytes: usize,
    /// Per-tile arena slabs (kernel arrays, variables, IQ/CQ rings).  Under
    /// lazy allocation only materialized tiles contribute; an idle tile
    /// costs 0.
    pub tile_arena_bytes: usize,
    /// Tiles whose arena was materialized during the run.
    pub materialized_tiles: usize,
    /// Total tiles in the grid.
    pub total_tiles: usize,
    /// Router port buffers plus ejection buffers, across the whole fabric.
    pub noc_buffer_bytes: usize,
    /// Calendar router-scheduler bookkeeping: due stamps, the bitset of
    /// stamped routers, a 2-byte waiter record per (router, port, channel)
    /// buffer and the endpoint state the engine's skip reads (blocked
    /// channels, their awaited buffers and the unblocked-tile bitset; no
    /// stamped-router bitset under the reference scheduler).
    /// Engine-dependent by design — this is simulator bookkeeping, not
    /// modeled hardware.
    pub calendar_bytes: usize,
}

impl MemoryReport {
    /// Sum of every subsystem line.
    pub fn modeled_total_bytes(&self) -> usize {
        self.csr_bytes + self.tile_arena_bytes + self.noc_buffer_bytes + self.calendar_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_every_line() {
        let report = MemoryReport {
            csr_bytes: 100,
            tile_arena_bytes: 20,
            materialized_tiles: 2,
            total_tiles: 16,
            noc_buffer_bytes: 7,
            calendar_bytes: 3,
        };
        assert_eq!(report.modeled_total_bytes(), 130);
        assert_eq!(MemoryReport::default().modeled_total_bytes(), 0);
    }
}
