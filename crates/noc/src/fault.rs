//! Deterministic fault windows for the network fabric.
//!
//! A fault is a half-open cycle window `[start, end)` during which a piece
//! of the fabric refuses to *forward* — a single output link
//! ([`NocFaultEvent::LinkOutage`]) or a whole router
//! ([`NocFaultEvent::RouterStall`]).  Faults never drop or corrupt a
//! message: buffered messages simply wait, upstream back-pressure builds
//! exactly as it would behind ordinary congestion, and traffic resumes at
//! `end`.  Because a fault only ever *blocks* commits, the calendar's due
//! stamps remain valid lower bounds and the forwarding schedule stays
//! bit-identical between the calendar and reference schedulers: a
//! blocked port contributes its window's end as a due-stamp candidate, so
//! the calendar wakes the router at the transition just as it wakes it for
//! a busy link.
//!
//! Fault windows are expressed in network cycles
//! ([`crate::Network::current_cycle`]).  A simulator that ticks the
//! network every cycle of its own clock, as `dalorex-sim` does through
//! epoch broadcasts too, sees the windows in its own time.
//!
//! The schedule is handed to the network through
//! [`crate::NocConfig::with_faults`]; an empty [`NocFaults`] compiles to
//! nothing at all — the hot path pays one pointer test per router scan.

use crate::topology::Port;
use crate::TileId;

/// One timed fabric fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocFaultEvent {
    /// An outgoing link of `tile` refuses to start new transmissions during
    /// `[start, end)`.  `port: None` blacks out every outgoing link of the
    /// router at once.  Transmissions already serializing when the window
    /// opens complete normally (the wire does not lose bits mid-flight);
    /// only new forwards are held back.
    LinkOutage {
        /// Router whose output link fails.
        tile: TileId,
        /// The failing link, or `None` for all of the router's links.
        port: Option<Port>,
        /// First cycle of the outage (inclusive).
        start: u64,
        /// First cycle after the outage (exclusive).
        end: u64,
    },
    /// Router `tile` commits no forwards at all during `[start, end)` (a
    /// control-logic hang).  Its buffers keep accepting arrivals and its
    /// ejection buffers keep draining — only the crossbar is frozen.
    RouterStall {
        /// The stalled router.
        tile: TileId,
        /// First cycle of the stall (inclusive).
        start: u64,
        /// First cycle after the stall (exclusive).
        end: u64,
    },
}

impl NocFaultEvent {
    /// The router the fault applies to.
    pub fn tile(&self) -> TileId {
        match *self {
            NocFaultEvent::LinkOutage { tile, .. } | NocFaultEvent::RouterStall { tile, .. } => {
                tile
            }
        }
    }

    /// The fault's `[start, end)` window.
    pub fn window(&self) -> (u64, u64) {
        match *self {
            NocFaultEvent::LinkOutage { start, end, .. }
            | NocFaultEvent::RouterStall { start, end, .. } => (start, end),
        }
    }
}

/// The fabric's fault schedule, in the order impacts are reported
/// ([`crate::Network::fault_impacts`] is index-aligned with `events`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NocFaults {
    /// The scheduled fault events.
    pub events: Vec<NocFaultEvent>,
}

impl NocFaults {
    /// True when no fault is scheduled (the network compiles no fault state
    /// at all).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Observed impact of one scheduled fault, index-aligned with
/// [`NocFaults::events`].  Both counters are derived from committed
/// forwards only — schedule facts every scheduler agrees on — so they are
/// bit-identical between the calendar and reference schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultImpact {
    /// Messages whose wait at the faulted resource overlapped the window
    /// (counted once, at the cycle the forward finally committed).
    pub messages_delayed: u64,
    /// Total cycles of overlap between those messages' waits and the
    /// window.  A message held both by the fault and by ordinary congestion
    /// is attributed to the fault for the overlapping span.
    pub delayed_cycles: u64,
}

/// What a compiled window blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    /// The whole router's crossbar ([`NocFaultEvent::RouterStall`]).
    Stall,
    /// One output link, or all of them ([`NocFaultEvent::LinkOutage`]).
    Outage(Option<Port>),
}

/// One fault window compiled for a specific tile.
#[derive(Debug, Clone, Copy)]
struct FaultWindow {
    kind: BlockKind,
    start: u64,
    end: u64,
    /// Index into [`CompiledNocFaults::impacts`] (= the event's index in
    /// the source [`NocFaults`]).
    event: u32,
}

/// Fault schedule compiled for the network hot path: windows grouped by
/// tile behind a dense per-tile index, plus the running impact counters.
/// Only ever allocated for a non-empty schedule.
#[derive(Debug, Clone)]
pub(crate) struct CompiledNocFaults {
    /// Per tile: `(offset, len)` into `windows`.
    index: Vec<(u32, u32)>,
    /// All windows, grouped by tile.
    windows: Vec<FaultWindow>,
    /// Per-event impact counters, index-aligned with the source schedule.
    pub(crate) impacts: Vec<FaultImpact>,
}

impl CompiledNocFaults {
    /// Compiles a schedule, returning `None` for an empty one.
    ///
    /// # Panics
    ///
    /// Panics if an event names a tile outside the grid or an empty window
    /// (`start >= end`); `dalorex-sim` validates plans before they reach
    /// the network, so this guards direct misuse of the crate API.
    pub(crate) fn compile(faults: &NocFaults, num_tiles: usize) -> Option<Box<Self>> {
        if faults.is_empty() {
            return None;
        }
        let mut per_tile: Vec<Vec<FaultWindow>> = vec![Vec::new(); num_tiles];
        for (idx, event) in faults.events.iter().enumerate() {
            let tile = event.tile();
            let (start, end) = event.window();
            assert!(
                tile < num_tiles,
                "fault event {idx} names tile {tile} outside the {num_tiles}-tile grid"
            );
            assert!(
                start < end,
                "fault event {idx} has an empty window [{start}, {end})"
            );
            let kind = match *event {
                NocFaultEvent::LinkOutage { port, .. } => BlockKind::Outage(port),
                NocFaultEvent::RouterStall { .. } => BlockKind::Stall,
            };
            per_tile[tile].push(FaultWindow {
                kind,
                start,
                end,
                event: idx as u32,
            });
        }
        let mut index = Vec::with_capacity(num_tiles);
        let mut windows = Vec::with_capacity(faults.events.len());
        for tile_windows in per_tile {
            index.push((windows.len() as u32, tile_windows.len() as u32));
            windows.extend(tile_windows);
        }
        Some(Box::new(CompiledNocFaults {
            index,
            windows,
            impacts: vec![FaultImpact::default(); faults.events.len()],
        }))
    }

    #[inline]
    fn windows_at(&self, tile: TileId) -> &[FaultWindow] {
        let (offset, len) = self.index[tile];
        &self.windows[offset as usize..(offset + len) as usize]
    }

    /// If `tile`'s router is stalled at network cycle `now`, the network
    /// cycle at which the last active stall window ends (a valid due-stamp
    /// candidate: the router provably commits nothing before it).
    #[inline]
    pub(crate) fn stall_candidate(&self, tile: TileId, now: u64) -> Option<u64> {
        let mut end: Option<u64> = None;
        for window in self.windows_at(tile) {
            if window.kind == BlockKind::Stall && window.start <= now && now < window.end {
                end = Some(end.map_or(window.end, |e| e.max(window.end)));
            }
        }
        end
    }

    /// If `(tile, port)`'s link is blacked out at network cycle `now`, the
    /// network cycle at which the last active outage window ends.
    #[inline]
    pub(crate) fn outage_candidate(&self, tile: TileId, port: Port, now: u64) -> Option<u64> {
        let mut end: Option<u64> = None;
        for window in self.windows_at(tile) {
            let blocks = match window.kind {
                BlockKind::Outage(None) => true,
                BlockKind::Outage(Some(p)) => p == port,
                BlockKind::Stall => false,
            };
            if blocks && window.start <= now && now < window.end {
                end = Some(end.map_or(window.end, |e| e.max(window.end)));
            }
        }
        end
    }

    /// Attributes a just-committed forward at `(tile, port)` to every fault
    /// whose window overlapped the head's wait `[ready_at, now)` (network
    /// cycles) at that resource.
    pub(crate) fn record_commit(&mut self, tile: TileId, port: Port, ready_at: u64, now: u64) {
        if now <= ready_at {
            return;
        }
        let (offset, len) = self.index[tile];
        for i in offset as usize..(offset + len) as usize {
            let window = self.windows[i];
            let blocks = match window.kind {
                BlockKind::Stall | BlockKind::Outage(None) => true,
                BlockKind::Outage(Some(p)) => p == port,
            };
            if !blocks {
                continue;
            }
            let lo = window.start.max(ready_at);
            let hi = window.end.min(now);
            if hi > lo {
                let impact = &mut self.impacts[window.event as usize];
                impact.messages_delayed += 1;
                impact.delayed_cycles += hi - lo;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_compiles_to_nothing() {
        assert!(CompiledNocFaults::compile(&NocFaults::default(), 4).is_none());
    }

    #[test]
    fn stall_and_outage_windows_answer_membership() {
        let faults = NocFaults {
            events: vec![
                NocFaultEvent::RouterStall {
                    tile: 1,
                    start: 10,
                    end: 20,
                },
                NocFaultEvent::LinkOutage {
                    tile: 2,
                    port: Some(Port::East),
                    start: 5,
                    end: 15,
                },
            ],
        };
        let compiled = CompiledNocFaults::compile(&faults, 4).unwrap();
        assert_eq!(compiled.stall_candidate(1, 9), None);
        assert_eq!(compiled.stall_candidate(1, 10), Some(20));
        assert_eq!(compiled.stall_candidate(1, 19), Some(20));
        assert_eq!(compiled.stall_candidate(1, 20), None);
        assert_eq!(compiled.stall_candidate(2, 10), None);
        assert_eq!(compiled.outage_candidate(2, Port::East, 5), Some(15));
        assert_eq!(compiled.outage_candidate(2, Port::West, 5), None);
        assert_eq!(compiled.outage_candidate(2, Port::East, 15), None);
    }

    #[test]
    fn all_port_outage_blocks_every_link() {
        let faults = NocFaults {
            events: vec![NocFaultEvent::LinkOutage {
                tile: 0,
                port: None,
                start: 0,
                end: 8,
            }],
        };
        let compiled = CompiledNocFaults::compile(&faults, 1).unwrap();
        for port in [Port::East, Port::West, Port::North, Port::South] {
            assert_eq!(compiled.outage_candidate(0, port, 3), Some(8));
        }
    }

    #[test]
    fn record_commit_attributes_overlap_only() {
        let faults = NocFaults {
            events: vec![NocFaultEvent::LinkOutage {
                tile: 0,
                port: Some(Port::East),
                start: 10,
                end: 20,
            }],
        };
        let mut compiled = CompiledNocFaults::compile(&faults, 1).unwrap();
        // Wait [5, 25) overlaps the window for 10 cycles.
        compiled.record_commit(0, Port::East, 5, 25);
        // Wait on a different port: no attribution.
        compiled.record_commit(0, Port::West, 5, 25);
        // Wait entirely before the window: no attribution.
        compiled.record_commit(0, Port::East, 0, 10);
        assert_eq!(compiled.impacts[0].messages_delayed, 1);
        assert_eq!(compiled.impacts[0].delayed_cycles, 10);
    }
}
