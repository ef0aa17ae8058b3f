//! The cycle-level network simulator.
//!
//! [`Network`] owns one [`Router`](crate::router) per tile and advances the
//! whole fabric one cycle at a time.  The Dalorex tile simulator drives it
//! in lock-step with the tiles: each cycle, tiles inject the messages their
//! channel queues produced ([`Network::try_inject`]), the network moves
//! messages one hop ([`Network::cycle`]), and tiles drain arrivals from
//! their ejection buffers ([`Network::pop_delivered`]).  If a tile does not
//! drain its ejection buffer, back-pressure propagates upstream exactly as
//! in the paper's end-point-contention discussion.
//!
//! # Cycle-level handshake
//!
//! ```text
//!   tile (TSU)                     network fabric                    tile (TSU)
//!  ┌──────────┐  try_inject   ┌──────────────────────┐  delivery   ┌──────────┐
//!  │ channel  │ ────────────► │ src router ──cycle()──► dst router │ ejection │
//!  │ queues   │ ◄──Rejected── │   buffers   per hop     Local port │ buffers  │
//!  └──────────┘ back-pressure └──────────────────────┘             └────┬─────┘
//!                                                      pop_delivered ◄──┘
//!                                              (≤ endpoint_drains_per_cycle
//!                                               messages per tile per cycle)
//! ```
//!
//! Endpoint bandwidth is a configuration knob
//! ([`NocConfig::endpoint_drains_per_cycle`](crate::NocConfig)): the fabric
//! delivers into ejection buffers without limit, and the *endpoint* — the
//! tile draining via [`Network::pop_delivered`] and injecting via
//! [`Network::try_inject`] — honours the per-cycle budget.  The tile
//! simulator in `dalorex-sim` enforces it on both directions.
//!
//! # Hot path
//!
//! [`Network::cycle`] is event-driven end-to-end: only routers holding
//! *forwardable* (non-local) messages are visited, only their occupied
//! ports are scanned (per-port message counts in the router), only the
//! ports the topology actually wires are considered (a mesh or plain torus
//! never looks at ruche ports), and steady-state cycling performs no heap
//! allocation.  The pre-overhaul walk survives as the
//! [`RouterScheduler::Reference`](crate::RouterScheduler) scheduler — the
//! schedule oracle regression tests drive side by side with the production
//! walk.
//!
//! # The calendar router scheduler
//!
//! In a serialization-bound run most routers can move nothing on most
//! cycles: every link that forwarded a multi-flit message sits busy for
//! `flits` cycles, and a cut-through message is not forwardable until its
//! last flit has arrived.  The production scheduler
//! ([`RouterScheduler::Calendar`](crate::RouterScheduler)) therefore keeps
//! a per-router **`next_possible` due stamp** (the min over that router's
//! head `ready_at`s, link un-busy times and post-commit link-free times)
//! plus a bucketed calendar of due routers.  A head blocked on a full
//! downstream buffer contributes no stamp: its router registers on the
//! downstream router's waiter list, and the next pop there re-stamps it.
//! Stamps are lower bounds, so a due router may still commit nothing (it
//! is simply re-stamped); the invariant that a stamp never overshoots the
//! router's actual next commit is what keeps the schedule bit-identical to
//! the reference scheduler, and is pinned by the cross-crate property
//! suite via [`Network::next_possible_stamp`].
//!
//! # The due-only walk (O(due) per cycle)
//!
//! A calendar cycle never traverses the whole active set.  Every active
//! router carries an epoch-numbered order key (retained routers keep
//! theirs, in-walk activations take descending head keys, between-cycle
//! activations ascending tail keys — so sorting by key reproduces the
//! reference scheduler's explicit list exactly), and a cycle drains only
//! its own bucket, orders the due routers by key through a tiny binary
//! heap, and port-scans exactly those.  Membership changes go through lazy
//! tombstoning (drops decided at the router's own heap turn) plus a small
//! dirty-set replay for endpoint-drained routers.

use crate::message::Message;
use crate::router::{QueuedMessage, Router};
use crate::stats::{NocStats, UtilizationGrid};
use crate::topology::{Port, RoutingGrid};
use crate::{ChannelId, NocConfig, NocError, RouterScheduler, TileId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of calendar bucket slots (a ring indexed by `cycle % WIDTH`).
/// Due stamps lie at most one maximal serialization ([`crate::MAX_FLITS`]
/// cycles) in the future, except a fault window's end, which is re-filed
/// each time its slot drains until it comes due; any width beyond
/// `MAX_FLITS` only spreads entries, and 64 keeps the ring a few cache
/// lines.
const CALENDAR_WIDTH: u64 = 64;

/// Origin of the due-only walk's order-key space: tail keys (between-cycle
/// activations, appended after everything) count up from here, head keys
/// (in-walk activations, inserted before everything) count down from here
/// in strides of [`HEAD_STRIDE`] per walk.
const POS_ORIGIN: u64 = 1 << 62;

/// Order-key budget one walk's in-walk activations share: each walk lowers
/// the head base by a full stride so its activations sort below every
/// earlier walk's, and 2^32 activations per walk is unreachable (a walk
/// activates at most one router per committed forward).
const HEAD_STRIDE: u64 = 1 << 32;

/// When the descending head base reaches this floor (after ~2^29 walks),
/// the next walk renumbers every active router's key from the origin —
/// O(active log active), amortized to nothing.
const HEAD_FLOOR: u64 = 1 << 33;

/// The network's contribution to the memory budget report (see
/// [`Network::memory_report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocMemoryReport {
    /// Modelled router buffer capacity across the fabric, in bytes.
    pub buffer_bytes: usize,
    /// Calendar router-scheduler bookkeeping heap, in bytes (0-ish under
    /// the reference scheduler: just the dense due/buffered-count mirrors).
    pub calendar_bytes: usize,
}

/// A message rejected at injection, handed back to the caller together with
/// the reason so it can be retried on a later cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The message that was not injected.
    pub message: Message,
    /// Why it was rejected.
    pub error: NocError,
}

/// Dimension a port moves a message along (used by the bubble rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dimension {
    X,
    Y,
    None,
}

fn port_dimension(port: Port) -> Dimension {
    match port {
        Port::East | Port::West | Port::RucheEast | Port::RucheWest => Dimension::X,
        Port::North | Port::South | Port::RucheNorth | Port::RucheSouth => Dimension::Y,
        Port::Local => Dimension::None,
    }
}

/// State of the head message of one (port, channel) FIFO, as seen by the
/// forwarding scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForwardCandidate {
    /// No message buffered.
    Empty,
    /// The head's last flit is still arriving; it becomes forwardable at
    /// the carried cycle (a due-stamp candidate).
    ReadyAt(u64),
    /// The head may move this cycle, pending downstream acceptance.
    Ready {
        /// Message length in flits.
        flits: usize,
        /// Final destination tile.
        dest: TileId,
    },
}

/// Cycle-level network-on-chip simulator.
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    grid: RoutingGrid,
    routers: Vec<Router>,
    /// Routers in the active set: activated by a forwardable message and
    /// retained while they buffer anything (see `cycle_reference`).
    active: Vec<bool>,
    /// The reference scheduler's explicit active list, in arbitration
    /// order.  Unused under the calendar scheduler, whose order lives in
    /// `pos`.
    active_list: Vec<TileId>,
    /// Non-local output ports the topology actually wires, in `Port::ALL`
    /// order (mesh and plain torus exclude the four ruche ports).
    forward_ports: Vec<Port>,
    /// Precomputed link destinations, `link_dest[tile * 9 + port.index()]`:
    /// the tile each output link leads to.  Dimension-ordered routing makes
    /// a buffered message's output port equal to the port it is buffered
    /// at, so the per-hop `next_hop` geometry reduces to this table lookup.
    link_dest: Vec<TileId>,
    /// Cached `(x, y)` coordinates per tile, sparing the routing hot path
    /// the row-major division per candidate message.
    coords: Vec<(u16, u16)>,
    cycle: u64,
    stats: NocStats,
    in_flight_messages: u64,
    awaiting_ejection: u64,
    /// Tiles that received a delivery since the last call to
    /// [`Network::drain_delivery_events_into`].
    delivery_events: Vec<TileId>,
    delivery_event_pending: Vec<bool>,
    /// Per-router drain version: bumped whenever a message leaves one of
    /// the router's buffers (a forward out of an output port, or an
    /// endpoint draining the ejection buffer).  Injection back-pressure at
    /// a tile can only clear when space frees in that tile's router, so a
    /// rejected injection is guaranteed to fail again until this version
    /// changes — the tile simulator uses that to skip provably futile
    /// retries.  Kept in a dense side array so polling it does not touch
    /// the (much larger) router state.
    drain_versions: Vec<u32>,
    /// Whether the reference scheduler drives [`Network::cycle`] (cached
    /// from [`NocConfig::router_scheduler`]).  The calendar bookkeeping
    /// below is then left unallocated and untouched.
    reference: bool,
    /// Per-router `next_possible` due stamp (calendar scheduler): the
    /// earliest cycle at which port-scanning the router could commit a
    /// forward or have any side effect.  A calendar cycle skips — without
    /// touching the router — every active router whose stamp has not come
    /// due; the invariant (checked by the property suite) is that a
    /// router's stamp never overshoots its actual next commit.  `u64::MAX`
    /// means the router holds nothing forwardable (empty, or ejection
    /// deliveries only) and is re-stamped by the next push.
    due: Vec<u64>,
    /// Dense mirror of each router's `buffered_messages()` so the calendar
    /// walk can decide active-list retention for skipped routers without
    /// touching the (much larger) router state.
    buffered_count: Vec<u32>,
    /// The bucketed calendar: ring of due-router lists indexed by
    /// `stamp % CALENDAR_WIDTH`.  Entries are lazy — a re-stamped router's
    /// old entry is dropped (or re-filed) when its bucket is drained — so
    /// the dense `due` array stays the single source of truth.
    cal_buckets: Vec<Vec<TileId>>,
    /// Scratch for re-filing still-future entries during a bucket drain.
    cal_refile: Vec<TileId>,
    /// Order key per tile, valid only while `active[tile]` — the due-only
    /// walk's *implicit* active list.  Retained routers keep their key, new
    /// in-walk activations take descending head keys, between-cycle
    /// activations take ascending tail keys, so sorting the active tiles by
    /// key reproduces the reference scheduler's `active_list` exactly
    /// (pinned by [`Network::debug_active_order`] and the property suite).
    /// Allocated only under [`RouterScheduler::Calendar`].
    pos: Vec<u64>,
    /// The due-only walk's per-cycle agenda: `(pos, tile)` pairs, popped in
    /// ascending key order.  Filled by the bucket drain (due entries), the
    /// dirty-set replay, and mid-walk wakes of not-yet-visited routers;
    /// empty between cycles.
    cal_heap: BinaryHeap<Reverse<(u64, TileId)>>,
    /// Cycle at which the due-only walk last visited each tile: dedups
    /// stale heap entries (a tile filed in several buckets, or woken after
    /// its drain entry) in O(1).  Allocated only under
    /// [`RouterScheduler::Calendar`].
    cal_visited: Vec<u64>,
    /// Key of the router the due-only walk is currently visiting: a
    /// mid-walk wake for a router with a *larger* key joins this cycle's
    /// heap (its turn has not come), one with a smaller key waits for its
    /// bucket (its turn has passed) — exactly the list walk's semantics.
    walk_cursor: u64,
    /// True while the due-only walk is draining its heap, switching
    /// `mark_active` to head keys and `wake_waiters` to heap insertion.
    in_walk: bool,
    /// Base of the current walk's head-key block (descends by
    /// [`HEAD_STRIDE`] per walk).
    head_base: u64,
    /// In-walk activations so far this walk (offset within the head block).
    head_seq: u64,
    /// Last tail key handed out (between-cycle activations append here).
    tail_next: u64,
    /// Tiles whose buffers an endpoint drain emptied since the last walk:
    /// the next calendar cycle replays exactly these (dropping each where
    /// the reference scheduler would) instead of walking the whole active
    /// set.
    dirty: Vec<TileId>,
    /// Dedup flags for `dirty` (a tile drained empty twice between walks is
    /// replayed once).  Allocated only under the calendar scheduler.
    dirty_pending: Vec<bool>,
    /// Routers whose ready head is blocked on one of `waiters[t]`'s full
    /// buffers (calendar scheduler).  A blocked router registers itself
    /// here and sleeps (due `u64::MAX` unless another port has a
    /// candidate) instead of re-scanning every cycle; any pop at `t` wakes
    /// every waiter.  Spurious wakes (a pop from a buffer the waiter was
    /// not blocked on) cost one no-op re-scan and re-registration — never
    /// a schedule change.
    waiters: Vec<Vec<TileId>>,
    /// The compiled fault schedule (`None` when [`NocConfig::faults`] is
    /// empty — the hot path then pays one pointer test per router scan).
    /// A stalled router or blacked-out link forwards nothing during its
    /// window and contributes the window's end as a due-stamp candidate,
    /// so the calendar walk wakes it at the transition.
    faults: Option<Box<crate::fault::CompiledNocFaults>>,
}

impl Network {
    /// Creates a network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests zero channels or more than
    /// [`crate::MAX_CHANNELS`] (the width of the routers' channel masks),
    /// zero-sized buffers (a network that can never carry a message), or a
    /// zero endpoint-drain budget (an endpoint that can never make
    /// progress).
    pub fn new(config: NocConfig) -> Self {
        assert!(config.channels > 0, "at least one channel is required");
        assert!(
            config.channels <= crate::MAX_CHANNELS,
            "at most {} channels are supported, got {}",
            crate::MAX_CHANNELS,
            config.channels
        );
        assert!(config.buffer_flits > 0, "buffers must hold at least one flit");
        assert!(
            config.ejection_buffer_flits > 0,
            "ejection buffers must hold at least one flit"
        );
        assert!(
            config.endpoint_drains_per_cycle > 0,
            "endpoints must drain at least one message per cycle"
        );
        let num_tiles = config.shape.num_tiles();
        let routers = (0..num_tiles)
            .map(|_| {
                Router::new(
                    config.channels,
                    config.buffer_flits,
                    config.ejection_buffer_flits,
                )
            })
            .collect();
        let grid = RoutingGrid::new(config.shape, config.topology);
        let has_ruche = config.topology.ruche_factor().is_some();
        let forward_ports: Vec<Port> = Port::ALL
            .into_iter()
            .filter(|&p| p != Port::Local && (has_ruche || !p.is_ruche()))
            .collect();
        let ruche = config.topology.ruche_factor().unwrap_or(1) as isize;
        let (width, height) = (config.shape.width() as isize, config.shape.height() as isize);
        let mut link_dest = vec![0 as TileId; num_tiles * Port::ALL.len()];
        for tile in 0..num_tiles {
            let (x, y) = config.shape.coords(tile);
            let (x, y) = (x as isize, y as isize);
            for port in Port::ALL {
                let (dx, dy) = match port {
                    Port::East => (1, 0),
                    Port::West => (-1, 0),
                    Port::North => (0, 1),
                    Port::South => (0, -1),
                    Port::RucheEast => (ruche, 0),
                    Port::RucheWest => (-ruche, 0),
                    Port::RucheNorth => (0, ruche),
                    Port::RucheSouth => (0, -ruche),
                    Port::Local => (0, 0),
                };
                let nx = (x + dx).rem_euclid(width) as usize;
                let ny = (y + dy).rem_euclid(height) as usize;
                link_dest[tile * Port::ALL.len() + port.index()] =
                    config.shape.tile_at(nx, ny);
            }
        }
        let coords = (0..num_tiles)
            .map(|tile| {
                let (x, y) = config.shape.coords(tile);
                (x as u16, y as u16)
            })
            .collect();
        let stats = NocStats {
            injection_rejections_per_tile: vec![0; num_tiles],
            ..NocStats::default()
        };
        let reference = config.router_scheduler == RouterScheduler::Reference;
        let calendar = !reference;
        Network {
            grid,
            routers,
            active: vec![false; num_tiles],
            active_list: Vec::new(),
            forward_ports,
            link_dest,
            coords,
            cycle: 0,
            stats,
            in_flight_messages: 0,
            awaiting_ejection: 0,
            delivery_events: Vec::new(),
            delivery_event_pending: vec![false; num_tiles],
            drain_versions: vec![0; num_tiles],
            reference,
            due: vec![u64::MAX; num_tiles],
            buffered_count: vec![0; num_tiles],
            cal_buckets: if calendar {
                (0..CALENDAR_WIDTH).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            cal_refile: Vec::new(),
            pos: if calendar { vec![0; num_tiles] } else { Vec::new() },
            cal_heap: BinaryHeap::new(),
            cal_visited: if calendar {
                vec![u64::MAX; num_tiles]
            } else {
                Vec::new()
            },
            walk_cursor: 0,
            in_walk: false,
            head_base: POS_ORIGIN,
            head_seq: 0,
            tail_next: POS_ORIGIN,
            dirty: Vec::new(),
            dirty_pending: if calendar {
                vec![false; num_tiles]
            } else {
                Vec::new()
            },
            waiters: if calendar {
                vec![Vec::new(); num_tiles]
            } else {
                Vec::new()
            },
            faults: crate::fault::CompiledNocFaults::compile(&config.faults, num_tiles),
            config,
        }
    }

    /// Aligns the fault schedule's clock with a driver that advances its
    /// own cycle count past the network's: fault windows are expressed in
    /// driver cycles, and the network evaluates them at
    /// `current_cycle + offset`.  A no-op without a fault schedule.
    pub fn set_fault_time_offset(&mut self, offset: u64) {
        if let Some(faults) = self.faults.as_deref_mut() {
            faults.offset = offset;
        }
    }

    /// Per-event impact counters, index-aligned with
    /// [`NocConfig::faults`]'s events (empty without a fault schedule).
    /// Derived from committed forwards only, so bit-identical across
    /// schedulers.
    pub fn fault_impacts(&self) -> &[crate::fault::FaultImpact] {
        self.faults.as_deref().map_or(&[], |f| &f.impacts)
    }

    /// The drain version of `tile`'s router: a counter that advances every
    /// time a message leaves one of the router's buffers.  While it is
    /// unchanged, a previously rejected injection at `tile` would be
    /// rejected again (buffer space only frees on drains), so endpoints can
    /// park blocked channels until it moves instead of re-attempting every
    /// cycle.
    pub fn buffer_drain_version(&self, tile: TileId) -> u32 {
        self.drain_versions[tile]
    }

    /// Records `n` injection back-pressure rejections at `src` without
    /// performing the attempts.  The tile simulator calls this for parked
    /// channels whose retry it skipped (the router's drain version proves
    /// the attempt would have failed), keeping
    /// [`NocStats::injection_rejections_per_tile`] identical to an engine
    /// that re-attempts every cycle.
    pub fn count_injection_backpressure(&mut self, src: TileId, n: u64) {
        self.stats.injection_backpressure_events += n;
        self.stats.injection_rejections_per_tile[src] += n;
    }

    /// Appends the tiles that received at least one delivery since the last
    /// call to `out` (which the caller typically clears and reuses every
    /// cycle) and resets the event list.  The tile simulator uses this to
    /// wake up otherwise idle tiles without scanning the whole grid every
    /// cycle.
    pub fn drain_delivery_events_into(&mut self, out: &mut Vec<TileId>) {
        for &tile in &self.delivery_events {
            self.delivery_event_pending[tile] = false;
        }
        out.append(&mut self.delivery_events);
    }

    fn note_delivery(&mut self, tile: TileId) {
        if !self.delivery_event_pending[tile] {
            self.delivery_event_pending[tile] = true;
            self.delivery_events.push(tile);
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The network's lines of the memory budget report: the modelled router
    /// buffer capacity (wired non-local ports at `buffer_flits` plus the
    /// local ejection buffers at `ejection_buffer_flits`, per channel, 4
    /// bytes per flit), and the calendar scheduler's actual bookkeeping
    /// heap (due stamps, buffered-count mirror, bucket ring, waiter lists —
    /// simulator state, not modelled hardware, so it legitimately differs
    /// between router schedulers).
    pub fn memory_report(&self) -> NocMemoryReport {
        const FLIT_BYTES: usize = 4;
        let per_router = (self.forward_ports.len() * self.config.buffer_flits
            + self.config.ejection_buffer_flits)
            * self.config.channels
            * FLIT_BYTES;
        let calendar_bytes = self.due.len() * std::mem::size_of::<u64>()
            + self.buffered_count.len() * std::mem::size_of::<u32>()
            + self
                .cal_buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<TileId>())
                .sum::<usize>()
            + self
                .waiters
                .iter()
                .map(|w| w.capacity() * std::mem::size_of::<TileId>())
                .sum::<usize>()
            // Due-only walk state (all empty under the reference scheduler):
            // order keys, visit stamps, the heap and the dirty set.
            + self.pos.len() * std::mem::size_of::<u64>()
            + self.cal_visited.len() * std::mem::size_of::<u64>()
            + self.cal_heap.capacity() * std::mem::size_of::<Reverse<(u64, TileId)>>()
            + self.dirty.capacity() * std::mem::size_of::<TileId>()
            + self.dirty_pending.len();
        NocMemoryReport {
            buffer_bytes: per_router * self.routers.len(),
            calendar_bytes,
        }
    }

    /// The current cycle count.
    pub fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of messages buffered inside the fabric (not yet ejected).
    pub fn in_flight(&self) -> u64 {
        self.in_flight_messages
    }

    /// Number of messages sitting in ejection buffers, waiting for their
    /// tile to drain them.
    pub fn awaiting_ejection(&self) -> u64 {
        self.awaiting_ejection
    }

    /// True when no message is buffered anywhere in the fabric, including
    /// the ejection buffers.  This is the network's contribution to the
    /// chip-wide hierarchical idle signal used for termination detection.
    pub fn is_idle(&self) -> bool {
        self.in_flight_messages == 0 && self.awaiting_ejection == 0
    }

    /// Synonym for [`Network::is_idle`]: the fabric is quiescent when every
    /// injected message has been delivered *and* drained by its endpoint.
    /// The property suite uses this name when asserting that any
    /// `endpoint_drains_per_cycle ≥ 1` eventually reaches quiescence.
    pub fn quiescent(&self) -> bool {
        self.is_idle()
    }

    /// Number of delivered messages waiting in `tile`'s ejection buffers
    /// across all channels, in O(1).  The tile simulator polls this instead
    /// of scanning every channel's occupancy each cycle.
    pub fn delivered_waiting(&self, tile: TileId) -> usize {
        self.routers[tile].msgs_at(Port::Local) as usize
    }

    /// Bitmask of channels with at least one delivered message waiting at
    /// `tile` (bit `c` set for channel `c`), in O(1).  The tile simulator's
    /// drain loop iterates this mask instead of scanning every channel.
    pub fn delivered_channel_mask(&self, tile: TileId) -> u32 {
        self.routers[tile].occupied_channel_mask(Port::Local)
    }

    /// Computes the output port a message for `dest` takes at `at`, along
    /// with whether it is entering a new dimension there when it arrived via
    /// `arrival_dimension`.
    fn routed_port(&self, at: TileId, dest: TileId, arrived_via: Dimension) -> (Port, bool) {
        if at == dest {
            return (Port::Local, false);
        }
        let (cx, cy) = self.coords[at];
        let (dx, dy) = self.coords[dest];
        let hop = self
            .grid
            .next_hop_from((cx as usize, cy as usize), (dx as usize, dy as usize));
        let dim = port_dimension(hop.port);
        let entering = matches!(
            (arrived_via, dim),
            (Dimension::None, _) | (Dimension::X, Dimension::Y) | (Dimension::Y, Dimension::X)
        );
        (hop.port, entering)
    }

    /// Injects a message at `src`.  On success the message starts travelling
    /// this cycle; on failure the message is handed back so the caller can
    /// retry later (channel queues in the tiles exert exactly this
    /// back-pressure on producing tasks).
    ///
    /// Back-pressure rejections are counted per source tile in
    /// [`NocStats::injection_rejections_per_tile`] so a sweep can attribute
    /// endpoint stalls to the tiles that suffered them.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] with:
    /// * [`NocError::TileOutOfRange`] / [`NocError::ChannelOutOfRange`] for
    ///   invalid addressing,
    /// * [`NocError::MessageTooLong`] if the message can never fit a buffer,
    /// * [`NocError::InjectionBackpressure`] if the first-hop buffer is
    ///   currently full.
    pub fn try_inject(&mut self, src: TileId, message: Message) -> Result<(), Rejected> {
        let num_tiles = self.routers.len();
        if src >= num_tiles || message.dest() >= num_tiles {
            let tile = if src >= num_tiles { src } else { message.dest() };
            return Err(Rejected {
                error: NocError::TileOutOfRange { tile, num_tiles },
                message,
            });
        }
        if message.channel() >= self.config.channels {
            return Err(Rejected {
                error: NocError::ChannelOutOfRange {
                    channel: message.channel(),
                    channels: self.config.channels,
                },
                message,
            });
        }
        let flits = message.len();
        let max_needed = flits + flits; // message plus bubble slack
        if flits > self.config.ejection_buffer_flits || max_needed > self.config.buffer_flits {
            return Err(Rejected {
                error: NocError::MessageTooLong {
                    flits,
                    capacity: self.config.buffer_flits.min(self.config.ejection_buffer_flits),
                },
                message,
            });
        }

        let dest = message.dest();
        let channel = message.channel();
        let (port, entering) = self.routed_port(src, dest, Dimension::None);
        let bubble = flits;
        if !self.routers[src].can_accept(port, channel, flits, entering, bubble) {
            self.count_injection_backpressure(src, 1);
            return Err(Rejected {
                error: NocError::InjectionBackpressure,
                message,
            });
        }
        let mut message = message;
        message.injected_at = self.cycle;
        let queued = QueuedMessage {
            ready_at: self.cycle,
            message,
        };
        self.stats.injected_messages += 1;
        self.buffered_count[src] += 1;
        if port == Port::Local {
            self.awaiting_ejection += 1;
            self.stats.delivered_messages += 1;
            self.stats.delivered_flits += flits as u64;
            self.note_delivery(src);
            self.routers[src].push(port, channel, queued);
        } else {
            self.in_flight_messages += 1;
            // The new message is forwardable as soon as its output link is
            // free: a fresh candidate for the router's due stamp.
            let candidate = self.cycle.max(self.routers[src].link_busy_until(port));
            self.schedule_due(src, candidate);
            self.routers[src].push(port, channel, queued);
            self.mark_active(src);
        }
        Ok(())
    }

    fn mark_active(&mut self, tile: TileId) {
        if !self.active[tile] {
            self.active[tile] = true;
            if self.reference {
                self.active_list.push(tile);
            } else {
                // The implicit list: in-walk activations take the walk's
                // descending head block (they contend *before* every
                // surviving router next cycle, in activation order —
                // exactly where the explicit list pushes them while the
                // old list is taken out), between-cycle activations take
                // ascending tail keys (appended after everything).
                self.pos[tile] = if self.in_walk {
                    self.head_seq += 1;
                    self.head_base + self.head_seq
                } else {
                    self.tail_next += 1;
                    self.tail_next
                };
            }
        }
    }

    /// Queues `tile` for the next walk's dirty-set replay (an endpoint
    /// drain emptied its buffers while it sat in the active list).  Dedup
    /// via `dirty_pending` keeps the replay list one entry per tile no
    /// matter how the drains interleave.
    #[inline]
    fn note_membership_dirty(&mut self, tile: TileId) {
        if !self.dirty_pending[tile] {
            self.dirty_pending[tile] = true;
            self.dirty.push(tile);
        }
    }

    /// Pops the next delivered message at `tile`, searching channels in
    /// round-robin order. Returns `None` when the ejection buffers are
    /// empty.
    pub fn pop_delivered(&mut self, tile: TileId) -> Option<Message> {
        if self.routers[tile].msgs_at(Port::Local) == 0 {
            return None;
        }
        for channel in 0..self.config.channels {
            if let Some(message) = self.pop_delivered_on(tile, channel) {
                return Some(message);
            }
        }
        None
    }

    /// Pops the next delivered message at `tile` on a specific channel.
    pub fn pop_delivered_on(&mut self, tile: TileId, channel: ChannelId) -> Option<Message> {
        let queued = self.routers[tile].pop(Port::Local, channel)?;
        self.awaiting_ejection -= 1;
        self.buffered_count[tile] -= 1;
        if !self.reference && self.buffered_count[tile] == 0 && self.active[tile] {
            // The drain emptied an active router: the next calendar cycle
            // must replay exactly this tile so it is dropped at the
            // position the reference scheduler would drop it (or retained
            // in place, if something refills it before the walk).
            self.note_membership_dirty(tile);
        }
        // The freed ejection space may unblock an upstream waiter on the
        // next simulated cycle.
        self.wake_waiters(tile, self.cycle, self.cycle);
        self.drain_versions[tile] = self.drain_versions[tile].wrapping_add(1);
        Some(queued.message)
    }

    /// Peeks at the next delivered message at `tile` on `channel` without
    /// removing it.
    pub fn peek_delivered_on(&self, tile: TileId, channel: ChannelId) -> Option<&Message> {
        let buffer = self.routers[tile].buffer(Port::Local, channel);
        buffer.front().map(|q| &q.message)
    }

    /// Number of flits waiting in `tile`'s ejection buffer for `channel`.
    pub fn ejection_occupancy(&self, tile: TileId, channel: ChannelId) -> usize {
        self.routers[tile].buffer(Port::Local, channel).occupied_flits()
    }

    /// Advances the network by one cycle: every output link that is free and
    /// has a ready message whose downstream buffer can accept it forwards
    /// that message one hop.
    ///
    /// Under the default [`RouterScheduler::Calendar`] this is the
    /// event-driven hot path: only the routers whose `next_possible` due
    /// stamp has come due are port-scanned, only their occupied topology
    /// ports are visited, and no heap allocation happens in steady state.
    /// Under [`RouterScheduler::Reference`] the pre-overhaul oracle walk runs
    /// instead; the forwarding schedule (which message moves on which
    /// cycle) and every statistic are bit-identical either way.
    pub fn cycle(&mut self) {
        if self.reference {
            self.cycle_reference();
        } else {
            self.cycle_calendar();
        }
    }

    /// The due-only calendar walk ([`RouterScheduler::Calendar`]): drain
    /// this cycle's bucket, order the (few) due routers by their list position
    /// via the heap, and port-scan exactly those — O(due log due) per
    /// cycle instead of O(active), reconstructing the reference scheduler's
    /// arbitration order without ever touching a non-due router.
    ///
    /// Fidelity rests on four mechanisms, each mirroring one behaviour of
    /// the reference scheduler's explicit-list walk:
    /// * retained routers keep their `pos` key (the list walk's requeue
    ///   preserves relative order);
    /// * drops happen at the router's own heap turn, reading the buffered
    ///   mirror *then* (an endpoint-drained router refilled before the walk
    ///   is retained in place, exactly like the list walk would);
    /// * mid-walk wakes of routers whose key is past the cursor join this
    ///   cycle's heap (the list walk would reach them later in the list);
    /// * in-walk activations take head keys below every live key (the list
    ///   walk pushes them before the requeued survivors).
    fn cycle_calendar(&mut self) {
        let now = self.cycle;
        self.maybe_compact();
        let any_due = self.drain_due_bucket(now);
        if !any_due && self.dirty.is_empty() {
            debug_assert!(self.cal_heap.is_empty());
            // No router due, no membership change pending: a provable
            // no-op for every active router.
            self.stats.walks_elided += 1;
            self.cycle += 1;
            self.stats.cycles = self.cycle;
            return;
        }
        // Replay the dirty set: each tile contends (and makes its drop /
        // retain decision) at its own list position.
        while let Some(tile) = self.dirty.pop() {
            self.dirty_pending[tile] = false;
            if self.active[tile] {
                self.cal_heap.push(Reverse((self.pos[tile], tile)));
            }
        }
        let mut visited = 0u64;
        let mut scanned = 0u64;
        self.in_walk = true;
        self.head_base -= HEAD_STRIDE;
        self.head_seq = 0;
        self.walk_cursor = 0;
        while let Some(Reverse((key, tile))) = self.cal_heap.pop() {
            if !self.active[tile] || self.pos[tile] != key || self.cal_visited[tile] == now {
                // Stale entry: the tile was dropped (and possibly re-added
                // under a fresh key) since this entry was filed, or it was
                // already visited this cycle via another bucket.
                continue;
            }
            self.cal_visited[tile] = now;
            self.walk_cursor = key;
            visited += 1;
            debug_assert_eq!(
                self.buffered_count[tile] as usize,
                self.routers[tile].buffered_messages(),
                "dense buffered-message mirror drifted"
            );
            if self.due[tile] <= now {
                self.due[tile] = u64::MAX;
                scanned += 1;
                let stamp = self.scan_router(tile, now);
                self.set_due(tile, stamp);
            }
            if self.buffered_count[tile] == 0 {
                // Dropped at exactly the position the list walk would drop
                // it.  Clearing the stamp keeps the invariant that an
                // inactive router's due is `u64::MAX`, so a later push's
                // `schedule_due` is guaranteed to file a fresh bucket
                // entry (stamps only ever *lower*).
                self.active[tile] = false;
                self.due[tile] = u64::MAX;
            }
        }
        self.in_walk = false;
        self.stats.walk_routers_visited += visited;
        self.stats.walk_routers_scanned += scanned;
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// Renumbers every active router's order key from the origin when the
    /// descending head-key space nears exhaustion (every ~2^29 walks).
    /// Runs before the bucket drain, while the heap is empty and the
    /// buckets hold plain tile ids — nothing else stores keys, so the
    /// renumbering is invisible to the schedule.
    fn maybe_compact(&mut self) {
        if self.head_base > HEAD_FLOOR {
            return;
        }
        let mut order: Vec<(u64, TileId)> = (0..self.active.len())
            .filter(|&t| self.active[t])
            .map(|t| (self.pos[t], t))
            .collect();
        order.sort_unstable();
        self.head_base = POS_ORIGIN;
        self.tail_next = POS_ORIGIN;
        for (_, tile) in order {
            self.tail_next += 1;
            self.pos[tile] = self.tail_next;
        }
    }

    /// The arbitration order the next walk would visit routers in — the
    /// explicit `active_list` under the reference scheduler, the active
    /// tiles sorted by order key under the calendar walk.  Test-only
    /// introspection: the property suite asserts the two stay byte-
    /// identical cycle by cycle.
    pub fn debug_active_order(&self) -> Vec<TileId> {
        if self.reference {
            return self.active_list.clone();
        }
        let mut order: Vec<(u64, TileId)> = (0..self.active.len())
            .filter(|&t| self.active[t])
            .map(|t| (self.pos[t], t))
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, tile)| tile).collect()
    }

    /// Lowers `tile`'s due stamp to `stamp` (push/injection events), filing
    /// it into the calendar bucket for that cycle.  No-op under the
    /// reference scheduler and for the "nothing forwardable" sentinel.
    #[inline]
    fn schedule_due(&mut self, tile: TileId, stamp: u64) {
        if self.reference || stamp == u64::MAX {
            return;
        }
        if stamp < self.due[tile] {
            self.due[tile] = stamp;
            self.cal_buckets[(stamp % CALENDAR_WIDTH) as usize].push(tile);
        }
    }

    /// Wakes every router registered as a waiter on `tile`'s buffers: a pop
    /// at `tile` just freed space, so each waiter's blocked head may now
    /// move — its due stamp collapses to `stamp` (the pop's cycle: a waiter
    /// positioned after `tile` in the current walk contends this very
    /// cycle, exactly as the reference scheduler's list walk would let it).
    /// Entries are filed under `bucket_cycle` — the next cycle whose bucket
    /// is still undrained — so the next walk finds them.
    #[inline]
    fn wake_waiters(&mut self, tile: TileId, stamp: u64, bucket_cycle: u64) {
        if self.reference || self.waiters[tile].is_empty() {
            return;
        }
        while let Some(waiter) = self.waiters[tile].pop() {
            if !self.active[waiter] {
                // Stale registration: the waiter was dropped from the list
                // after its blocked head finally moved (the registration
                // outlives the blockage).  There is nothing to wake — and
                // lowering an inactive router's stamp would break the
                // inactive ⇒ due == MAX invariant the due-only walk's
                // re-activation path depends on (stamps only ever lower,
                // so a poisoned-low stamp would never file a fresh bucket
                // entry again).
                continue;
            }
            if stamp < self.due[waiter] {
                self.due[waiter] = stamp;
                if self.in_walk && self.pos[waiter] > self.walk_cursor {
                    // Woken before its turn in the walk now in progress:
                    // it contends this very cycle at its own list position
                    // — exactly when the list walk would reach it.
                    self.cal_heap.push(Reverse((self.pos[waiter], waiter)));
                } else {
                    self.cal_buckets[(bucket_cycle % CALENDAR_WIDTH) as usize].push(waiter);
                }
            }
        }
    }

    /// Records the authoritative due stamp a walk just computed for `tile`
    /// (the scan has complete knowledge, so the stamp may also rise).
    #[inline]
    fn set_due(&mut self, tile: TileId, stamp: u64) {
        debug_assert!(!self.reference);
        self.due[tile] = stamp;
        if stamp != u64::MAX {
            self.cal_buckets[(stamp % CALENDAR_WIDTH) as usize].push(tile);
        }
    }

    /// Drains the calendar bucket of cycle `now`, returning whether any
    /// entry is actually due (stamps are lazy-validated against the dense
    /// `due` array; still-future entries are re-filed into their stamp's
    /// bucket).  The network ticks every cycle, so each bucket is drained
    /// exactly once per lap of the ring.
    fn drain_due_bucket(&mut self, now: u64) -> bool {
        let idx = (now % CALENDAR_WIDTH) as usize;
        // Take the bucket out (keeping its allocation) so its entries can
        // be validated against the dense stamps.
        let mut bucket = std::mem::take(&mut self.cal_buckets[idx]);
        let mut any_due = false;
        debug_assert!(self.cal_refile.is_empty());
        for &tile in &bucket {
            if self.due[tile] <= now {
                any_due = true;
                // The walk's agenda: due routers, ordered by their list
                // position.  Duplicates (a tile filed twice) dedup at the
                // pop via the visited stamp.
                self.cal_heap.push(Reverse((self.pos[tile], tile)));
            } else if self.due[tile] != u64::MAX {
                // Re-stamped into the future since this entry was filed:
                // keep it alive in its new bucket.
                self.cal_refile.push(tile);
            }
        }
        bucket.clear();
        self.cal_buckets[idx] = bucket;
        let mut refile = std::mem::take(&mut self.cal_refile);
        for &tile in &refile {
            self.cal_buckets[(self.due[tile] % CALENDAR_WIDTH) as usize].push(tile);
        }
        refile.clear();
        self.cal_refile = refile;
        any_due
    }

    /// The calendar scheduler's `next_possible` due stamp for `tile`: the
    /// earliest cycle at which port-scanning the router could commit a
    /// forward or have a side effect (`u64::MAX` when it holds nothing
    /// forwardable).  Only meaningful under
    /// [`RouterScheduler::Calendar`]; the property suite asserts the stamp
    /// never overshoots the router's actual next commit.
    pub fn next_possible_stamp(&self, tile: TileId) -> u64 {
        self.due[tile]
    }

    /// The reference scheduler's cycle ([`RouterScheduler::Reference`]),
    /// the pre-overhaul implementation kept as the schedule oracle.
    ///
    /// It walks the explicit active list, scans every port of every active
    /// router (including ports the topology never wires) and allocates a
    /// fresh snapshot vector per cycle — exactly what the calendar walk
    /// replaced.  A router stays in the list while it buffers *any*
    /// message, including undrained ejection-buffer deliveries: retention
    /// is not about work, it preserves the router's position in the
    /// arbitration order, so that when a forwardable message later arrives
    /// the router contends from the same list slot.
    fn cycle_reference(&mut self) {
        let now = self.cycle;
        let snapshot: Vec<TileId> = std::mem::take(&mut self.active_list);
        let mut still_active: Vec<TileId> = Vec::with_capacity(snapshot.len());
        for tile in snapshot {
            self.active[tile] = false;
            // Mirror of the calendar walk's fault gates: a stalled router
            // scans nothing, a blacked-out link forwards nothing.  (The
            // skipped busy-link `account_busy` call is provably a no-op —
            // `commit_forward` covers the full serialization interval up
            // front — so busy statistics cannot diverge.)
            let stalled = self
                .faults
                .as_deref()
                .is_some_and(|f| f.stall_candidate(tile, now).is_some());
            if !stalled {
                for port in Port::ALL {
                    if port == Port::Local {
                        continue;
                    }
                    if self
                        .faults
                        .as_deref()
                        .is_some_and(|f| f.outage_candidate(tile, port, now).is_some())
                    {
                        continue;
                    }
                    if self.routers[tile].link_busy_until(port) > now {
                        self.account_busy(tile, now, now + 1);
                        continue;
                    }
                    self.try_forward_reference(tile, port, now);
                }
            }
            if self.routers[tile].buffered_messages() > 0 && !self.active[tile] {
                self.active[tile] = true;
                still_active.push(tile);
            }
        }
        self.active_list.extend(still_active);
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// Port-scans one router for the calendar walk, committing at most one
    /// forward per occupied port and returning the router's fresh due
    /// stamp: the min over its busy links' un-busy times, its heads'
    /// `ready_at`s and its post-commit link-free times (`u64::MAX` when
    /// every head is blocked downstream — the waiter lists re-stamp it).
    fn scan_router(&mut self, tile: TileId, now: u64) -> u64 {
        if let Some(faults) = self.faults.as_deref() {
            if let Some(recovery) = faults.stall_candidate(tile, now) {
                // The whole router is stalled: it provably commits nothing
                // before the stall window ends, so the window's end is its
                // fresh due stamp — the walk wakes it at the transition,
                // exactly like a busy link.
                return recovery;
            }
        }
        let mut stamp = u64::MAX;
        for i in 0..self.forward_ports.len() {
            let port = self.forward_ports[i];
            let router = &self.routers[tile];
            if router.msgs_at(port) == 0 {
                // Nothing buffered here.  Any residual link serialization was
                // fully accounted when the occupying message was forwarded.
                continue;
            }
            if let Some(faults) = self.faults.as_deref() {
                if let Some(recovery) = faults.outage_candidate(tile, port, now) {
                    // The link is blacked out: buffered messages wait until
                    // the outage window ends.
                    stamp = stamp.min(recovery);
                    continue;
                }
            }
            let busy_until = router.link_busy_until(port);
            if busy_until > now {
                // The earliest this port can act again is when its link
                // frees (its head may additionally not be ready by then —
                // the stamp is a lower bound, the rescan at `busy_until`
                // tightens it).
                stamp = stamp.min(busy_until);
                continue;
            }
            self.try_forward(tile, port, now, &mut stamp);
        }
        stamp
    }

    /// Attempts to forward one message from (tile, port); implements
    /// round-robin channel arbitration at the output port, lowering
    /// `stamp` to this port's next candidate cycle.
    ///
    /// This is the optimised candidate evaluation: the per-channel
    /// occupancy mask skips empty FIFOs without touching their heap
    /// buffers, the link destination comes from the precomputed table, and
    /// the downstream port is routed from cached coordinates.  The
    /// decisions it commits are bit-identical to
    /// [`Network::try_forward_reference`].
    fn try_forward(&mut self, tile: TileId, port: Port, now: u64, stamp: &mut u64) {
        let channels = self.config.channels;
        let start_channel = self.routers[tile].rr_channel(port);
        for offset in 0..channels {
            let channel = (start_channel + offset) % channels;
            if !self.routers[tile].channel_occupied(port, channel) {
                continue;
            }
            match self.forwardable_message(tile, port, channel, now) {
                ForwardCandidate::ReadyAt(ready_at) => {
                    // Cut-through: the head cannot move before its last flit
                    // has arrived — a future candidate.
                    *stamp = (*stamp).min(ready_at);
                    continue;
                }
                ForwardCandidate::Empty => continue,
                ForwardCandidate::Ready { flits, dest } => {
                    // Where does this link lead, and which buffer does the
                    // message occupy there?  Dimension-ordered routing
                    // buffered the message at its routed output port, so the
                    // link destination is a table lookup; the debug
                    // assertion cross-checks it against the full routing
                    // geometry.
                    let next_tile = self.link_dest[tile * Port::ALL.len() + port.index()];
                    debug_assert_eq!(
                        self.grid.next_hop(tile, dest).map(|h| (h.port, h.next)),
                        Some((port, next_tile)),
                        "a buffered message never sits at its destination's non-local port"
                    );
                    let (next_port, entering) =
                        self.routed_port(next_tile, dest, port_dimension(port));
                    let bubble = flits;
                    if !self.routers[next_tile].can_accept(
                        next_port, channel, flits, entering, bubble,
                    ) {
                        // Blocked on a full downstream buffer: this head can
                        // only move after a pop frees space there, so it
                        // contributes no time candidate — this router
                        // registers as a waiter so the pop re-stamps it
                        // (instead of it re-scanning every cycle).
                        if !self.waiters[next_tile].contains(&tile) {
                            self.waiters[next_tile].push(tile);
                        }
                        continue;
                    }
                    self.commit_forward(tile, port, channel, flits, next_tile, next_port, now);
                    // Nothing leaves this port before its link frees (the
                    // upstream routers the forward unblocked were woken by
                    // `commit_forward` through the waiter list).
                    *stamp = (*stamp).min(self.routers[tile].link_busy_until(port));
                    return;
                }
            }
        }
    }

    /// The pre-overhaul candidate evaluation, kept verbatim for
    /// [`Network::cycle_reference`]: every channel FIFO is probed directly
    /// and the routing geometry is recomputed per candidate, exactly as the
    /// original hot path did.  Both evaluations funnel into
    /// [`Network::commit_forward`], so they cannot diverge in behaviour —
    /// only in cost.
    fn try_forward_reference(&mut self, tile: TileId, port: Port, now: u64) {
        let channels = self.config.channels;
        let start_channel = self.routers[tile].rr_channel(port);
        for offset in 0..channels {
            let channel = (start_channel + offset) % channels;
            let ForwardCandidate::Ready { flits, dest } =
                self.forwardable_message(tile, port, channel, now)
            else {
                continue;
            };
            let hop = self
                .grid
                .next_hop(tile, dest)
                .expect("a buffered message never sits at its destination's non-local port");
            debug_assert_eq!(hop.port, port);
            let next_tile = hop.next;
            let (next_port, entering) = match self.grid.next_hop(next_tile, dest) {
                None => (Port::Local, false),
                Some(next_hop) => {
                    let dim = port_dimension(next_hop.port);
                    let entering = matches!(
                        (port_dimension(port), dim),
                        (Dimension::None, _)
                            | (Dimension::X, Dimension::Y)
                            | (Dimension::Y, Dimension::X)
                    );
                    (next_hop.port, entering)
                }
            };
            let bubble = flits;
            if !self.routers[next_tile].can_accept(next_port, channel, flits, entering, bubble) {
                continue;
            }
            self.commit_forward(tile, port, channel, flits, next_tile, next_port, now);
            return;
        }
    }

    /// Commits one forwarding decision: dequeues the message, occupies the
    /// link, accounts busy time and traffic statistics, and enqueues the
    /// message downstream (ejecting it if the downstream port is local).
    #[allow(clippy::too_many_arguments)]
    fn commit_forward(
        &mut self,
        tile: TileId,
        port: Port,
        channel: ChannelId,
        flits: usize,
        next_tile: TileId,
        next_port: Port,
        now: u64,
    ) {
        let queued = self.routers[tile]
            .pop(port, channel)
            .expect("forwardable message exists");
        self.buffered_count[tile] -= 1;
        if let Some(faults) = self.faults.as_deref_mut() {
            // Attribute the head's wait to any fault window it overlapped —
            // at the commit, the one event every scheduler agrees on.
            faults.record_commit(tile, port, queued.ready_at, now);
        }
        // The freed output-buffer space may unblock an upstream waiter: it
        // contends at `now` if it sits after this router in the walk (file
        // under `now + 1`, the first undrained bucket — the current walk
        // reads the dense stamps directly).
        self.wake_waiters(tile, now, now + 1);
        self.drain_versions[tile] = self.drain_versions[tile].wrapping_add(1);
        let serialization = flits as u64;
        self.routers[tile].set_link_busy_until(port, now + serialization);
        self.routers[tile].flits_per_port[port.index()] += flits as u64;
        self.account_busy(tile, now, now + serialization);

        self.stats.flit_hops += flits as u64;
        self.stats.flit_tile_spans +=
            flits as f64 * self.config.topology.hop_wire_tiles(port.hop_kind());

        let arriving = QueuedMessage {
            ready_at: now + serialization,
            message: queued.message,
        };
        self.buffered_count[next_tile] += 1;
        if next_port == Port::Local {
            self.in_flight_messages -= 1;
            self.awaiting_ejection += 1;
            self.stats.delivered_messages += 1;
            self.stats.delivered_flits += flits as u64;
            self.stats.total_latency_cycles +=
                now + serialization - arriving.message.injected_at;
            self.note_delivery(next_tile);
            self.routers[next_tile].push(next_port, channel, arriving);
        } else {
            // The arriving head can go once its last flit has landed and
            // the downstream link is free: a due-stamp candidate for the
            // downstream router.
            let downstream_due =
                (now + serialization).max(self.routers[next_tile].link_busy_until(next_port));
            self.schedule_due(next_tile, downstream_due);
            self.routers[next_tile].push(next_port, channel, arriving);
            self.mark_active(next_tile);
        }
        self.routers[tile].advance_rr(port, self.config.channels);
    }

    /// Classifies the head message on (tile, port, channel): ready to move
    /// this cycle, ready only at a future cycle (cut-through still
    /// arriving), or no message at all.
    fn forwardable_message(
        &self,
        tile: TileId,
        port: Port,
        channel: ChannelId,
        now: u64,
    ) -> ForwardCandidate {
        let buffer = self.routers[tile].buffer(port, channel);
        let Some(queued) = buffer.front() else {
            return ForwardCandidate::Empty;
        };
        if queued.ready_at > now {
            return ForwardCandidate::ReadyAt(queued.ready_at);
        }
        ForwardCandidate::Ready {
            flits: queued.message.len(),
            dest: queued.message.dest(),
        }
    }

    /// Accounts busy cycles for a router as the union of its ports' link
    /// activity intervals.  The coverage marker lives inside the router so
    /// the accounting touches no memory beyond the router already in cache.
    fn account_busy(&mut self, tile: TileId, from: u64, until: u64) {
        let router = &mut self.routers[tile];
        let start = from.max(router.busy_covered_until);
        if until > start {
            router.busy_cycles += until - start;
            router.busy_covered_until = until;
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Per-router utilization (fraction of simulated cycles each router was
    /// forwarding at least one flit), as a heatmap grid.
    pub fn router_utilization(&self) -> UtilizationGrid {
        let cycles = self.cycle.max(1) as f64;
        let values = self
            .routers
            .iter()
            .map(|r| (r.busy_cycles as f64 / cycles).min(1.0))
            .collect();
        UtilizationGrid::new(
            self.config.shape.width(),
            self.config.shape.height(),
            values,
        )
    }

    /// Flits forwarded by every router (row-major), a contention proxy used
    /// by tests.
    pub fn flits_per_router(&self) -> Vec<u64> {
        self.routers
            .iter()
            .map(|r| r.flits_per_port.iter().sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GridShape;
    use crate::Topology;

    fn small_net(topology: Topology) -> Network {
        Network::new(NocConfig::new(GridShape::new(4, 4), topology))
    }

    fn reference_net(topology: Topology) -> Network {
        Network::new(
            NocConfig::new(GridShape::new(4, 4), topology)
                .with_router_scheduler(RouterScheduler::Reference),
        )
    }

    fn run_until_idle(net: &mut Network, max_cycles: u64) {
        let mut cycles = 0;
        while net.in_flight() > 0 {
            net.cycle();
            cycles += 1;
            assert!(cycles < max_cycles, "network did not drain");
        }
    }

    #[test]
    fn single_message_is_delivered_intact() {
        for topology in [
            Topology::Mesh,
            Topology::Torus,
            Topology::TorusRuche { factor: 2 },
        ] {
            let mut net = small_net(topology);
            net.try_inject(0, Message::new(15, 1, vec![10, 20, 30])).unwrap();
            run_until_idle(&mut net, 1000);
            let msg = net.pop_delivered(15).expect("delivered");
            assert_eq!(msg.payload(), &[10, 20, 30]);
            assert_eq!(msg.channel(), 1);
            assert!(net.pop_delivered(15).is_none());
            assert!(net.is_idle());
        }
    }

    #[test]
    fn self_message_goes_to_ejection_buffer() {
        let mut net = small_net(Topology::Torus);
        net.try_inject(5, Message::new(5, 0, vec![99])).unwrap();
        assert_eq!(net.awaiting_ejection(), 1);
        assert_eq!(net.delivered_waiting(5), 1);
        let msg = net.pop_delivered(5).unwrap();
        assert_eq!(msg.payload(), &[99]);
        assert!(net.is_idle());
        assert!(net.quiescent());
    }

    #[test]
    fn rejects_bad_addresses_and_channels() {
        let mut net = small_net(Topology::Mesh);
        let err = net.try_inject(99, Message::new(0, 0, vec![1])).unwrap_err();
        assert!(matches!(err.error, NocError::TileOutOfRange { .. }));
        let err = net.try_inject(0, Message::new(99, 0, vec![1])).unwrap_err();
        assert!(matches!(err.error, NocError::TileOutOfRange { .. }));
        let err = net.try_inject(0, Message::new(1, 9, vec![1])).unwrap_err();
        assert!(matches!(err.error, NocError::ChannelOutOfRange { .. }));
        // The rejected message is handed back intact.
        assert_eq!(err.message.payload(), &[1]);
        // Addressing errors are caller bugs, not endpoint back-pressure.
        assert_eq!(net.stats().total_injection_rejections(), 0);
    }

    #[test]
    fn rejects_oversized_messages() {
        let mut net = Network::new(
            NocConfig::new(GridShape::new(2, 2), Topology::Mesh).with_buffer_flits(4),
        );
        let err = net
            .try_inject(0, Message::new(3, 0, vec![0; 4]))
            .unwrap_err();
        assert!(matches!(err.error, NocError::MessageTooLong { .. }));
    }

    #[test]
    fn backpressure_when_buffers_full() {
        let mut net = Network::new(
            NocConfig::new(GridShape::new(2, 1), Topology::Mesh)
                .with_channels(1)
                .with_buffer_flits(8),
        );
        // Each message is 3 flits + 3 bubble slack = 6; the second one needs
        // another 3 + bubble which no longer fits an 8-flit buffer.
        net.try_inject(0, Message::new(1, 0, vec![1, 2, 3])).unwrap();
        let err = net.try_inject(0, Message::new(1, 0, vec![4, 5, 6])).unwrap_err();
        assert!(matches!(err.error, NocError::InjectionBackpressure));
        assert_eq!(net.stats().injection_backpressure_events, 1);
        // The rejection is attributed to the injecting tile.
        assert_eq!(net.stats().injection_rejections_per_tile, vec![1, 0]);
        assert_eq!(net.stats().total_injection_rejections(), 1);
        // After the network drains, injection succeeds again.
        run_until_idle(&mut net, 100);
        net.pop_delivered(1).unwrap();
        net.try_inject(0, err.message).unwrap();
    }

    #[test]
    fn many_messages_all_arrive_exactly_once() {
        let mut net = small_net(Topology::Torus);
        let mut expected = vec![0u32; 16];
        let mut pending = Vec::new();
        for src in 0..16usize {
            for (dst, count) in expected.iter_mut().enumerate() {
                let payload = vec![(src * 16 + dst) as u32, 7];
                pending.push((src, Message::new(dst, src % 4, payload)));
                *count += 1;
            }
        }
        // Inject with retry-on-backpressure, interleaved with cycles.
        let mut guard = 0;
        while !pending.is_empty() {
            let mut retry = Vec::new();
            for (src, msg) in pending.drain(..) {
                if let Err(rejected) = net.try_inject(src, msg) {
                    assert!(matches!(rejected.error, NocError::InjectionBackpressure));
                    retry.push((src, rejected.message));
                }
            }
            pending = retry;
            net.cycle();
            guard += 1;
            assert!(guard < 10_000, "injection never completed");
        }
        run_until_idle(&mut net, 10_000);
        let mut received = vec![0u32; 16];
        for (tile, count) in received.iter_mut().enumerate() {
            while let Some(msg) = net.pop_delivered(tile) {
                assert_eq!(msg.dest(), tile);
                *count += 1;
            }
        }
        assert_eq!(received, expected);
        assert_eq!(net.stats().delivered_messages, 256);
        assert_eq!(net.stats().injected_messages, 256);
    }

    #[test]
    fn torus_uses_fewer_flit_hops_than_mesh_for_uniform_traffic() {
        let mut totals = Vec::new();
        for topology in [Topology::Mesh, Topology::Torus] {
            let mut net = Network::new(NocConfig::new(GridShape::new(8, 8), topology));
            for src in 0..64usize {
                let dst = (src + 37) % 64;
                while net.try_inject(src, Message::new(dst, 0, vec![1, 2])).is_err() {
                    net.cycle();
                }
            }
            run_until_idle(&mut net, 100_000);
            totals.push(net.stats().flit_hops);
        }
        assert!(
            totals[1] < totals[0],
            "torus hops {} not below mesh hops {}",
            totals[1],
            totals[0]
        );
    }

    #[test]
    fn mesh_concentrates_utilization_more_than_torus() {
        // Miniature of Figure 10: with all-to-all style traffic the mesh's
        // centre routers are busier than its edge routers, while the torus
        // spreads the load.
        let mut variations = Vec::new();
        for topology in [Topology::Mesh, Topology::Torus] {
            let mut net = Network::new(NocConfig::new(GridShape::new(8, 8), topology));
            let mut pending: Vec<(usize, Message)> = Vec::new();
            for src in 0..64usize {
                for k in 1..8usize {
                    let dst = (src * 13 + k * 29) % 64;
                    if dst != src {
                        pending.push((src, Message::new(dst, 0, vec![1, 2])));
                    }
                }
            }
            let mut guard = 0;
            while !pending.is_empty() {
                let mut retry = Vec::new();
                for (src, msg) in pending.drain(..) {
                    if let Err(r) = net.try_inject(src, msg) {
                        retry.push((src, r.message));
                    }
                }
                pending = retry;
                net.cycle();
                guard += 1;
                assert!(guard < 100_000);
            }
            run_until_idle(&mut net, 100_000);
            for tile in 0..64 {
                while net.pop_delivered(tile).is_some() {}
            }
            variations.push(net.router_utilization().variation());
        }
        assert!(
            variations[0] > variations[1],
            "mesh variation {} should exceed torus variation {}",
            variations[0],
            variations[1]
        );
    }

    #[test]
    fn latency_statistics_are_positive_after_traffic() {
        let mut net = small_net(Topology::Mesh);
        net.try_inject(0, Message::new(15, 0, vec![1, 2, 3])).unwrap();
        run_until_idle(&mut net, 1000);
        assert!(net.stats().average_latency() > 0.0);
        assert!(net.stats().average_hops_per_flit() >= 1.0);
        assert_eq!(net.stats().delivered_flits, 3);
    }

    #[test]
    fn ejection_occupancy_reports_waiting_flits() {
        let mut net = small_net(Topology::Torus);
        net.try_inject(3, Message::new(3, 2, vec![5, 6])).unwrap();
        assert_eq!(net.ejection_occupancy(3, 2), 2);
        assert_eq!(net.ejection_occupancy(3, 0), 0);
        assert_eq!(net.peek_delivered_on(3, 2).unwrap().payload(), &[5, 6]);
        net.pop_delivered_on(3, 2).unwrap();
        assert_eq!(net.ejection_occupancy(3, 2), 0);
    }

    #[test]
    fn delivery_events_report_each_destination_once() {
        let mut net = small_net(Topology::Torus);
        net.try_inject(0, Message::new(9, 0, vec![1])).unwrap();
        net.try_inject(0, Message::new(9, 1, vec![2])).unwrap();
        net.try_inject(1, Message::new(1, 0, vec![3])).unwrap();
        run_until_idle(&mut net, 1000);
        let mut events = Vec::new();
        net.drain_delivery_events_into(&mut events);
        events.sort_unstable();
        assert_eq!(events, vec![1, 9]);
        // Events are cleared after being drained.
        events.clear();
        net.drain_delivery_events_into(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn drain_delivery_events_into_reuses_the_buffer() {
        let mut net = small_net(Topology::Torus);
        net.try_inject(0, Message::new(9, 0, vec![1])).unwrap();
        run_until_idle(&mut net, 1000);
        let mut events = Vec::new();
        net.drain_delivery_events_into(&mut events);
        assert_eq!(events, vec![9]);
        events.clear();
        net.drain_delivery_events_into(&mut events);
        assert!(events.is_empty());
        // A later delivery re-arms the event.
        net.try_inject(0, Message::new(9, 0, vec![2])).unwrap();
        run_until_idle(&mut net, 1000);
        net.drain_delivery_events_into(&mut events);
        assert_eq!(events, vec![9]);
    }

    #[test]
    fn single_tile_grid_delivers_locally() {
        let mut net = Network::new(NocConfig::new(GridShape::new(1, 1), Topology::Mesh));
        net.try_inject(0, Message::new(0, 0, vec![1, 2])).unwrap();
        assert_eq!(net.pop_delivered(0).unwrap().payload(), &[1, 2]);
    }

    /// The calendar scheduler produces the exact per-cycle schedule of the
    /// reference scan, across topologies, including the per-cycle delivery
    /// order under endpoint drains (the regime where arbitration-order
    /// bugs hide).
    #[test]
    fn calendar_cycle_matches_reference_schedule() {
        for topology in [
            Topology::Mesh,
            Topology::Torus,
            Topology::TorusRuche { factor: 2 },
        ] {
            let mut calendar = small_net(topology);
            let mut reference = reference_net(topology);
            let traffic: Vec<(usize, usize, usize, usize)> = (0..64)
                .map(|i| (i % 16, (i * 7 + 3) % 16, i % 4, 1 + i % 3))
                .collect();
            for step in 0..500u64 {
                if let Some(&(src, dst, ch, len)) = traffic.get(step as usize) {
                    let a = calendar.try_inject(src, Message::new(dst, ch, vec![7u32; len]));
                    let b = reference.try_inject(src, Message::new(dst, ch, vec![7u32; len]));
                    assert_eq!(a.is_ok(), b.is_ok(), "injection diverged at step {step}");
                }
                calendar.cycle();
                reference.cycle();
                assert_eq!(
                    (
                        calendar.stats().delivered_messages,
                        calendar.stats().flit_hops
                    ),
                    (
                        reference.stats().delivered_messages,
                        reference.stats().flit_hops
                    ),
                    "schedule diverged at step {step} on {topology:?}"
                );
                // Drain one message per tile per cycle on both, leaving some
                // cycles undrained so ejection back-pressure (and with it
                // the blocked-head due path) is exercised.
                if step % 3 != 0 {
                    for tile in 0..16 {
                        let a = calendar.pop_delivered(tile);
                        let b = reference.pop_delivered(tile);
                        assert_eq!(
                            a.as_ref().map(|m| m.payload().to_vec()),
                            b.as_ref().map(|m| m.payload().to_vec()),
                            "delivery diverged at step {step} on {topology:?}"
                        );
                    }
                }
            }
            // Drain the leftovers and finish both.
            let mut guard = 0;
            while !calendar.is_idle() || !reference.is_idle() {
                calendar.cycle();
                reference.cycle();
                for tile in 0..16 {
                    let a = calendar.pop_delivered(tile);
                    let b = reference.pop_delivered(tile);
                    assert_eq!(a.map(|m| m.dest()), b.map(|m| m.dest()));
                }
                guard += 1;
                assert!(guard < 10_000, "never drained on {topology:?}");
            }
            assert_eq!(calendar.stats(), reference.stats(), "{topology:?}");
            assert_eq!(calendar.router_utilization(), reference.router_utilization());
            assert_eq!(calendar.flits_per_router(), reference.flits_per_router());
        }
    }

    /// The calendar invariant in miniature: a router's `next_possible`
    /// stamp never overshoots the cycle at which it actually commits a
    /// forward (measured by its forwarded-flit counter moving).
    #[test]
    fn due_stamps_never_overshoot_actual_commits() {
        let mut net = small_net(Topology::Torus);
        for src in 0..16usize {
            net.try_inject(src, Message::new((src + 7) % 16, src % 4, vec![9u32; 2]))
                .unwrap();
        }
        let mut guard = 0;
        while net.in_flight() > 0 {
            let before = net.flits_per_router();
            let stamps: Vec<u64> = (0..16).map(|t| net.next_possible_stamp(t)).collect();
            let now = net.current_cycle();
            net.cycle();
            let after = net.flits_per_router();
            for tile in 0..16 {
                if after[tile] > before[tile] {
                    assert!(
                        stamps[tile] <= now,
                        "router {tile} committed at {now} but its stamp said {}",
                        stamps[tile]
                    );
                }
            }
            for tile in 0..16 {
                while net.pop_delivered(tile).is_some() {}
            }
            guard += 1;
            assert!(guard < 10_000);
        }
    }

    /// After a forward, a router is re-stamped to the forwarded port's
    /// link-free cycle, not to the next cycle, even while an upstream head
    /// is blocked on its full buffer: the waiter list wakes that upstream
    /// router, so the forwarding router has nothing to rescan for.
    #[test]
    fn forward_restamps_to_the_link_free_cycle() {
        // Tiles 0 -> 1 -> 2 in a row, one channel, 4-flit messages: each
        // 8-flit buffer holds two of them, tile 2's ejection buffer one.
        let mut net = Network::new(
            NocConfig::new(GridShape::new(3, 1), Topology::Mesh)
                .with_channels(1)
                .with_buffer_flits(8)
                .with_ejection_buffer_flits(4),
        );
        let msg = |src: u32| Message::new(2, 0, vec![src; 4]);
        // Fill tile 2's ejection buffer so nothing can reach it.
        net.try_inject(2, msg(2)).unwrap();
        net.try_inject(1, msg(1)).unwrap();
        net.try_inject(0, msg(0)).unwrap();
        for _ in 0..8 {
            net.cycle();
        }
        // Tile 0's message moved on into tile 1's East buffer, which is now
        // full (8 of 8 flits); a second message from tile 0 blocks on it.
        net.try_inject(0, msg(3)).unwrap();
        for _ in 0..8 {
            net.cycle();
        }
        assert_eq!(net.in_flight(), 3);
        assert_eq!(net.flits_per_router(), vec![4, 0, 0]);
        // Free tile 2's ejection buffer: tile 1 forwards one message.
        assert_eq!(net.pop_delivered(2).unwrap().payload(), &[2; 4]);
        let now = net.current_cycle();
        net.cycle();
        assert_eq!(net.flits_per_router()[1], 4, "tile 1 forwarded at {now}");
        assert_eq!(
            net.next_possible_stamp(1),
            now + 4,
            "re-stamped to the East link's free cycle"
        );
        // The blocked upstream head was woken through the waiter list and
        // moved into the freed space in the same cycle.
        assert_eq!(net.flits_per_router()[0], 8);
    }

    /// The dirty-membership replay in miniature: when a single endpoint
    /// drain empties one router and nothing is due, the due-only walk
    /// replays exactly that router instead of visiting every active one.
    /// The modelled schedule and the arbitration order stay the reference
    /// scheduler's (`NocStats` equality ignores walk counters).
    #[test]
    fn dirty_membership_replays_only_the_drained_router() {
        let mut due_only = small_net(Topology::Torus);
        let mut reference = reference_net(Topology::Torus);
        for net in [&mut due_only, &mut reference] {
            // One-hop messages that nobody drains: every destination router
            // ends up active (a message parked in its ejection buffer) but
            // never due again.
            for tile in 0..16usize {
                net.try_inject(tile, Message::new((tile + 1) % 16, 0, vec![tile as u32]))
                    .unwrap();
            }
            let mut guard = 0;
            while net.in_flight() > 0 {
                net.cycle();
                guard += 1;
                assert!(guard < 1_000);
            }
            // Let every still-filed due stamp (delivery-cycle residue) fire
            // and resolve to "nothing forwardable" so only parked ejection
            // messages remain.
            for _ in 0..64 {
                net.cycle();
            }
        }
        assert_eq!(due_only.awaiting_ejection(), 16);
        // With every message parked, the walk is elided outright.
        let elided = due_only.stats().walks_elided;
        due_only.cycle();
        reference.cycle();
        assert_eq!(due_only.stats().walks_elided, elided + 1);
        // Both schedulers agree on the retained membership: the routers
        // whose ejection message arrived before their own walk-turn drop
        // (a delivery alone never re-adds a router).  Tile 5 must be among
        // them for the drain below to exercise the dirty path.
        let members = due_only.debug_active_order();
        assert_eq!(members, reference.debug_active_order());
        assert!(members.len() > 1, "need several active routers: {members:?}");
        assert!(members.contains(&5));
        // Drain ONE tile; its router empties and must leave the membership.
        due_only.pop_delivered(5).unwrap();
        reference.pop_delivered(5).unwrap();
        let visited = due_only.stats().walk_routers_visited;
        let scanned = due_only.stats().walk_routers_scanned;
        due_only.cycle();
        reference.cycle();
        // The due-only walk replays just the dirty router.
        assert_eq!(
            due_only.stats().walk_routers_visited - visited,
            1,
            "1-router drain must not visit all {} active routers",
            members.len()
        );
        // It port-scanned nothing (nothing was due)...
        assert_eq!(due_only.stats().walk_routers_scanned, scanned);
        // ...and the modelled schedule is the oracle's.
        assert_eq!(due_only.stats(), reference.stats());
        assert_eq!(due_only.debug_active_order(), reference.debug_active_order());
        // The drained router is gone from the active order.
        assert!(!due_only.debug_active_order().contains(&5));
        assert_eq!(due_only.debug_active_order().len(), members.len() - 1);
    }

    /// The order-key compaction (`maybe_compact`) only fires after ~2^29
    /// walks in a real run, so force it: every fifth cycle the head base is
    /// dropped to the floor, and the next walk renumbers every active
    /// router's key.  Under traffic with partial endpoint drains, the
    /// per-cycle deliveries, the arbitration order and the final statistics
    /// must stay the reference scheduler's.
    #[test]
    fn forced_key_compaction_preserves_the_reference_schedule() {
        for topology in [
            Topology::Mesh,
            Topology::Torus,
            Topology::TorusRuche { factor: 2 },
        ] {
            let mut calendar = small_net(topology);
            let mut reference = reference_net(topology);
            // Compactions that renumbered at least two live keys.
            let mut compactions = 0;
            for step in 0..600u64 {
                if step < 550 {
                    for k in 0..2u64 {
                        let i = (2 * step + k) as usize;
                        let (src, dst) = (i % 16, (i * 7 + 3) % 16);
                        let (channel, len) = (i % 4, 1 + i % 3);
                        let a = calendar.try_inject(src, Message::new(dst, channel, vec![7u32; len]));
                        let b = reference.try_inject(src, Message::new(dst, channel, vec![7u32; len]));
                        assert_eq!(a.is_ok(), b.is_ok(), "injection diverged at step {step}");
                    }
                }
                let force = step % 5 == 0;
                if force {
                    calendar.head_base = HEAD_FLOOR;
                    if calendar.debug_active_order().len() > 1 {
                        compactions += 1;
                    }
                }
                calendar.cycle();
                reference.cycle();
                if force {
                    // The walk started from a freshly renumbered key space.
                    assert!(calendar.head_base >= POS_ORIGIN - HEAD_STRIDE);
                }
                assert_eq!(
                    calendar.debug_active_order(),
                    reference.debug_active_order(),
                    "arbitration order diverged at step {step} on {topology:?}"
                );
                // Drain on two of every three cycles, so ejection buffers
                // back up and membership churns.
                if step % 3 != 0 {
                    for tile in 0..16 {
                        let a = calendar.pop_delivered(tile);
                        let b = reference.pop_delivered(tile);
                        assert_eq!(
                            a.as_ref().map(|m| m.payload().to_vec()),
                            b.as_ref().map(|m| m.payload().to_vec()),
                            "delivery diverged at step {step} on {topology:?}"
                        );
                    }
                }
            }
            assert!(compactions >= 100, "only {compactions} non-trivial compactions");
            let mut guard = 0;
            while !calendar.is_idle() || !reference.is_idle() {
                calendar.cycle();
                reference.cycle();
                for tile in 0..16 {
                    let a = calendar.pop_delivered(tile);
                    let b = reference.pop_delivered(tile);
                    assert_eq!(a.map(|m| m.dest()), b.map(|m| m.dest()));
                }
                guard += 1;
                assert!(guard < 10_000, "never drained on {topology:?}");
            }
            assert_eq!(calendar.stats(), reference.stats(), "{topology:?}");
            assert_eq!(calendar.router_utilization(), reference.router_utilization());
            assert_eq!(calendar.flits_per_router(), reference.flits_per_router());
        }
    }
}
