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
//! The fabric delivers into ejection buffers without limit; the *endpoint*
//! — the tile draining via [`Network::pop_delivered`] and injecting via
//! [`Network::try_inject`] — honours the per-cycle budget.  The tile
//! simulator in `dalorex-sim` enforces its `endpoint_drains_per_cycle` in
//! both directions.
//!
//! # Arbitration order
//!
//! Routers act in a fixed priority: every cycle visits them in ascending
//! tile id.  Buffer space that a forward frees at router `t` is usable in
//! the same cycle by every router with a larger id (their turn has not come
//! yet) and by the rest on the next cycle.  Space an endpoint frees between
//! cycles, by draining its ejection buffer, is usable by every router on
//! the next cycle.  Between two cycles a tile's calls touch only its own
//! router, so the order in which the tile simulator visits tiles cannot
//! change the schedule.
//!
//! # Hot path
//!
//! [`Network::cycle`] is event-driven end-to-end: only routers that may
//! commit a forward this cycle are scanned, only their occupied ports are
//! visited (an occupied-port mask in the router), only the ports the
//! topology actually wires are considered (a mesh or plain torus never
//! looks at ruche ports), and steady-state cycling performs no heap
//! allocation.  Every buffer lives in one flat store (see the
//! [`router`](crate::router) module's hot-path layout): a forward moves a
//! 4-byte message handle from one ring to the next, never the message.
//! The [`RouterScheduler::Reference`](crate::RouterScheduler) scheduler, a
//! plain id-order loop, is the schedule oracle that regression tests drive
//! side by side with the production walk.
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
//! plus a bitset of the stamped routers.  A head blocked on a full
//! downstream buffer contributes no stamp: it sets its router's bit in the
//! waiters of that one (router, port, channel) buffer, which also keep the
//! least free flits any of their heads needs.  The acceptance check
//! reads only that buffer, so only a pop from it can let the head move,
//! and only a pop that leaves the least need free re-stamps the waiters.
//! Stamps are lower bounds, so a due router may still commit nothing (it
//! is simply re-stamped); the invariant that a stamp never overshoots the
//! router's actual next commit is what keeps the schedule bit-identical to
//! the reference scheduler, and is pinned by the cross-crate property
//! suite via [`Network::next_possible_stamp`].
//!
//! # The due-only walk
//!
//! A calendar cycle port-scans only the routers whose stamp has come due.
//! It walks the set bits of the stamped-router bitset in ascending tile id
//! (a router with no stamp costs nothing beyond its zero bit), skips the
//! routers whose stamp lies in the future, and re-reads the current word
//! after every router.  That visit order does the arbitration: a forward
//! that wakes a waiter with a larger id than the router being scanned sets
//! a bit the walk has not reached, so the waiter contends this cycle; a
//! waiter with a smaller id has had its turn and is scanned on the next
//! cycle.  A stamp far in the future, such as a fault window's end, simply
//! keeps its bit until it comes due.
//!
//! # Endpoint bits
//!
//! The tile simulator reads three endpoint facts from dense bits, without
//! touching a router: which tiles' ejection buffers hold a message
//! ([`Network::delivered_tiles`]); which channels of a tile a retry would
//! see rejected ([`Network::blocked_channels`]); and which tiles a pop has
//! unblocked since the latest cycle began ([`Network::unblocked_tiles`]).
//! A rejected injection records, per (tile, channel), its head's first-hop
//! buffer and the free flits the head needs there; only a pop from that
//! buffer that leaves the need free clears the channel's bit.  The record
//! is exact because a rejected head stays at the front of its channel
//! queue until it is injected.

use crate::message::{max_message_flits, Message};
use crate::router::{needed_flits, BufferStore, Router};
use crate::stats::{NocStats, UtilizationGrid};
use crate::topology::{Port, RoutingGrid};
use crate::{ChannelId, NocConfig, NocError, RouterScheduler, TileId};

/// The upstream routers whose ready heads wait for space in one (router,
/// port, channel) buffer, set by the calendar walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufferWaiters {
    /// Bit `p` names the neighbour `link_dest[tile * 9 + p]` (`p < 8`): the
    /// router behind the link that arrives through port `p`.  A router
    /// reaches this buffer over one link per waiting head, so each bit
    /// stands for exactly one blocked head.
    neighbours: u8,
    /// The least free flits any of those heads needs (`u8::MAX` with no
    /// waiter).  No head can move before a pop leaves this much free.
    least_need: u8,
}

impl BufferWaiters {
    const NONE: BufferWaiters = BufferWaiters {
        neighbours: 0,
        least_need: u8::MAX,
    };
}

// A need is at most a message plus its bubble, so it fits the `u8` need
// fields of `BufferWaiters` and `EndpointWait`.
const _: () = assert!(2 * crate::MAX_FLITS <= u8::MAX as usize);

/// What a tile's rejected injection on one channel waits for: its head's
/// first-hop buffer at the tile's own router and the free flits the head
/// needs there.  A rejected head stays at the front of its channel queue
/// until it is injected, so the pair holds while the channel is blocked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EndpointWait {
    /// `Port::index()` of the first-hop buffer.
    port: u8,
    /// Free flits the head needs: `flits + bubble`, or `flits` when it
    /// ejects at its own tile.
    need: u8,
}

/// The network's contribution to the memory budget report (see
/// [`Network::memory_report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocMemoryReport {
    /// Modelled router buffer capacity across the fabric, in bytes.
    pub buffer_bytes: usize,
    /// Calendar router-scheduler bookkeeping, in bytes: due stamps, the
    /// bitset of stamped routers, a 2-byte waiter record (neighbour mask
    /// and least need) per (router, port, channel) buffer, and the
    /// endpoint state — a 4-byte blocked-channel mask per tile, a 2-byte
    /// awaited buffer and need per (tile, channel), and the unblocked-tile
    /// bitset.  Under the reference scheduler the stamped-router bitset is
    /// not allocated.
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
    /// Every (router, port, channel) FIFO and every buffered message,
    /// FIFOs indexed like [`Network::buffer_slot`].
    store: BufferStore,
    /// Non-local output ports the topology actually wires, bit `p` for
    /// `Port::ALL[p]` (mesh and plain torus exclude the four ruche ports).
    forward_port_mask: u32,
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
    /// Bit `t % 64` of word `t / 64` is set exactly when tile `t`'s
    /// ejection buffers hold a message.
    delivered: Vec<u64>,
    /// Whether the reference scheduler drives [`Network::cycle`] (cached
    /// from [`NocConfig::router_scheduler`]).  The stamped-router bitset
    /// below is then left unallocated and untouched.
    reference: bool,
    /// Per-router `next_possible` due stamp (calendar scheduler): the
    /// earliest cycle at which port-scanning the router could commit a
    /// forward or have any side effect.  A calendar cycle skips — without
    /// touching the router — every stamped router whose stamp has not come
    /// due; the invariant (checked by the property suite) is that a
    /// router's stamp never overshoots its actual next commit.  `u64::MAX`
    /// means the router holds nothing forwardable (empty, or ejection
    /// deliveries only) and is re-stamped by the next push.
    due: Vec<u64>,
    /// The walk's agenda: bit `t % 64` of word `t / 64` is set exactly when
    /// `due[t]` is finite, so each cycle visits the stamped routers in
    /// ascending tile id without touching the others.
    due_set: Vec<u64>,
    /// Who waits for space in each buffer, indexed like
    /// [`Network::buffer_slot`]: the neighbours whose ready heads are
    /// blocked on the (router, port, channel) buffer, and the least free
    /// flits any of them needs (set by the calendar walk only).  A blocked
    /// head's router sleeps (due `u64::MAX` unless another port has a
    /// candidate) instead of re-scanning every cycle.  Only a pop from that
    /// buffer that leaves at least the least need free wakes the waiters,
    /// all of them, and clears the record.  A woken head whose own need is
    /// still unmet costs one no-op re-scan, which registers it again —
    /// never a schedule change.
    waiters: Vec<BufferWaiters>,
    /// Per tile, the channels whose injection a retry would see rejected:
    /// bit `c` is set by a back-pressure rejection on channel `c` (under
    /// both schedulers) and cleared only by the pop from the awaited
    /// buffer (`endpoint_waits`) that leaves the head's need free.
    blocked: Vec<u32>,
    /// The awaited buffer and need of each blocked channel, at
    /// `tile * channels + channel`; meaningful while the channel's bit in
    /// `blocked` is set.
    endpoint_waits: Vec<EndpointWait>,
    /// The tiles whose blocked channels a pop has cleared since the latest
    /// [`Network::cycle`] began: bit `t % 64` of word `t / 64`.
    unblocked: Vec<u64>,
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
    /// zero-sized buffers (a network that can never carry a message), or
    /// more buffer space than the flat store indexes (see
    /// [`NocConfig::buffer_store_slots`]).
    pub fn new(config: NocConfig) -> Self {
        assert!(config.channels > 0, "at least one channel is required");
        assert!(
            config.channels <= crate::MAX_CHANNELS,
            "at most {} channels are supported, got {}",
            crate::MAX_CHANNELS,
            config.channels
        );
        assert!(
            config.buffer_flits > 0,
            "buffers must hold at least one flit"
        );
        assert!(
            config.ejection_buffer_flits > 0,
            "ejection buffers must hold at least one flit"
        );
        let ring_slots = config
            .buffer_store_slots()
            .unwrap_or_else(|err| panic!("{err}"));
        let num_tiles = config.shape.num_tiles();
        let routers = vec![Router::default(); num_tiles];
        let grid = RoutingGrid::new(config.shape, config.topology);
        let has_ruche = config.topology.ruche_factor().is_some();
        let forward_port_mask = Port::ALL
            .into_iter()
            .filter(|&p| p != Port::Local && (has_ruche || !p.is_ruche()))
            .fold(0, |mask, p| mask | 1 << p.index());
        // One FIFO per (router, port, channel) in `buffer_slot` order; a
        // port the topology does not wire gets an empty ring.
        let capacity = |port: Port| {
            if port == Port::Local {
                config.ejection_buffer_flits
            } else if forward_port_mask & 1 << port.index() != 0 {
                config.buffer_flits
            } else {
                0
            }
        };
        let store = BufferStore::new((0..num_tiles).flat_map(|_| {
            Port::ALL
                .into_iter()
                .flat_map(|port| std::iter::repeat_n(capacity(port), config.channels))
        }));
        debug_assert_eq!(store.ring_slots(), ring_slots);
        let ruche = config.topology.ruche_factor().unwrap_or(1) as isize;
        let (width, height) = (
            config.shape.width() as isize,
            config.shape.height() as isize,
        );
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
                link_dest[tile * Port::ALL.len() + port.index()] = config.shape.tile_at(nx, ny);
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
        Network {
            grid,
            routers,
            store,
            forward_port_mask,
            link_dest,
            coords,
            cycle: 0,
            stats,
            in_flight_messages: 0,
            awaiting_ejection: 0,
            delivered: vec![0; num_tiles.div_ceil(64)],
            reference,
            due: vec![u64::MAX; num_tiles],
            due_set: if reference {
                Vec::new()
            } else {
                vec![0; num_tiles.div_ceil(64)]
            },
            waiters: vec![BufferWaiters::NONE; num_tiles * Port::ALL.len() * config.channels],
            blocked: vec![0; num_tiles],
            endpoint_waits: vec![EndpointWait::default(); num_tiles * config.channels],
            unblocked: vec![0; num_tiles.div_ceil(64)],
            faults: crate::fault::CompiledNocFaults::compile(&config.faults, num_tiles),
            config,
        }
    }

    /// Per-event impact counters, index-aligned with
    /// [`NocConfig::faults`]'s events (empty without a fault schedule).
    /// Derived from committed forwards only, so bit-identical across
    /// schedulers.
    pub fn fault_impacts(&self) -> &[crate::fault::FaultImpact] {
        self.faults.as_deref().map_or(&[], |f| &f.impacts)
    }

    /// The channels of `tile` whose injection a retry would see rejected
    /// (bit `c` for channel `c`): each was rejected for back-pressure, and
    /// no pop from its head's first-hop buffer has since left the free
    /// flits the head needs.  Only such a pop frees space the head can
    /// use, so while a bit is set a retry of that channel's head — which
    /// stays at the front of its channel queue until injected — is
    /// rejected again, and the tile simulator skips the attempt.
    pub fn blocked_channels(&self, tile: TileId) -> u32 {
        self.blocked[tile]
    }

    /// The tiles whose blocked channels a pop has cleared since the latest
    /// [`Network::cycle`] began: bit `t % 64` of word `t / 64` is set for
    /// tile `t`.  The tile simulator ORs it into its active set after
    /// every network cycle, waking the tiles it put to sleep on
    /// [`Network::blocked_channels`].  Between cycles only a tile's own
    /// ejection drains pop at its router, so only that tile can be
    /// unblocked there, and it reads its fresh bits itself.
    pub fn unblocked_tiles(&self) -> &[u64] {
        &self.unblocked
    }

    /// Records `n` injection back-pressure rejections at `src` without
    /// performing the attempts.  The tile simulator calls this for the
    /// channels it does not attempt ([`Network::blocked_channels`] proves
    /// every such attempt would fail), keeping
    /// [`NocStats::injection_rejections_per_tile`] identical to an engine
    /// that re-attempts every cycle.
    pub fn count_injection_backpressure(&mut self, src: TileId, n: u64) {
        self.stats.injection_rejections_per_tile[src] += n;
    }

    /// Whether `tile`'s ejection buffers hold a message, in O(1) from the
    /// delivery bitset.
    pub fn has_deliveries(&self, tile: TileId) -> bool {
        self.delivered[tile / 64] & (1 << (tile % 64)) != 0
    }

    /// The tiles whose ejection buffers hold a message: bit `t % 64` of
    /// word `t / 64` is set for tile `t`.  The tile simulator ORs it into
    /// its active set after every network cycle.
    pub fn delivered_tiles(&self) -> &[u64] {
        &self.delivered
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The network's lines of the memory budget report: the modelled router
    /// buffer capacity (wired non-local ports at `buffer_flits` plus the
    /// local ejection buffers at `ejection_buffer_flits`, per channel, 4
    /// bytes per flit), and the calendar scheduler's actual bookkeeping
    /// (due stamps, the stamped-router bitset, the per-buffer waiters and
    /// the endpoint state — simulator state, not modelled hardware, so it
    /// legitimately differs between router schedulers).
    pub fn memory_report(&self) -> NocMemoryReport {
        const FLIT_BYTES: usize = 4;
        let per_router = (self.forward_port_mask.count_ones() as usize * self.config.buffer_flits
            + self.config.ejection_buffer_flits)
            * self.config.channels
            * FLIT_BYTES;
        let calendar_bytes = (self.due.len() + self.due_set.len() + self.unblocked.len())
            * std::mem::size_of::<u64>()
            + self.waiters.len() * std::mem::size_of::<BufferWaiters>()
            + self.blocked.len() * std::mem::size_of::<u32>()
            + self.endpoint_waits.len() * std::mem::size_of::<EndpointWait>();
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

    /// Number of delivered messages waiting in `tile`'s ejection buffers
    /// across all channels, summed over the occupied channels only.
    pub fn delivered_waiting(&self, tile: TileId) -> usize {
        let mut mask = self.routers[tile].occupied_channel_mask(Port::Local);
        let mut waiting = 0;
        while mask != 0 {
            let channel = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            waiting += self.store.len(self.buffer_slot(tile, Port::Local, channel));
        }
        waiting
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
    /// * [`NocError::MessageTooLong`] if the message is longer than
    ///   [`max_message_flits`] allows, so it could never fit a buffer,
    /// * [`NocError::InjectionBackpressure`] if the first-hop buffer is
    ///   currently full.
    pub fn try_inject(&mut self, src: TileId, message: Message) -> Result<(), Rejected> {
        let num_tiles = self.routers.len();
        if src >= num_tiles || message.dest() >= num_tiles {
            let tile = if src >= num_tiles {
                src
            } else {
                message.dest()
            };
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
        let capacity =
            max_message_flits(self.config.buffer_flits, self.config.ejection_buffer_flits);
        if flits > capacity {
            return Err(Rejected {
                error: NocError::MessageTooLong { flits, capacity },
                message,
            });
        }

        let dest = message.dest();
        let channel = message.channel();
        let (port, entering) = self.routed_port(src, dest, Dimension::None);
        let need = needed_flits(port, flits, entering);
        let slot = self.buffer_slot(src, port, channel);
        if self.store.free_flits(slot) < need {
            self.count_injection_backpressure(src, 1);
            // The head waits for this buffer; `wake_waiters` clears the bit.
            self.blocked[src] |= 1 << channel;
            self.endpoint_waits[src * self.config.channels + channel] = EndpointWait {
                port: port.index() as u8,
                need: need as u8,
            };
            return Err(Rejected {
                error: NocError::InjectionBackpressure,
                message,
            });
        }
        let mut message = message;
        message.injected_at = self.cycle;
        self.store.push_new(slot, message, self.cycle);
        self.routers[src].mark_pushed(port, channel);
        self.stats.injected_messages += 1;
        if port == Port::Local {
            self.awaiting_ejection += 1;
            self.stats.delivered_messages += 1;
            self.stats.delivered_flits += flits as u64;
            self.delivered[src / 64] |= 1 << (src % 64);
        } else {
            self.in_flight_messages += 1;
            // The new message is forwardable as soon as its output link is
            // free: a fresh candidate for the router's due stamp.
            let candidate = self.cycle.max(self.routers[src].link_busy_until(port));
            self.schedule_due(src, candidate);
        }
        Ok(())
    }

    /// Pops the next delivered message at `tile` from its lowest occupied
    /// channel. Returns `None` when the ejection buffers are empty.
    pub fn pop_delivered(&mut self, tile: TileId) -> Option<Message> {
        let mask = self.routers[tile].occupied_channel_mask(Port::Local);
        if mask == 0 {
            return None;
        }
        self.pop_delivered_on(tile, mask.trailing_zeros() as usize)
    }

    /// Pops the next delivered message at `tile` on a specific channel.
    /// Returns `None` when that ejection buffer is empty, or `channel` is
    /// not one of the network's channels.
    pub fn pop_delivered_on(&mut self, tile: TileId, channel: ChannelId) -> Option<Message> {
        if channel >= self.config.channels {
            return None;
        }
        let slot = self.buffer_slot(tile, Port::Local, channel);
        let message = self.store.pop(slot)?;
        if self.store.len(slot) == 0 {
            self.routers[tile].mark_emptied(Port::Local, channel);
            if !self.routers[tile].port_occupied(Port::Local) {
                self.delivered[tile / 64] &= !(1 << (tile % 64));
            }
        }
        self.awaiting_ejection -= 1;
        // The freed ejection space may unblock an upstream waiter on the
        // next simulated cycle, or this tile's own self-addressed head.
        self.wake_waiters(tile, Port::Local, channel, self.cycle);
        Some(message)
    }

    /// Peeks at the next delivered message at `tile` on `channel` without
    /// removing it.
    pub fn peek_delivered_on(&self, tile: TileId, channel: ChannelId) -> Option<&Message> {
        if channel >= self.config.channels {
            return None;
        }
        let slot = self.buffer_slot(tile, Port::Local, channel);
        self.store
            .front(slot)
            .map(|handle| self.store.message(handle))
    }

    /// Advances the network by one cycle: every output link that is free and
    /// has a ready message whose downstream buffer can accept it forwards
    /// that message one hop.
    ///
    /// Under the default [`RouterScheduler::Calendar`] this is the
    /// event-driven hot path: only the routers whose `next_possible` due
    /// stamp has come due are port-scanned, only their occupied topology
    /// ports are visited, and no heap allocation happens in steady state.
    /// Under [`RouterScheduler::Reference`] the oracle walk runs instead;
    /// the forwarding schedule (which message moves on which cycle) and
    /// every statistic are bit-identical either way.  Both visit routers in
    /// ascending tile id (see the module docs' arbitration order).
    pub fn cycle(&mut self) {
        self.unblocked.fill(0);
        if self.reference {
            self.cycle_reference();
        } else {
            self.cycle_calendar();
        }
    }

    /// The due-only calendar walk ([`RouterScheduler::Calendar`]): visit
    /// the stamped routers in ascending tile id and port-scan those whose
    /// stamp has come due.  The current bitset word is re-read after every
    /// router, so a router woken ahead of the walk contends this cycle and
    /// one woken behind it is scanned on the next.
    fn cycle_calendar(&mut self) {
        let now = self.cycle;
        let scanned_before = self.stats.walk_routers_scanned;
        for word in 0..self.due_set.len() {
            let mut bits = self.due_set[word];
            while bits != 0 {
                let bit = bits.trailing_zeros();
                let tile = word * 64 + bit as usize;
                self.stats.walk_routers_visited += 1;
                if self.due[tile] <= now {
                    self.stats.walk_routers_scanned += 1;
                    let hops_before = self.stats.flit_hops;
                    // The scan has complete knowledge of the router, so its
                    // fresh stamp replaces the old one (and may rise).
                    let stamp = self.scan_router(tile, now);
                    if self.stats.flit_hops == hops_before {
                        // Every forward moves at least one flit.
                        self.stats.walk_idle_scans += 1;
                    }
                    self.due[tile] = stamp;
                    if stamp == u64::MAX {
                        self.due_set[word] &= !(1 << bit);
                    }
                }
                bits = self.due_set[word] & (!1 << bit);
            }
        }
        if self.stats.walk_routers_scanned == scanned_before {
            // No router was due: a provable no-op for every router.
            self.stats.walks_elided += 1;
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// Lowers `tile`'s due stamp to `stamp` (push, injection and wake
    /// events) and marks it stamped.  No-op under the reference scheduler.
    #[inline]
    fn schedule_due(&mut self, tile: TileId, stamp: u64) {
        if !self.reference && stamp < self.due[tile] {
            self.due[tile] = stamp;
            self.due_set[tile / 64] |= 1 << (tile % 64);
        }
    }

    /// The index of `tile`'s `(port, channel)` buffer in `waiters` and in
    /// the store.
    #[inline]
    fn buffer_slot(&self, tile: TileId, port: Port, channel: ChannelId) -> usize {
        (tile * Port::ALL.len() + port.index()) * self.config.channels + channel
    }

    /// A pop from `tile`'s `(port, channel)` buffer just freed space: wakes
    /// the waiters on that buffer whose need the free space may now meet.
    /// If it reaches the least need of the upstream heads blocked there,
    /// every one of their routers is re-stamped to `stamp`, the pop's cycle,
    /// and the record clears; the walk's id order decides the rest (a
    /// neighbour the walk now in progress has not reached contends this
    /// very cycle).  If `tile`'s own endpoint waits on this buffer and the
    /// pop leaves its head's need free, the channel's blocked bit clears
    /// and the tile joins [`Network::unblocked_tiles`].  A pop that frees
    /// too little wakes no one: nobody it could wake would be able to move.
    #[inline]
    fn wake_waiters(&mut self, tile: TileId, port: Port, channel: ChannelId, stamp: u64) {
        let slot = self.buffer_slot(tile, port, channel);
        let free = self.store.free_flits(slot);
        let waiters = self.waiters[slot];
        if waiters.neighbours != 0 && free >= usize::from(waiters.least_need) {
            self.waiters[slot] = BufferWaiters::NONE;
            let mut neighbours = waiters.neighbours;
            while neighbours != 0 {
                let back = neighbours.trailing_zeros() as usize;
                neighbours &= neighbours - 1;
                self.schedule_due(self.link_dest[tile * Port::ALL.len() + back], stamp);
            }
        }
        if self.blocked[tile] & (1 << channel) != 0 {
            let wait = self.endpoint_waits[tile * self.config.channels + channel];
            if usize::from(wait.port) == port.index() && free >= usize::from(wait.need) {
                self.blocked[tile] &= !(1 << channel);
                self.unblocked[tile / 64] |= 1 << (tile % 64);
            }
        }
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

    /// The reference scheduler's cycle ([`RouterScheduler::Reference`]):
    /// every router holding a forwardable message, in ascending tile id,
    /// probes every port (including ports the topology never wires).
    fn cycle_reference(&mut self) {
        let now = self.cycle;
        for tile in 0..self.routers.len() {
            if !self.routers[tile].has_forwardable() {
                continue;
            }
            // Mirror of the calendar walk's fault gates: a stalled router
            // scans nothing, a blacked-out link forwards nothing.  (The
            // skipped busy-link `account_busy` call is provably a no-op —
            // `commit_forward` covers the full serialization interval up
            // front — so busy statistics cannot diverge.)
            let stalled = self
                .faults
                .as_deref()
                .is_some_and(|f| f.stall_candidate(tile, now).is_some());
            if stalled {
                continue;
            }
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
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// Port-scans one router for the calendar walk, committing at most one
    /// forward per occupied port and returning the router's fresh due
    /// stamp: the min over its busy links' un-busy times, its heads'
    /// `ready_at`s and its post-commit link-free times (`u64::MAX` when
    /// every head is blocked downstream — the waiter masks re-stamp it).
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
        // Only the occupied ports, in `Port::ALL` order: an empty port's
        // residual link serialization was fully accounted when its last
        // message was forwarded.  A forward changes no other port of this
        // router (no link leads back to its own router), so one read of
        // the mask serves the whole scan.
        let mut ports = self.routers[tile].occupied_ports() & self.forward_port_mask;
        while ports != 0 {
            let port = Port::ALL[ports.trailing_zeros() as usize];
            ports &= ports - 1;
            let router = &self.routers[tile];
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
    /// occupancy mask skips empty FIFOs without touching the store, the
    /// link destination comes from the precomputed table, and
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
                    let need = needed_flits(next_port, flits, entering);
                    let slot = self.buffer_slot(next_tile, next_port, channel);
                    if self.store.free_flits(slot) < need {
                        // Blocked on a full downstream buffer: this head can
                        // only move after a pop from that buffer frees its
                        // need, so it contributes no time candidate — this
                        // router joins the buffer's waiters so that pop
                        // re-stamps it (instead of it re-scanning every
                        // cycle).  Seen from `next_tile`, this router sits
                        // behind the opposite port.
                        let back = port.index() ^ 1;
                        debug_assert_eq!(self.link_dest[next_tile * Port::ALL.len() + back], tile);
                        let waiters = &mut self.waiters[slot];
                        waiters.neighbours |= 1 << back;
                        waiters.least_need = waiters.least_need.min(need as u8);
                        continue;
                    }
                    self.commit_forward(tile, port, channel, flits, next_tile, next_port, now);
                    // Nothing leaves this port before its link frees (the
                    // upstream routers the forward unblocked were woken by
                    // `commit_forward` through the waiter mask).  An emptied
                    // port needs no stamp: the next push re-stamps the
                    // router with the link's free cycle.
                    if self.routers[tile].port_occupied(port) {
                        *stamp = (*stamp).min(self.routers[tile].link_busy_until(port));
                    }
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
            let slot = self.buffer_slot(next_tile, next_port, channel);
            if self.store.free_flits(slot) < needed_flits(next_port, flits, entering) {
                continue;
            }
            self.commit_forward(tile, port, channel, flits, next_tile, next_port, now);
            return;
        }
    }

    /// Commits one forwarding decision: moves the message's handle to the
    /// downstream buffer (ejecting it if the downstream port is local),
    /// occupies the link, and accounts busy time and traffic statistics.
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
        let from = self.buffer_slot(tile, port, channel);
        if let Some(faults) = self.faults.as_deref_mut() {
            // Attribute the head's wait to any fault window it overlapped —
            // at the commit, the one event every scheduler agrees on.
            let head = self.store.front(from).expect("forwardable message exists");
            faults.record_commit(tile, port, self.store.ready_at(head), now);
        }
        let serialization = flits as u64;
        let arrival = now + serialization;
        let to = self.buffer_slot(next_tile, next_port, channel);
        let handle = self.store.forward(from, to, arrival);
        if self.store.len(from) == 0 {
            self.routers[tile].mark_emptied(port, channel);
        }
        self.routers[next_tile].mark_pushed(next_port, channel);
        // The freed output-buffer space may unblock an upstream waiter: it
        // contends at `now` if its id is larger than this router's, and on
        // the next cycle otherwise.
        self.wake_waiters(tile, port, channel, now);
        self.routers[tile].set_link_busy_until(port, arrival);
        self.routers[tile].flits += flits as u64;
        self.account_busy(tile, now, arrival);

        self.stats.flit_hops += flits as u64;
        self.stats.flit_tile_spans +=
            flits as f64 * self.config.topology.hop_wire_tiles(port.hop_kind());

        if next_port == Port::Local {
            self.in_flight_messages -= 1;
            self.awaiting_ejection += 1;
            self.stats.delivered_messages += 1;
            self.stats.delivered_flits += flits as u64;
            self.stats.total_latency_cycles += arrival - self.store.message(handle).injected_at;
            self.delivered[next_tile / 64] |= 1 << (next_tile % 64);
        } else {
            // The arriving head can go once its last flit has landed and
            // the downstream link is free: a due-stamp candidate for the
            // downstream router.
            let downstream_due = arrival.max(self.routers[next_tile].link_busy_until(next_port));
            self.schedule_due(next_tile, downstream_due);
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
        let Some(head) = self.store.front(self.buffer_slot(tile, port, channel)) else {
            return ForwardCandidate::Empty;
        };
        let ready_at = self.store.ready_at(head);
        if ready_at > now {
            return ForwardCandidate::ReadyAt(ready_at);
        }
        ForwardCandidate::Ready {
            flits: self.store.flits(head),
            dest: self.store.dest(head),
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
        self.routers.iter().map(|r| r.flits).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultImpact, NocFaultEvent, NocFaults};
    use crate::topology::GridShape;
    use crate::Topology;

    fn small_net(topology: Topology) -> Network {
        Network::new(NocConfig::new(GridShape::new(4, 4), topology))
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
            net.try_inject(0, Message::new(15, 1, vec![10, 20, 30]))
                .unwrap();
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
        let mut net =
            Network::new(NocConfig::new(GridShape::new(2, 2), Topology::Mesh).with_buffer_flits(4));
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
        net.try_inject(0, Message::new(1, 0, vec![1, 2, 3]))
            .unwrap();
        let err = net
            .try_inject(0, Message::new(1, 0, vec![4, 5, 6]))
            .unwrap_err();
        assert!(matches!(err.error, NocError::InjectionBackpressure));
        // The rejection is attributed to the injecting tile.
        assert_eq!(net.stats().injection_rejections_per_tile, vec![1, 0]);
        assert_eq!(net.stats().total_injection_rejections(), 1);
        // The rejection blocks tile 0's channel 0 until a pop from the
        // head's first-hop buffer leaves its 6 flits free: the forward out
        // of tile 0 empties that buffer and clears the bit.
        assert_eq!(net.blocked_channels(0), 1);
        assert_eq!(net.blocked_channels(1), 0);
        net.cycle();
        assert_eq!(net.flits_per_router()[0], 3);
        assert_eq!(net.blocked_channels(0), 0);
        assert_eq!(net.unblocked_tiles(), &[1]);
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
                while net
                    .try_inject(src, Message::new(dst, 0, vec![1, 2]))
                    .is_err()
                {
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
        net.try_inject(0, Message::new(15, 0, vec![1, 2, 3]))
            .unwrap();
        run_until_idle(&mut net, 1000);
        assert!(net.stats().average_latency() > 0.0);
        assert!(net.stats().average_hops_per_flit() >= 1.0);
        assert_eq!(net.stats().delivered_flits, 3);
    }

    #[test]
    fn ejection_occupancy_reports_waiting_flits() {
        let mut net = small_net(Topology::Torus);
        net.try_inject(3, Message::new(3, 2, vec![5, 6])).unwrap();
        assert_eq!(net.delivered_waiting(3), 1);
        assert!(net.peek_delivered_on(3, 0).is_none());
        assert_eq!(net.peek_delivered_on(3, 2).unwrap().payload(), &[5, 6]);
        net.pop_delivered_on(3, 2).unwrap();
        assert!(net.peek_delivered_on(3, 2).is_none());
        assert_eq!(net.delivered_waiting(3), 0);
    }

    #[test]
    fn delivered_bits_track_nonempty_ejection_buffers() {
        let mut net = small_net(Topology::Torus);
        net.try_inject(0, Message::new(9, 0, vec![1])).unwrap();
        net.try_inject(0, Message::new(9, 1, vec![2])).unwrap();
        // A self-message lands in the ejection buffer at injection.
        net.try_inject(1, Message::new(1, 0, vec![3])).unwrap();
        assert!(net.has_deliveries(1));
        assert!(!net.has_deliveries(9));
        run_until_idle(&mut net, 1000);
        assert_eq!(net.delivered_tiles(), &[(1 << 1) | (1 << 9)]);
        // The bit stays set until the last message leaves, on any channel.
        net.pop_delivered_on(9, 0).unwrap();
        assert!(net.has_deliveries(9));
        net.pop_delivered_on(9, 1).unwrap();
        assert!(!net.has_deliveries(9));
        net.pop_delivered(1).unwrap();
        assert_eq!(net.delivered_tiles(), &[0]);
        // A later delivery sets it again.
        net.try_inject(0, Message::new(9, 0, vec![4])).unwrap();
        run_until_idle(&mut net, 1000);
        assert!(net.has_deliveries(9));
    }

    /// `pop_delivered` serves the lowest occupied ejection channel first,
    /// whatever order the messages arrived in, and an out-of-range channel
    /// holds nothing.
    #[test]
    fn pop_delivered_serves_the_lowest_occupied_channel_first() {
        let mut net = small_net(Topology::Torus);
        for (channel, flit) in [(2, 20), (1, 10), (2, 21), (3, 30)] {
            net.try_inject(5, Message::new(5, channel, [flit])).unwrap();
        }
        assert_eq!(net.delivered_waiting(5), 4);
        assert!(net.peek_delivered_on(5, 4).is_none());
        assert!(net.pop_delivered_on(5, 4).is_none());
        let order: Vec<u32> = std::iter::from_fn(|| net.pop_delivered(5))
            .map(|m| m.payload()[0])
            .collect();
        assert_eq!(order, [10, 20, 21, 30]);
        assert!(!net.has_deliveries(5));
        assert!(net.is_idle());
    }

    /// The store's handle rings take exactly 4 host bytes per modelled
    /// flit: a mesh and a plain torus give their unwired ruche ports no
    /// ring.
    #[test]
    fn store_rings_take_four_bytes_per_modelled_flit() {
        for topology in [
            Topology::Mesh,
            Topology::Torus,
            Topology::TorusRuche { factor: 2 },
        ] {
            let config = NocConfig::new(GridShape::new(8, 4), topology)
                .with_channels(3)
                .with_buffer_flits(12)
                .with_ejection_buffer_flits(6);
            let net = Network::new(config.clone());
            let slots = net.store.ring_slots();
            assert_eq!(slots * 4, net.memory_report().buffer_bytes, "{topology:?}");
            assert_eq!(config.buffer_store_slots(), Ok(slots), "{topology:?}");
        }
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
    /// bugs hide).  The grids put the walk's bitset at less than one word,
    /// exactly one full word, and a full word followed by a partial one.
    /// The last two wire two links of a router to the same neighbour (both
    /// X links of a 2-wide torus, both ruche X links of an 8-wide ring at
    /// factor 4), where a waiter bit must name its router by the opposite
    /// of the port it blocked on, not by the neighbour it reaches.
    #[test]
    fn calendar_cycle_matches_reference_schedule() {
        for (width, height) in [(4, 4), (8, 8), (9, 9)] {
            for topology in [
                Topology::Mesh,
                Topology::Torus,
                Topology::TorusRuche { factor: 2 },
            ] {
                calendar_matches_reference_on(GridShape::new(width, height), topology);
            }
        }
        calendar_matches_reference_on(GridShape::new(2, 8), Topology::Torus);
        calendar_matches_reference_on(GridShape::new(8, 8), Topology::TorusRuche { factor: 4 });
    }

    fn calendar_matches_reference_on(shape: GridShape, topology: Topology) {
        let tiles = shape.num_tiles();
        let config = NocConfig::new(shape, topology);
        let mut calendar = Network::new(config.clone());
        let mut reference = Network::new(config.with_router_scheduler(RouterScheduler::Reference));
        // One message per step per 16 tiles, four per tile in total.
        let per_step = tiles / 16;
        let traffic: Vec<(usize, usize, usize, usize)> = (0..4 * tiles)
            .map(|i| (i % tiles, (i * 7 + 3) % tiles, i % 4, 1 + i % 3))
            .collect();
        for step in 0..500usize {
            for &(src, dst, ch, len) in traffic.iter().skip(step * per_step).take(per_step) {
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
                "schedule diverged at step {step} on {shape:?} {topology:?}"
            );
            // Drain one message per tile per cycle on both, leaving some
            // cycles undrained so ejection back-pressure (and with it the
            // blocked-head due path) is exercised.
            if step % 3 != 0 {
                for tile in 0..tiles {
                    let a = calendar.pop_delivered(tile);
                    let b = reference.pop_delivered(tile);
                    assert_eq!(
                        a.as_ref().map(|m| m.payload().to_vec()),
                        b.as_ref().map(|m| m.payload().to_vec()),
                        "delivery diverged at step {step} on {shape:?} {topology:?}"
                    );
                }
            }
        }
        // Drain the leftovers and finish both.
        let mut guard = 0;
        while !calendar.is_idle() || !reference.is_idle() {
            calendar.cycle();
            reference.cycle();
            for tile in 0..tiles {
                let a = calendar.pop_delivered(tile);
                let b = reference.pop_delivered(tile);
                assert_eq!(a.map(|m| m.dest()), b.map(|m| m.dest()));
            }
            guard += 1;
            assert!(guard < 10_000, "never drained on {shape:?} {topology:?}");
        }
        assert_eq!(
            calendar.stats(),
            reference.stats(),
            "{shape:?} {topology:?}"
        );
        assert_eq!(
            calendar.router_utilization(),
            reference.router_utilization()
        );
        assert_eq!(calendar.flits_per_router(), reference.flits_per_router());
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

    /// Builds a 3×1 mesh row `upstream -> 1 -> sink` (one channel, 4-flit
    /// messages, 8-flit buffers, a 4-flit ejection buffer) in which tile 1
    /// holds two messages behind the sink's full ejection buffer and
    /// `upstream`'s second message is blocked on tile 1's full buffer.  Then
    /// it drains the sink and runs one cycle, in which tile 1 forwards.
    fn blocked_row_after_the_sink_drains(
        upstream: TileId,
        sink: TileId,
        scheduler: RouterScheduler,
    ) -> Network {
        let mut net = Network::new(
            NocConfig::new(GridShape::new(3, 1), Topology::Mesh)
                .with_channels(1)
                .with_buffer_flits(8)
                .with_ejection_buffer_flits(4)
                .with_router_scheduler(scheduler),
        );
        let msg = |src: TileId| Message::new(sink, 0, vec![src as u32; 4]);
        // Fill the sink's ejection buffer so nothing can reach it.
        net.try_inject(sink, msg(sink)).unwrap();
        net.try_inject(1, msg(1)).unwrap();
        net.try_inject(upstream, msg(upstream)).unwrap();
        (0..8).for_each(|_| net.cycle());
        // The upstream message moved on into tile 1's buffer, which is now
        // full (8 of 8 flits); a second upstream message blocks on it.
        net.try_inject(upstream, msg(upstream)).unwrap();
        (0..8).for_each(|_| net.cycle());
        assert_eq!(net.in_flight(), 3);
        assert_eq!(net.flits_per_router().iter().sum::<u64>(), 4);
        assert_eq!(net.flits_per_router()[upstream], 4);
        assert_eq!(
            net.pop_delivered(sink).unwrap().payload(),
            &[sink as u32; 4]
        );
        let now = net.current_cycle();
        net.cycle();
        assert_eq!(net.flits_per_router()[1], 4, "tile 1 forwarded at {now}");
        if scheduler == RouterScheduler::Calendar {
            // Re-stamped to the forwarded link's free cycle, not `now + 1`:
            // the waiter mask wakes the blocked upstream router, so tile 1
            // has nothing to rescan for.
            assert_eq!(net.next_possible_stamp(1), now + 4);
        }
        net
    }

    /// After a forward, a router is re-stamped to the forwarded port's
    /// link-free cycle, and the space the forward freed is usable in the
    /// same cycle only by routers with a larger id: the arbitration order is
    /// ascending tile id, under both schedulers.
    #[test]
    fn forward_restamps_to_the_link_free_cycle() {
        for scheduler in [RouterScheduler::Calendar, RouterScheduler::Reference] {
            // Eastward, 0 -> 1 -> 2: tile 0 has had its turn when tile 1
            // frees the space, so its blocked head moves on the next cycle.
            let mut net = blocked_row_after_the_sink_drains(0, 2, scheduler);
            assert_eq!(net.flits_per_router()[0], 4, "{scheduler:?}");
            net.cycle();
            assert_eq!(net.flits_per_router()[0], 8, "{scheduler:?}");
            // Westward, 2 -> 1 -> 0: tile 2's turn comes after tile 1's, so
            // its blocked head moves into the freed space in the same cycle.
            let net = blocked_row_after_the_sink_drains(2, 0, scheduler);
            assert_eq!(net.flits_per_router()[2], 8, "{scheduler:?}");
        }
    }

    /// A 3×1 mesh with two channels, 8-flit buffers and 4-flit ejection
    /// buffers, in which tile 1's channel-0 injection toward tile 2 is
    /// rejected: its East buffer holds a 4-flit message, which cannot move
    /// because tile 2's ejection buffer is full, and a second 4-flit head
    /// needs all 8 flits free.  Before the rejection, tile 1 injects one
    /// more 1-flit message to `extra_dest` on `extra_channel`, which fills
    /// some other buffer of its router.
    fn blocked_middle_tile(extra_dest: TileId, extra_channel: ChannelId) -> Network {
        let mut net = Network::new(
            NocConfig::new(GridShape::new(3, 1), Topology::Mesh)
                .with_channels(2)
                .with_buffer_flits(8)
                .with_ejection_buffer_flits(4),
        );
        net.try_inject(2, Message::new(2, 0, vec![0; 4])).unwrap();
        net.try_inject(1, Message::new(2, 0, vec![1; 4])).unwrap();
        net.try_inject(1, Message::new(extra_dest, extra_channel, vec![2]))
            .unwrap();
        let err = net
            .try_inject(1, Message::new(2, 0, vec![3; 4]))
            .unwrap_err();
        assert!(matches!(err.error, NocError::InjectionBackpressure));
        assert_eq!(net.blocked_channels(1), 1);
        net
    }

    /// A blocked channel waits on one buffer: a pop from any other buffer
    /// of the same router — another channel of the same port, another
    /// port, or the ejection buffer — leaves its bit set, because the
    /// rejected head would still be rejected.
    #[test]
    fn pops_from_other_buffers_leave_the_channel_blocked() {
        // The ejection buffer: tile 1 drains its own self-message.
        let mut net = blocked_middle_tile(1, 0);
        net.pop_delivered_on(1, 0).unwrap();
        assert_eq!(net.blocked_channels(1), 1, "ejection pop");
        assert_eq!(net.unblocked_tiles(), &[0], "ejection pop");
        // Another channel (East, channel 1) and another port (West,
        // channel 0): the cycle forwards the extra message, while the
        // awaited East channel-0 head stays stuck behind tile 2.
        for (dest, channel, label) in [(2, 1, "other channel"), (0, 0, "other port")] {
            let mut net = blocked_middle_tile(dest, channel);
            net.cycle();
            assert_eq!(
                net.flits_per_router()[1],
                1,
                "{label}: the extra message moved"
            );
            assert_eq!(net.blocked_channels(1), 1, "{label}");
            assert_eq!(net.unblocked_tiles(), &[0], "{label}");
        }
    }

    /// Only the pop from the awaited buffer that leaves the head's need
    /// free clears the bit, and it reports the tile as unblocked.
    #[test]
    fn only_the_pop_that_frees_the_need_unblocks_the_channel() {
        let mut net = Network::new(
            NocConfig::new(GridShape::new(2, 1), Topology::Mesh)
                .with_channels(1)
                .with_buffer_flits(8),
        );
        // Two 2-flit messages occupy 4 of the East buffer's 8 flits; a
        // 4-flit head needs 4 + 4 bubble flits.
        net.try_inject(0, Message::new(1, 0, vec![1; 2])).unwrap();
        net.try_inject(0, Message::new(1, 0, vec![2; 2])).unwrap();
        let err = net
            .try_inject(0, Message::new(1, 0, vec![3; 4]))
            .unwrap_err();
        assert_eq!(net.blocked_channels(0), 1);
        // Cycle 0 forwards the first message: 6 flits free, still short.
        net.cycle();
        assert_eq!(net.flits_per_router()[0], 2);
        assert_eq!(net.blocked_channels(0), 1, "a pop that frees too little");
        assert_eq!(net.unblocked_tiles(), &[0]);
        // Cycle 1: the link serializes the first message's second flit.
        net.cycle();
        assert_eq!(net.blocked_channels(0), 1);
        // Cycle 2 forwards the second message and empties the buffer.
        net.cycle();
        assert_eq!(net.flits_per_router()[0], 4);
        assert_eq!(net.blocked_channels(0), 0, "the pop that reaches the need");
        assert_eq!(net.unblocked_tiles(), &[1]);
        // The report covers one cycle; the retry now succeeds.
        net.cycle();
        assert_eq!(net.unblocked_tiles(), &[0]);
        net.try_inject(0, err.message).unwrap();
    }

    /// A router whose head is blocked on one downstream buffer sleeps
    /// (stamp `u64::MAX`) through pops of every other buffer of the
    /// downstream router, and the pop from its own buffer that frees the
    /// head's need re-stamps it to the pop's cycle.
    #[test]
    fn routers_wake_only_on_the_buffer_they_wait_for() {
        let mut net = Network::new(
            NocConfig::new(GridShape::new(3, 1), Topology::Mesh)
                .with_channels(2)
                .with_buffer_flits(8)
                .with_ejection_buffer_flits(4),
        );
        // Tile 2's ejection buffer is full, so nothing reaches it.
        net.try_inject(2, Message::new(2, 0, vec![0; 4])).unwrap();
        // Tile 1's East channel-0 buffer fills to 7 of 8 flits behind it.
        for len in [2, 2, 1, 1, 1] {
            net.try_inject(1, Message::new(2, 0, vec![1; len])).unwrap();
        }
        assert!(net.try_inject(1, Message::new(2, 0, vec![1])).is_err());
        // Tile 0's 2-flit head continues east at tile 1 and needs 2 free
        // flits there: it blocks in cycle 0 and its router sleeps.
        net.try_inject(0, Message::new(2, 0, vec![9; 2])).unwrap();
        net.cycle();
        assert_eq!(net.flits_per_router(), vec![0, 0, 0]);
        assert_eq!(net.next_possible_stamp(0), u64::MAX);
        // Pops of tile 1's other buffers: its ejection buffer, another
        // channel of its East port, and its West port.
        net.try_inject(1, Message::new(1, 0, vec![3])).unwrap();
        net.pop_delivered_on(1, 0).unwrap();
        assert_eq!(net.next_possible_stamp(0), u64::MAX, "ejection pop");
        net.try_inject(1, Message::new(2, 1, vec![4])).unwrap();
        net.try_inject(1, Message::new(0, 0, vec![5])).unwrap();
        net.cycle();
        assert_eq!(net.flits_per_router()[1], 2, "both extra messages moved");
        assert_eq!(
            net.next_possible_stamp(0),
            u64::MAX,
            "other channel and port"
        );
        // Draining tile 2 lets tile 1 forward its 2-flit head on the next
        // cycle, leaving 3 flits free: enough for tile 0's head.
        net.pop_delivered_on(2, 0).unwrap();
        let now = net.current_cycle();
        net.cycle();
        assert_eq!(net.flits_per_router()[1], 4, "tile 1 forwarded at {now}");
        assert_eq!(
            net.next_possible_stamp(0),
            now,
            "the pop re-stamps the waiter"
        );
        net.cycle();
        assert_eq!(
            net.flits_per_router()[0],
            2,
            "tile 0 moved on the next cycle"
        );
    }

    /// A `width`×1 mesh under `scheduler` whose routers follow `events`.
    fn faulted_row(
        width: usize,
        events: Vec<NocFaultEvent>,
        scheduler: RouterScheduler,
    ) -> Network {
        Network::new(
            NocConfig::new(GridShape::new(width, 1), Topology::Mesh)
                .with_router_scheduler(scheduler)
                .with_faults(NocFaults { events }),
        )
    }

    /// A stalled router freezes its forwards only: it accepts an injection
    /// in the middle of the window, forwards nothing before the window's
    /// end and forwards at the end.  The stall is charged one delayed
    /// message and the cycles from the injection to the end.
    #[test]
    fn a_stalled_router_accepts_injections_and_forwards_at_the_window_end() {
        for scheduler in [RouterScheduler::Calendar, RouterScheduler::Reference] {
            let stall = NocFaultEvent::RouterStall {
                tile: 0,
                start: 0,
                end: 20,
            };
            let mut net = faulted_row(2, vec![stall], scheduler);
            for _ in 0..5 {
                net.cycle();
            }
            net.try_inject(0, Message::new(1, 0, vec![7; 2])).unwrap();
            while net.current_cycle() < 20 {
                net.cycle();
                assert_eq!(net.flits_per_router()[0], 0, "{scheduler:?}");
            }
            net.cycle();
            assert_eq!(net.flits_per_router()[0], 2, "{scheduler:?}");
            assert_eq!(
                net.fault_impacts(),
                &[FaultImpact {
                    messages_delayed: 1,
                    delayed_cycles: 20 - 5,
                }],
                "{scheduler:?}"
            );
        }
    }

    /// A link outage on one port holds that port only: the router's West
    /// link forwards on time, and the East message goes at the window's
    /// end.
    #[test]
    fn a_link_outage_holds_its_port_only() {
        for scheduler in [RouterScheduler::Calendar, RouterScheduler::Reference] {
            let outage = NocFaultEvent::LinkOutage {
                tile: 1,
                port: Some(Port::East),
                start: 0,
                end: 30,
            };
            let mut net = faulted_row(3, vec![outage], scheduler);
            net.try_inject(1, Message::new(2, 0, vec![1; 2])).unwrap();
            net.try_inject(1, Message::new(0, 0, vec![2; 3])).unwrap();
            net.cycle();
            assert_eq!(net.flits_per_router()[1], 3, "{scheduler:?}: West");
            while net.current_cycle() < 30 {
                net.cycle();
            }
            assert_eq!(net.flits_per_router()[1], 3, "{scheduler:?}: East held");
            net.cycle();
            assert_eq!(net.flits_per_router()[1], 5, "{scheduler:?}: East");
            assert_eq!(
                net.fault_impacts(),
                &[FaultImpact {
                    messages_delayed: 1,
                    delayed_cycles: 30,
                }],
                "{scheduler:?}"
            );
        }
    }
}
