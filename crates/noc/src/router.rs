//! Per-tile router state and the network's flat buffer store.
//!
//! Each router has one buffer pool per output direction (the paper shares a
//! per-direction pool between channels with a software-configurable split;
//! we give each channel its own FIFO of `buffer_flits` capacity, the simpler
//! static split).  A link transmits one flit per cycle; a message occupies
//! its output link for `len` cycles.  Ring deadlock on the torus is avoided
//! with the local-bubble rule: messages *entering* a dimension (from the
//! local port or turning from X to Y) may only be accepted if the buffer
//! retains at least one maximal message worth of free space afterwards,
//! while messages continuing along the same dimension only need their own
//! space.
//!
//! # Hot-path layout
//!
//! The router is on the innermost loop of [`crate::Network::cycle`], so the
//! state that loop touches is laid out for it, the way the paper lays a
//! tile's queues out in its one scratchpad:
//!
//! * Every `(router, port, channel)` FIFO of the network lives in one
//!   `BufferStore`: a small header (head, length, free flits) per FIFO in
//!   one flat array, and a ring of `u32` message handles per FIFO in one
//!   flat handle array.  A ring has one slot per flit of capacity, since a
//!   message is at least one flit, so the rings take exactly 4 host bytes
//!   per modelled flit; ports the topology does not wire get no ring.
//! * A message lives in one slab slot from injection to ejection.  The
//!   fields every scan reads (`ready_at`, destination, length) sit in their
//!   own compact array; the payload sits apart, written at injection and
//!   read at ejection.  A forward pops the handle from one ring, rewrites
//!   `ready_at` and pushes the handle onto the next ring: it never copies
//!   the message.  Freed slots are reused last-in first-out.
//! * A `Router` keeps only per-port link state, plus the occupancy masks
//!   that let the network skip empty ports and channels without touching
//!   the store.

use crate::message::Message;
use crate::topology::Port;
use crate::{ChannelId, TileId};

/// The handle of a message in a [`BufferStore`]: its slab slot.
pub(crate) type Handle = u32;

/// The header of one FIFO in a [`BufferStore`].
#[derive(Debug, Clone, Copy)]
struct Fifo {
    /// Index of the ring's first slot in [`BufferStore::rings`].
    base: u32,
    /// Ring slots, which is the FIFO's capacity in flits.
    cap: u16,
    /// Ring index of the head message's handle.
    head: u16,
    /// Messages queued.
    len: u16,
    /// Free flits.
    free: u16,
}

/// The fields of a stored message that the forwarding scan reads.
#[derive(Debug, Clone, Copy)]
struct ScanFields {
    /// The cycle at which the message's last flit has arrived into its
    /// current buffer (cut-through: it cannot be forwarded before that).
    ready_at: u64,
    /// Destination tile.
    dest: u32,
    /// Length in flits.
    flits: u32,
}

/// Every FIFO of a network and every message queued in them.
///
/// FIFOs are addressed by their index, which [`crate::Network`] derives
/// from `(router, port, channel)`.  A FIFO holds message handles; the
/// messages themselves stay in the slab until they are popped.
#[derive(Debug, Clone)]
pub(crate) struct BufferStore {
    /// One header per FIFO.
    fifos: Vec<Fifo>,
    /// The FIFOs' handle rings, back to back.
    rings: Vec<Handle>,
    /// Per slab slot, the fields the scan reads.
    scan: Vec<ScanFields>,
    /// Per slab slot, the whole message (payload, channel, injection cycle).
    messages: Vec<Message>,
    /// Freed slab slots, reused last-in first-out.
    free_handles: Vec<Handle>,
}

impl BufferStore {
    /// Builds one FIFO per capacity (in flits), in order.
    ///
    /// # Panics
    ///
    /// Panics if a capacity exceeds `u16::MAX` or the capacities sum past
    /// `u32::MAX` (the handle type: the ring slots also bound the messages
    /// that can be live at once).
    pub(crate) fn new(capacities: impl IntoIterator<Item = usize>) -> Self {
        let mut base = 0usize;
        let fifos: Vec<Fifo> = capacities
            .into_iter()
            .map(|cap| {
                let cap = u16::try_from(cap).expect("a FIFO holds at most u16::MAX flits");
                let fifo = Fifo {
                    base: u32::try_from(base).expect("ring slots fit the u32 handle type"),
                    cap,
                    head: 0,
                    len: 0,
                    free: cap,
                };
                base += usize::from(cap);
                fifo
            })
            .collect();
        assert!(
            base <= u32::MAX as usize,
            "ring slots fit the u32 handle type"
        );
        BufferStore {
            fifos,
            rings: vec![0; base],
            scan: Vec::new(),
            messages: Vec::new(),
            free_handles: Vec::new(),
        }
    }

    /// Total ring slots: one per flit of capacity.
    pub(crate) fn ring_slots(&self) -> usize {
        self.rings.len()
    }

    /// Messages queued in `fifo`.
    #[inline]
    pub(crate) fn len(&self, fifo: usize) -> usize {
        usize::from(self.fifos[fifo].len)
    }

    /// Free flits in `fifo`.
    #[inline]
    pub(crate) fn free_flits(&self, fifo: usize) -> usize {
        usize::from(self.fifos[fifo].free)
    }

    /// The handle of `fifo`'s head message.
    #[inline]
    pub(crate) fn front(&self, fifo: usize) -> Option<Handle> {
        let f = self.fifos[fifo];
        (f.len > 0).then(|| self.rings[f.base as usize + usize::from(f.head)])
    }

    /// The cycle at which `handle`'s last flit has arrived into its buffer.
    #[inline]
    pub(crate) fn ready_at(&self, handle: Handle) -> u64 {
        self.scan[handle as usize].ready_at
    }

    /// `handle`'s destination tile.
    #[inline]
    pub(crate) fn dest(&self, handle: Handle) -> TileId {
        self.scan[handle as usize].dest as TileId
    }

    /// `handle`'s length in flits.
    #[inline]
    pub(crate) fn flits(&self, handle: Handle) -> usize {
        self.scan[handle as usize].flits as usize
    }

    /// The message behind `handle`.
    #[inline]
    pub(crate) fn message(&self, handle: Handle) -> &Message {
        &self.messages[handle as usize]
    }

    /// Stores `message` in a free slab slot, ready at `ready_at`, and
    /// queues it at the back of `fifo`.  The caller has checked that
    /// `fifo` has room.
    pub(crate) fn push_new(&mut self, fifo: usize, message: Message, ready_at: u64) -> Handle {
        let scan = ScanFields {
            ready_at,
            dest: message.dest() as u32,
            flits: message.len() as u32,
        };
        let handle = match self.free_handles.pop() {
            Some(handle) => {
                self.scan[handle as usize] = scan;
                self.messages[handle as usize] = message;
                handle
            }
            None => {
                // Every live message holds a ring slot, so the slab never
                // outgrows the ring slots, which fit the handle type.
                let handle = self.scan.len() as Handle;
                self.scan.push(scan);
                self.messages.push(message);
                handle
            }
        };
        self.enqueue(fifo, handle);
        handle
    }

    /// Moves the head message of `from` to the back of `to`, ready there at
    /// `ready_at`, and returns its handle.  The caller has checked that
    /// `from` holds a message and `to` has room for it.
    #[inline]
    pub(crate) fn forward(&mut self, from: usize, to: usize, ready_at: u64) -> Handle {
        let handle = self.dequeue(from);
        self.scan[handle as usize].ready_at = ready_at;
        self.enqueue(to, handle);
        handle
    }

    /// Dequeues the head message of `fifo` and frees its slab slot.
    pub(crate) fn pop(&mut self, fifo: usize) -> Option<Message> {
        if self.fifos[fifo].len == 0 {
            return None;
        }
        let handle = self.dequeue(fifo);
        self.free_handles.push(handle);
        Some(self.messages[handle as usize].clone())
    }

    #[inline]
    fn enqueue(&mut self, fifo: usize, handle: Handle) {
        let flits = self.scan[handle as usize].flits as u16;
        let f = &mut self.fifos[fifo];
        debug_assert!(flits <= f.free, "the caller checked for room");
        let mut tail = usize::from(f.head) + usize::from(f.len);
        if tail >= usize::from(f.cap) {
            tail -= usize::from(f.cap);
        }
        f.len += 1;
        f.free -= flits;
        self.rings[f.base as usize + tail] = handle;
    }

    #[inline]
    fn dequeue(&mut self, fifo: usize) -> Handle {
        let f = &mut self.fifos[fifo];
        debug_assert!(f.len > 0, "the caller checked for a message");
        let handle = self.rings[f.base as usize + usize::from(f.head)];
        f.head += 1;
        if f.head == f.cap {
            f.head = 0;
        }
        f.len -= 1;
        f.free += self.scan[handle as usize].flits as u16;
        handle
    }

    /// The handles queued in `fifo`, head first.
    #[cfg(test)]
    fn queued(&self, fifo: usize) -> Vec<Handle> {
        let f = self.fifos[fifo];
        (0..usize::from(f.len))
            .map(|i| {
                let slot = (usize::from(f.head) + i) % usize::from(f.cap);
                self.rings[f.base as usize + slot]
            })
            .collect()
    }
}

/// Number of output ports per router (the length of [`Port::ALL`]).
const NUM_PORTS: usize = Port::ALL.len();

/// Number of links a router drives: every port but [`Port::Local`], which
/// is last in [`Port::ALL`].
const NUM_LINKS: usize = NUM_PORTS - 1;

// `Port::index()` addresses the link arrays, and every channel fits a
// round-robin byte.
const _: () = assert!(Port::Local.index() == NUM_LINKS && crate::MAX_CHANNELS <= 256);

/// Router state for one tile: per-port link state and occupancy masks.
///
/// The state lives in inline arrays, not `Vec`s, so the whole `routers`
/// vector of a [`crate::Network`] is one contiguous allocation; the
/// buffers themselves live in the network's [`BufferStore`].  The local
/// port drives no link, so the link arrays leave it out, which keeps the
/// record at 136 bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Router {
    /// Cycle until which each link is transmitting, by `Port::index()`.
    link_busy_until: [u64; NUM_LINKS],
    /// Cycles in which at least one output link of this router transmitted.
    pub(crate) busy_cycles: u64,
    /// Cycle up to which `busy_cycles` already covers this router's link
    /// activity (the union-of-intervals marker for exact busy accounting).
    pub(crate) busy_covered_until: u64,
    /// Flits forwarded through all output ports.
    pub(crate) flits: u64,
    /// Bitmask of channels with at least one buffered message, per port
    /// ([`crate::MAX_CHANNELS`] bits wide).  Lets the channel arbitration
    /// skip empty FIFOs without touching the store.
    occupied_channels: [u32; NUM_PORTS],
    /// Bit `p` is set when port `Port::ALL[p]` buffers a message on any
    /// channel: the ports a scan visits.
    occupied_ports: u32,
    /// Round-robin arbitration pointer per link (a channel below
    /// [`crate::MAX_CHANNELS`], so it fits a byte).
    rr_next_channel: [u8; NUM_LINKS],
}

impl Router {
    /// Records a push onto `(port, channel)`.
    #[inline]
    pub(crate) fn mark_pushed(&mut self, port: Port, channel: ChannelId) {
        self.occupied_channels[port.index()] |= 1u32 << channel as u32;
        self.occupied_ports |= 1 << port.index();
    }

    /// Records that a pop emptied `(port, channel)`.
    #[inline]
    pub(crate) fn mark_emptied(&mut self, port: Port, channel: ChannelId) {
        let channels = &mut self.occupied_channels[port.index()];
        *channels &= !(1u32 << channel as u32);
        if *channels == 0 {
            self.occupied_ports &= !(1 << port.index());
        }
    }

    /// The ports buffering a message (bit `p` for `Port::ALL[p]`).
    #[inline]
    pub(crate) fn occupied_ports(&self) -> u32 {
        self.occupied_ports
    }

    /// Whether `port` buffers a message on any channel.
    #[inline]
    pub(crate) fn port_occupied(&self, port: Port) -> bool {
        self.occupied_ports & (1 << port.index()) != 0
    }

    /// Whether `(port, channel)` holds at least one message, without
    /// touching the store.
    #[inline]
    pub(crate) fn channel_occupied(&self, port: Port, channel: ChannelId) -> bool {
        self.occupied_channels[port.index()] & (1u32 << channel as u32) != 0
    }

    /// Bitmask of channels holding at least one message at `port` (bit `c`
    /// set for channel `c`).  The tile simulator iterates this for the
    /// local port to drain only occupied ejection buffers.
    #[inline]
    pub(crate) fn occupied_channel_mask(&self, port: Port) -> u32 {
        self.occupied_channels[port.index()]
    }

    /// Whether a non-local port buffers a message — one
    /// [`crate::Network::cycle`] could still move.  The reference walk
    /// skips routers where this is false.
    pub(crate) fn has_forwardable(&self) -> bool {
        self.occupied_ports & !(1 << Port::Local.index()) != 0
    }

    #[inline]
    pub(crate) fn link_busy_until(&self, port: Port) -> u64 {
        self.link_busy_until[port.index()]
    }

    #[inline]
    pub(crate) fn set_link_busy_until(&mut self, port: Port, cycle: u64) {
        self.link_busy_until[port.index()] = cycle;
    }

    #[inline]
    pub(crate) fn rr_channel(&self, port: Port) -> ChannelId {
        self.rr_next_channel[port.index()] as ChannelId
    }

    #[inline]
    pub(crate) fn advance_rr(&mut self, port: Port, channels: usize) {
        let slot = &mut self.rr_next_channel[port.index()];
        *slot = ((usize::from(*slot) + 1) % channels) as u8;
    }
}

/// The free flits a `(port, channel)` buffer needs to accept a message of
/// `flits` under the bubble rule.  `entering_dimension` is true when the
/// message is being injected from the local port or turning from the X to
/// the Y dimension; such messages must leave a bubble of their own length
/// as slack so the ring can always drain.  Ejection into the local port is
/// exempt.
#[inline]
pub(crate) fn needed_flits(port: Port, flits: usize, entering_dimension: bool) -> usize {
    if entering_dimension && port != Port::Local {
        2 * flits
    } else {
        flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MAX_FLITS;
    use std::collections::VecDeque;

    fn message(flits: usize) -> Message {
        Message::new(0, 0, vec![0; flits])
    }

    #[test]
    fn channel_buffer_tracks_occupancy() {
        let mut store = BufferStore::new([8]);
        assert_eq!(store.free_flits(0), 8);
        store.push_new(0, message(3), 0);
        assert_eq!(store.free_flits(0), 5);
        assert!(store.front(0).is_some());
        let popped = store.pop(0).unwrap();
        assert_eq!(popped.len(), 3);
        assert_eq!(store.free_flits(0), 8);
        assert!(store.pop(0).is_none());
    }

    #[test]
    fn router_bubble_rule_reserves_slack_for_entering_messages() {
        let free = BufferStore::new([8]).free_flits(0);
        // Continuing message: only its own 5 flits are needed.
        assert_eq!(needed_flits(Port::East, 5, false), 5);
        assert!(free >= needed_flits(Port::East, 5, false));
        // Entering message: 5 + a 5-flit bubble does not fit in 8.
        assert_eq!(needed_flits(Port::East, 5, true), 10);
        assert!(free < needed_flits(Port::East, 5, true));
        // Ejection to the local port is exempt from the bubble rule.
        assert_eq!(needed_flits(Port::Local, 5, true), 5);
    }

    #[test]
    fn router_record_is_compact() {
        assert_eq!(std::mem::size_of::<Router>(), 136);
    }

    #[test]
    fn router_round_robin_wraps() {
        let mut router = Router::default();
        assert_eq!(router.rr_channel(Port::East), 0);
        router.advance_rr(Port::East, 3);
        router.advance_rr(Port::East, 3);
        assert_eq!(router.rr_channel(Port::East), 2);
        router.advance_rr(Port::East, 3);
        assert_eq!(router.rr_channel(Port::East), 0);
        // Other ports are independent.
        assert_eq!(router.rr_channel(Port::West), 0);
    }

    /// The router's occupancy masks follow the store's per-FIFO counts
    /// when pushes and pops update both, as the network does.
    #[test]
    fn push_and_pop_keep_per_port_counts_exact() {
        // One router with two channels: FIFO `port * 2 + channel`.
        let fifo = |port: Port, channel: usize| port.index() * 2 + channel;
        let mut store = BufferStore::new([16; 18]);
        let mut router = Router::default();
        let push = |store: &mut BufferStore, router: &mut Router, port: Port, channel, flits| {
            store.push_new(fifo(port, channel), message(flits), 0);
            router.mark_pushed(port, channel);
        };
        assert!(!router.has_forwardable());
        push(&mut store, &mut router, Port::East, 0, 2);
        push(&mut store, &mut router, Port::East, 1, 3);
        push(&mut store, &mut router, Port::East, 1, 1);
        push(&mut store, &mut router, Port::Local, 0, 1);
        let count =
            |store: &BufferStore, port: Port| store.len(fifo(port, 0)) + store.len(fifo(port, 1));
        assert_eq!(count(&store, Port::East), 3);
        assert_eq!(count(&store, Port::Local), 1);
        assert_eq!(router.occupied_channel_mask(Port::East), 0b11);
        assert_eq!(
            router.occupied_ports(),
            (1 << Port::East.index()) | (1 << Port::Local.index())
        );
        assert!(router.has_forwardable());
        // Popping channel 0 empties it; East stays occupied on channel 1.
        assert_eq!(store.pop(fifo(Port::East, 0)).unwrap().len(), 2);
        assert_eq!(store.len(fifo(Port::East, 0)), 0);
        router.mark_emptied(Port::East, 0);
        assert!(!router.channel_occupied(Port::East, 0));
        assert!(router.port_occupied(Port::East));
        assert!(store.pop(fifo(Port::East, 0)).is_none());
        // A pop that leaves a message behind changes no mask.
        store.pop(fifo(Port::East, 1)).unwrap();
        assert_eq!(count(&store, Port::East), 1);
        store.pop(fifo(Port::East, 1)).unwrap();
        router.mark_emptied(Port::East, 1);
        assert!(!router.port_occupied(Port::East));
        assert!(!router.has_forwardable());
        assert!(router.port_occupied(Port::Local));
    }

    /// A FIFO filled to capacity by 1-flit messages holds one handle per
    /// ring slot; pops and pushes then wrap around the ring's seam in FIFO
    /// order, and freed handles are reused last-in first-out.
    #[test]
    fn full_rings_wrap_and_reuse_handles_lifo() {
        let mut store = BufferStore::new([3, 5, 2]);
        let one = |k: u32| Message::new(0, 0, [k]);
        let handles: Vec<Handle> = (0..5).map(|k| store.push_new(1, one(k), 0)).collect();
        assert_eq!(handles, [0, 1, 2, 3, 4]);
        assert_eq!((store.len(1), store.free_flits(1)), (5, 0));
        assert_eq!(store.pop(1).unwrap().payload(), &[0]);
        assert_eq!(store.pop(1).unwrap().payload(), &[1]);
        // Slot 1 was freed last, so it is reused first; both new handles
        // land past the seam.
        assert_eq!(store.push_new(1, one(5), 0), 1);
        assert_eq!(store.push_new(1, one(6), 0), 0);
        assert_eq!(store.queued(1), [2, 3, 4, 1, 0]);
        let payloads: Vec<u32> = (0..5).map(|_| store.pop(1).unwrap().payload()[0]).collect();
        assert_eq!(payloads, [2, 3, 4, 5, 6]);
        // The neighbouring rings were never touched.
        assert_eq!((store.len(0), store.free_flits(0)), (0, 3));
        assert_eq!((store.len(2), store.free_flits(2)), (0, 2));
    }

    /// A seeded splitmix64 stream, so the randomized model test needs no
    /// dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One queued message of the model: its handle, serial number (its
    /// destination and the payload's head flit), length and ready cycle.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Modelled {
        handle: Handle,
        serial: u32,
        flits: usize,
        ready_at: u64,
    }

    /// The store against a `Vec<VecDeque<_>>` model under seeded random
    /// pushes, pops and forwards over a few dozen FIFOs, with message
    /// lengths from 1 to `MAX_FLITS`.  After every step each FIFO's front,
    /// free flits, length and queued handles match the model, no handle is
    /// queued twice, and a push reuses the handle freed last.  Half the
    /// pushes are 1-flit messages, so small rings fill to capacity and
    /// every ring wraps many times.
    #[test]
    fn store_matches_vecdeque_model() {
        for seed in 0..8u64 {
            let mut rng = SplitMix(seed);
            let caps: Vec<usize> = (0..36)
                .map(|i| match i % 6 {
                    0 => 0,
                    1 => 1,
                    2 => MAX_FLITS,
                    _ => 1 + rng.below(2 * MAX_FLITS),
                })
                .collect();
            let mut store = BufferStore::new(caps.iter().copied());
            assert_eq!(store.ring_slots(), caps.iter().sum::<usize>());
            let mut model: Vec<VecDeque<Modelled>> = vec![VecDeque::new(); caps.len()];
            let mut freed: Vec<Handle> = Vec::new();
            let mut serial = 0u32;
            for step in 0..4000u64 {
                let fifo = rng.below(caps.len());
                let used: usize = model[fifo].iter().map(|m| m.flits).sum();
                let free = caps[fifo] - used;
                match rng.below(3) {
                    0 => {
                        let flits = if rng.below(2) == 0 {
                            1
                        } else {
                            1 + rng.below(MAX_FLITS)
                        };
                        if flits <= free {
                            let mut payload = vec![0u32; flits];
                            payload[0] = serial;
                            let message = Message::new(serial as TileId, 0, payload);
                            let handle = store.push_new(fifo, message, step);
                            if let Some(expected) = freed.pop() {
                                assert_eq!(handle, expected, "seed {seed} step {step}: LIFO reuse");
                            }
                            model[fifo].push_back(Modelled {
                                handle,
                                serial,
                                flits,
                                ready_at: step,
                            });
                            serial += 1;
                        }
                    }
                    1 => {
                        let popped = store.pop(fifo);
                        match model[fifo].pop_front() {
                            Some(m) => {
                                let message = popped.expect("the model holds a message");
                                assert_eq!(
                                    message.payload()[0],
                                    m.serial,
                                    "seed {seed} step {step}"
                                );
                                assert_eq!(message.len(), m.flits);
                                freed.push(m.handle);
                            }
                            None => assert!(popped.is_none(), "seed {seed} step {step}"),
                        }
                    }
                    _ => {
                        let to = rng.below(caps.len());
                        let Some(&head) = model[fifo].front() else {
                            continue;
                        };
                        let to_used: usize = model[to].iter().map(|m| m.flits).sum();
                        if to == fifo || head.flits > caps[to] - to_used {
                            continue;
                        }
                        let handle = store.forward(fifo, to, step + 100);
                        assert_eq!(handle, head.handle, "seed {seed} step {step}");
                        model[fifo].pop_front();
                        model[to].push_back(Modelled {
                            ready_at: step + 100,
                            ..head
                        });
                    }
                }
                let mut live = vec![false; store.scan.len()];
                for (fifo, queue) in model.iter().enumerate() {
                    let used: usize = queue.iter().map(|m| m.flits).sum();
                    assert_eq!(store.len(fifo), queue.len(), "seed {seed} step {step}");
                    assert_eq!(store.free_flits(fifo), caps[fifo] - used);
                    let front = store.front(fifo);
                    assert_eq!(front, queue.front().map(|m| m.handle));
                    if let (Some(handle), Some(m)) = (front, queue.front()) {
                        assert_eq!(store.message(handle).payload()[0], m.serial);
                        assert_eq!(store.flits(handle), m.flits);
                        assert_eq!(store.dest(handle), m.serial as TileId);
                        assert_eq!(store.ready_at(handle), m.ready_at);
                    }
                    let handles: Vec<Handle> = queue.iter().map(|m| m.handle).collect();
                    assert_eq!(store.queued(fifo), handles, "seed {seed} step {step}");
                    for handle in handles {
                        let seen = &mut live[handle as usize];
                        assert!(
                            !*seen,
                            "seed {seed} step {step}: handle {handle} queued twice"
                        );
                        *seen = true;
                    }
                }
                // Every slab slot is either queued or free, never both.
                for &handle in &freed {
                    assert!(
                        !live[handle as usize],
                        "seed {seed} step {step}: {handle} freed live"
                    );
                }
            }
        }
    }
}
