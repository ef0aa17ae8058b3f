//! Per-tile router state: output-port buffers and link occupancy.
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
//! The router is on the innermost loop of [`crate::Network::cycle`], so its
//! state is laid out for that loop: all `(port, channel)` FIFOs live in one
//! flat `Vec` (index
//! `port.index() * channels + channel`, one pointer indirection instead of
//! two), and a per-port message count lets the network skip empty ports
//! without touching any buffer.  Pushes and pops go through
//! `Router::push` / `Router::pop` so the occupancy counters can never
//! drift from the FIFO contents.

use crate::message::Message;
use crate::topology::Port;
use crate::ChannelId;
use std::collections::VecDeque;

/// A message queued at an output port, together with the cycle at which its
/// last flit will have arrived into this buffer (cut-through: it cannot be
/// forwarded before that).
#[derive(Debug, Clone)]
pub(crate) struct QueuedMessage {
    pub(crate) message: Message,
    pub(crate) ready_at: u64,
}

/// FIFO buffer for one (output port, channel) pair.
#[derive(Debug, Clone)]
pub(crate) struct ChannelBuffer {
    queue: VecDeque<QueuedMessage>,
    occupied_flits: usize,
    capacity_flits: usize,
}

impl ChannelBuffer {
    fn new(capacity_flits: usize) -> Self {
        ChannelBuffer {
            queue: VecDeque::new(),
            occupied_flits: 0,
            capacity_flits,
        }
    }

    pub(crate) fn free_flits(&self) -> usize {
        self.capacity_flits - self.occupied_flits
    }

    pub(crate) fn front(&self) -> Option<&QueuedMessage> {
        self.queue.front()
    }

    fn push(&mut self, queued: QueuedMessage) {
        debug_assert!(queued.message.len() <= self.free_flits());
        self.occupied_flits += queued.message.len();
        self.queue.push_back(queued);
    }

    fn pop(&mut self) -> Option<QueuedMessage> {
        let queued = self.queue.pop_front()?;
        self.occupied_flits -= queued.message.len();
        Some(queued)
    }
}

/// Number of output ports per router (the length of [`Port::ALL`]).
const NUM_PORTS: usize = Port::ALL.len();

/// Router state for one tile.
///
/// The fixed-size per-port state lives in inline arrays, not `Vec`s, so
/// the whole `routers` vector of a [`crate::Network`] is one contiguous
/// allocation and the per-cycle port scan touches a handful of cache lines
/// instead of chasing five heap pointers per router.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    /// All `(port, channel)` FIFOs, flat: `buffers[port.index() * channels
    /// + channel]`.
    buffers: Vec<ChannelBuffer>,
    /// Number of channels (the flat-index stride).
    channels: usize,
    /// Cycle until which each output link is transmitting.
    link_busy_until: [u64; NUM_PORTS],
    /// Round-robin arbitration pointer per output port.
    rr_next_channel: [u32; NUM_PORTS],
    /// Messages currently buffered per output port (all channels).
    msgs_per_port: [u32; NUM_PORTS],
    /// Bitmask of channels with at least one buffered message, per port
    /// ([`crate::MAX_CHANNELS`] bits wide).  Lets the channel arbitration
    /// skip empty FIFOs without touching their heap buffers (each FIFO is
    /// its own allocation).
    occupied_channels: [u32; NUM_PORTS],
    /// Cycles in which at least one output link of this router transmitted.
    pub(crate) busy_cycles: u64,
    /// Cycle up to which `busy_cycles` already covers this router's link
    /// activity (the union-of-intervals marker for exact busy accounting).
    pub(crate) busy_covered_until: u64,
    /// Flits forwarded through each output port.
    pub(crate) flits_per_port: [u64; NUM_PORTS],
}

impl Router {
    pub(crate) fn new(channels: usize, buffer_flits: usize, ejection_flits: usize) -> Self {
        let mut buffers = Vec::with_capacity(NUM_PORTS * channels);
        for port in Port::ALL {
            let capacity = if port == Port::Local {
                ejection_flits
            } else {
                buffer_flits
            };
            buffers.extend((0..channels).map(|_| ChannelBuffer::new(capacity)));
        }
        Router {
            buffers,
            channels,
            link_busy_until: [0; NUM_PORTS],
            rr_next_channel: [0; NUM_PORTS],
            msgs_per_port: [0; NUM_PORTS],
            occupied_channels: [0; NUM_PORTS],
            busy_cycles: 0,
            busy_covered_until: 0,
            flits_per_port: [0; NUM_PORTS],
        }
    }

    #[inline]
    fn index(&self, port: Port, channel: ChannelId) -> usize {
        port.index() * self.channels + channel
    }

    #[inline]
    pub(crate) fn buffer(&self, port: Port, channel: ChannelId) -> &ChannelBuffer {
        &self.buffers[self.index(port, channel)]
    }

    /// Queues a message at `(port, channel)`, keeping the occupancy
    /// counters in sync.
    #[inline]
    pub(crate) fn push(&mut self, port: Port, channel: ChannelId, queued: QueuedMessage) {
        let index = self.index(port, channel);
        self.buffers[index].push(queued);
        self.msgs_per_port[port.index()] += 1;
        self.occupied_channels[port.index()] |= 1u32 << channel as u32;
    }

    /// Dequeues the head message at `(port, channel)`, keeping the
    /// occupancy counters in sync.
    #[inline]
    pub(crate) fn pop(&mut self, port: Port, channel: ChannelId) -> Option<QueuedMessage> {
        let index = self.index(port, channel);
        let queued = self.buffers[index].pop()?;
        if self.buffers[index].front().is_none() {
            self.occupied_channels[port.index()] &= !(1u32 << channel as u32);
        }
        self.msgs_per_port[port.index()] -= 1;
        Some(queued)
    }

    /// Messages buffered at one output port (all channels).
    #[inline]
    pub(crate) fn msgs_at(&self, port: Port) -> u32 {
        self.msgs_per_port[port.index()]
    }

    /// Whether `(port, channel)` holds at least one message, without
    /// touching the FIFO's heap buffer.
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

    /// Messages buffered at non-local ports — the ones
    /// [`crate::Network::cycle`] could still move.  The reference walk
    /// skips routers where this is 0.
    pub(crate) fn forwardable_messages(&self) -> u32 {
        self.msgs_per_port.iter().sum::<u32>() - self.msgs_at(Port::Local)
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
        *slot = (*slot + 1) % channels as u32;
    }

    /// Whether the buffer can accept a message of `flits` under the bubble
    /// rule (see [`needed_flits`]).
    pub(crate) fn can_accept(
        &self,
        port: Port,
        channel: ChannelId,
        flits: usize,
        entering_dimension: bool,
        bubble_flits: usize,
    ) -> bool {
        self.buffer(port, channel).free_flits()
            >= needed_flits(port, flits, entering_dimension, bubble_flits)
    }
}

/// The free flits a `(port, channel)` buffer needs to accept a message of
/// `flits` under the bubble rule.  `entering_dimension` is true when the
/// message is being injected from the local port or turning from the X to
/// the Y dimension; such messages must leave `bubble_flits` of slack so the
/// ring can always drain.  Ejection into the local port is exempt.
#[inline]
pub(crate) fn needed_flits(
    port: Port,
    flits: usize,
    entering_dimension: bool,
    bubble_flits: usize,
) -> usize {
    if entering_dimension && port != Port::Local {
        flits + bubble_flits
    } else {
        flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(flits: usize) -> Message {
        Message::new(0, 0, vec![0; flits])
    }

    fn queued(flits: usize) -> QueuedMessage {
        QueuedMessage {
            message: message(flits),
            ready_at: 0,
        }
    }

    #[test]
    fn channel_buffer_tracks_occupancy() {
        let mut buffer = ChannelBuffer::new(8);
        assert_eq!(buffer.free_flits(), 8);
        buffer.push(queued(3));
        assert_eq!(buffer.free_flits(), 5);
        assert!(buffer.front().is_some());
        let popped = buffer.pop().unwrap();
        assert_eq!(popped.message.len(), 3);
        assert_eq!(buffer.free_flits(), 8);
        assert!(buffer.pop().is_none());
    }

    #[test]
    fn router_bubble_rule_reserves_slack_for_entering_messages() {
        let router = Router::new(1, 8, 8);
        // Continuing message: only its own 6 flits are needed.
        assert!(router.can_accept(Port::East, 0, 6, false, 3));
        // Entering message: 6 + 3 bubble does not fit in 8.
        assert!(!router.can_accept(Port::East, 0, 6, true, 3));
        // Ejection to the local port is exempt from the bubble rule.
        assert!(router.can_accept(Port::Local, 0, 6, true, 3));
    }

    #[test]
    fn router_round_robin_wraps() {
        let mut router = Router::new(3, 8, 8);
        assert_eq!(router.rr_channel(Port::East), 0);
        router.advance_rr(Port::East, 3);
        router.advance_rr(Port::East, 3);
        assert_eq!(router.rr_channel(Port::East), 2);
        router.advance_rr(Port::East, 3);
        assert_eq!(router.rr_channel(Port::East), 0);
        // Other ports are independent.
        assert_eq!(router.rr_channel(Port::West), 0);
    }

    #[test]
    fn push_and_pop_keep_per_port_counts_exact() {
        let mut router = Router::new(2, 16, 16);
        assert_eq!(router.forwardable_messages(), 0);
        router.push(Port::East, 0, queued(2));
        router.push(Port::East, 1, queued(3));
        router.push(Port::Local, 0, queued(1));
        assert_eq!(router.msgs_at(Port::East), 2);
        assert_eq!(router.msgs_at(Port::Local), 1);
        assert_eq!(router.msgs_at(Port::West), 0);
        assert_eq!(router.forwardable_messages(), 2);
        let popped = router.pop(Port::East, 0).unwrap();
        assert_eq!(popped.message.len(), 2);
        assert_eq!(router.msgs_at(Port::East), 1);
        assert_eq!(router.forwardable_messages(), 1);
        assert!(router.pop(Port::East, 0).is_none());
        assert_eq!(router.msgs_at(Port::East), 1);
    }
}
