//! Multi-flit messages.
//!
//! A Dalorex message is the parameter list of a task invocation: each flit
//! is one 32-bit parameter, and the first (head) flit is the global index of
//! the distributed array the task will access.  The network routes on the
//! destination tile derived from that index (the head encoder in the TSU
//! does the index→tile mapping before injection), so no routing metadata is
//! carried — this is the paper's "headerless task routing".
//!
//! # Inline payload
//!
//! Dalorex messages are tiny — the paper's kernels send two or three flits
//! per invocation, and any message must fit the ejection buffer to be
//! deliverable.  [`Message`] therefore stores its payload *inline*, in a
//! fixed `[Flit; MAX_FLITS]` array plus a length, instead of a heap `Vec`.
//! Creating, cloning and delivering a message never allocates.  Inside the
//! network a message stays in one slot of a slab whose freed slots are
//! reused, and a hop moves only its handle (see the
//! [`router`](crate::router) module), so the per-cycle injection → hop →
//! ejection path allocates only when more messages are live than ever
//! before.  The `dalorex-sim` engine validates at kernel-declaration time
//! that every channel's `flits_per_message` fits [`MAX_FLITS`].

use crate::{ChannelId, TileId};

/// One 32-bit network flit.
pub type Flit = u32;

/// Maximum flits a [`Message`] can carry inline.  The paper's kernels use
/// 2–3 flits per message; the default 16-flit router buffers bound
/// acceptable messages to 8 flits anyway (see [`max_message_flits`]).
pub const MAX_FLITS: usize = 8;

/// The longest message, in flits, a network with `buffer_flits`-flit
/// router buffers and `ejection_buffer_flits`-flit ejection buffers
/// carries.  A message needs its own flits plus an equal bubble in a router
/// buffer, its flits in an ejection buffer, and at most [`MAX_FLITS`].
/// [`crate::Network::try_inject`] rejects a longer message as
/// [`crate::NocError::MessageTooLong`].
pub fn max_message_flits(buffer_flits: usize, ejection_buffer_flits: usize) -> usize {
    (buffer_flits / 2).min(ejection_buffer_flits).min(MAX_FLITS)
}

/// A message travelling through the network.  The payload lives inline (no
/// heap allocation); see the module docs.
#[derive(Debug, Clone)]
pub struct Message {
    dest: TileId,
    channel: ChannelId,
    /// Number of valid flits in `payload`.
    len: u8,
    payload: [Flit; MAX_FLITS],
    /// Cycle at which the message was injected; used for latency statistics.
    pub(crate) injected_at: u64,
}

impl Message {
    /// Creates a message destined for `dest` on logical `channel` carrying
    /// `payload` flits (the head flit first).  Accepts any slice-like
    /// payload (`&[Flit]`, `[Flit; N]`, `Vec<Flit>`, ...); the flits are
    /// copied into the message's inline storage.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty (a message needs at least a head
    /// flit) or longer than [`MAX_FLITS`].
    pub fn new<P: AsRef<[Flit]>>(dest: TileId, channel: ChannelId, payload: P) -> Self {
        let flits = payload.as_ref();
        assert!(!flits.is_empty(), "a message needs at least a head flit");
        assert!(
            flits.len() <= MAX_FLITS,
            "a message carries at most {MAX_FLITS} flits, got {}",
            flits.len()
        );
        let mut inline = [0 as Flit; MAX_FLITS];
        inline[..flits.len()].copy_from_slice(flits);
        Message {
            dest,
            channel,
            len: flits.len() as u8,
            payload: inline,
            injected_at: 0,
        }
    }

    /// Destination tile.
    pub fn dest(&self) -> TileId {
        self.dest
    }

    /// Logical channel.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// The flits, head first.
    pub fn payload(&self) -> &[Flit] {
        &self.payload[..self.len as usize]
    }

    /// Mutable access to the flits.  The endpoint head decoder uses this to
    /// rewrite the head flit (global index → local offset) in place, without
    /// copying the message out to the heap.
    pub fn payload_mut(&mut self) -> &mut [Flit] {
        &mut self.payload[..self.len as usize]
    }

    /// Number of flits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false: messages have at least one flit.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cycle at which the message entered the network (0 before injection).
    pub fn injected_at(&self) -> u64 {
        self.injected_at
    }
}

/// Equality compares the logical payload (valid flits only), not the unused
/// inline slots.
impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.dest == other.dest
            && self.channel == other.channel
            && self.injected_at == other.injected_at
            && self.payload() == other.payload()
    }
}

impl Eq for Message {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_exposes_fields() {
        let m = Message::new(7, 2, vec![1, 2, 3]);
        assert_eq!(m.dest(), 7);
        assert_eq!(m.channel(), 2);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.payload(), &[1, 2, 3]);
    }

    #[test]
    fn payloads_can_be_borrowed_or_inline() {
        let from_slice = Message::new(1, 0, &[5, 6][..]);
        let from_array = Message::new(1, 0, [5, 6]);
        assert_eq!(from_slice, from_array);
    }

    #[test]
    fn head_flit_is_rewritable_in_place() {
        let mut m = Message::new(3, 1, [100, 7]);
        m.payload_mut()[0] = 42;
        assert_eq!(m.payload(), &[42, 7]);
    }

    #[test]
    fn equality_ignores_unused_inline_slots() {
        // Two messages with equal payloads are equal regardless of how the
        // inline storage beyond `len` came to be.
        let a = Message::new(0, 0, [1, 2]);
        let b = Message::new(0, 0, vec![1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, Message::new(0, 0, [1, 2, 0]));
    }

    #[test]
    #[should_panic(expected = "head flit")]
    fn empty_payload_panics() {
        let _ = Message::new(0, 0, vec![]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_payload_panics() {
        let _ = Message::new(0, 0, vec![0; MAX_FLITS + 1]);
    }
}
