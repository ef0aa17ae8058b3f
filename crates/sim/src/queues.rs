//! Task input queues and channel (output) queues.
//!
//! In the paper's tile (Fig. 4), the queues are circular FIFOs carved out of
//! the scratchpad, with their head/tail pointers managed by the TSU and
//! exposed to the PU through queue-specific registers.  Each task has an
//! input queue (IQ) sized in entries at task-declaration time; each network
//! channel has a channel queue (CQ) whose writes go out to the NoC.
//!
//! Capacities here are expressed in 32-bit words (queue entries), matching
//! the paper's "a queue entry can be either 32 or 64 bits" with the 32-bit
//! choice used throughout the evaluation.
//!
//! # Arena layout
//!
//! [`WordQueue`] is a *descriptor*: an `(offset, capacity)` window into a
//! tile's scratchpad arena plus head/length registers — exactly the paper's
//! hardware picture, where the queue region is carved out of the tile
//! scratchpad and only the registers live in the TSU.  The descriptor is 16
//! bytes and owns no storage; every operation that touches queued words
//! takes the tile's arena slab as a parameter, while occupancy/threshold
//! reads (`len`, `free`, the priority triggers) are register-only and need
//! no slab.  Indices are `u32` throughout so per-tile state stays compact at
//! paper-scale datasets; the arena builder checks the total fits.
//!
//! The steady-state tile path ([`crate::engine`]) performs no heap
//! allocation: pushes, pops and the speculative head restore move words
//! within the preallocated slab.  The readers are
//! [`WordQueue::pop_invocation_into`] and [`WordQueue::head_slices`].

/// A bounded circular FIFO of 32-bit words holding whole task invocations,
/// stored as a window into an external arena slab.
///
/// One invocation is `params_per_invocation` consecutive words. The queue
/// accepts an invocation only if all of its words fit, which is how the TSU
/// guarantees a task can run to completion once dispatched.
#[derive(Debug, Clone)]
pub struct WordQueue {
    /// First slab index of this queue's ring window.
    off: u32,
    /// Capacity of the window, in words.
    cap: u32,
    /// Ring index (relative to `off`) of the logical front word.
    head: u32,
    /// Number of words currently queued.
    len: u32,
}

impl WordQueue {
    /// Creates a queue descriptor over `slab[off .. off + capacity_words]`.
    /// The ring storage lives in the tile's arena; no queue operation
    /// allocates.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or the window exceeds the 32-bit
    /// index space.
    pub fn new(off: usize, capacity_words: usize) -> Self {
        assert!(capacity_words > 0, "queue capacity must be non-zero");
        let end = off
            .checked_add(capacity_words)
            .filter(|&e| e <= u32::MAX as usize)
            .expect("queue window exceeds the 32-bit index space");
        let _ = end;
        WordQueue {
            off: off as u32,
            cap: capacity_words as u32,
            head: 0,
            len: 0,
        }
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Current occupancy in words.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the queue holds no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space in words.
    pub fn free(&self) -> usize {
        (self.cap - self.len) as usize
    }

    /// Whether the queue is at or above three quarters of its capacity —
    /// the paper's *high priority* trigger
    /// ([`crate::tsu::HIGH_PRIORITY_IQ_FRACTION`]), computed in exact
    /// integer arithmetic so the scheduler never depends on float rounding.
    pub fn at_least_three_quarters_full(&self) -> bool {
        4 * self.len as u64 >= 3 * self.cap as u64
    }

    /// Whether the queue is at or below one quarter of its capacity — the
    /// paper's *medium priority* trigger
    /// ([`crate::tsu::MEDIUM_PRIORITY_OQ_FRACTION`]), computed in exact
    /// integer arithmetic.
    pub fn at_most_one_quarter_full(&self) -> bool {
        4 * self.len as u64 <= self.cap as u64
    }

    /// Whether an invocation of `words` words would fit right now.
    pub fn can_push(&self, words: usize) -> bool {
        words <= self.free()
    }

    #[inline]
    fn wrap(&self, index: u32) -> u32 {
        if index >= self.cap {
            index - self.cap
        } else {
            index
        }
    }

    /// This queue's window of the arena slab.
    #[inline]
    fn ring<'s>(&self, slab: &'s [u32]) -> &'s [u32] {
        &slab[self.off as usize..(self.off + self.cap) as usize]
    }

    /// This queue's window of the arena slab, mutably.
    #[inline]
    fn ring_mut<'s>(&self, slab: &'s mut [u32]) -> &'s mut [u32] {
        &mut slab[self.off as usize..(self.off + self.cap) as usize]
    }

    /// Pushes an invocation; returns `false` (leaving the queue unchanged)
    /// if it does not fit.
    pub fn try_push(&mut self, slab: &mut [u32], invocation: &[u32]) -> bool {
        if !self.can_push(invocation.len()) {
            return false;
        }
        let ring = self.ring_mut(slab);
        let mut tail = self.wrap(self.head + self.len);
        for &word in invocation {
            ring[tail as usize] = word;
            tail = self.wrap(tail + 1);
        }
        self.len += invocation.len() as u32;
        true
    }

    /// Reads the word at the head without consuming it (the paper's `peek`
    /// used by task T1).
    pub fn peek(&self, slab: &[u32]) -> Option<u32> {
        if self.len == 0 {
            None
        } else {
            Some(self.ring(slab)[self.head as usize])
        }
    }

    /// Pops a single word from the head.
    pub fn pop_word(&mut self, slab: &[u32]) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let word = self.ring(slab)[self.head as usize];
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
        Some(word)
    }

    /// The first `count` queued words as (at most) two contiguous slices —
    /// the ring seam splits them.  This is the allocation-free way to *read*
    /// an invocation without consuming it.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` words are queued.
    pub fn head_slices<'s>(&self, slab: &'s [u32], count: usize) -> (&'s [u32], &'s [u32]) {
        assert!(count <= self.len as usize, "not enough queued words");
        let ring = self.ring(slab);
        let head = self.head as usize;
        let first = count.min(self.cap as usize - head);
        (&ring[head..head + first], &ring[..count - first])
    }

    /// Pops `count` words from the head into `out[..count]` as one
    /// invocation's parameters, without allocating.  Returns `false`
    /// (leaving the queue and `out` unchanged) if fewer than `count` words
    /// are queued.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `count`.
    pub fn pop_invocation_into(&mut self, slab: &[u32], count: usize, out: &mut [u32]) -> bool {
        if (self.len as usize) < count {
            return false;
        }
        let (a, b) = self.head_slices(slab, count);
        out[..a.len()].copy_from_slice(a);
        out[a.len()..count].copy_from_slice(b);
        self.head = self.wrap(self.head + count as u32);
        self.len -= count as u32;
        true
    }

    /// Re-inserts words at the head of the queue, preserving their order.
    /// Used to undo a speculative pop when the network rejects an injection.
    ///
    /// # Panics
    ///
    /// Panics if the words do not fit (they always do when undoing a pop
    /// performed in the same cycle).
    pub fn push_front_invocation(&mut self, slab: &mut [u32], words: &[u32]) {
        assert!(
            self.can_push(words.len()),
            "cannot restore words into a full queue"
        );
        // Move the head back by `words.len()` (mod capacity) and write the
        // restored words in order from the new head.
        self.head = self.wrap(self.head + self.cap - (words.len() as u32 % self.cap));
        let ring = self.ring_mut(slab);
        let mut at = self.head;
        for &word in words {
            ring[at as usize] = word;
            at = self.wrap(at + 1);
        }
        self.len += words.len() as u32;
    }

    /// Iterates the queued words front to back (a test/debug convenience;
    /// the hot path uses [`WordQueue::head_slices`]).
    pub fn iter<'s>(&self, slab: &'s [u32]) -> impl Iterator<Item = u32> + 's {
        let (a, b) = self.head_slices(slab, self.len as usize);
        a.iter().chain(b.iter()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A standalone slab big enough for every test queue.
    fn slab() -> Vec<u32> {
        vec![0; 64]
    }

    #[test]
    fn push_pop_round_trip() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 8);
        assert!(q.try_push(&mut s, &[1, 2, 3]));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek(&s), Some(1));
        let mut buf = [0u32; 3];
        assert!(q.pop_invocation_into(&s, 3, &mut buf));
        assert_eq!(buf, [1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_overflow_without_partial_push() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 4);
        assert!(q.try_push(&mut s, &[1, 2, 3]));
        assert!(!q.try_push(&mut s, &[4, 5]));
        assert_eq!(q.len(), 3);
        assert!(q.can_push(1));
        assert!(!q.can_push(2));
    }

    #[test]
    fn pop_invocation_requires_full_parameter_set() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 4);
        q.try_push(&mut s, &[1]);
        let mut buf = [0u32; 2];
        assert!(!q.pop_invocation_into(&s, 2, &mut buf));
        assert_eq!(buf, [0, 0]);
        assert_eq!(q.len(), 1);
        q.try_push(&mut s, &[2]);
        assert!(q.pop_invocation_into(&s, 2, &mut buf));
        assert_eq!(buf, [1, 2]);
    }

    #[test]
    fn pop_invocation_into_is_allocation_free_and_exact() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 4);
        q.try_push(&mut s, &[1, 2, 3]);
        let mut buf = [0u32; 4];
        assert!(!q.pop_invocation_into(&s, 4, &mut buf));
        assert_eq!(q.len(), 3);
        assert!(q.pop_invocation_into(&s, 2, &mut buf));
        assert_eq!(&buf[..2], &[1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_word(&s), Some(3));
    }

    #[test]
    fn ring_wraps_across_the_seam() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 4);
        // Advance the head so subsequent pushes wrap around the seam.
        q.try_push(&mut s, &[1, 2, 3]);
        q.pop_word(&s);
        q.pop_word(&s);
        assert!(q.try_push(&mut s, &[4, 5, 6]));
        assert_eq!(q.len(), 4);
        let (a, b) = q.head_slices(&s, 4);
        let logical: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(logical, vec![3, 4, 5, 6]);
        let mut buf = [0u32; 4];
        assert!(q.pop_invocation_into(&s, 4, &mut buf));
        assert_eq!(buf, [3, 4, 5, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn windows_at_nonzero_offsets_do_not_alias() {
        // Two queues sharing one slab at adjacent offsets, as tile arenas
        // lay them out.
        let mut s = slab();
        let mut a = WordQueue::new(3, 4);
        let mut b = WordQueue::new(7, 2);
        assert!(a.try_push(&mut s, &[10, 11, 12, 13]));
        assert!(b.try_push(&mut s, &[20, 21]));
        assert_eq!(a.iter(&s).collect::<Vec<_>>(), vec![10, 11, 12, 13]);
        assert_eq!(b.iter(&s).collect::<Vec<_>>(), vec![20, 21]);
        assert_eq!(&s[3..9], &[10, 11, 12, 13, 20, 21]);
        assert_eq!(a.pop_word(&s), Some(10));
        assert_eq!(b.pop_word(&s), Some(20));
    }

    #[test]
    fn occupancy_statistics() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 10);
        q.try_push(&mut s, &[1, 2, 3, 4]);
        q.pop_word(&s);
        q.try_push(&mut s, &[5]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.free(), 6);
    }

    #[test]
    fn integer_priority_thresholds_match_the_fractions() {
        for capacity in 1usize..70 {
            let mut s = vec![0u32; capacity];
            let mut q = WordQueue::new(0, capacity);
            for len in 0..=capacity {
                let fraction = len as f64 / capacity as f64;
                assert_eq!(
                    q.at_least_three_quarters_full(),
                    fraction >= crate::tsu::HIGH_PRIORITY_IQ_FRACTION,
                    "capacity {capacity}, len {len}"
                );
                assert_eq!(
                    q.at_most_one_quarter_full(),
                    fraction <= crate::tsu::MEDIUM_PRIORITY_OQ_FRACTION,
                    "capacity {capacity}, len {len}"
                );
                q.try_push(&mut s, &[len as u32]);
            }
        }
    }

    #[test]
    fn push_front_restores_order_after_speculative_pop() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 8);
        q.try_push(&mut s, &[1, 2, 3, 4]);
        let mut head = [0u32; 2];
        assert!(q.pop_invocation_into(&s, 2, &mut head));
        assert_eq!(head, [1, 2]);
        q.push_front_invocation(&mut s, &head);
        let mut all = [0u32; 4];
        assert!(q.pop_invocation_into(&s, 4, &mut all));
        assert_eq!(all, [1, 2, 3, 4]);
    }

    #[test]
    fn push_front_wraps_backwards_across_the_seam() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 4);
        q.try_push(&mut s, &[9, 1, 2]);
        q.pop_word(&s); // head now at index 1
        let mut head = [0u32; 2];
        assert!(q.pop_invocation_into(&s, 2, &mut head)); // head at index 3, empty
        assert_eq!(head, [1, 2]);
        q.try_push(&mut s, &[3]); // written at index 3
        q.push_front_invocation(&mut s, &head); // head wraps back to index 1
        let mut all = [0u32; 3];
        assert!(q.pop_invocation_into(&s, 3, &mut all));
        assert_eq!(all, [1, 2, 3]);
    }

    #[test]
    fn logical_eq_ignores_physical_head_position() {
        let mut sa = slab();
        let mut sb = slab();
        let mut a = WordQueue::new(0, 4);
        let mut b = WordQueue::new(0, 4);
        a.try_push(&mut sa, &[1, 2]);
        b.try_push(&mut sb, &[0, 1]);
        b.pop_word(&sb);
        b.try_push(&mut sb, &[2]);
        // Same logical content, different head index.
        assert_eq!(
            a.iter(&sa).collect::<Vec<_>>(),
            b.iter(&sb).collect::<Vec<_>>()
        );
        a.pop_word(&sa);
        assert!(a.iter(&sa).ne(b.iter(&sb)));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut s = slab();
        let mut q = WordQueue::new(0, 2);
        q.try_push(&mut s, &[9]);
        assert_eq!(q.peek(&s), Some(9));
        assert_eq!(q.peek(&s), Some(9));
        assert_eq!(q.pop_word(&s), Some(9));
        assert_eq!(q.peek(&s), None);
    }

    #[test]
    fn descriptor_is_compact() {
        // The whole point of the descriptor form: per-queue metadata is a
        // handful of u32 registers, not an owning allocation.
        assert_eq!(std::mem::size_of::<WordQueue>(), 16);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = WordQueue::new(0, 0);
    }
}
