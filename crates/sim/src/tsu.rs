//! Task Scheduling Unit: dispatch eligibility and priority policies.
//!
//! Section III-E: the TSU may only invoke a task when its input queue is
//! non-empty and its output queue has sufficient free entries, so that a
//! task never blocks mid-execution.  When several tasks are eligible the
//! TSU arbitrates; the paper's occupancy-based policy gives *high* priority
//! to a task whose IQ is nearly full (relieving end-point back-pressure),
//! *medium* priority to a task whose output queue is nearly empty (keeping
//! downstream tiles fed), and low priority otherwise, breaking ties toward
//! the larger queue.  A round-robin policy is kept as the `Basic-TSU`
//! ablation configuration.
//!
//! # Incremental pick
//!
//! [`Scheduler::pick`] consults the tile's incrementally maintained
//! task-ready bitmask ([`crate::tile::TileState::task_ready_mask`]) instead
//! of probing every task's queues: a tile with nothing eligible costs one
//! mask comparison, and an eligible task is found by bit tests in the same
//! arbitration order as before.  The pre-overhaul full rescan is preserved
//! as [`Scheduler::pick_reference`] — the engine's reference tile path
//! drives it, and equivalence tests pin the two against each other.

use crate::config::SchedulingPolicy;
use crate::kernel::{TaskDecl, TaskParams};
use crate::tile::TileState;

/// IQ occupancy fraction at or above which a task becomes high priority.
/// The comparison itself is done in exact integer arithmetic
/// ([`crate::queues::WordQueue::at_least_three_quarters_full`]).
pub const HIGH_PRIORITY_IQ_FRACTION: f64 = 0.75;
/// Output-queue occupancy fraction at or below which a task becomes medium
/// priority (integer form:
/// [`crate::queues::WordQueue::at_most_one_quarter_full`]).
pub const MEDIUM_PRIORITY_OQ_FRACTION: f64 = 0.25;

/// Priority classes of the occupancy-based policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Default priority.
    Low = 0,
    /// The task's output queue is nearly empty: run it to keep consumers fed.
    Medium = 1,
    /// The task's input queue is nearly full: run it to relieve back-pressure.
    High = 2,
}

/// The per-tile task scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedulingPolicy,
    /// Round-robin pointer used for arbitration fairness.
    next_task: usize,
}

impl Scheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: SchedulingPolicy) -> Self {
        Scheduler {
            policy,
            next_task: 0,
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Whether `task` can be dispatched right now on `tile`: its IQ holds at
    /// least one full invocation and every declared output-space guarantee
    /// holds.  This is the reference definition; the tile's task-ready mask
    /// maintains exactly this predicate incrementally.
    pub fn is_eligible(tile: &TileState, tasks: &[TaskDecl], task: usize) -> bool {
        if !tile.is_materialized() {
            // A hollow tile has no queued work by construction, so nothing
            // can be dispatch-eligible (and its queue descriptors do not
            // exist to probe).
            return false;
        }
        let decl = &tasks[task];
        let iq = &tile.iqs()[task];
        let has_input = match decl.params {
            TaskParams::AutoPop(n) => iq.len() >= n && n > 0,
            TaskParams::SelfManaged => !iq.is_empty(),
        };
        if !has_input {
            return false;
        }
        decl.cq_space_required
            .iter()
            .all(|&(channel, words)| tile.cqs()[channel].free() >= words)
            && decl
                .iq_space_required
                .iter()
                .all(|&(task, words)| tile.iqs()[task].free() >= words)
    }

    /// Priority of an eligible task under the occupancy policy.  Thresholds
    /// are evaluated in exact integer arithmetic (equivalent to the
    /// documented fractions for every physical queue size).
    pub fn priority(tile: &TileState, tasks: &[TaskDecl], task: usize) -> Priority {
        if tile.iqs()[task].at_least_three_quarters_full() {
            return Priority::High;
        }
        let decl = &tasks[task];
        let output_nearly_empty = decl
            .cq_space_required
            .iter()
            .any(|&(channel, _)| tile.cqs()[channel].at_most_one_quarter_full());
        if output_nearly_empty {
            Priority::Medium
        } else {
            Priority::Low
        }
    }

    /// Picks the next task to dispatch on `tile`, or `None` if no task is
    /// eligible (the TSU then clock-gates the PU).
    ///
    /// Consults the tile's task-ready bitmask; decisions are identical to
    /// [`Scheduler::pick_reference`], which rescans the queues instead.
    pub fn pick(&mut self, tile: &TileState, tasks: &[TaskDecl]) -> Option<usize> {
        let ready = tile.task_ready_mask();
        if ready == 0 {
            debug_assert!((0..tasks.len()).all(|t| !Self::is_eligible(tile, tasks, t)));
            return None;
        }
        let num_tasks = tasks.len();
        match self.policy {
            SchedulingPolicy::RoundRobin => {
                for offset in 0..num_tasks {
                    let task = (self.next_task + offset) % num_tasks;
                    if ready & (1u64 << task) != 0 {
                        debug_assert!(Self::is_eligible(tile, tasks, task));
                        self.next_task = (task + 1) % num_tasks;
                        return Some(task);
                    }
                }
                None
            }
            SchedulingPolicy::OccupancyPriority => {
                let mut best: Option<(Priority, usize, usize)> = None;
                for offset in 0..num_tasks {
                    let task = (self.next_task + offset) % num_tasks;
                    if ready & (1u64 << task) == 0 {
                        debug_assert!(!Self::is_eligible(tile, tasks, task));
                        continue;
                    }
                    debug_assert!(Self::is_eligible(tile, tasks, task));
                    let priority = Self::priority(tile, tasks, task);
                    let queue_size = tile.iqs()[task].capacity();
                    let candidate = (priority, queue_size, task);
                    let better = match &best {
                        None => true,
                        Some((bp, bq, _)) => {
                            priority > *bp || (priority == *bp && queue_size > *bq)
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
                let picked = best.map(|(_, _, task)| task);
                if let Some(task) = picked {
                    self.next_task = (task + 1) % num_tasks;
                }
                picked
            }
        }
    }

    /// The pre-overhaul pick: probes every task's queues through
    /// [`Scheduler::is_eligible`] on every call.  Preserved as the
    /// correctness oracle for [`Scheduler::pick`] (equivalence tests drive
    /// both over identical runs) and as the engine's reference tile path.
    pub fn pick_reference(&mut self, tile: &TileState, tasks: &[TaskDecl]) -> Option<usize> {
        let num_tasks = tasks.len();
        if num_tasks == 0 {
            return None;
        }
        match self.policy {
            SchedulingPolicy::RoundRobin => {
                for offset in 0..num_tasks {
                    let task = (self.next_task + offset) % num_tasks;
                    if Self::is_eligible(tile, tasks, task) {
                        self.next_task = (task + 1) % num_tasks;
                        return Some(task);
                    }
                }
                None
            }
            SchedulingPolicy::OccupancyPriority => {
                let mut best: Option<(Priority, usize, usize)> = None;
                for offset in 0..num_tasks {
                    let task = (self.next_task + offset) % num_tasks;
                    if !Self::is_eligible(tile, tasks, task) {
                        continue;
                    }
                    let priority = Self::priority(tile, tasks, task);
                    let queue_size = tile.iqs()[task].capacity();
                    let candidate = (priority, queue_size, task);
                    let better = match &best {
                        None => true,
                        Some((bp, bq, _)) => {
                            priority > *bp || (priority == *bp && queue_size > *bq)
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
                let picked = best.map(|(_, _, task)| task);
                if let Some(task) = picked {
                    self.next_task = (task + 1) % num_tasks;
                }
                picked
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ChannelDecl, LocalArrayDecl};
    use crate::placement::{ArraySpace, Placement, VertexPlacement};

    fn decls() -> (Vec<TaskDecl>, Vec<ChannelDecl>, Vec<LocalArrayDecl>) {
        (
            vec![
                TaskDecl::new("T1", 32, TaskParams::SelfManaged),
                TaskDecl::new("T2", 128, TaskParams::AutoPop(3)).requires_cq_space(0, 8),
                TaskDecl::new("T3", 2048, TaskParams::AutoPop(2)),
            ],
            vec![ChannelDecl::new("CQ2", 2, ArraySpace::Vertex, 2, 16)],
            vec![],
        )
    }

    fn tile() -> TileState {
        let placement = Placement::new(4, 64, 256, VertexPlacement::Interleaved);
        let (tasks, channels, arrays) = decls();
        TileState::new(0, &placement, &tasks, &channels, &arrays, 0)
    }

    #[test]
    fn no_task_eligible_on_empty_queues() {
        let tile = tile();
        let (tasks, _, _) = decls();
        let mut scheduler = Scheduler::new(SchedulingPolicy::OccupancyPriority);
        assert!(scheduler.pick(&tile, &tasks).is_none());
        assert!(scheduler.pick_reference(&tile, &tasks).is_none());
        assert_eq!(scheduler.policy(), SchedulingPolicy::OccupancyPriority);
    }

    #[test]
    fn autopop_task_needs_all_parameters() {
        let mut tile = tile();
        let (tasks, _, _) = decls();
        tile.push_iq(1, &[1, 2]);
        assert!(!Scheduler::is_eligible(&tile, &tasks, 1));
        tile.push_iq(1, &[3]);
        assert!(Scheduler::is_eligible(&tile, &tasks, 1));
    }

    #[test]
    fn cq_space_requirement_blocks_dispatch() {
        let mut tile = tile();
        let (tasks, _, _) = decls();
        tile.push_iq(1, &[1, 2, 3]);
        // Fill the CQ so fewer than 8 words remain.
        let filler = vec![0u32; 12];
        assert!(tile.push_cq(0, &filler));
        assert!(!Scheduler::is_eligible(&tile, &tasks, 1));
        assert_eq!(tile.task_ready_mask() & 0b010, 0);
        // Drain it and the task becomes eligible again.
        tile.pop_cq_invocation(0, 12).unwrap();
        assert!(Scheduler::is_eligible(&tile, &tasks, 1));
        assert_ne!(tile.task_ready_mask() & 0b010, 0);
    }

    #[test]
    fn round_robin_cycles_through_eligible_tasks() {
        let mut tile = tile();
        let (tasks, _, _) = decls();
        tile.push_iq(0, &[1]);
        tile.push_iq(2, &[1, 2]);
        let mut scheduler = Scheduler::new(SchedulingPolicy::RoundRobin);
        let first = scheduler.pick(&tile, &tasks).unwrap();
        let second = scheduler.pick(&tile, &tasks).unwrap();
        assert_ne!(first, second);
        assert!([0, 2].contains(&first) && [0, 2].contains(&second));
    }

    #[test]
    fn nearly_full_iq_wins_priority() {
        let mut tile = tile();
        let (tasks, _, _) = decls();
        // T1's IQ at 100% (32 of 32 words) -> high priority.
        let filler = vec![7u32; 32];
        assert!(tile.push_iq(0, &filler));
        // T3 has a little input -> low/medium priority.
        tile.push_iq(2, &[1, 2]);
        assert_eq!(Scheduler::priority(&tile, &tasks, 0), Priority::High);
        let mut scheduler = Scheduler::new(SchedulingPolicy::OccupancyPriority);
        assert_eq!(scheduler.pick(&tile, &tasks), Some(0));
    }

    #[test]
    fn empty_output_queue_gives_medium_priority() {
        let mut tile = tile();
        let (tasks, _, _) = decls();
        tile.push_iq(1, &[1, 2, 3]);
        // CQ0 is empty -> medium priority for T2.
        assert_eq!(Scheduler::priority(&tile, &tasks, 1), Priority::Medium);
        // T3 has no output requirement and a mostly empty IQ -> low.
        tile.push_iq(2, &[1, 2]);
        assert_eq!(Scheduler::priority(&tile, &tasks, 2), Priority::Low);
        // Medium beats low.
        let mut scheduler = Scheduler::new(SchedulingPolicy::OccupancyPriority);
        assert_eq!(scheduler.pick(&tile, &tasks), Some(1));
    }

    #[test]
    fn ties_go_to_the_larger_queue() {
        let mut tile = tile();
        let (tasks, _, _) = decls();
        // Both T1 (capacity 32) and T3 (capacity 2048) at low priority.
        tile.push_iq(0, &[1]);
        tile.push_iq(2, &[1, 2]);
        // Fill CQ0 above the medium threshold so T2 stays out of the picture.
        let filler = vec![0u32; 8];
        tile.push_cq(0, &filler);
        let mut scheduler = Scheduler::new(SchedulingPolicy::OccupancyPriority);
        assert_eq!(scheduler.pick(&tile, &tasks), Some(2));
    }

    #[test]
    fn mask_pick_matches_reference_pick_under_random_mutations() {
        // Drive both pickers over the same mutation sequence (on cloned
        // state so the round-robin pointers evolve identically) and assert
        // every decision matches.
        let (tasks, _, _) = decls();
        for policy in [
            SchedulingPolicy::RoundRobin,
            SchedulingPolicy::OccupancyPriority,
        ] {
            let mut tile = tile();
            let mut fast = Scheduler::new(policy);
            let mut reference = Scheduler::new(policy);
            let mut state = 0x2545f491u64;
            for step in 0..500 {
                // xorshift-ish mutation driver.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let r = state as usize;
                match r % 5 {
                    0 => {
                        tile.push_iq(r % 3, &[r as u32]);
                    }
                    1 => {
                        tile.pop_iq_word(r % 3);
                    }
                    2 => {
                        tile.push_cq(0, &[r as u32, 1]);
                    }
                    3 => {
                        let mut buf = [0u32; 2];
                        tile.pop_cq_into(0, 2, &mut buf);
                    }
                    _ => {}
                }
                let a = fast.pick(&tile, &tasks);
                let b = reference.pick_reference(&tile, &tasks);
                assert_eq!(a, b, "policy {policy:?} diverged at step {step}");
                // Consume the picked invocation so the run makes progress.
                if let Some(task) = a {
                    match tasks[task].params {
                        TaskParams::AutoPop(n) => {
                            tile.pop_iq_invocation(task, n);
                        }
                        TaskParams::SelfManaged => {
                            tile.pop_iq_word(task);
                        }
                    }
                }
            }
        }
    }
}
