use std::fmt;

/// One wedged tile in a [`DeadlockDiagnostics`] snapshot: a tile still
/// holding queued work when the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockedTile {
    /// The tile's grid index (row-major).
    pub tile: usize,
    /// Words queued across the tile's task input queues.
    pub iq_words: usize,
    /// Words queued across the tile's outbound channel queues (complete
    /// messages waiting to inject into the fabric).
    pub cq_words: usize,
    /// Delivered messages sitting in the tile's ejection buffers,
    /// undrained.
    pub undrained_deliveries: usize,
}

/// Structured snapshot attached to [`SimError::Deadlock`]: *why* the
/// watchdog fired, not just that it did.  Every field derives from the
/// schedule-identical simulation state at the watchdog cycle, so both
/// cycle engines attach bit-identical diagnostics (pinned by
/// `tests/engine_error_parity.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockDiagnostics {
    /// The last cycle at which any tile or the network made progress.
    pub last_progress_cycle: u64,
    /// Task dispatches completed before the hang.
    pub total_dispatches: u64,
    /// Messages still buffered inside the fabric (not yet delivered).
    pub messages_in_flight: u64,
    /// Delivered messages waiting in ejection buffers, undrained.
    pub messages_awaiting_ejection: u64,
    /// Number of tiles holding queued work (IQ or CQ words, or undrained
    /// deliveries) at the watchdog cycle.
    pub blocked_tiles_total: usize,
    /// The first [`DeadlockDiagnostics::MAX_BLOCKED_TILES`] blocked tiles
    /// in ascending tile order, with their queue occupancies.
    pub blocked_tiles: Vec<BlockedTile>,
}

impl DeadlockDiagnostics {
    /// Cap on the `blocked_tiles` detail list (the total count is always
    /// exact in `blocked_tiles_total`).
    pub const MAX_BLOCKED_TILES: usize = 16;
}

impl fmt::Display for DeadlockDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "last progress at cycle {}, {} dispatches done, {} in flight, {} awaiting ejection, \
             {} blocked tile(s)",
            self.last_progress_cycle,
            self.total_dispatches,
            self.messages_in_flight,
            self.messages_awaiting_ejection,
            self.blocked_tiles_total
        )?;
        for blocked in &self.blocked_tiles {
            write!(
                f,
                "; tile {}: {} IQ words, {} CQ words, {} undrained",
                blocked.tile, blocked.iq_words, blocked.cq_words, blocked.undrained_deliveries
            )?;
        }
        Ok(())
    }
}

/// Error type for simulator configuration and execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The simulation configuration is invalid (zero-sized grid, zero
    /// queues, inconsistent kernel declarations, ...).
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The dataset does not fit the configured per-tile scratchpad.
    DatasetTooLarge {
        /// Bytes required on the most loaded tile.
        required_bytes: usize,
        /// Configured scratchpad bytes per tile.
        scratchpad_bytes: usize,
    },
    /// The simulation exceeded the configured cycle limit.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// No tile, queue or network buffer made progress for the watchdog
    /// window even though work remains — a deadlock or livelock in the
    /// modelled hardware or the kernel's queue sizing.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Messages still buffered in the network.
        network_messages: u64,
        /// Task invocations still queued in tile IQs.
        queued_invocations: u64,
        /// Structured snapshot of the hang: blocked tiles with queue
        /// occupancies, in-flight fabric state and the last-progress
        /// breakdown.  Boxed to keep `SimError` small on the `Ok` path.
        diagnostics: Box<DeadlockDiagnostics>,
    },
    /// A kernel asked for an array, task, channel or variable that it never
    /// declared.
    UnknownKernelResource {
        /// What was requested.
        resource: String,
    },
    /// The static task-graph verifier ([`crate::verify`]) found
    /// error-severity defects in the kernel declarations: structural
    /// breakage under any [`crate::verify::VerifyMode`], or analysis
    /// findings (deadlockable capacities, livelockable priorities) under
    /// [`crate::verify::VerifyMode::Deny`].
    Verification {
        /// The full report, every diagnostic included.  Boxed to keep
        /// `SimError` small on the `Ok` path.
        report: Box<crate::verify::VerifyReport>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulation configuration: {reason}")
            }
            SimError::DatasetTooLarge {
                required_bytes,
                scratchpad_bytes,
            } => write!(
                f,
                "dataset needs {required_bytes} bytes per tile but the scratchpad holds {scratchpad_bytes}"
            ),
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::Deadlock {
                cycle,
                network_messages,
                queued_invocations,
                diagnostics,
            } => write!(
                f,
                "no progress at cycle {cycle} with {network_messages} network messages and {queued_invocations} queued invocations outstanding ({diagnostics})"
            ),
            SimError::UnknownKernelResource { resource } => {
                write!(f, "kernel referenced an undeclared resource: {resource}")
            }
            SimError::Verification { report } => {
                write!(f, "static verification failed: {report}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = SimError::DatasetTooLarge {
            required_bytes: 1000,
            scratchpad_bytes: 500,
        };
        assert!(err.to_string().contains("1000"));
        assert!(err.to_string().contains("500"));
        let err = SimError::Deadlock {
            cycle: 42,
            network_messages: 1,
            queued_invocations: 2,
            diagnostics: Box::new(DeadlockDiagnostics {
                last_progress_cycle: 17,
                total_dispatches: 3,
                messages_in_flight: 1,
                messages_awaiting_ejection: 0,
                blocked_tiles_total: 1,
                blocked_tiles: vec![BlockedTile {
                    tile: 5,
                    iq_words: 4,
                    cq_words: 0,
                    undrained_deliveries: 2,
                }],
            }),
        };
        assert!(err.to_string().contains("42"));
        // The diagnostics payload surfaces in the message: the hang is
        // debuggable from the error alone.
        assert!(err.to_string().contains("last progress at cycle 17"));
        assert!(err.to_string().contains("tile 5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
