use std::fmt;

/// Error type for network configuration and operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NocError {
    /// A tile id was outside the grid.
    TileOutOfRange {
        /// The offending tile id.
        tile: usize,
        /// Number of tiles in the grid.
        num_tiles: usize,
    },
    /// A channel id was outside the configured channel count.
    ChannelOutOfRange {
        /// The offending channel id.
        channel: usize,
        /// Number of configured channels.
        channels: usize,
    },
    /// The message could not be injected because the source tile's local
    /// output buffer for that channel is full. The message is handed back so
    /// the caller can retry next cycle (this is how the Dalorex channel
    /// queues exert back-pressure on the producing task).
    InjectionBackpressure,
    /// A message was constructed with an empty payload; a message needs at
    /// least a head flit.
    EmptyMessage,
    /// A message is longer than the network carries, so it could never
    /// make progress (see [`crate::max_message_flits`]).
    MessageTooLong {
        /// Flits in the message.
        flits: usize,
        /// The longest message the network carries, in flits.
        capacity: usize,
    },
    /// The network configuration is invalid (e.g. zero-sized grid).
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::TileOutOfRange { tile, num_tiles } => {
                write!(f, "tile {tile} is out of range for a {num_tiles}-tile grid")
            }
            NocError::ChannelOutOfRange { channel, channels } => {
                write!(
                    f,
                    "channel {channel} is out of range for {channels} configured channels"
                )
            }
            NocError::InjectionBackpressure => {
                write!(f, "local output buffer is full; retry next cycle")
            }
            NocError::EmptyMessage => write!(f, "a message must contain at least one flit"),
            NocError::MessageTooLong { flits, capacity } => write!(
                f,
                "message of {flits} flits exceeds the {capacity} flits the network carries"
            ),
            NocError::InvalidConfig { reason } => {
                write!(f, "invalid network configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for NocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = NocError::TileOutOfRange {
            tile: 99,
            num_tiles: 16,
        };
        assert!(err.to_string().contains("99"));
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NocError>();
    }
}
