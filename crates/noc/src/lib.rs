//! Cycle-level network-on-chip models for the Dalorex reproduction.
//!
//! The Dalorex paper (Section III-F) connects its tiles with a wormhole,
//! dimension-ordered network-on-chip and evaluates three physical
//! topologies: a 2D mesh, a 2D torus (the default for grids up to 32x32),
//! and a torus augmented with *ruche* channels (long physical wires that
//! bypass routers) for larger grids.  Messages are routed by their payload:
//! the head flit carries the global index of the distributed array the next
//! task will access, and the destination tile is derived from that index —
//! no routing metadata travels on the wire.
//!
//! This crate provides:
//!
//! * [`topology`] — grid geometry, the three topologies, dimension-ordered
//!   next-hop computation, hop counts, wire lengths and bisection bandwidth.
//! * [`message`] — multi-flit messages tagged with a logical channel.
//! * [`router`] — a router with per-output-port, per-channel buffers and the
//!   local-bubble injection rule used for ring deadlock avoidance.
//! * [`network`] — the cycle-level network simulator: inject, advance one
//!   cycle, drain deliveries, and idle detection.
//! * [`stats`] — link/router utilization counters, flit-hop and
//!   flit-millimetre totals for the energy model, and utilization heatmaps
//!   (paper Figure 10).
//!
//! # Modelling note
//!
//! The paper's NoC is wormhole-switched.  We model *virtual cut-through* at
//! message granularity: a message advances one hop only when the downstream
//! buffer can hold all of its flits, occupies the link for `len` cycles
//! (serialization), and then becomes available at the next router.  For the
//! 2–3-flit messages of the Dalorex programming model and the ≥8-flit
//! buffers used throughout, the cycle counts of the two switching
//! disciplines differ by at most the message length per hop, which the
//! paper's own pipeline-effect argument renders negligible; contention,
//! serialization and endpoint back-pressure — the quantities the results
//! depend on — are preserved.  `DESIGN.md` §2 records this substitution.
//!
//! # Example
//!
//! ```
//! use dalorex_noc::network::Network;
//! use dalorex_noc::message::Message;
//! use dalorex_noc::topology::{GridShape, Topology};
//! use dalorex_noc::NocConfig;
//!
//! let config = NocConfig::new(GridShape::new(4, 4), Topology::Torus);
//! let mut net = Network::new(config);
//! // Send a 3-flit message on channel 0 from tile 0 to tile 15.
//! net.try_inject(0, Message::new(15, 0, vec![42, 7, 9])).unwrap();
//! // Advance cycles until the message reaches tile 15's ejection buffer.
//! while net.in_flight() > 0 {
//!     net.cycle();
//! }
//! let delivered = net.pop_delivered(15).expect("message arrives");
//! assert_eq!(delivered.payload(), &[42, 7, 9]);
//! assert!(net.is_idle());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod message;
pub mod network;
pub mod router;
pub mod stats;
pub mod topology;

mod error;

pub use error::NocError;
pub use fault::{FaultImpact, NocFaultEvent, NocFaults};
pub use message::{Message, MAX_FLITS};
pub use network::{Network, NocMemoryReport};
pub use stats::NocStats;
pub use topology::{GridShape, Topology};

/// Identifier of a tile (router) in the grid, row-major:
/// `id = y * width + x`.
pub type TileId = usize;

/// Identifier of a logical channel.  The Dalorex programming model uses one
/// channel per producer→consumer task pair (e.g. T1→T2 and T2→T3 for SSSP)
/// so that a clogged channel cannot block another.
pub type ChannelId = usize;

/// The most logical channels a [`Network`] carries: the width of each
/// router's per-port channel-occupancy mask.  The Dalorex kernels use at
/// most four; `dalorex-sim`'s verifier rejects wider kernels (V015).
pub const MAX_CHANNELS: usize = 32;

/// How [`Network::cycle`] finds the routers that can act each cycle.
///
/// Both schedulers produce bit-identical forwarding schedules and
/// statistics; they differ only in simulator cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterScheduler {
    /// The production scheduler: per-router `next_possible` due stamps, a
    /// bucketed calendar of due routers, and a due-only walk that orders
    /// the due routers by their epoch-numbered list position and
    /// port-scans exactly those — O(due) per cycle instead of O(active),
    /// with the arbitration order of an explicit active list.
    #[default]
    Calendar,
    /// The schedule oracle: the pre-overhaul walk over an explicit active
    /// list, probing every port of every active router each cycle and
    /// allocating a snapshot per cycle.  Kept only to pin the calendar walk
    /// (the reference engine in `dalorex-sim` runs on it).
    Reference,
}

/// Configuration of a network instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Grid dimensions.
    pub shape: GridShape,
    /// Physical topology.
    pub topology: Topology,
    /// Number of logical channels (defaults to 4, enough for the 4-task
    /// kernels of the paper; at most [`MAX_CHANNELS`]).
    pub channels: usize,
    /// Buffer capacity, in flits, of each per-output-port per-channel FIFO
    /// (default 16).  The paper makes the per-direction pool a tapeout
    /// parameter with software-configurable per-channel split; we expose the
    /// per-channel capacity directly.
    pub buffer_flits: usize,
    /// Capacity, in flits, of each tile's local delivery buffer per channel
    /// (default 16).  When the TSU does not drain deliveries, this models
    /// endpoint back-pressure into the network.
    pub ejection_buffer_flits: usize,
    /// Endpoint bandwidth in messages per tile per cycle (default 1): how
    /// many ejection-buffer messages a tile may drain, and how many
    /// channel-queue messages it may inject, in one cycle.  The fabric
    /// itself delivers into ejection buffers without limit; the budget is a
    /// contract honoured by the endpoint driving [`Network::pop_delivered`]
    /// and [`Network::try_inject`] (the tile simulator in `dalorex-sim`
    /// enforces it in both directions).  At the default of 1 the tiles are
    /// serialized exactly as the paper's single local router port; raising
    /// it models wider endpoint interfaces so the fabric, not the endpoint,
    /// becomes the bottleneck on dense-traffic sweeps.
    pub endpoint_drains_per_cycle: usize,
    /// Which per-cycle router scheduler [`Network::cycle`] runs (default
    /// [`RouterScheduler::Calendar`]).  Schedules and statistics are
    /// identical either way; only simulator wall-clock differs.
    pub router_scheduler: RouterScheduler,
    /// Scheduled fabric faults (default none).  See [`fault`] for the
    /// model; an empty schedule compiles to nothing and leaves the hot
    /// path untouched.
    pub faults: NocFaults,
}

impl NocConfig {
    /// Creates a configuration with the default channel count and buffer
    /// sizes.
    pub fn new(shape: GridShape, topology: Topology) -> Self {
        NocConfig {
            shape,
            topology,
            channels: 4,
            buffer_flits: 16,
            ejection_buffer_flits: 16,
            endpoint_drains_per_cycle: 1,
            router_scheduler: RouterScheduler::default(),
            faults: NocFaults::default(),
        }
    }

    /// Sets the number of logical channels.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the per-port per-channel buffer capacity in flits.
    pub fn with_buffer_flits(mut self, flits: usize) -> Self {
        self.buffer_flits = flits;
        self
    }

    /// Sets the local delivery (ejection) buffer capacity in flits.
    pub fn with_ejection_buffer_flits(mut self, flits: usize) -> Self {
        self.ejection_buffer_flits = flits;
        self
    }

    /// Sets the endpoint bandwidth: messages a tile may drain from its
    /// ejection buffers — and inject from its channel queues — per cycle.
    pub fn with_endpoint_drains(mut self, drains_per_cycle: usize) -> Self {
        self.endpoint_drains_per_cycle = drains_per_cycle;
        self
    }

    /// Selects the per-cycle router scheduler.
    pub fn with_router_scheduler(mut self, scheduler: RouterScheduler) -> Self {
        self.router_scheduler = scheduler;
        self
    }

    /// Installs a fabric fault schedule (link outages, router stalls).
    pub fn with_faults(mut self, faults: NocFaults) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_sets_fields() {
        let config = NocConfig::new(GridShape::new(2, 3), Topology::Mesh)
            .with_channels(2)
            .with_buffer_flits(8)
            .with_ejection_buffer_flits(4)
            .with_endpoint_drains(2);
        assert_eq!(config.shape.num_tiles(), 6);
        assert_eq!(config.channels, 2);
        assert_eq!(config.buffer_flits, 8);
        assert_eq!(config.ejection_buffer_flits, 4);
        assert_eq!(config.endpoint_drains_per_cycle, 2);
    }

    #[test]
    fn default_endpoint_bandwidth_is_one_message_per_cycle() {
        let config = NocConfig::new(GridShape::new(2, 2), Topology::Torus);
        assert_eq!(config.endpoint_drains_per_cycle, 1);
    }
}
