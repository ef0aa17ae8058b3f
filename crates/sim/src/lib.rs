//! Cycle-level simulator of the Dalorex tile architecture (HPCA 2023).
//!
//! Dalorex executes memory-bound applications by migrating computation to
//! the data instead of moving data to the compute: a 2D grid of tiles, each
//! with an SRAM scratchpad, a thin in-order processing unit (PU), a task
//! scheduling unit (TSU) and a router, runs programs split into tasks at
//! every pointer indirection.  Tasks execute on the tile that owns the data
//! they touch, so every memory operation is local and every update is
//! atomic by construction.
//!
//! This crate provides the architecture side of the reproduction:
//!
//! * [`config`] — grid, topology, scheduling, placement and barrier knobs
//!   (the Figure 5 ablation ladder is expressed entirely through these).
//! * [`placement`] — the equal-chunk data distribution and the low-order-bit
//!   (interleaved) vertex placement.
//! * [`queues`] / [`tile`] / [`tsu`] — the per-tile hardware: input/channel
//!   queues carved from the scratchpad, the distributed dataset chunk, and
//!   the occupancy-priority task scheduler.
//! * [`kernel`] — the programming model: the [`kernel::Kernel`]
//!   trait plus task/channel/array declarations (kernels themselves live in
//!   the `dalorex-kernels` crate).
//! * [`engine`] — the cycle-level execution loop coupling tiles with the
//!   `dalorex-noc` network, with termination detection, epoch barriers and
//!   a deadlock watchdog.
//! * [`verify`] — the static task-graph verifier (`dalorex-verify`): a
//!   pass pipeline over the declared tasks/channels/gates that rejects
//!   deadlockable and livelockable graphs before the first simulated cycle.
//! * [`energy`] / [`area`] — the 7 nm energy, area and power-density models
//!   behind the paper's energy figures.
//! * [`stats`] / [`output`] — utilization, throughput and gathered results.
//!
//! # Example
//!
//! A trivial "relay" kernel is exercised end-to-end in the tests of
//! [`engine`]; realistic kernels (BFS, SSSP, PageRank, WCC, SPMV) live in
//! the `dalorex-kernels` crate, and complete runnable scenarios are under
//! `examples/` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod config;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod output;
pub mod placement;
pub mod queues;
pub mod stats;
pub mod tile;
pub mod tsu;
pub mod verify;

mod context;
mod error;

pub use config::{BarrierMode, Engine, GridConfig, SchedulingPolicy, SimConfig, SimConfigBuilder};
pub use engine::{SimOutcome, Simulation, WorkCounters};
pub use error::{BlockedTile, DeadlockDiagnostics, SimError};
pub use fault::{FaultEvent, FaultImpactEntry, FaultPlan, FaultReport, RandomFaultSpec};
pub use kernel::Kernel;
pub use memory::MemoryReport;
pub use output::KernelOutput;
pub use placement::{ArraySpace, Placement, VertexPlacement};
pub use stats::SimStats;
pub use verify::{Diagnostic, Severity, VerifyContext, VerifyMode, VerifyReport};
