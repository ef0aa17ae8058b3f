//! Simulation configuration.
//!
//! A [`SimConfig`] captures every knob the paper's evaluation turns:
//! grid size (Section V-B strong scaling), NoC topology (Figure 8),
//! scheduling policy and data placement (the Figure 5 ablation ladder),
//! barrier mode (barrierless frontiers vs. per-epoch synchronization), and
//! the per-tile scratchpad capacity that bounds which datasets fit.
//! [`SimConfigBuilder`] validates the combination before a simulation is
//! built.

use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::placement::VertexPlacement;
use crate::verify::VerifyMode;
use dalorex_noc::{GridShape, Topology};

/// Paper-default ejection (local delivery) buffer capacity per channel, in
/// flits — shared with [`crate::verify::VerifyContext::paper_default`].
pub const DEFAULT_EJECTION_FLITS: usize = 64;

/// Tile-grid dimensions for a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridConfig {
    /// Tiles in the X dimension.
    pub width: usize,
    /// Tiles in the Y dimension.
    pub height: usize,
}

impl GridConfig {
    /// Creates a `width x height` grid configuration.
    pub fn new(width: usize, height: usize) -> Self {
        GridConfig { width, height }
    }

    /// Creates a square grid of `side x side` tiles.
    pub fn square(side: usize) -> Self {
        GridConfig::new(side, side)
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.width * self.height
    }

    /// Converts to the NoC crate's grid shape.
    pub fn shape(&self) -> GridShape {
        GridShape::new(self.width, self.height)
    }

    /// Fixed overhead charged at every epoch barrier (host broadcast of the
    /// "start next epoch" trigger), in cycles: one per tile along the
    /// grid's width plus its height.  The idle network ticks through them,
    /// so its clock stays the chip's.
    pub fn epoch_broadcast_cycles(&self) -> u64 {
        (self.width + self.height) as u64
    }
}

/// Task-scheduling policy implemented by the TSU (Section III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Plain round-robin over eligible tasks — the `Basic-TSU` ablation
    /// configuration.
    RoundRobin,
    /// The paper's occupancy-based priority: a task is high priority when
    /// its input queue is nearly full, medium priority when its output queue
    /// is nearly empty, low otherwise; ties go to the larger queue.  This is
    /// the `Traffic-Aware` configuration and the Dalorex default.
    OccupancyPriority,
}

/// Which cycle engine drives a simulation run.
///
/// The two engines produce **bit-identical** modelled schedules, outputs
/// and statistics — the cross-crate equivalence suite pins them to each
/// other — and differ only in simulator wall-clock.  Every figure binary
/// and example runs the default [`Engine::Calendar`]; the oracle is
/// selected only by the equivalence tests, via [`SimConfigBuilder::engine`]
/// or per run with `Simulation::run_with_engine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The production engine and the default: the allocation-free tile
    /// path, which skips active tiles that provably have nothing to do this
    /// cycle, driving the NoC's calendar router scheduler (per-router
    /// `next_possible` due stamps and a bitset of stamped routers, so each
    /// network cycle port-scans only the routers that could actually
    /// commit).
    #[default]
    Calendar,
    /// The schedule-equivalence oracle: the preserved pre-overhaul tile
    /// path (full queue scans, rescanning task picks) and the NoC's
    /// reference router scheduler, ticking every cycle.  Several times
    /// slower; kept only to pin [`Engine::Calendar`].
    Reference,
}

impl Engine {
    /// Both engines, oracle first.
    pub const ALL: [Engine; 2] = [Engine::Reference, Engine::Calendar];
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Calendar => "calendar",
            Engine::Reference => "reference",
        })
    }
}

/// Synchronization mode between graph epochs (Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierMode {
    /// Local frontiers flow continuously; no global barrier. The Dalorex
    /// default for BFS, SSSP and WCC.
    Barrierless,
    /// A global barrier separates epochs: new frontier vertices are only
    /// accumulated into the bitmap, and the host triggers the next epoch
    /// when the chip goes idle.  PageRank always runs this way.
    EpochBarrier,
}

/// Complete configuration of a Dalorex simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Grid dimensions.
    pub grid: GridConfig,
    /// NoC topology.
    pub topology: Topology,
    /// TSU scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Vertex-array placement.
    pub vertex_placement: VertexPlacement,
    /// Epoch synchronization mode.
    pub barrier_mode: BarrierMode,
    /// Scratchpad capacity per tile, in bytes.
    pub scratchpad_bytes: usize,
    /// Router buffer capacity per output port and channel, in flits.
    pub noc_buffer_flits: usize,
    /// Ejection (local delivery) buffer capacity per channel, in flits.
    pub noc_ejection_flits: usize,
    /// Endpoint bandwidth in messages per tile per cycle (default 1): how
    /// many arriving messages the TSU drains from the ejection buffers, and
    /// how many channel-queue messages it injects into the router, each
    /// cycle.  The paper's tiles have a single local router port (1); wider
    /// endpoints remove the injection/ejection serialization that dominates
    /// small grids, letting sweeps isolate fabric contention.
    pub endpoint_drains_per_cycle: usize,
    /// Hard cycle limit after which the simulation aborts.
    pub max_cycles: u64,
    /// Cycles without any progress after which a deadlock is reported.
    pub watchdog_cycles: u64,
    /// Extra cycles charged on every task dispatch.  Zero for Dalorex's
    /// native, non-interrupting task invocations; the `Data-Local` rung of
    /// the Figure 5 ablation sets it to the 50-cycle interrupt penalty of
    /// Tesseract-style remote calls (Section II-C).
    pub invocation_overhead_cycles: u64,
    /// The cycle engine `Simulation::run` drives (default
    /// [`Engine::Calendar`]).  Both engines model the identical schedule;
    /// the oracle only costs wall-clock (see [`Engine`]).
    pub engine: Engine,
    /// Deterministic fault schedule applied bit-identically by both cycle
    /// engines (default empty = schedule-invisible).  See
    /// [`crate::fault::FaultPlan`] for the model and spec format.
    pub faults: FaultPlan,
    /// How strictly the static task-graph verifier ([`crate::verify`])
    /// treats its findings when the simulation is built (default
    /// [`VerifyMode::Warn`]).  Structural defects that would abort the run
    /// anyway are fatal under every mode.
    pub verify: VerifyMode,
}

impl SimConfig {
    /// Starts a builder for the given grid with paper-default settings.
    pub fn builder(grid: GridConfig) -> SimConfigBuilder {
        SimConfigBuilder::new(grid)
    }

    /// The default topology the paper uses for this grid size: a plain torus
    /// up to 32x32 tiles, and a torus with ruche channels (factor 4) beyond
    /// that (Section IV-A).
    pub fn paper_default_topology(grid: GridConfig) -> Topology {
        if grid.num_tiles() <= 32 * 32 {
            Topology::Torus
        } else {
            Topology::TorusRuche { factor: 4 }
        }
    }
}

/// Builder for [`SimConfig`].
///
/// ```
/// use dalorex_sim::config::{GridConfig, SimConfigBuilder};
///
/// # fn main() -> Result<(), dalorex_sim::SimError> {
/// let config = SimConfigBuilder::new(GridConfig::square(4)).build()?;
/// assert_eq!(config.grid.num_tiles(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Creates a builder with the paper's default settings for `grid`:
    /// torus (or ruche-torus for >1024 tiles), occupancy-priority
    /// scheduling, interleaved vertex placement, barrierless execution, and
    /// a 4 MiB scratchpad per tile.
    pub fn new(grid: GridConfig) -> Self {
        SimConfigBuilder {
            config: SimConfig {
                grid,
                topology: SimConfig::paper_default_topology(grid),
                scheduling: SchedulingPolicy::OccupancyPriority,
                vertex_placement: VertexPlacement::Interleaved,
                barrier_mode: BarrierMode::Barrierless,
                scratchpad_bytes: 4 * 1024 * 1024,
                noc_buffer_flits: 16,
                noc_ejection_flits: DEFAULT_EJECTION_FLITS,
                endpoint_drains_per_cycle: 1,
                max_cycles: 200_000_000,
                watchdog_cycles: 2_000_000,
                invocation_overhead_cycles: 0,
                engine: Engine::default(),
                faults: FaultPlan::default(),
                verify: VerifyMode::default(),
            },
        }
    }

    /// Overrides the NoC topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.config.topology = topology;
        self
    }

    /// Overrides the scheduling policy.
    pub fn scheduling(mut self, policy: SchedulingPolicy) -> Self {
        self.config.scheduling = policy;
        self
    }

    /// Overrides the vertex placement.
    pub fn vertex_placement(mut self, placement: VertexPlacement) -> Self {
        self.config.vertex_placement = placement;
        self
    }

    /// Overrides the barrier mode.
    pub fn barrier_mode(mut self, mode: BarrierMode) -> Self {
        self.config.barrier_mode = mode;
        self
    }

    /// Overrides the per-tile scratchpad capacity in bytes.
    pub fn scratchpad_bytes(mut self, bytes: usize) -> Self {
        self.config.scratchpad_bytes = bytes;
        self
    }

    /// Overrides the router buffer size in flits.
    pub fn noc_buffer_flits(mut self, flits: usize) -> Self {
        self.config.noc_buffer_flits = flits;
        self
    }

    /// Overrides the ejection buffer size in flits.
    pub fn noc_ejection_flits(mut self, flits: usize) -> Self {
        self.config.noc_ejection_flits = flits;
        self
    }

    /// Overrides the endpoint bandwidth: messages drained from the ejection
    /// buffers — and injected from the channel queues — per tile per cycle.
    /// The default of 1 models the paper's single local router port.
    pub fn endpoint_drains_per_cycle(mut self, drains: usize) -> Self {
        self.config.endpoint_drains_per_cycle = drains;
        self
    }

    /// Overrides the hard cycle limit.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.config.max_cycles = cycles;
        self
    }

    /// Overrides the deadlock watchdog window.
    pub fn watchdog_cycles(mut self, cycles: u64) -> Self {
        self.config.watchdog_cycles = cycles;
        self
    }

    /// Overrides the per-dispatch invocation overhead (used by the
    /// `Data-Local` ablation rung to model interrupting remote calls).
    pub fn invocation_overhead_cycles(mut self, cycles: u64) -> Self {
        self.config.invocation_overhead_cycles = cycles;
        self
    }

    /// Overrides the cycle engine (default [`Engine::Calendar`]; the
    /// modelled schedule is identical for both engines).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Installs a deterministic fault schedule (default empty).  An empty
    /// plan is schedule-invisible; a non-empty plan degrades the run but
    /// stays bit-identical between the engine and its oracle.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Overrides the static-verifier mode (default [`VerifyMode::Warn`]):
    /// `Off` skips the analysis passes, `Warn` prints their findings,
    /// `Deny` fails [`crate::Simulation::new`] with
    /// [`SimError::Verification`] on any error-severity finding.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.config.verify = mode;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any dimension, buffer or limit
    /// is zero, or the ruche factor is smaller than 2.
    pub fn build(self) -> Result<SimConfig, SimError> {
        let c = &self.config;
        let reject = |reason: &str| -> Result<SimConfig, SimError> {
            Err(SimError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if c.grid.width == 0 || c.grid.height == 0 {
            return reject("grid dimensions must be non-zero");
        }
        if c.scratchpad_bytes == 0 {
            return reject("scratchpad capacity must be non-zero");
        }
        if c.noc_buffer_flits == 0 || c.noc_ejection_flits == 0 {
            return reject("NoC buffers must hold at least one flit");
        }
        if c.endpoint_drains_per_cycle == 0 {
            return reject("endpoints must drain at least one message per cycle");
        }
        if c.max_cycles == 0 || c.watchdog_cycles == 0 {
            return reject("cycle limits must be non-zero");
        }
        if let Topology::TorusRuche { factor } = c.topology {
            if factor < 2 {
                return reject("ruche factor must be at least 2");
            }
        }
        if let Err(reason) = c.faults.resolve(c.grid.num_tiles()) {
            return Err(SimError::InvalidConfig {
                reason: format!("invalid fault plan: {reason}"),
            });
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let config = SimConfigBuilder::new(GridConfig::square(16))
            .build()
            .unwrap();
        assert_eq!(config.topology, Topology::Torus);
        assert_eq!(config.scheduling, SchedulingPolicy::OccupancyPriority);
        assert_eq!(config.vertex_placement, VertexPlacement::Interleaved);
        assert_eq!(config.barrier_mode, BarrierMode::Barrierless);
        assert_eq!(config.scratchpad_bytes, 4 * 1024 * 1024);
        assert_eq!(config.endpoint_drains_per_cycle, 1);
        assert_eq!(config.verify, VerifyMode::Warn);
        assert_eq!(config.grid.epoch_broadcast_cycles(), 32);
    }

    #[test]
    fn verify_mode_override_applies() {
        let config = SimConfigBuilder::new(GridConfig::square(4))
            .verify(VerifyMode::Deny)
            .build()
            .unwrap();
        assert_eq!(config.verify, VerifyMode::Deny);
    }

    #[test]
    fn large_grids_default_to_ruche_torus() {
        let config = SimConfigBuilder::new(GridConfig::square(64))
            .build()
            .unwrap();
        assert_eq!(config.topology, Topology::TorusRuche { factor: 4 });
        let small = SimConfigBuilder::new(GridConfig::square(32))
            .build()
            .unwrap();
        assert_eq!(small.topology, Topology::Torus);
    }

    #[test]
    fn builder_overrides_apply() {
        let config = SimConfigBuilder::new(GridConfig::new(2, 3))
            .topology(Topology::Mesh)
            .scheduling(SchedulingPolicy::RoundRobin)
            .vertex_placement(VertexPlacement::Chunked)
            .barrier_mode(BarrierMode::EpochBarrier)
            .scratchpad_bytes(1024)
            .noc_buffer_flits(8)
            .noc_ejection_flits(8)
            .endpoint_drains_per_cycle(4)
            .max_cycles(1000)
            .watchdog_cycles(100)
            .build()
            .unwrap();
        assert_eq!(config.grid.num_tiles(), 6);
        assert_eq!(config.endpoint_drains_per_cycle, 4);
        assert_eq!(config.topology, Topology::Mesh);
        assert_eq!(config.scheduling, SchedulingPolicy::RoundRobin);
        assert_eq!(config.vertex_placement, VertexPlacement::Chunked);
        assert_eq!(config.barrier_mode, BarrierMode::EpochBarrier);
        assert_eq!(config.max_cycles, 1000);
    }

    #[test]
    fn engine_defaults_to_calendar_and_displays_its_name() {
        let config = SimConfigBuilder::new(GridConfig::square(4))
            .build()
            .unwrap();
        assert_eq!(config.engine, Engine::Calendar);
        let reference = SimConfigBuilder::new(GridConfig::square(4))
            .engine(Engine::Reference)
            .build()
            .unwrap();
        assert_eq!(reference.engine, Engine::Reference);
        assert_eq!(Engine::Calendar.to_string(), "calendar");
        assert_eq!(Engine::Reference.to_string(), "reference");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimConfigBuilder::new(GridConfig::new(0, 4))
            .build()
            .is_err());
        assert!(SimConfigBuilder::new(GridConfig::square(4))
            .scratchpad_bytes(0)
            .build()
            .is_err());
        assert!(SimConfigBuilder::new(GridConfig::square(4))
            .noc_buffer_flits(0)
            .build()
            .is_err());
        assert!(SimConfigBuilder::new(GridConfig::square(4))
            .endpoint_drains_per_cycle(0)
            .build()
            .is_err());
        assert!(SimConfigBuilder::new(GridConfig::square(4))
            .max_cycles(0)
            .build()
            .is_err());
        assert!(SimConfigBuilder::new(GridConfig::square(4))
            .topology(Topology::TorusRuche { factor: 1 })
            .build()
            .is_err());
    }
}
