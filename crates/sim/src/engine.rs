//! The cycle-level Dalorex simulation engine.
//!
//! [`Simulation`] ties everything together: it distributes the dataset
//! across tiles according to the configured placement, instantiates the
//! kernel's queues and arrays on every tile, and then advances tiles and
//! the network in lock-step, one cycle at a time, until the chip is idle
//! (the paper's hierarchical idle signal) and the kernel declares the
//! computation finished.
//!
//! Per cycle, each active tile's TSU:
//!
//! 1. drains up to `endpoint_drains_per_cycle` arriving messages from the
//!    network into the destination tasks' input queues (the head decoder
//!    converts the head flit's global index into a local offset),
//! 2. injects up to `endpoint_drains_per_cycle` messages from the channel
//!    queues into the network (the head encoder derives the destination
//!    tile from the global index),
//! 3. dispatches a task to the PU if the PU is free and a task is eligible
//!    under the scheduling policy.
//!
//! At the default endpoint budget of 1 the schedule is identical to the
//! original single-port engine (each step touches at most one message per
//! cycle); larger budgets model wider endpoint interfaces, with
//! back-pressure still exact: a rejected channel stays parked for the rest
//! of the cycle, and ejection-buffer occupancy keeps throttling upstream
//! routers.
//!
//! Task bodies execute functionally at dispatch and charge their cycle cost
//! to the PU, which stays busy for that many cycles (`DESIGN.md` §2).
//!
//! # Hot path
//!
//! The per-cycle tile path is allocation-free end to end, mirroring the
//! event-driven network overhaul: queues are preallocated ring buffers
//! ([`crate::queues::WordQueue`]), messages carry their payload inline
//! (`dalorex_noc::Message`), idle checks read an incrementally maintained
//! queued-word counter, the drain/inject loops walk channel-occupancy
//! bitmasks, and the scheduler consults a task-ready bitmask updated at
//! every queue mutation.  The pre-overhaul tile path is preserved behind
//! `run_with_engine(kernel, Engine::Reference)` as the
//! schedule-equivalence oracle ([`Engine::Reference`], which also steps
//! the network with its reference router scheduler); the two produce
//! cycle-exact identical outcomes.
//!
//! # Known-blocked channels and sleeping tiles
//!
//! The network knows which channels of a tile a retry would see rejected
//! (`Network::blocked_channels`): a rejected head stays at the front of
//! its CQ, and only a pop from its first-hop buffer that frees the head's
//! need clears the bit.  So the engine never re-attempts a known-blocked
//! channel.  A running tile counts its rejection where the attempt would
//! have been, in the same channel order and under the same budget break.
//! An active tile that cannot drain, dispatch or attempt anything else is
//! skipped, accounting one rejection per inject-ready channel.  If such a
//! parked tile has no ready task either, it leaves the active set: only a
//! delivery (`Network::delivered_tiles`) or an unblock
//! (`Network::unblocked_tiles`) can change what its cycle does, and both
//! wake it after the network cycle that caused them.  On waking it
//! settles the rejections of every cycle it slept.  Tiles whose ready
//! task waits only for the PU stay active.

use crate::area::{AreaConstants, AreaModel};
use crate::config::{BarrierMode, Engine, SimConfig};
use crate::context::{InvocationCost, SimBootstrapContext, SimEpochContext, SimTaskContext};
use crate::energy::{EnergyBreakdown, EnergyConstants, EnergyModel};
use crate::error::{BlockedTile, DeadlockDiagnostics, SimError};
use crate::fault::{ArmedFaults, FaultEvent, FaultImpactEntry, FaultReport};
use crate::kernel::{ChannelDecl, EpochDecision, Kernel, TaskDecl, TaskParams};
use crate::memory::MemoryReport;
use crate::output::KernelOutput;
use crate::placement::{ArraySpace, Placement};
use crate::stats::SimStats;
use crate::tile::{distribute_graph, TileCsr, TileInit, TileState, MAX_AUTOPOP_WORDS};
use crate::tsu::Scheduler;
use dalorex_graph::CsrGraph;
use dalorex_noc::{Message, Network, NocConfig, RouterScheduler};

/// Result of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Aggregate statistics.
    pub stats: SimStats,
    /// Energy breakdown computed by the energy model.
    pub energy: EnergyBreakdown,
    /// Gathered kernel output arrays.
    pub output: KernelOutput,
    /// Wall-clock seconds at the modelled 1 GHz clock.
    pub seconds: f64,
    /// Average power in Watts.
    pub average_power_w: f64,
    /// Average memory bandwidth used, bytes per second.
    pub memory_bandwidth_bytes_per_s: f64,
    /// Chip area in square millimetres for the simulated configuration.
    pub chip_area_mm2: f64,
    /// Average power density in milliwatts per square millimetre.
    pub power_density_mw_per_mm2: f64,
    /// Modeled per-subsystem memory footprint of the run.  Lives here and
    /// not in [`SimStats`] because the calendar line is engine bookkeeping
    /// that legitimately differs between the engine and its oracle, while
    /// stats are pinned bit-identical between the two.
    pub memory: MemoryReport,
    /// Per-event fault impact accounting (empty for an empty
    /// [`crate::fault::FaultPlan`]).  Derived entirely from schedule facts,
    /// so it is bit-identical between the engine and its oracle.
    pub fault: FaultReport,
    /// How much tile-side work the run's engine did.  Like [`MemoryReport`]
    /// it stays out of [`SimStats`]: it measures the simulator, not the
    /// modelled machine, and legitimately differs between the engine and
    /// its oracle.
    pub work: WorkCounters,
}

/// Deterministic counts of the simulator's tile-side work, the units a
/// speed claim can name instead of a noisy wall-clock ratio (the router
/// walk's counterparts are the `walk_*` fields of `dalorex_noc::NocStats`).
/// Each engine counts its own tile path, so the oracle's counts are those
/// of running every active tile every cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Active-tile visits, summed over all cycles: every tile the cycle
    /// loop looked at, whether it ran the tile or skipped it as a no-op.
    pub tile_visits: u64,
    /// Visits that ran the tile's TSU + PU cycle (the rest were skipped).
    pub tile_cycles_run: u64,
    /// Calls to `Network::try_inject` from the tile path, accepted or
    /// rejected.
    pub injection_attempts: u64,
}

impl SimOutcome {
    /// Total energy in Joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// Compact per-tile snapshot the engine keeps in a dense, cache-resident
/// array so the hot loop can prove, together with the network's dense
/// delivery and blocked-channel bits, that a tile has no possible action
/// this cycle — no drainable delivery, no injection attempt not already
/// known to fail, no dispatchable task — without touching the tile's (much
/// larger, scattered) [`TileState`] or its router.  A provably action-free
/// tile's cycle is a no-op but for the rejections of its known-blocked
/// channels, so skipping it cannot change the schedule; the snapshot is
/// refreshed whenever the tile actually runs (or is woken by an epoch
/// push), which are the only points its fields can change.
#[derive(Debug, Clone, Copy)]
struct HotTile {
    /// Mirror of [`TileState::pu_busy_until`].
    pu_busy_until: u64,
    /// The channels whose CQ holds a full message (mirror of
    /// [`TileState::cq_ready_mask`]).
    cq_ready: u64,
    /// The cycle from which the tile has been asleep — parked, out of the
    /// active set — and `u64::MAX` while it is awake.  Each cycle it
    /// sleeps, the oracle would attempt and see rejected every
    /// inject-ready channel once; the wake settles those rejections.
    asleep_since: u64,
    /// Whether any IQ or CQ holds words (mirror of `queued_words > 0`).
    queued: bool,
    /// Whether any task is dispatch-eligible.
    task_ready: bool,
}

impl HotTile {
    fn snapshot(tile: &TileState) -> Self {
        HotTile {
            pu_busy_until: tile.pu_busy_until,
            cq_ready: tile.cq_ready_mask(),
            asleep_since: u64::MAX,
            queued: tile.queued_words() > 0,
            task_ready: tile.task_ready_mask() != 0,
        }
    }

    /// Whether the tile will still be non-idle at `cycle + 1` without
    /// running (used when its cycle is skipped as a no-op).
    fn nonidle_after(&self, cycle: u64) -> bool {
        self.queued || self.pu_busy_until > cycle + 1
    }

    /// Whether the tile may sleep: every inject-ready channel is known
    /// blocked (`blocked`, from [`Network::blocked_channels`]) and no task
    /// is ready, so only a pop that unblocks a channel or a delivery can
    /// change what its cycle does.  (Ready tasks waiting for a busy PU keep
    /// the tile awake.)  The caller has checked that no delivery waits.
    fn parks(&self, blocked: u32) -> bool {
        !self.task_ready && self.cq_ready != 0 && self.cq_ready & !u64::from(blocked) == 0
    }
}

/// Builds the structured [`DeadlockDiagnostics`] payload for a watchdog
/// firing.  Reads only schedule-identical state (tile queue occupancies,
/// the network's in-flight counters and the progress markers), so the
/// engine and its oracle attach a bit-identical snapshot — pinned by
/// `tests/engine_error_parity.rs`.
fn deadlock_diagnostics(
    tiles: &[TileState],
    network: &Network,
    last_progress_cycle: u64,
    total_dispatches: u64,
) -> Box<DeadlockDiagnostics> {
    let mut blocked_tiles = Vec::new();
    let mut blocked_tiles_total = 0usize;
    for tile in tiles {
        let iq_words: usize = tile.iqs().iter().map(|q| q.len()).sum();
        let cq_words: usize = tile.cqs().iter().map(|q| q.len()).sum();
        let undrained_deliveries = network.delivered_waiting(tile.tile);
        if iq_words == 0 && cq_words == 0 && undrained_deliveries == 0 {
            continue;
        }
        blocked_tiles_total += 1;
        if blocked_tiles.len() < DeadlockDiagnostics::MAX_BLOCKED_TILES {
            blocked_tiles.push(BlockedTile {
                tile: tile.tile,
                iq_words,
                cq_words,
                undrained_deliveries,
            });
        }
    }
    Box::new(DeadlockDiagnostics {
        last_progress_cycle,
        total_dispatches,
        messages_in_flight: network.in_flight(),
        messages_awaiting_ejection: network.awaiting_ejection(),
        blocked_tiles_total,
        blocked_tiles,
    })
}

/// A configured Dalorex simulation, ready to run kernels over one dataset.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    placement: Placement,
    csr: Vec<TileCsr>,
    energy_model: EnergyModel,
    area_model: AreaModel,
    /// The resolved, compiled fault plan — `None` for the (default) empty
    /// plan, so fault-free runs pay one branch per fault-aware decision.
    faults: Option<Box<ArmedFaults>>,
}

impl Simulation {
    /// Distributes `graph` over the configured grid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DatasetTooLarge`] if the largest per-tile chunk
    /// (dataset plus a code/queue reserve) exceeds the configured scratchpad.
    pub fn new(config: SimConfig, graph: &CsrGraph) -> Result<Self, SimError> {
        let num_tiles = config.grid.num_tiles();
        let placement = Placement::new(
            num_tiles,
            graph.num_vertices(),
            graph.num_edges(),
            config.vertex_placement,
        );
        let csr = distribute_graph(graph, &placement);

        // The scratchpad must hold the dataset chunk, the program binary and
        // the queues; we reserve 64 KiB for code plus queue storage, in the
        // spirit of the paper's "instruction port can exist only for a
        // fraction of the local memory".
        const CODE_AND_QUEUE_RESERVE: usize = 64 * 1024;
        let max_chunk = csr.iter().map(TileCsr::footprint_bytes).max().unwrap_or(0);
        // Per-vertex kernel state: assume up to 4 words per vertex.
        let kernel_state = 16 * placement.chunk_capacity(ArraySpace::Vertex);
        let required = max_chunk + kernel_state + CODE_AND_QUEUE_RESERVE;
        if required > config.scratchpad_bytes {
            return Err(SimError::DatasetTooLarge {
                required_bytes: required,
                scratchpad_bytes: config.scratchpad_bytes,
            });
        }

        let energy_model = EnergyModel::new(
            EnergyConstants::paper_7nm(),
            num_tiles,
            config.scratchpad_bytes,
        );
        let area_model = AreaModel::new(
            AreaConstants::paper_7nm(),
            num_tiles,
            config.scratchpad_bytes,
            config.topology,
        );
        // `SimConfig::build` already validated the plan, but arming must
        // stay correct for configs constructed before a grid resize or
        // hand-assembled in tests.
        let faults = ArmedFaults::arm(&config.faults, num_tiles).map_err(|reason| {
            SimError::InvalidConfig {
                reason: format!("invalid fault plan: {reason}"),
            }
        })?;
        Ok(Simulation {
            config,
            placement,
            csr,
            energy_model,
            area_model,
            faults,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The data placement in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The energy model for this configuration.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The area model for this configuration.
    pub fn area_model(&self) -> &AreaModel {
        &self.area_model
    }

    /// Runs `kernel` to completion under the configured cycle engine
    /// ([`crate::config::SimConfig::engine`], default [`Engine::Calendar`])
    /// and returns the outcome.
    ///
    /// The default calendar engine simulates every cycle, like the oracle,
    /// running the allocation-free tile path — ring-buffer queue reads,
    /// inline message payloads, O(1) idle checks and the incrementally
    /// maintained readiness masks — against the NoC's calendar router
    /// scheduler.  An active tile whose dense snapshot and network bits
    /// prove it can neither drain, dispatch nor make an injection attempt
    /// not already known to fail is not run at all; only its channels'
    /// guaranteed injection rejections are accounted, and if it has no
    /// ready task it sleeps until a delivery or an unblock wakes it.  The
    /// modelled schedule and every statistic are cycle-exact identical to
    /// the [`Engine::Reference`] oracle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Verification`] for inconsistent kernel
    /// declarations (structurally broken graphs under any
    /// [`crate::verify::VerifyMode`]; hazardous ones under
    /// [`crate::verify::VerifyMode::Deny`]), [`SimError::CycleLimitExceeded`]
    /// or [`SimError::Deadlock`] if the run does not terminate, and
    /// [`SimError::UnknownKernelResource`] if the kernel's declared output
    /// arrays do not exist.
    pub fn run(&self, kernel: &dyn Kernel) -> Result<SimOutcome, SimError> {
        self.run_with_engine(kernel, self.config.engine)
    }

    /// Runs the static task-graph verifier ([`crate::verify`]) over the
    /// kernel and applies the configured [`crate::verify::VerifyMode`]:
    /// structural defects (the graph cannot run at all) are fatal under
    /// every mode; analysis findings are dropped under `Off`, printed to
    /// stderr under `Warn` (the default), and fatal under `Deny`.
    fn verify_kernel(&self, kernel: &dyn Kernel) -> Result<(), SimError> {
        use crate::verify::{verify_kernel, VerifyContext, VerifyMode};
        let ctx = VerifyContext {
            ejection_flits: self.config.noc_ejection_flits,
            scheduling: self.config.scheduling,
        };
        let report = verify_kernel(kernel, &ctx);
        if report.diagnostics.iter().any(|d| d.structural) {
            return Err(SimError::Verification {
                report: Box::new(report),
            });
        }
        match self.config.verify {
            VerifyMode::Off => {}
            VerifyMode::Warn => {
                for diag in &report.diagnostics {
                    eprintln!("dalorex-verify: kernel {:?}: {diag}", report.kernel);
                }
            }
            VerifyMode::Deny => {
                for diag in report.warnings() {
                    eprintln!("dalorex-verify: kernel {:?}: {diag}", report.kernel);
                }
                if report.has_errors() {
                    return Err(SimError::Verification {
                        report: Box::new(report),
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs `kernel` under an explicitly selected cycle engine, overriding
    /// the configured one — the single dispatch point every run goes
    /// through, and the one the equivalence tests drive the oracle by.
    ///
    /// [`Engine::Reference`] is the schedule-equivalence oracle: the
    /// pre-overhaul tile path (full channel scans, full-rescan scheduling,
    /// O(n) idle checks) on the reference router scheduler, running every
    /// active tile every cycle.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run`].
    pub fn run_with_engine(
        &self,
        kernel: &dyn Kernel,
        engine: Engine,
    ) -> Result<SimOutcome, SimError> {
        let reference = engine == Engine::Reference;
        let tasks = kernel.tasks();
        let channels = kernel.channels();
        let arrays = kernel.arrays();
        self.verify_kernel(kernel)?;

        let num_tiles = self.placement.num_tiles();
        // One shared declaration record, from which every tile builds its
        // arena slab.
        let init = std::sync::Arc::new(TileInit::new(
            &tasks,
            &channels,
            &arrays,
            kernel.num_tile_vars(),
        ));
        let mut tiles: Vec<TileState> = (0..num_tiles)
            .map(|t| TileState::new(t, &self.placement, std::sync::Arc::clone(&init)))
            .collect();

        // Bootstrap every tile (initial state and the root invocation).
        for tile in tiles.iter_mut() {
            let mut ctx = SimBootstrapContext {
                csr: &self.csr[tile.tile],
                placement: &self.placement,
                tile,
            };
            kernel.bootstrap(&mut ctx);
        }

        let router_scheduler = if reference {
            RouterScheduler::Reference
        } else {
            RouterScheduler::Calendar
        };
        let mut noc_config = NocConfig::new(self.config.grid.shape(), self.config.topology)
            .with_channels(channels.len().max(1))
            .with_buffer_flits(self.config.noc_buffer_flits)
            .with_ejection_buffer_flits(self.config.noc_ejection_flits)
            .with_router_scheduler(router_scheduler);
        if let Some(armed) = self.faults.as_deref() {
            noc_config = noc_config.with_faults(armed.noc_faults.clone());
        }
        let mut network = Network::new(noc_config);

        let mut schedulers: Vec<Scheduler> = (0..num_tiles)
            .map(|_| Scheduler::new(self.config.scheduling))
            .collect();

        let barrier_mode = self.config.barrier_mode == BarrierMode::EpochBarrier;
        // Dense action snapshots for the fast path's no-op skip (see
        // `HotTile`); the reference path ignores them, preserving its
        // pre-overhaul cost profile.
        let mut hot: Vec<HotTile> = tiles.iter().map(HotTile::snapshot).collect();
        // The active tiles, one bit each (bit `t % 64` of word `t / 64`,
        // like the network's delivery bitset), visited in ascending tile id.
        let mut active: Vec<u64> = vec![0; num_tiles.div_ceil(64)];
        for tile in tiles.iter().filter(|t| !t.is_idle(0)) {
            active[tile.tile / 64] |= 1 << (tile.tile % 64);
        }

        let mut cycle: u64 = 0;
        let mut epochs: u64 = 0;
        let mut last_progress_marker = (0u64, 0u64);
        let mut last_progress_cycle = 0u64;
        let mut total_dispatches = 0u64;
        let mut work = WorkCounters::default();

        loop {
            // Global idle: tiles drained, network drained.
            if network.is_idle() && active.iter().all(|&word| word == 0) {
                let mut epoch_ctx = SimEpochContext {
                    tiles: &mut tiles,
                    placement: &self.placement,
                    barrier_mode,
                    woken: Vec::new(),
                };
                let decision = kernel.on_global_idle(epochs as usize, &mut epoch_ctx);
                let woken = epoch_ctx.woken;
                match decision {
                    EpochDecision::Finish => break,
                    EpochDecision::Continue => {
                        epochs += 1;
                        // The idle network ticks through the broadcast, so
                        // the engine, the network and its fault windows
                        // share one clock.
                        let broadcast = self.config.grid.epoch_broadcast_cycles();
                        for _ in 0..broadcast {
                            network.cycle();
                        }
                        cycle += broadcast;
                        debug_assert_eq!(network.current_cycle(), cycle);
                        for tile in woken {
                            // The epoch trigger pushed invocations outside
                            // tile_cycle: refresh the action snapshot.  No
                            // CQ holds a message at global idle, so no tile
                            // is asleep.
                            hot[tile] = HotTile::snapshot(&tiles[tile]);
                            active[tile / 64] |= 1 << (tile % 64);
                        }
                        // A kernel that keeps answering Continue without
                        // scheduling work would spin forever; treat it as a
                        // deadlock after the watchdog window.
                        if active.iter().all(|&word| word == 0) {
                            return Err(SimError::Deadlock {
                                cycle,
                                network_messages: 0,
                                queued_invocations: 0,
                                diagnostics: deadlock_diagnostics(
                                    &tiles,
                                    &network,
                                    last_progress_cycle,
                                    total_dispatches,
                                ),
                            });
                        }
                        continue;
                    }
                }
            }

            // Advance the network one cycle, then wake the tiles whose
            // ejection buffers hold a message or whose blocked channels the
            // cycle's forwards unblocked.
            network.cycle();
            let woken = network
                .delivered_tiles()
                .iter()
                .zip(network.unblocked_tiles());
            for (slot, (&delivered, &unblocked)) in active.iter_mut().zip(woken) {
                *slot |= delivered | unblocked;
            }

            // Advance every active tile in ascending id.  Only deliveries,
            // unblocks and epoch pushes activate tiles, never a tile's
            // cycle, so each word is walked from a copy: a tile's bit is
            // cleared, then set again if the tile stays active.
            for (word, slot) in active.iter_mut().enumerate() {
                let mut bits = *slot;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    let t = word * 64 + bit as usize;
                    *slot &= !(1 << bit);
                    work.tile_visits += 1;
                    if reference {
                        work.tile_cycles_run += 1;
                        self.tile_cycle_reference(
                            kernel,
                            &tasks,
                            &channels,
                            &mut tiles[t],
                            &mut schedulers[t],
                            &mut network,
                            barrier_mode,
                            cycle,
                            &mut total_dispatches,
                            &mut work,
                        );
                        if !tiles[t].is_idle_scan(cycle + 1) || network.delivered_waiting(t) > 0 {
                            *slot |= 1 << bit;
                        }
                        continue;
                    }
                    let h = &mut hot[t];
                    let ready_channels = u64::from(h.cq_ready.count_ones());
                    if h.asleep_since != u64::MAX {
                        // Woken by a delivery or an unblock: settle the
                        // rejections of the cycles it slept through, one
                        // per inject-ready channel per cycle, as the oracle
                        // counted them.
                        network.count_injection_backpressure(
                            t,
                            (cycle - h.asleep_since) * ready_channels,
                        );
                        h.asleep_since = u64::MAX;
                    }
                    // No-op skip: when the dense snapshots prove the tile
                    // can neither drain, dispatch nor make an injection
                    // attempt that is not already known to fail, running
                    // `tile_cycle` would change nothing but the rejection
                    // statistics — keep, park or drop the tile without
                    // touching its state or its router, and account those
                    // statistics directly.  The service order of the tiles
                    // that do act cannot change the schedule: between two
                    // network cycles a tile's calls touch only its own
                    // router, and routers arbitrate in tile-id order.
                    let dispatchable = h.pu_busy_until <= cycle && h.task_ready;
                    let blocked = network.blocked_channels(t);
                    if !network.has_deliveries(t)
                        && !dispatchable
                        && h.cq_ready & !u64::from(blocked) == 0
                    {
                        // Every inject-ready channel is known blocked: the
                        // oracle would attempt and fail each one once.
                        network.count_injection_backpressure(t, ready_channels);
                        if h.parks(blocked) {
                            h.asleep_since = cycle + 1;
                        } else if h.nonidle_after(cycle) {
                            *slot |= 1 << bit;
                        }
                        continue;
                    }
                    work.tile_cycles_run += 1;
                    self.tile_cycle(
                        kernel,
                        &tasks,
                        &channels,
                        &mut tiles[t],
                        &mut schedulers[t],
                        &mut network,
                        barrier_mode,
                        cycle,
                        &mut total_dispatches,
                        &mut work,
                    );
                    hot[t] = HotTile::snapshot(&tiles[t]);
                    if network.has_deliveries(t) {
                        *slot |= 1 << bit;
                    } else if hot[t].parks(network.blocked_channels(t)) {
                        hot[t].asleep_since = cycle + 1;
                    } else if !tiles[t].is_idle(cycle + 1) {
                        *slot |= 1 << bit;
                    }
                }
            }

            cycle += 1;
            if cycle >= self.config.max_cycles {
                return Err(SimError::CycleLimitExceeded {
                    limit: self.config.max_cycles,
                });
            }

            // Deadlock watchdog: progress is measured by dispatches plus
            // delivered messages.
            let marker = (total_dispatches, network.stats().delivered_messages);
            if marker != last_progress_marker {
                last_progress_marker = marker;
                last_progress_cycle = cycle;
            } else if cycle - last_progress_cycle > self.config.watchdog_cycles {
                let queued: u64 = tiles
                    .iter()
                    .map(|t| t.iqs().iter().map(|q| q.len() as u64).sum::<u64>())
                    .sum();
                return Err(SimError::Deadlock {
                    cycle,
                    network_messages: network.in_flight() + network.awaiting_ejection(),
                    queued_invocations: queued,
                    diagnostics: deadlock_diagnostics(
                        &tiles,
                        &network,
                        last_progress_cycle,
                        total_dispatches,
                    ),
                });
            }
        }

        // A sleeping tile's blocked channel waits on a buffer that holds a
        // message, so none sleeps once the network is idle.
        debug_assert!(hot.iter().all(|h| h.asleep_since == u64::MAX));
        self.finish_outcome(kernel, &arrays, &tiles, &network, cycle, epochs, work)
    }

    /// Gathers statistics, output and the derived energy/area figures into
    /// the final [`SimOutcome`].
    #[allow(clippy::too_many_arguments)]
    fn finish_outcome(
        &self,
        kernel: &dyn Kernel,
        arrays: &[crate::kernel::LocalArrayDecl],
        tiles: &[TileState],
        network: &Network,
        cycle: u64,
        epochs: u64,
        work: WorkCounters,
    ) -> Result<SimOutcome, SimError> {
        let mut stats = SimStats {
            cycles: cycle,
            epochs: epochs.max(1),
            grid_width: self.config.grid.width,
            grid_height: self.config.grid.height,
            noc: network.stats().clone(),
            ..SimStats::default()
        };
        for tile in tiles {
            stats.absorb_tile(&tile.counters);
        }
        stats.router_busy_fraction = network.router_utilization().values().to_vec();
        stats.activity.cycles = cycle;
        stats.activity.noc_flit_hops = network.stats().flit_hops;
        stats.activity.noc_flit_mm =
            network.stats().flit_tile_spans * self.area_model.tile_pitch_mm();

        let output = self.gather_output(kernel, arrays, tiles)?;
        let energy = self.energy_model.breakdown(&stats.activity);
        let seconds = self.energy_model.seconds(cycle);
        let average_power_w = self.energy_model.average_power_watts(&stats.activity);
        let memory_bandwidth = self
            .energy_model
            .memory_bandwidth_bytes_per_s(&stats.activity);
        let chip_area = self.area_model.chip_mm2();
        let noc_mem = network.memory_report();
        let memory = MemoryReport {
            csr_bytes: self.csr.iter().map(TileCsr::footprint_bytes).sum(),
            tile_arena_bytes: tiles.iter().map(TileState::arena_bytes).sum(),
            materialized_tiles: tiles.len(),
            total_tiles: tiles.len(),
            noc_buffer_bytes: noc_mem.buffer_bytes,
            calendar_bytes: noc_mem.calendar_bytes,
        };
        Ok(SimOutcome {
            cycles: cycle,
            energy,
            seconds,
            average_power_w,
            memory_bandwidth_bytes_per_s: memory_bandwidth,
            chip_area_mm2: chip_area,
            power_density_mw_per_mm2: self.area_model.power_density_mw_per_mm2(average_power_w),
            stats,
            output,
            memory,
            fault: self.assemble_fault_report(tiles, network),
            work,
        })
    }

    /// Assembles the per-event [`FaultReport`]: fabric-side counters come
    /// from the network's per-event accounting (mapped back to plan order),
    /// tile-side counters from the per-tile fault counters (attributed to
    /// every slowdown/throttle event on that tile — see
    /// [`FaultImpactEntry`] on the shared attribution).
    fn assemble_fault_report(&self, tiles: &[TileState], network: &Network) -> FaultReport {
        let Some(armed) = self.faults.as_deref() else {
            return FaultReport::default();
        };
        let mut entries: Vec<FaultImpactEntry> = armed
            .events
            .iter()
            .map(|&event| FaultImpactEntry {
                event,
                messages_delayed: 0,
                delayed_cycles: 0,
                dispatches_slowed: 0,
                extra_pu_cycles: 0,
                throttled_messages: 0,
            })
            .collect();
        for (noc_index, impact) in network.fault_impacts().iter().enumerate() {
            let entry = &mut entries[armed.noc_event_map[noc_index]];
            entry.messages_delayed = impact.messages_delayed;
            entry.delayed_cycles = impact.delayed_cycles;
        }
        for tile in tiles {
            let counters = &tile.counters;
            if counters.fault_dispatches_slowed == 0 && counters.fault_throttled_messages == 0 {
                continue;
            }
            for (entry, event) in entries.iter_mut().zip(&armed.events) {
                match *event {
                    FaultEvent::PuSlowdown { tile: t, .. } if t == tile.tile => {
                        entry.dispatches_slowed += counters.fault_dispatches_slowed;
                        entry.extra_pu_cycles += counters.fault_extra_pu_cycles;
                    }
                    FaultEvent::EndpointThrottle { tile: t, .. } if t == tile.tile => {
                        entry.throttled_messages += counters.fault_throttled_messages;
                    }
                    _ => {}
                }
            }
        }
        FaultReport { entries }
    }

    /// Applies any active PU-slowdown fault at `tile` to a dispatch cost,
    /// accounting the stretch in the tile's fault counters.  Both engines
    /// dispatch on the same cycles, so the factor is sampled at the same
    /// cycle by the engine and its oracle.
    fn fault_slowed_cost(&self, tile: &mut TileState, cycle: u64, cost: u64) -> u64 {
        let Some(armed) = self.faults.as_deref() else {
            return cost;
        };
        let factor = armed.slow_factor(tile.tile, cycle);
        if factor == 1 {
            return cost;
        }
        let slowed = cost.saturating_mul(factor);
        tile.counters.fault_dispatches_slowed += 1;
        tile.counters.fault_extra_pu_cycles += slowed - cost;
        slowed
    }

    /// The endpoint drain/inject budget effective at `tile` on `cycle`:
    /// the configured budget unless an endpoint-throttle window is active
    /// (never below 1, so a throttle delays progress but cannot deny it —
    /// which is also what keeps the no-op skip's parked-rejection
    /// accounting exact under throttles).
    fn fault_endpoint_budget(&self, tile: usize, cycle: u64) -> usize {
        let configured = self.config.endpoint_drains_per_cycle;
        match self.faults.as_deref() {
            Some(armed) => armed.endpoint_budget(tile, cycle, configured),
            None => configured,
        }
    }

    /// One TSU + PU cycle on one tile — the allocation-free hot path.
    ///
    /// The drain loop walks the network's delivered-channel bitmask instead
    /// of scanning every channel, rewrites the head flit in the message's
    /// inline payload (no heap copy), and pushes the payload slice straight
    /// into the destination IQ.  The inject loop walks the tile's
    /// channel-ready bitmask, pops each message into a stack buffer and,
    /// like the reference, attempts every inject-ready channel.
    /// The dispatch step consults the incrementally maintained task-ready
    /// mask through [`Scheduler::pick`] and auto-pops parameters into a
    /// stack buffer.  Every decision is bit-identical to
    /// [`Simulation::tile_cycle_reference`].  The verifier keeps every
    /// kernel within the mask widths (V015) and the parameter buffer
    /// (V016).
    #[allow(clippy::too_many_arguments)]
    fn tile_cycle(
        &self,
        kernel: &dyn Kernel,
        tasks: &[TaskDecl],
        channels: &[ChannelDecl],
        tile: &mut TileState,
        scheduler: &mut Scheduler,
        network: &mut Network,
        barrier_mode: bool,
        cycle: u64,
        total_dispatches: &mut u64,
        work: &mut WorkCounters,
    ) {
        let tile_id = tile.tile;
        let endpoint_budget = self.fault_endpoint_budget(tile_id, cycle);

        // 1. Drain up to `endpoint_budget` arriving messages into their
        //    tasks' IQs (head decode: global index -> local offset).  The
        //    occupied channels are visited in declaration order (ascending
        //    bits), repeatedly, until the budget is spent or no channel can
        //    make progress; at a budget of 1 this is exactly the original
        //    single-drain scan.  The network's delivery bit replaces the
        //    router poll that gated the reference drain.
        let mut drained = 0usize;
        let delivered = network.has_deliveries(tile_id);
        debug_assert_eq!(delivered, network.delivered_waiting(tile_id) > 0);
        if delivered {
            'drain: loop {
                let mut progressed = false;
                let mut mask = network.delivered_channel_mask(tile_id);
                while mask != 0 {
                    let channel = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if drained == endpoint_budget {
                        break 'drain;
                    }
                    let decl = &channels[channel];
                    let Some(message) = network.peek_delivered_on(tile_id, channel) else {
                        continue;
                    };
                    if !tile.iqs()[decl.dest_task].can_push(message.len()) {
                        // End-point back-pressure: leave it in the ejection
                        // buffer; upstream routers keep stalling on it.
                        continue;
                    }
                    let mut message = network
                        .pop_delivered_on(tile_id, channel)
                        .expect("peeked message is present");
                    let words = message.payload_mut();
                    words[0] = self.placement.to_local(decl.space, words[0] as usize) as u32;
                    let pushed = tile.push_iq(decl.dest_task, message.payload());
                    debug_assert!(pushed);
                    // The TSU writes the words into the IQ (scratchpad writes).
                    tile.counters.sram_writes += message.len() as u64;
                    tile.counters.messages_received += 1;
                    drained += 1;
                    progressed = true;
                }
                if !progressed || drained == endpoint_budget {
                    break;
                }
            }
        }

        // 2. Inject up to `endpoint_budget` messages from the channel
        //    queues into the network (head encode: global index ->
        //    destination tile).  A channel the router rejects is parked for
        //    the rest of the cycle.  A blocked channel must never block the
        //    rest — that separation is what makes the paper's task pipeline
        //    deadlock-free.  A channel the network already knows to be
        //    blocked is not attempted: its rejection is counted where the
        //    attempt would have been.  Injections on other channels fill
        //    other buffers, so the bits read once stay exact for the loop.
        let mut injected = 0usize;
        let mut parked = 0u64;
        let blocked = u64::from(network.blocked_channels(tile_id));
        'inject: loop {
            let mut progressed = false;
            let mut mask = tile.cq_ready_mask() & !parked;
            while mask != 0 {
                let channel = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if injected == endpoint_budget {
                    break 'inject;
                }
                if blocked & (1 << channel) != 0 {
                    network.count_injection_backpressure(tile_id, 1);
                    parked |= 1 << channel;
                    continue;
                }
                let decl = &channels[channel];
                let flits = decl.flits_per_message;
                debug_assert!(tile.cqs()[channel].len() >= flits);
                let head = tile.cq_peek(channel).expect("non-empty CQ");
                let dest = self.placement.owner(decl.space, head as usize);
                let mut flit_buf = [0u32; dalorex_noc::MAX_FLITS];
                let popped = tile.pop_cq_into(channel, flits, &mut flit_buf);
                debug_assert!(popped);
                work.injection_attempts += 1;
                match network.try_inject(tile_id, Message::new(dest, channel, &flit_buf[..flits])) {
                    Ok(()) => {
                        // Reading the words out of the CQ costs scratchpad
                        // reads once the router accepts the message.
                        tile.counters.sram_reads += flits as u64;
                        injected += 1;
                        progressed = true;
                    }
                    Err(rejected) => {
                        // The router applied back-pressure: restore the
                        // message at the head of this CQ and park the
                        // channel.
                        tile.restore_cq_front(channel, rejected.message.payload());
                        parked |= 1u64 << channel;
                    }
                }
            }
            if !progressed || injected == endpoint_budget {
                break;
            }
        }
        if endpoint_budget < self.config.endpoint_drains_per_cycle {
            // Throttled this cycle: count the traffic that moved under the
            // cap (idle throttled tiles contribute 0, identically in every
            // engine — skipped tiles move no messages).
            tile.counters.fault_throttled_messages += (drained + injected) as u64;
        }

        // 3. Dispatch a task to the PU if it is free.
        'dispatch: {
            if tile.pu_busy_until > cycle {
                break 'dispatch;
            }
            let Some(task) = scheduler.pick(tile, tasks) else {
                break 'dispatch;
            };
            // Auto-popped parameters land in a stack buffer (the verifier's
            // V016 keeps every task within it).
            let mut param_buf = [0u32; MAX_AUTOPOP_WORDS];
            let params: &[u32] = match tasks[task].params {
                TaskParams::AutoPop(n) => {
                    let popped = tile.pop_iq_into(task, n, &mut param_buf);
                    debug_assert!(popped, "eligibility guarantees parameters");
                    // TSU pre-loads the parameters: scratchpad reads.
                    tile.counters.sram_reads += n as u64;
                    &param_buf[..n]
                }
                TaskParams::SelfManaged => &[],
            };
            let mut ctx = SimTaskContext {
                csr: &self.csr[tile_id],
                placement: &self.placement,
                channels,
                current_task: task,
                barrier_mode,
                cost: InvocationCost { cycles: 1 }, // dispatch overhead
                tile,
            };
            kernel.execute(task, params, &mut ctx);
            let cost = (ctx.cost.cycles + self.config.invocation_overhead_cycles).max(1);
            let cost = self.fault_slowed_cost(tile, cycle, cost);
            tile.counters.task_invocations[task] += 1;
            tile.counters.pu_busy_cycles += cost;
            tile.pu_busy_until = cycle + cost;
            *total_dispatches += 1;
        }
    }

    /// One TSU + PU cycle on one tile — the preserved pre-overhaul path.
    ///
    /// Kept in the pre-overhaul shape as the oracle [`Engine::Reference`]
    /// drives: it scans every channel to drain and to inject instead of
    /// walking the occupancy masks, re-attempts every inject-ready channel
    /// without consulting the network's blocked bits, and picks through
    /// [`Scheduler::pick_reference`], which rescans every task's queues;
    /// the engine keeps it active by the scanning
    /// [`TileState::is_idle_scan`].  Like the fast path it pops into stack
    /// buffers and rewrites drained heads in place.  Both paths mutate the
    /// tile exclusively through the counter-maintaining [`TileState`]
    /// methods, so they cannot drift in behaviour — only in cost.
    #[allow(clippy::too_many_arguments)]
    fn tile_cycle_reference(
        &self,
        kernel: &dyn Kernel,
        tasks: &[TaskDecl],
        channels: &[ChannelDecl],
        tile: &mut TileState,
        scheduler: &mut Scheduler,
        network: &mut Network,
        barrier_mode: bool,
        cycle: u64,
        total_dispatches: &mut u64,
        work: &mut WorkCounters,
    ) {
        let tile_id = tile.tile;
        let endpoint_budget = self.fault_endpoint_budget(tile_id, cycle);

        // 1. Drain: scan the channels in declaration order, repeatedly.
        let mut drained = 0usize;
        if network.delivered_waiting(tile_id) > 0 {
            'drain: loop {
                let mut progressed = false;
                for (channel, decl) in channels.iter().enumerate() {
                    if drained == endpoint_budget {
                        break 'drain;
                    }
                    let Some(message) = network.peek_delivered_on(tile_id, channel) else {
                        continue;
                    };
                    let dest_task = decl.dest_task;
                    if !tile.iqs()[dest_task].can_push(message.len()) {
                        continue;
                    }
                    let mut message = network
                        .pop_delivered_on(tile_id, channel)
                        .expect("peeked message is present");
                    let words = message.payload_mut();
                    words[0] = self.placement.to_local(decl.space, words[0] as usize) as u32;
                    let pushed = tile.push_iq(dest_task, message.payload());
                    debug_assert!(pushed);
                    tile.counters.sram_writes += message.len() as u64;
                    tile.counters.messages_received += 1;
                    drained += 1;
                    progressed = true;
                }
                if !progressed || drained == endpoint_budget {
                    break;
                }
            }
        }

        // 2. Inject: scan the channels in declaration order, parking
        //    rejected ones for the rest of the cycle.
        let mut injected = 0usize;
        let mut rejected_channels: u64 = 0;
        'inject: loop {
            let mut progressed = false;
            for (channel, decl) in channels.iter().enumerate() {
                if injected == endpoint_budget {
                    break 'inject;
                }
                if rejected_channels & (1u64 << channel) != 0 {
                    continue;
                }
                let flits = decl.flits_per_message;
                if tile.cqs()[channel].len() < flits {
                    continue;
                }
                let head = tile.cq_peek(channel).expect("non-empty CQ");
                let dest = self.placement.owner(decl.space, head as usize);
                let mut flit_buf = [0u32; dalorex_noc::MAX_FLITS];
                let popped = tile.pop_cq_into(channel, flits, &mut flit_buf);
                debug_assert!(popped, "checked length");
                work.injection_attempts += 1;
                match network.try_inject(tile_id, Message::new(dest, channel, &flit_buf[..flits])) {
                    Ok(()) => {
                        tile.counters.sram_reads += flits as u64;
                        injected += 1;
                        progressed = true;
                    }
                    Err(rejected) => {
                        tile.restore_cq_front(channel, rejected.message.payload());
                        rejected_channels |= 1u64 << channel;
                    }
                }
            }
            if !progressed || injected == endpoint_budget {
                break;
            }
        }

        if endpoint_budget < self.config.endpoint_drains_per_cycle {
            // Throttled this cycle: count the traffic that moved under the
            // cap (mirrors the fast path exactly).
            tile.counters.fault_throttled_messages += (drained + injected) as u64;
        }

        // 3. Dispatch a task to the PU if it is free.
        if tile.pu_busy_until > cycle {
            return;
        }
        let Some(task) = scheduler.pick_reference(tile, tasks) else {
            return;
        };
        let mut param_buf = [0u32; MAX_AUTOPOP_WORDS];
        let params: &[u32] = match tasks[task].params {
            TaskParams::AutoPop(n) => {
                let popped = tile.pop_iq_into(task, n, &mut param_buf);
                debug_assert!(popped, "eligibility guarantees parameters");
                tile.counters.sram_reads += n as u64;
                &param_buf[..n]
            }
            TaskParams::SelfManaged => &[],
        };
        let mut ctx = SimTaskContext {
            csr: &self.csr[tile_id],
            placement: &self.placement,
            channels,
            current_task: task,
            barrier_mode,
            cost: InvocationCost { cycles: 1 }, // dispatch overhead
            tile,
        };
        kernel.execute(task, params, &mut ctx);
        let cost = (ctx.cost.cycles + self.config.invocation_overhead_cycles).max(1);
        let cost = self.fault_slowed_cost(tile, cycle, cost);
        tile.counters.task_invocations[task] += 1;
        tile.counters.pu_busy_cycles += cost;
        tile.pu_busy_until = cycle + cost;
        *total_dispatches += 1;
    }

    fn gather_output(
        &self,
        kernel: &dyn Kernel,
        arrays: &[crate::kernel::LocalArrayDecl],
        tiles: &[TileState],
    ) -> Result<KernelOutput, SimError> {
        let mut output = KernelOutput::new();
        for name in kernel.output_arrays() {
            let Some(array_id) = arrays.iter().position(|a| a.name == name) else {
                return Err(SimError::UnknownKernelResource {
                    resource: format!("output array {name:?}"),
                });
            };
            let mut global = vec![0u32; self.placement.num_vertices()];
            for (v, slot) in global.iter_mut().enumerate() {
                let tile = self.placement.owner(ArraySpace::Vertex, v);
                let local = self.placement.to_local(ArraySpace::Vertex, v);
                *slot = tiles[tile].read_array_word(array_id, local);
            }
            output.insert(name, global);
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GridConfig, SchedulingPolicy, SimConfigBuilder};
    use crate::kernel::{ArrayInit, LocalArrayDecl, LocalArrayLen};
    use dalorex_graph::generators::grid2d;

    fn tiny_graph() -> CsrGraph {
        grid2d::GridConfig::new(4, 4).build().unwrap()
    }

    fn tiny_config() -> SimConfig {
        SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(256 * 1024)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_datasets_that_do_not_fit() {
        let graph = tiny_graph();
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(1024)
            .build()
            .unwrap();
        let err = Simulation::new(config, &graph).unwrap_err();
        assert!(matches!(err, SimError::DatasetTooLarge { .. }));
    }

    #[test]
    fn accepts_fitting_datasets_and_exposes_models() {
        let graph = tiny_graph();
        let sim = Simulation::new(tiny_config(), &graph).unwrap();
        assert_eq!(sim.placement().num_tiles(), 4);
        assert!(sim.area_model().chip_mm2() > 0.0);
        assert!(sim.energy_model().peak_memory_bandwidth_bytes_per_s() > 0.0);
        assert_eq!(sim.config().grid.num_tiles(), 4);
    }

    // A minimal one-task kernel used to exercise the engine end to end: the
    // bootstrap pushes one invocation per locally owned vertex carrying the
    // vertex's global id; the task writes `global_id + 1` into its output
    // array and forwards a message to vertex `global_id + 1`'s owner (if
    // any), which stores the received value as well.
    struct RelayKernel;

    const OUT: usize = 0;

    impl Kernel for RelayKernel {
        fn name(&self) -> &str {
            "relay"
        }

        fn tasks(&self) -> Vec<TaskDecl> {
            vec![TaskDecl::new("relay", 64, TaskParams::AutoPop(2)).requires_cq_space(0, 2)]
        }

        fn channels(&self) -> Vec<ChannelDecl> {
            vec![ChannelDecl::new("next", 0, ArraySpace::Vertex, 2, 16)]
        }

        fn arrays(&self) -> Vec<LocalArrayDecl> {
            vec![LocalArrayDecl::new(
                "out",
                LocalArrayLen::PerVertex,
                ArrayInit::Zero,
            )]
        }

        fn output_arrays(&self) -> Vec<&'static str> {
            vec!["out"]
        }

        fn bootstrap(&self, ctx: &mut dyn crate::kernel::BootstrapContext) {
            // Only the owner of vertex 0 starts the relay.
            if let Some(local) = ctx.local_vertex(0) {
                assert!(ctx.push_invocation(0, &[local as u32, 0]));
            }
        }

        fn execute(
            &self,
            task: crate::kernel::TaskId,
            params: &[u32],
            ctx: &mut dyn crate::kernel::TaskContext,
        ) {
            assert_eq!(task, 0);
            let local = params[0] as usize;
            let hops = params[1];
            let global = ctx.global_vertex(local);
            ctx.write(OUT, local, hops + 1);
            let next = global + 1;
            if (next as usize) < 16 {
                assert!(ctx.try_send(0, &[next, hops + 1]));
            }
        }

        fn on_global_idle(
            &self,
            _epoch: usize,
            _ctx: &mut dyn crate::kernel::EpochContext,
        ) -> EpochDecision {
            EpochDecision::Finish
        }
    }

    #[test]
    fn relay_kernel_visits_every_vertex_in_order() {
        let graph = tiny_graph();
        let sim = Simulation::new(tiny_config(), &graph).unwrap();
        let outcome = sim.run(&RelayKernel).unwrap();
        let out = outcome.output.as_u32_array("out");
        let expected: Vec<u32> = (1..=16).collect();
        assert_eq!(out, expected.as_slice());
        assert!(outcome.cycles > 0);
        assert_eq!(outcome.stats.total_invocations(), 16);
        // 15 forwarded messages (the last vertex sends nothing).
        assert_eq!(outcome.stats.messages_sent, 15);
        assert!(outcome.total_energy_j() > 0.0);
        assert!(outcome.average_power_w > 0.0);
        assert!(outcome.memory_bandwidth_bytes_per_s > 0.0);
        assert!(outcome.power_density_mw_per_mm2 > 0.0);
        assert_eq!(outcome.seconds, outcome.cycles as f64 / 1.0e9);
    }

    #[test]
    fn relay_kernel_works_on_every_topology_and_placement() {
        use crate::placement::VertexPlacement;
        use dalorex_noc::Topology;
        let graph = tiny_graph();
        for topology in [
            Topology::Mesh,
            Topology::Torus,
            Topology::TorusRuche { factor: 2 },
        ] {
            for placement in [VertexPlacement::Chunked, VertexPlacement::Interleaved] {
                let config = SimConfigBuilder::new(GridConfig::square(2))
                    .scratchpad_bytes(256 * 1024)
                    .topology(topology)
                    .vertex_placement(placement)
                    .build()
                    .unwrap();
                let sim = Simulation::new(config, &graph).unwrap();
                let outcome = sim.run(&RelayKernel).unwrap();
                let expected: Vec<u32> = (1..=16).collect();
                assert_eq!(outcome.output.as_u32_array("out"), expected.as_slice());
            }
        }
    }

    #[test]
    fn round_robin_scheduling_also_completes() {
        let graph = tiny_graph();
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(256 * 1024)
            .scheduling(SchedulingPolicy::RoundRobin)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&RelayKernel).unwrap();
        assert_eq!(outcome.stats.total_invocations(), 16);
    }

    struct BadOutputKernel;

    impl Kernel for BadOutputKernel {
        fn name(&self) -> &str {
            "bad"
        }
        fn tasks(&self) -> Vec<TaskDecl> {
            vec![TaskDecl::new("t", 8, TaskParams::AutoPop(1))]
        }
        fn channels(&self) -> Vec<ChannelDecl> {
            vec![]
        }
        fn arrays(&self) -> Vec<LocalArrayDecl> {
            vec![]
        }
        fn output_arrays(&self) -> Vec<&'static str> {
            vec!["missing"]
        }
        fn bootstrap(&self, _ctx: &mut dyn crate::kernel::BootstrapContext) {}
        fn execute(
            &self,
            _task: crate::kernel::TaskId,
            _params: &[u32],
            _ctx: &mut dyn crate::kernel::TaskContext,
        ) {
        }
        fn on_global_idle(
            &self,
            _epoch: usize,
            _ctx: &mut dyn crate::kernel::EpochContext,
        ) -> EpochDecision {
            EpochDecision::Finish
        }
    }

    #[test]
    fn undeclared_output_array_is_reported() {
        let graph = tiny_graph();
        let sim = Simulation::new(tiny_config(), &graph).unwrap();
        let err = sim.run(&BadOutputKernel).unwrap_err();
        assert!(matches!(err, SimError::UnknownKernelResource { .. }));
    }

    struct BadChannelKernel;

    impl Kernel for BadChannelKernel {
        fn name(&self) -> &str {
            "bad-channel"
        }
        fn tasks(&self) -> Vec<TaskDecl> {
            vec![TaskDecl::new("t", 8, TaskParams::AutoPop(1))]
        }
        fn channels(&self) -> Vec<ChannelDecl> {
            vec![ChannelDecl::new("c", 7, ArraySpace::Vertex, 2, 8)]
        }
        fn arrays(&self) -> Vec<LocalArrayDecl> {
            vec![]
        }
        fn output_arrays(&self) -> Vec<&'static str> {
            vec![]
        }
        fn bootstrap(&self, _ctx: &mut dyn crate::kernel::BootstrapContext) {}
        fn execute(
            &self,
            _task: crate::kernel::TaskId,
            _params: &[u32],
            _ctx: &mut dyn crate::kernel::TaskContext,
        ) {
        }
        fn on_global_idle(
            &self,
            _epoch: usize,
            _ctx: &mut dyn crate::kernel::EpochContext,
        ) -> EpochDecision {
            EpochDecision::Finish
        }
    }

    #[test]
    fn invalid_kernel_declarations_are_rejected() {
        let graph = tiny_graph();
        let sim = Simulation::new(tiny_config(), &graph).unwrap();
        let err = sim.run(&BadChannelKernel).unwrap_err();
        // Structural verifier findings are fatal under every VerifyMode,
        // carrying the stable diagnostic code (dangling dest_task = V008).
        match err {
            SimError::Verification { report } => {
                assert!(report.has_code("V008"), "{report}");
            }
            other => panic!("expected a verification error, got {other}"),
        }
    }

    // A kernel that keeps reporting Continue without scheduling any work
    // must be caught rather than spinning forever.
    struct SpinKernel;

    impl Kernel for SpinKernel {
        fn name(&self) -> &str {
            "spin"
        }
        fn tasks(&self) -> Vec<TaskDecl> {
            vec![TaskDecl::new("t", 8, TaskParams::AutoPop(1))]
        }
        fn channels(&self) -> Vec<ChannelDecl> {
            vec![]
        }
        fn arrays(&self) -> Vec<LocalArrayDecl> {
            vec![]
        }
        fn output_arrays(&self) -> Vec<&'static str> {
            vec![]
        }
        fn bootstrap(&self, _ctx: &mut dyn crate::kernel::BootstrapContext) {}
        fn execute(
            &self,
            _task: crate::kernel::TaskId,
            _params: &[u32],
            _ctx: &mut dyn crate::kernel::TaskContext,
        ) {
        }
        fn on_global_idle(
            &self,
            _epoch: usize,
            _ctx: &mut dyn crate::kernel::EpochContext,
        ) -> EpochDecision {
            EpochDecision::Continue
        }
    }

    #[test]
    fn idle_continue_without_work_is_a_deadlock() {
        let graph = tiny_graph();
        let sim = Simulation::new(tiny_config(), &graph).unwrap();
        let err = sim.run(&SpinKernel).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }
}
