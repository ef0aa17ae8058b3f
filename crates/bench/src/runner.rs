//! Shared simulation runners for the figure binaries and Criterion benches.

use dalorex_baseline::Workload;
use dalorex_graph::CsrGraph;
use dalorex_noc::Topology;
use dalorex_sim::config::{BarrierMode, GridConfig, SimConfigBuilder};
use dalorex_sim::engine::SimOutcome;
use dalorex_sim::{FaultPlan, SimError, Simulation, VerifyMode};

/// Options for a single Dalorex run used by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Grid side (the run uses `side x side` tiles).
    pub side: usize,
    /// NoC topology; `None` selects the paper default for the grid size.
    pub topology: Option<Topology>,
    /// Scratchpad bytes per tile.
    pub scratchpad_bytes: usize,
    /// Endpoint bandwidth: messages drained/injected per tile per cycle
    /// (default 1, the paper's single local router port).
    pub endpoint_drains: usize,
    /// Fault plan the run is driven under (default empty — no faults; the
    /// figure binaries expose it as `--faults`).
    pub faults: FaultPlan,
    /// How the static task-graph verifier treats its findings when the
    /// run is built (default [`VerifyMode::Warn`]; the figure binaries
    /// expose it as `--verify` / `DALOREX_VERIFY`).
    pub verify: VerifyMode,
}

impl RunOptions {
    /// Creates options for a `side x side` grid with the paper-default
    /// topology.
    pub fn new(side: usize, scratchpad_bytes: usize) -> Self {
        RunOptions {
            side,
            topology: None,
            scratchpad_bytes,
            endpoint_drains: 1,
            faults: FaultPlan::empty(),
            verify: VerifyMode::default(),
        }
    }

    /// Overrides the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Overrides the endpoint-drain budget (messages per tile per cycle).
    pub fn with_endpoint_drains(mut self, drains: usize) -> Self {
        self.endpoint_drains = drains;
        self
    }

    /// Overrides the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the static-verifier mode.
    pub fn with_verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }
}

/// Runs one workload on the full-Dalorex configuration (interleaved
/// placement, traffic-aware scheduling, barrierless unless the workload
/// needs a barrier).
///
/// # Errors
///
/// Propagates simulator errors (most commonly the dataset not fitting the
/// per-tile scratchpad for the requested grid).
pub fn run_dalorex(
    graph: &CsrGraph,
    workload: Workload,
    options: RunOptions,
) -> Result<SimOutcome, SimError> {
    let prepared = workload.prepare_graph(graph);
    let grid = GridConfig::square(options.side);
    let mut builder = SimConfigBuilder::new(grid)
        .scratchpad_bytes(options.scratchpad_bytes)
        .endpoint_drains_per_cycle(options.endpoint_drains)
        .faults(options.faults.clone())
        .verify(options.verify)
        .barrier_mode(if workload.requires_barrier() {
            BarrierMode::EpochBarrier
        } else {
            BarrierMode::Barrierless
        });
    if let Some(topology) = options.topology {
        builder = builder.topology(topology);
    }
    let config = builder.build()?;
    let sim = Simulation::new(config, &prepared)?;
    let kernel = workload.kernel();
    sim.run(kernel.as_ref())
}

/// Grid sides swept by the scaling figures, doubling the tile count at each
/// step (1, 2, 4, ... up to `max_side`), mirroring the paper's powers of
/// four in tile count.
pub fn scaling_sides(max_side: usize) -> Vec<usize> {
    let mut sides = Vec::new();
    let mut side = 1;
    while side <= max_side {
        sides.push(side);
        side *= 2;
    }
    sides
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalorex_graph::generators::rmat::RmatConfig;

    #[test]
    fn run_dalorex_completes_for_every_workload_on_a_tiny_grid() {
        let graph = RmatConfig::new(7, 5).seed(3).build().unwrap();
        for workload in [
            Workload::Bfs { root: 0 },
            Workload::PageRank { epochs: 2 },
            Workload::Spmv,
        ] {
            let outcome = run_dalorex(&graph, workload, RunOptions::new(2, 1 << 20)).unwrap();
            assert!(outcome.cycles > 0, "{workload:?}");
        }
    }

    #[test]
    fn topology_override_is_honoured() {
        let graph = RmatConfig::new(7, 5).seed(3).build().unwrap();
        let mesh = run_dalorex(
            &graph,
            Workload::Bfs { root: 0 },
            RunOptions::new(4, 1 << 20).with_topology(Topology::Mesh),
        )
        .unwrap();
        let torus = run_dalorex(
            &graph,
            Workload::Bfs { root: 0 },
            RunOptions::new(4, 1 << 20).with_topology(Topology::Torus),
        )
        .unwrap();
        assert!(mesh.cycles > 0 && torus.cycles > 0);
    }

    #[test]
    fn scaling_sides_double_up_to_the_cap() {
        assert_eq!(scaling_sides(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(scaling_sides(1), vec![1]);
        assert_eq!(scaling_sides(12), vec![1, 2, 4, 8]);
        assert_eq!(scaling_sides(64), vec![1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn fault_plan_override_reaches_the_simulator() {
        let graph = RmatConfig::new(7, 5).seed(3).build().unwrap();
        let plan: FaultPlan = "stall:tile=0,start=10,end=200".parse().unwrap();
        let faulted = run_dalorex(
            &graph,
            Workload::Bfs { root: 0 },
            RunOptions::new(2, 1 << 20).with_faults(plan),
        )
        .unwrap();
        let clean = run_dalorex(
            &graph,
            Workload::Bfs { root: 0 },
            RunOptions::new(2, 1 << 20),
        )
        .unwrap();
        // Faults delay, never drop: same answer, a non-empty impact report.
        assert_eq!(faulted.output, clean.output);
        assert!(!faulted.fault.is_empty());
        assert!(clean.fault.is_empty());
    }

    #[test]
    fn verify_deny_passes_on_shipped_workloads() {
        use dalorex_sim::VerifyMode;
        let graph = RmatConfig::new(7, 5).seed(3).build().unwrap();
        // Zero false positives: the shipped kernels must run under the
        // strictest verifier mode.
        let outcome = run_dalorex(
            &graph,
            Workload::Bfs { root: 0 },
            RunOptions::new(2, 1 << 20).with_verify(VerifyMode::Deny),
        )
        .unwrap();
        assert!(outcome.cycles > 0);
    }

    #[test]
    fn endpoint_drains_override_reaches_the_simulator() {
        let graph = RmatConfig::new(7, 5).seed(3).build().unwrap();
        let single = run_dalorex(
            &graph,
            Workload::Bfs { root: 0 },
            RunOptions::new(2, 1 << 20),
        )
        .unwrap();
        let wide = run_dalorex(
            &graph,
            Workload::Bfs { root: 0 },
            RunOptions::new(2, 1 << 20).with_endpoint_drains(4),
        )
        .unwrap();
        // A wider endpoint helps or roughly ties on the same workload
        // (message-ordering effects can cost a few cycles either way).
        assert!(
            wide.cycles <= single.cycles + single.cycles / 10,
            "4-drain run ({}) far slower than single-drain run ({})",
            wide.cycles,
            single.cycles
        );
        assert!(wide.cycles > 0 && single.cycles > 0);
    }
}
