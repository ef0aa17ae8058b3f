//! The Figure-5 ablation ladder: from Tesseract to full Dalorex, one
//! optimization at a time.
//!
//! Section V-A builds Dalorex's 221× geomean speedup (and 325× energy gain)
//! out of six increments over the Tesseract baseline.  Each rung of the
//! ladder is either a configuration of the Tesseract model or a
//! configuration of the Dalorex simulator:
//!
//! | Rung | What it adds | How it is modelled here |
//! |---|---|---|
//! | `Tesseract` | the PIM baseline | [`TesseractModel`] |
//! | `TesseractLc` | 2 MB SRAM cache per core, no DRAM background energy | [`TesseractModel`] with [`TesseractConfig::with_large_cache`] |
//! | `DataLocal` | Dalorex tiles, array chunking and task splitting, but interrupting invocations, blocked placement, mesh NoC, epoch barriers | Dalorex sim, 50-cycle dispatch overhead |
//! | `BasicTsu` | non-blocking, non-interrupting task invocation (round-robin TSU) | Dalorex sim, overhead removed |
//! | `UniformDistr` | low-order-bit (interleaved) vertex placement | Dalorex sim |
//! | `TrafficAware` | occupancy-priority scheduling | Dalorex sim |
//! | `TorusNoc` | 2D torus instead of 2D mesh | Dalorex sim |
//! | `Dalorex` | barrierless local frontiers | Dalorex sim |
//! | `WideEndpoint` | 2 endpoint drains/injections per tile per cycle (beyond the paper) | Dalorex sim, `endpoint_drains_per_cycle = 2` |
//!
//! PageRank keeps its barrier on the `Dalorex` rung, as in the paper's
//! Figure 5 caption.  The final `WideEndpoint` rung goes beyond the paper:
//! it widens the tile's single local router port to two messages per cycle
//! (the `endpoint_drains_per_cycle` knob), quantifying how much of the
//! remaining runtime is endpoint serialization rather than fabric or
//! compute — the ROADMAP's "endpoint-bound on small grids" observation
//! expressed as an explicit ladder step.

use crate::tesseract::{TesseractConfig, TesseractModel};
use crate::workload::Workload;
use dalorex_graph::CsrGraph;
use dalorex_noc::Topology;
use dalorex_sim::config::{BarrierMode, GridConfig, SchedulingPolicy, SimConfigBuilder};
use dalorex_sim::VerifyMode;
use dalorex_sim::{SimError, Simulation, VertexPlacement};

/// One rung of the Figure-5 ablation ladder, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AblationRung {
    /// The Tesseract PIM baseline.
    Tesseract,
    /// Tesseract with 2 MB SRAM caches per core ("Tesseract-LC").
    TesseractLc,
    /// Dalorex data layout and task splitting with interrupting invocations.
    DataLocal,
    /// Adds the TSU with non-interrupting invocations (round-robin).
    BasicTsu,
    /// Adds low-order-bit (interleaved) vertex placement.
    UniformDistr,
    /// Adds occupancy-priority (traffic-aware) scheduling.
    TrafficAware,
    /// Adds the 2D torus NoC.
    TorusNoc,
    /// Full Dalorex: barrierless local frontiers.
    Dalorex,
    /// Beyond the paper: widens the endpoint to 2 drains/injections per
    /// tile per cycle (`endpoint_drains_per_cycle = 2`), isolating the
    /// endpoint-serialization share of the remaining runtime.
    WideEndpoint,
}

impl AblationRung {
    /// All rungs, in the paper's order, plus the beyond-paper
    /// wide-endpoint step.
    pub const ALL: [AblationRung; 9] = [
        AblationRung::Tesseract,
        AblationRung::TesseractLc,
        AblationRung::DataLocal,
        AblationRung::BasicTsu,
        AblationRung::UniformDistr,
        AblationRung::TrafficAware,
        AblationRung::TorusNoc,
        AblationRung::Dalorex,
        AblationRung::WideEndpoint,
    ];

    /// The label used in Figure 5's legend.
    pub fn label(&self) -> &'static str {
        match self {
            AblationRung::Tesseract => "Tesseract",
            AblationRung::TesseractLc => "Tesseract-LC",
            AblationRung::DataLocal => "Data-Local",
            AblationRung::BasicTsu => "Basic-TSU",
            AblationRung::UniformDistr => "Uniform-Distr",
            AblationRung::TrafficAware => "Traffic-Aware",
            AblationRung::TorusNoc => "Torus-NoC",
            AblationRung::Dalorex => "Dalorex",
            AblationRung::WideEndpoint => "Wide-Endpoint",
        }
    }

    /// Whether this rung runs on the Tesseract model (the first two) or on
    /// the Dalorex simulator (the rest).
    pub fn uses_dalorex_simulator(&self) -> bool {
        !matches!(self, AblationRung::Tesseract | AblationRung::TesseractLc)
    }
}

/// Cycle and energy result of one (rung, workload, dataset) cell of
/// Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationOutcome {
    /// Runtime in cycles (both systems are modelled at 1 GHz).
    pub cycles: u64,
    /// Total energy in Joules.
    pub energy_j: f64,
    /// Modeled memory footprint of the run — `None` for the analytical
    /// Tesseract rungs, which have no cycle-level memory model.
    pub memory: Option<dalorex_sim::MemoryReport>,
}

impl AblationOutcome {
    /// Performance improvement of `self` over a `baseline` outcome
    /// (baseline cycles / own cycles), the quantity on Figure 5's Y axis.
    pub fn speedup_over(&self, baseline: &AblationOutcome) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Energy improvement of `self` over a `baseline` outcome.
    pub fn energy_gain_over(&self, baseline: &AblationOutcome) -> f64 {
        if self.energy_j == 0.0 {
            return 0.0;
        }
        baseline.energy_j / self.energy_j
    }
}

/// Runs one rung of the ablation ladder on a workload and dataset, using a
/// grid of `side x side` tiles (the paper uses 16×16 = 256 to match
/// Tesseract's core count).
///
/// # Errors
///
/// Propagates simulator errors for the Dalorex rungs (e.g. the dataset not
/// fitting the scratchpad).
pub fn run_rung(
    rung: AblationRung,
    graph: &CsrGraph,
    workload: Workload,
    side: usize,
    scratchpad_bytes: usize,
) -> Result<AblationOutcome, SimError> {
    run_rung_with(
        rung,
        graph,
        workload,
        side,
        scratchpad_bytes,
        VerifyMode::default(),
    )
}

/// Like [`run_rung`], with an explicit static-verifier mode for the
/// Dalorex rungs (the Tesseract rungs are analytical and ignore it);
/// `fig05_ablation`'s `--verify` flag threads through here.
///
/// # Errors
///
/// Same as [`run_rung`].
pub fn run_rung_with(
    rung: AblationRung,
    graph: &CsrGraph,
    workload: Workload,
    side: usize,
    scratchpad_bytes: usize,
    verify: VerifyMode,
) -> Result<AblationOutcome, SimError> {
    match rung {
        AblationRung::Tesseract => {
            let model =
                TesseractModel::new(TesseractConfig::paper_default().with_cores(side * side));
            let outcome = model.run(graph, workload);
            Ok(AblationOutcome {
                cycles: outcome.cycles,
                energy_j: outcome.total_energy_j(),
                memory: None,
            })
        }
        AblationRung::TesseractLc => {
            let model = TesseractModel::new(
                TesseractConfig::paper_default()
                    .with_cores(side * side)
                    .with_large_cache(),
            );
            let outcome = model.run(graph, workload);
            Ok(AblationOutcome {
                cycles: outcome.cycles,
                energy_j: outcome.total_energy_j(),
                memory: None,
            })
        }
        _ => run_dalorex_rung(rung, graph, workload, side, scratchpad_bytes, verify),
    }
}

fn run_dalorex_rung(
    rung: AblationRung,
    graph: &CsrGraph,
    workload: Workload,
    side: usize,
    scratchpad_bytes: usize,
    verify: VerifyMode,
) -> Result<AblationOutcome, SimError> {
    // Feature switches accumulate as the ladder climbs.
    let non_interrupting = rung >= AblationRung::BasicTsu;
    let interleaved = rung >= AblationRung::UniformDistr;
    let traffic_aware = rung >= AblationRung::TrafficAware;
    let torus = rung >= AblationRung::TorusNoc;
    let barrierless = rung >= AblationRung::Dalorex && !workload.requires_barrier();
    let endpoint_drains = if rung >= AblationRung::WideEndpoint {
        2
    } else {
        1
    };

    let prepared = workload.prepare_graph(graph);
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(scratchpad_bytes)
        .endpoint_drains_per_cycle(endpoint_drains)
        .topology(if torus {
            Topology::Torus
        } else {
            Topology::Mesh
        })
        .scheduling(if traffic_aware {
            SchedulingPolicy::OccupancyPriority
        } else {
            SchedulingPolicy::RoundRobin
        })
        .vertex_placement(if interleaved {
            VertexPlacement::Interleaved
        } else {
            VertexPlacement::Chunked
        })
        .barrier_mode(if barrierless {
            BarrierMode::Barrierless
        } else {
            BarrierMode::EpochBarrier
        })
        .invocation_overhead_cycles(if non_interrupting { 0 } else { 50 })
        .verify(verify)
        .build()?;
    let sim = Simulation::new(config, &prepared)?;
    let kernel = workload.kernel();
    let outcome = sim.run(kernel.as_ref())?;
    Ok(AblationOutcome {
        cycles: outcome.cycles,
        energy_j: outcome.total_energy_j(),
        memory: Some(outcome.memory),
    })
}

/// Geometric mean of a slice of ratios (used for the Section V-A compound
/// factors).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalorex_graph::generators::rmat::RmatConfig;

    fn small_graph() -> CsrGraph {
        RmatConfig::new(8, 6).seed(13).build().unwrap()
    }

    #[test]
    fn rung_metadata_is_ordered_like_the_paper() {
        assert_eq!(AblationRung::ALL.len(), 9);
        assert_eq!(AblationRung::ALL[0].label(), "Tesseract");
        assert_eq!(AblationRung::ALL[7].label(), "Dalorex");
        assert_eq!(AblationRung::ALL[8].label(), "Wide-Endpoint");
        assert!(AblationRung::Tesseract < AblationRung::Dalorex);
        assert!(AblationRung::Dalorex < AblationRung::WideEndpoint);
        assert!(!AblationRung::Tesseract.uses_dalorex_simulator());
        assert!(AblationRung::DataLocal.uses_dalorex_simulator());
        assert!(AblationRung::WideEndpoint.uses_dalorex_simulator());
    }

    #[test]
    fn wide_endpoint_rung_never_loses_badly_to_dalorex() {
        // The beyond-paper rung widens the endpoint; on the same workload
        // it helps or roughly ties (message-ordering effects can cost a
        // few cycles), and it never changes results — the equivalence and
        // drain-regression suites pin the semantics.
        let graph = small_graph();
        let workload = Workload::Sssp { root: 0 };
        let dalorex = run_rung(AblationRung::Dalorex, &graph, workload, 4, 1 << 20).unwrap();
        let wide = run_rung(AblationRung::WideEndpoint, &graph, workload, 4, 1 << 20).unwrap();
        assert!(
            wide.cycles <= dalorex.cycles + dalorex.cycles / 10,
            "wide endpoint ({}) far slower than Dalorex ({})",
            wide.cycles,
            dalorex.cycles
        );
    }

    #[test]
    fn dalorex_full_beats_tesseract_on_bfs() {
        let graph = small_graph();
        let workload = Workload::Bfs { root: 0 };
        let tesseract = run_rung(AblationRung::Tesseract, &graph, workload, 4, 1 << 20).unwrap();
        let dalorex = run_rung(AblationRung::Dalorex, &graph, workload, 4, 1 << 20).unwrap();
        let speedup = dalorex.speedup_over(&tesseract);
        let energy_gain = dalorex.energy_gain_over(&tesseract);
        assert!(speedup > 2.0, "speedup {speedup} too small");
        assert!(energy_gain > 2.0, "energy gain {energy_gain} too small");
    }

    #[test]
    fn ladder_is_monotonic_in_the_aggregate_for_sssp() {
        // Individual steps may fluctuate on a tiny dataset, but the full
        // Dalorex configuration must beat the first Dalorex-simulator rung,
        // and that rung must beat Tesseract.
        let graph = small_graph();
        let workload = Workload::Sssp { root: 0 };
        let tesseract = run_rung(AblationRung::Tesseract, &graph, workload, 4, 1 << 20).unwrap();
        let data_local = run_rung(AblationRung::DataLocal, &graph, workload, 4, 1 << 20).unwrap();
        let full = run_rung(AblationRung::Dalorex, &graph, workload, 4, 1 << 20).unwrap();
        assert!(data_local.cycles < tesseract.cycles);
        assert!(full.cycles < data_local.cycles);
    }

    #[test]
    fn pagerank_keeps_its_barrier_on_the_last_rung() {
        let graph = small_graph();
        let workload = Workload::PageRank { epochs: 2 };
        let torus = run_rung(AblationRung::TorusNoc, &graph, workload, 4, 1 << 20).unwrap();
        let full = run_rung(AblationRung::Dalorex, &graph, workload, 4, 1 << 20).unwrap();
        // With the barrier retained the last rung changes nothing for
        // PageRank (as in the paper's Figure 5, where the last two bars are
        // equal).
        assert_eq!(torus.cycles, full.cycles);
    }

    #[test]
    fn geomean_of_identical_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
