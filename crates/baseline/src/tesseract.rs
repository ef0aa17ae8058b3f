//! First-order performance and energy model of Tesseract (Ahn et al., ISCA
//! 2015), the processing-in-memory baseline of the paper's evaluation.
//!
//! Tesseract places one in-order core in the logic layer of each Hybrid
//! Memory Cube vault (16 cubes × 16 vaults = 256 cores), distributes the
//! graph vertex-centrically (each core owns a contiguous block of vertices
//! together with *all* of their edges), executes bulk-synchronous epochs
//! with a barrier between them, and performs remote vertex updates with
//! interrupting remote function calls.  The paper attributes Tesseract's
//! gap to Dalorex to five effects (Sections II-C and V-A):
//!
//! 1. load imbalance from vertex-centric placement (a hub-heavy core makes
//!    the whole epoch wait),
//! 2. the 50-cycle interrupt penalty on every remote update,
//! 3. DRAM access latency and energy for every data touch,
//! 4. DRAM refresh/background power across 128 GB of provisioned HMC for
//!    the whole runtime,
//! 5. barrier serialization at every epoch.
//!
//! This model reproduces exactly those five effects from a bulk-synchronous
//! execution trace of the workload, instead of re-running the authors' zsim
//! setup (see `DESIGN.md` §3).  The `Tesseract-LC` variant of Figure 5 —
//! Tesseract provisioned with a 2 MB SRAM cache per core and without DRAM
//! background energy — is expressed with [`TesseractConfig::with_large_cache`].

use crate::workload::Workload;
use dalorex_graph::{reference, CsrGraph, VertexId};

/// Configuration of the Tesseract model.
#[derive(Debug, Clone, PartialEq)]
pub struct TesseractConfig {
    /// Number of cores (one per vault); the paper uses 256.
    pub cores: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Effective stall cycles per DRAM access after memory-level
    /// parallelism (a full round trip is ~100 ns; in-order cores with a few
    /// outstanding misses hide part of it).
    pub dram_stall_cycles: u64,
    /// Interrupt handling penalty per received remote call, in cycles.
    pub interrupt_cycles: u64,
    /// Barrier cost per epoch, in cycles.
    pub barrier_cycles: u64,
    /// Compute cycles per active vertex (loop bookkeeping, frontier checks).
    pub vertex_compute_cycles: u64,
    /// Compute cycles per traversed edge.
    pub edge_compute_cycles: u64,
    /// DRAM energy per 32-bit access, in picojoules.
    pub dram_access_pj: f64,
    /// DRAM background + refresh power for the whole 16-cube system, in
    /// Watts.  The paper notes this is Tesseract's dominant energy term.
    pub dram_background_w: f64,
    /// Core energy per operation, in picojoules (same 7 nm scaling as the
    /// Dalorex PU so the comparison isolates the architecture).
    pub core_op_pj: f64,
    /// SerDes + link energy per inter-cube remote message, in picojoules.
    pub remote_message_pj: f64,
    /// Optional per-core SRAM cache (the `Tesseract-LC` variant): capacity
    /// in bytes.
    pub cache_bytes_per_core: Option<usize>,
    /// Hit rate of that cache for vertex-state accesses.
    pub cache_vertex_hit_rate: f64,
    /// Hit rate of that cache for edge-array (streaming) accesses.
    pub cache_edge_hit_rate: f64,
}

impl TesseractConfig {
    /// The paper's Tesseract configuration: 256 cores over 16 HMC cubes.
    pub fn paper_default() -> Self {
        TesseractConfig {
            cores: 256,
            clock_hz: 1.0e9,
            dram_stall_cycles: 18,
            interrupt_cycles: 50,
            barrier_cycles: 2_000,
            vertex_compute_cycles: 8,
            edge_compute_cycles: 4,
            dram_access_pj: 120.0,
            dram_background_w: 96.0,
            core_op_pj: 4.0,
            remote_message_pj: 480.0,
            cache_bytes_per_core: None,
            cache_vertex_hit_rate: 0.85,
            cache_edge_hit_rate: 0.5,
        }
    }

    /// The `Tesseract-LC` variant: a 2 MB SRAM cache per core (512 MB
    /// aggregate) and no DRAM background energy, approximating the effect
    /// of moving the working set into distributed SRAM.
    pub fn with_large_cache(mut self) -> Self {
        self.cache_bytes_per_core = Some(2 * 1024 * 1024);
        self.dram_background_w = 0.0;
        self
    }

    /// Overrides the core count (used by scaling studies).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }
}

impl Default for TesseractConfig {
    fn default() -> Self {
        TesseractConfig::paper_default()
    }
}

/// Energy breakdown of a Tesseract run, in Joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TesseractEnergy {
    /// Core dynamic energy.
    pub core_j: f64,
    /// DRAM (or cache) access energy.
    pub memory_dynamic_j: f64,
    /// DRAM background and refresh energy over the runtime.
    pub memory_background_j: f64,
    /// Inter-cube network energy.
    pub network_j: f64,
}

impl TesseractEnergy {
    /// Total energy in Joules.
    pub fn total_j(&self) -> f64 {
        self.core_j + self.memory_dynamic_j + self.memory_background_j + self.network_j
    }
}

/// Result of evaluating the Tesseract model on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TesseractOutcome {
    /// Total cycles.
    pub cycles: u64,
    /// Number of bulk-synchronous epochs executed.
    pub epochs: usize,
    /// Energy breakdown.
    pub energy: TesseractEnergy,
    /// Ratio of the busiest core's work to the average core's work,
    /// averaged over epochs — the load-imbalance measure of Section II-C.
    pub average_imbalance: f64,
    /// Edges traversed over the whole run.
    pub edges_processed: u64,
}

impl TesseractOutcome {
    /// Total energy in Joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Runtime in seconds at the configured clock.
    pub fn seconds(&self, clock_hz: f64) -> f64 {
        self.cycles as f64 / clock_hz
    }
}

/// The Tesseract model.
#[derive(Debug, Clone, Default)]
pub struct TesseractModel {
    config: TesseractConfig,
}

impl TesseractModel {
    /// Creates a model with the given configuration.
    pub fn new(config: TesseractConfig) -> Self {
        TesseractModel { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TesseractConfig {
        &self.config
    }

    /// Evaluates `workload` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero cores.
    pub fn run(&self, graph: &CsrGraph, workload: Workload) -> TesseractOutcome {
        assert!(self.config.cores > 0, "at least one core is required");
        let graph = workload.prepare_graph(graph);
        let epochs = bsp_trace(&graph, workload);
        let cores = self.config.cores;
        let n = graph.num_vertices().max(1);
        let vertices_per_core = n.div_ceil(cores);
        let owner = |v: VertexId| (v as usize / vertices_per_core).min(cores - 1);

        let c = &self.config;
        let mut total_cycles: u64 = 0;
        let mut total_dram_accesses: u64 = 0;
        let mut total_cache_hits: u64 = 0;
        let mut total_core_ops: u64 = 0;
        let mut total_remote_msgs: u64 = 0;
        let mut total_edges: u64 = 0;
        let mut imbalance_sum = 0.0;

        for active in &epochs {
            if active.is_empty() {
                continue;
            }
            let mut compute = vec![0u64; cores];
            let mut accesses = vec![0u64; cores];
            let mut interrupts = vec![0u64; cores];
            for &v in active {
                let core = owner(v);
                let degree = graph.out_degree(v) as u64;
                compute[core] += c.vertex_compute_cycles + degree * c.edge_compute_cycles;
                // Vertex state + adjacency pointers, then two words per edge.
                accesses[core] += 2 + 2 * degree;
                total_edges += degree;
                for (dst, _) in graph.neighbors(v) {
                    let dest_core = owner(dst);
                    // The update itself touches the destination's memory.
                    accesses[dest_core] += 2;
                    if dest_core != core {
                        interrupts[dest_core] += 1;
                        total_remote_msgs += 1;
                    }
                }
            }

            let (hit_rate_v, hit_rate_e) = match c.cache_bytes_per_core {
                Some(_) => (c.cache_vertex_hit_rate, c.cache_edge_hit_rate),
                None => (0.0, 0.0),
            };
            // Edge-array accesses are roughly two thirds of the traffic for
            // the average degree ~10 datasets; blend the two hit rates.
            let hit_rate = 0.4 * hit_rate_v + 0.6 * hit_rate_e;

            let mut epoch_max = 0u64;
            let mut epoch_sum = 0u64;
            for core in 0..cores {
                let dram_accesses = (accesses[core] as f64 * (1.0 - hit_rate)).round() as u64;
                let cache_hits = accesses[core] - dram_accesses;
                let cycles = compute[core]
                    + dram_accesses * c.dram_stall_cycles
                    + cache_hits // one cycle per cache hit
                    + interrupts[core] * c.interrupt_cycles;
                epoch_max = epoch_max.max(cycles);
                epoch_sum += cycles;
                total_dram_accesses += dram_accesses;
                total_cache_hits += cache_hits;
                total_core_ops += compute[core];
            }
            let epoch_mean = epoch_sum as f64 / cores as f64;
            if epoch_mean > 0.0 {
                imbalance_sum += epoch_max as f64 / epoch_mean;
            }
            total_cycles += epoch_max + c.barrier_cycles;
        }

        let seconds = total_cycles as f64 / c.clock_hz;
        const PJ: f64 = 1.0e-12;
        // Cache hits cost SRAM energy; DRAM accesses cost DRAM energy.
        let sram_access_pj = 7.5;
        let energy = TesseractEnergy {
            core_j: total_core_ops as f64 * c.core_op_pj * PJ,
            memory_dynamic_j: total_dram_accesses as f64 * c.dram_access_pj * PJ
                + total_cache_hits as f64 * sram_access_pj * PJ,
            memory_background_j: c.dram_background_w * seconds,
            network_j: total_remote_msgs as f64 * c.remote_message_pj * PJ,
        };
        TesseractOutcome {
            cycles: total_cycles,
            epochs: epochs.len(),
            energy,
            average_imbalance: if epochs.is_empty() {
                1.0
            } else {
                imbalance_sum / epochs.iter().filter(|e| !e.is_empty()).count().max(1) as f64
            },
            edges_processed: total_edges,
        }
    }
}

/// Builds the bulk-synchronous execution trace of a workload: the set of
/// active vertices per epoch.
fn bsp_trace(graph: &CsrGraph, workload: Workload) -> Vec<Vec<VertexId>> {
    match workload {
        Workload::Bfs { root } => bfs_epochs(graph, root),
        Workload::Sssp { root } => sssp_epochs(graph, root),
        Workload::Wcc => wcc_epochs(graph),
        Workload::PageRank { epochs } => {
            let all: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
            vec![all; epochs]
        }
        Workload::Spmv => vec![(0..graph.num_vertices() as VertexId).collect()],
    }
}

fn bfs_epochs(graph: &CsrGraph, root: VertexId) -> Vec<Vec<VertexId>> {
    let n = graph.num_vertices();
    if n == 0 || root as usize >= n {
        return Vec::new();
    }
    let mut depths = vec![u32::MAX; n];
    depths[root as usize] = 0;
    let mut frontier = vec![root];
    let mut epochs = Vec::new();
    while !frontier.is_empty() {
        epochs.push(frontier.clone());
        let mut next = Vec::new();
        for &v in &frontier {
            for (dst, _) in graph.neighbors(v) {
                if depths[dst as usize] == u32::MAX {
                    depths[dst as usize] = depths[v as usize] + 1;
                    next.push(dst);
                }
            }
        }
        frontier = next;
    }
    epochs
}

fn sssp_epochs(graph: &CsrGraph, root: VertexId) -> Vec<Vec<VertexId>> {
    let n = graph.num_vertices();
    if n == 0 || root as usize >= n {
        return Vec::new();
    }
    let mut dist = vec![u32::MAX; n];
    dist[root as usize] = 0;
    let mut frontier = vec![root];
    let mut epochs = Vec::new();
    while !frontier.is_empty() {
        epochs.push(frontier.clone());
        let mut improved = std::collections::BTreeSet::new();
        for &v in &frontier {
            let base = dist[v as usize];
            for (dst, w) in graph.neighbors(v) {
                let candidate = base.saturating_add(w);
                if candidate < dist[dst as usize] {
                    dist[dst as usize] = candidate;
                    improved.insert(dst);
                }
            }
        }
        frontier = improved.into_iter().collect();
    }
    epochs
}

fn wcc_epochs(graph: &CsrGraph) -> Vec<Vec<VertexId>> {
    let n = graph.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
    let mut active: Vec<VertexId> = (0..n as VertexId).collect();
    let mut epochs = Vec::new();
    while !active.is_empty() {
        epochs.push(active.clone());
        let mut changed = std::collections::BTreeSet::new();
        for &v in &active {
            let label = labels[v as usize];
            for (dst, _) in graph.neighbors(v) {
                if label < labels[dst as usize] {
                    labels[dst as usize] = label;
                    changed.insert(dst);
                }
            }
        }
        active = changed.into_iter().collect();
    }
    // Sanity: labels computed here must agree with the reference.
    debug_assert_eq!(labels, reference::wcc(graph).labels());
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalorex_graph::generators::rmat::RmatConfig;

    fn graph() -> CsrGraph {
        RmatConfig::new(9, 8).seed(7).build().unwrap()
    }

    #[test]
    fn produces_nonzero_cycles_and_energy() {
        let model = TesseractModel::new(TesseractConfig::paper_default());
        let outcome = model.run(&graph(), Workload::Bfs { root: 0 });
        assert!(outcome.cycles > 0);
        assert!(outcome.total_energy_j() > 0.0);
        assert!(outcome.epochs > 1);
        assert!(outcome.edges_processed > 0);
        assert!(outcome.seconds(1.0e9) > 0.0);
    }

    #[test]
    fn dram_background_energy_dominates_as_the_paper_reports() {
        let model = TesseractModel::new(TesseractConfig::paper_default());
        let outcome = model.run(&graph(), Workload::PageRank { epochs: 5 });
        let energy = outcome.energy;
        assert!(
            energy.memory_background_j > energy.core_j,
            "background {} should dominate core {}",
            energy.memory_background_j,
            energy.core_j
        );
        assert!(energy.memory_background_j > energy.network_j);
    }

    #[test]
    fn large_caches_improve_performance_and_energy() {
        let base = TesseractModel::new(TesseractConfig::paper_default());
        let cached = TesseractModel::new(TesseractConfig::paper_default().with_large_cache());
        for workload in [Workload::Bfs { root: 0 }, Workload::PageRank { epochs: 3 }] {
            let b = base.run(&graph(), workload);
            let c = cached.run(&graph(), workload);
            assert!(
                c.cycles < b.cycles,
                "{workload:?} cycles {} !< {}",
                c.cycles,
                b.cycles
            );
            assert!(c.total_energy_j() < b.total_energy_j());
        }
    }

    #[test]
    fn vertex_centric_placement_shows_load_imbalance_on_rmat() {
        let model = TesseractModel::new(TesseractConfig::paper_default());
        let outcome = model.run(&graph(), Workload::PageRank { epochs: 1 });
        assert!(
            outcome.average_imbalance > 1.3,
            "imbalance {} unexpectedly flat",
            outcome.average_imbalance
        );
    }

    #[test]
    fn more_cores_reduce_cycles_but_not_linearly_under_imbalance() {
        let small = TesseractModel::new(TesseractConfig::paper_default().with_cores(16));
        let large = TesseractModel::new(TesseractConfig::paper_default().with_cores(256));
        let workload = Workload::Bfs { root: 0 };
        let s = small.run(&graph(), workload);
        let l = large.run(&graph(), workload);
        assert!(l.cycles < s.cycles);
        let speedup = s.cycles as f64 / l.cycles as f64;
        assert!(speedup < 16.0, "speedup {speedup} should be sub-linear");
    }

    #[test]
    fn all_workloads_run() {
        let model = TesseractModel::new(TesseractConfig::paper_default());
        for workload in Workload::full_set() {
            let outcome = model.run(&graph(), workload);
            assert!(outcome.cycles > 0, "{workload:?} produced zero cycles");
        }
    }

    #[test]
    fn empty_and_out_of_range_roots_are_handled() {
        let model = TesseractModel::new(TesseractConfig::paper_default());
        let empty = CsrGraph::from_edge_list(&dalorex_graph::EdgeList::new(0));
        let outcome = model.run(&empty, Workload::Bfs { root: 0 });
        assert_eq!(outcome.cycles, 0);
        let outcome = model.run(&graph(), Workload::Bfs { root: u32::MAX });
        assert_eq!(outcome.cycles, 0);
    }
}
