//! W2 and W3: graph kernels run through the simulator's public entry
//! points on the calendar engine, checked against the sequential
//! references.

use crate::trace::Probe;
use crate::{Rep, SCRATCHPAD_BYTES};
use dalorex_graph::generators::rmat::RmatConfig;
use dalorex_graph::{reference, CsrGraph};
use dalorex_kernels::{PageRankKernel, SsspKernel};
use dalorex_sim::config::{BarrierMode, Engine, GridConfig, SimConfigBuilder};
use dalorex_sim::{FaultPlan, Kernel, KernelOutput, Simulation};
use std::time::Instant;

/// PageRank epochs, the paper's setting.
const PAGERANK_EPOCHS: usize = 10;

/// Which kernel a graph workload runs.
#[derive(Debug, Clone, Copy)]
pub enum KernelKind {
    /// SSSP from vertex 0, barrierless.
    Sssp,
    /// PageRank for [`PAGERANK_EPOCHS`] epochs under the epoch barrier.
    PageRank,
}

/// One graph workload: dataset, grid and fault plan.  The topology is the
/// paper default for the grid: a torus up to 32x32, a ruche torus above.
pub struct GraphSpec {
    pub kernel: KernelKind,
    pub rmat_scale: u32,
    pub side: usize,
    /// `(count, horizon)` of the seeded random fault clause, if any.
    pub faults: Option<(usize, u64)>,
}

/// RMAT average degree for every graph workload.
const AVG_DEGREE: usize = 8;
/// The default-seed anchors: RMAT seed 11 and fault-plan seed 7.  The
/// benchmark's `--seed` is added to both.
const RMAT_SEED: u64 = 11;
const PLAN_SEED: u64 = 7;

/// Everything set-up produces: the dataset and the configured simulation.
pub struct Prepared {
    pub graph: CsrGraph,
    pub sim: Simulation,
}

impl GraphSpec {
    fn kernel(&self) -> Box<dyn Kernel> {
        match self.kernel {
            KernelKind::Sssp => Box::new(SsspKernel::new(0)),
            KernelKind::PageRank => Box::new(PageRankKernel::new(PAGERANK_EPOCHS)),
        }
    }

    /// The fault plan for `seed` (empty when the workload has none).
    fn plan(&self, seed: u64) -> FaultPlan {
        match self.faults {
            None => FaultPlan::empty(),
            Some((count, horizon)) => FaultPlan::parse(&format!(
                "random:seed={},count={count},horizon={horizon}",
                PLAN_SEED.wrapping_add(seed)
            ))
            .expect("the benchmark's fault clause parses"),
        }
    }

    /// Builds the dataset, the configuration and the simulation.
    pub fn setup(&self, seed: u64, probe: &mut impl Probe) -> Result<Prepared, String> {
        let graph = probe
            .span("graph.build", || {
                RmatConfig::new(self.rmat_scale, AVG_DEGREE)
                    .seed(RMAT_SEED.wrapping_add(seed))
                    .build()
            })
            .map_err(|e| format!("RMAT-{} build failed: {e}", self.rmat_scale))?;
        let sim = probe
            .span("sim.new", || {
                SimConfigBuilder::new(GridConfig::square(self.side))
                    .scratchpad_bytes(SCRATCHPAD_BYTES)
                    .engine(Engine::Calendar)
                    .faults(self.plan(seed))
                    .barrier_mode(match self.kernel {
                        KernelKind::Sssp => BarrierMode::Barrierless,
                        KernelKind::PageRank => BarrierMode::EpochBarrier,
                    })
                    .build()
                    .and_then(|config| Simulation::new(config, &graph))
            })
            .map_err(|e| format!("simulation set-up failed: {e}"))?;
        Ok(Prepared { graph, sim })
    }

    /// Output vertices that differ from the sequential reference.  A
    /// missing or short output array fails every vertex it lacks.
    pub fn count_failures(&self, graph: &CsrGraph, output: &KernelOutput) -> u64 {
        let (name, want): (_, Vec<u64>) = match self.kernel {
            KernelKind::Sssp => (
                "value",
                reference::sssp(graph, 0)
                    .distances()
                    .iter()
                    .map(|&d| u64::from(d))
                    .collect(),
            ),
            KernelKind::PageRank => (
                "rank",
                reference::pagerank(graph, PAGERANK_EPOCHS).ranks().to_vec(),
            ),
        };
        let got = output.get(name).unwrap_or(&[]);
        let differing = got
            .iter()
            .zip(&want)
            .filter(|(&g, &w)| u64::from(g) != w)
            .count();
        (differing + want.len().saturating_sub(got.len())) as u64
    }

    /// One repetition: set-up, `Simulation::run`, and the check.  A
    /// simulation error fails every vertex.
    pub fn rep(&self, seed: u64, probe: &mut impl Probe) -> Result<Rep, String> {
        let started = Instant::now();
        let Prepared { graph, sim } = self.setup(seed, probe)?;
        let setup_s = started.elapsed().as_secs_f64();

        let kernel = self.kernel();
        let started = Instant::now();
        let outcome = probe.span("sim.run", || sim.run(kernel.as_ref()));
        let run_s = started.elapsed().as_secs_f64();

        let attempted = graph.num_vertices() as u64;
        let mut rep = Rep {
            setup_s,
            run_s,
            tiles: self.side * self.side,
            attempted,
            failed: attempted,
            ..Rep::default()
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return Ok(rep);
            }
        };

        rep.failed = probe.span("bench.check", || {
            self.count_failures(&graph, &outcome.output)
        });

        rep.cycles = outcome.cycles;
        rep.energy_uj = outcome.total_energy_j() * 1e6;
        let stats = &outcome.stats;
        let invocations = stats.total_invocations();
        rep.set("graph.edges", graph.num_edges() as f64);
        rep.set("sim.task_invocations", invocations as f64);
        rep.set("sim.messages_sent", stats.messages_sent as f64);
        rep.set("sim.messages_received", stats.messages_received as f64);
        rep.set("sim.edges_processed", stats.edges_processed as f64);
        rep.set("sim.epochs", stats.epochs as f64);
        rep.set("sim.pu_utilization", stats.mean_pu_utilization());
        rep.set(
            "sim.sram_accesses",
            (stats.activity.sram_reads + stats.activity.sram_writes) as f64,
        );
        let memory = &outcome.memory;
        rep.set("sim.mem.modeled_bytes", memory.modeled_total_bytes() as f64);
        rep.set("sim.mem.tile_arena_bytes", memory.tile_arena_bytes as f64);
        rep.set(
            "sim.mem.materialized_tiles",
            memory.materialized_tiles as f64,
        );
        rep.set("sim.mem.noc_buffer_bytes", memory.noc_buffer_bytes as f64);
        rep.set("sim.mem.calendar_bytes", memory.calendar_bytes as f64);
        rep.set(
            "noc.memory_bytes",
            (memory.noc_buffer_bytes + memory.calendar_bytes) as f64,
        );
        rep.set("sim.fault.events", outcome.fault.entries.len() as f64);
        rep.set(
            "sim.fault.delayed_cycles",
            outcome.fault.total_delayed_cycles() as f64,
        );
        for (name, &count) in crate::TASK_METRICS.iter().zip(&stats.task_invocations) {
            rep.set(name, count as f64);
        }
        rep.noc_counters(&stats.noc);
        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(kernel: KernelKind) -> GraphSpec {
        GraphSpec {
            kernel,
            rmat_scale: 8,
            side: 4,
            faults: matches!(kernel, KernelKind::PageRank).then_some((4, 4000)),
        }
    }

    #[test]
    fn one_corrupted_vertex_is_one_failure() {
        for kernel in [KernelKind::Sssp, KernelKind::PageRank] {
            let spec = toy(kernel);
            let Prepared { graph, sim } = spec.setup(1, &mut ()).unwrap();
            let outcome = sim.run(spec.kernel().as_ref()).unwrap();
            assert_eq!(
                spec.count_failures(&graph, &outcome.output),
                0,
                "{kernel:?}"
            );
            let mut corrupted = outcome.output.clone();
            let name = outcome.output.names().next().unwrap().to_string();
            let mut values = outcome.output.get(&name).unwrap().to_vec();
            values[3] ^= 1;
            corrupted.insert(&name, values);
            assert_eq!(spec.count_failures(&graph, &corrupted), 1, "{kernel:?}");
            assert_eq!(
                spec.count_failures(&graph, &KernelOutput::new()),
                graph.num_vertices() as u64
            );
        }
    }
}
