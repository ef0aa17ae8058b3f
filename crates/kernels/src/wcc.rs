//! Weakly Connected Components in the Dalorex programming model.
//!
//! WCC labels every vertex with the smallest vertex id in its component,
//! implemented with graph colouring (label propagation) as in the paper's
//! Section IV.  It is the min-label instantiation of the shared
//! [`propagation`](crate::propagation) pipeline: every vertex starts in the
//! frontier carrying its own id, and labels shrink monotonically.
//!
//! The kernel propagates along out-edges only; run it on a symmetric
//! (undirected) graph — e.g. built with
//! [`RmatConfig::symmetric`](dalorex_graph::generators::rmat::RmatConfig::symmetric)
//! or symmetrized with
//! [`EdgeList::symmetrize`](dalorex_graph::EdgeList::symmetrize) — so that
//! its components equal the weakly connected components of the reference.

use crate::propagation::{PropagationKernel, PropagationMode};
use dalorex_sim::kernel::{
    BootstrapContext, ChannelDecl, EpochContext, EpochDecision, Kernel, LocalArrayDecl,
    TaskContext, TaskDecl,
};

/// Weakly-connected-components kernel.
///
/// The output array `"value"` holds each vertex's component label (the
/// smallest vertex id in the component), comparable to
/// [`dalorex_graph::reference::wcc`] on symmetric graphs.
///
/// ```
/// use dalorex_kernels::WccKernel;
/// let kernel = WccKernel::new();
/// ```
#[derive(Debug, Clone)]
pub struct WccKernel {
    inner: PropagationKernel,
}

impl WccKernel {
    /// Creates a WCC kernel.
    pub fn new() -> Self {
        WccKernel {
            inner: PropagationKernel::new(PropagationMode::MinLabel, None),
        }
    }

    fn inner(&self) -> &PropagationKernel {
        &self.inner
    }
}

impl Default for WccKernel {
    fn default() -> Self {
        WccKernel::new()
    }
}

impl Kernel for WccKernel {
    fn name(&self) -> &str {
        self.inner().name()
    }
    fn tasks(&self) -> Vec<TaskDecl> {
        self.inner().tasks()
    }
    fn channels(&self) -> Vec<ChannelDecl> {
        self.inner().channels()
    }
    fn arrays(&self) -> Vec<LocalArrayDecl> {
        self.inner().arrays()
    }
    fn num_tile_vars(&self) -> usize {
        self.inner().num_tile_vars()
    }
    fn output_arrays(&self) -> Vec<&'static str> {
        self.inner().output_arrays()
    }
    fn bootstrap(&self, ctx: &mut dyn BootstrapContext) {
        self.inner().bootstrap(ctx);
    }
    fn execute(&self, task: usize, params: &[u32], ctx: &mut dyn TaskContext) {
        self.inner().execute(task, params, ctx);
    }
    fn on_global_idle(&self, epoch: usize, ctx: &mut dyn EpochContext) -> EpochDecision {
        self.inner().on_global_idle(epoch, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalorex_graph::generators::erdos_renyi::UniformConfig;
    use dalorex_graph::reference;
    use dalorex_graph::CsrGraph;
    use dalorex_sim::config::{BarrierMode, GridConfig, SimConfigBuilder};
    use dalorex_sim::Simulation;

    fn symmetric_graph(vertices: usize, degree: usize, seed: u64) -> CsrGraph {
        let mut edges = UniformConfig::new(vertices, degree)
            .seed(seed)
            .build_edge_list()
            .unwrap();
        edges.symmetrize();
        edges.dedup_and_remove_self_loops();
        CsrGraph::from_edge_list(&edges)
    }

    #[test]
    fn wcc_matches_reference_labels_and_component_count() {
        // A sparse graph with several components.
        let graph = symmetric_graph(240, 1, 6);
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(512 * 1024)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&WccKernel::new()).unwrap();
        let expected = reference::wcc(&graph);
        assert_eq!(outcome.output.as_u32_array("value"), expected.labels());
        assert!(
            expected.num_components() > 1,
            "test graph should be disconnected"
        );
    }

    #[test]
    fn wcc_with_barrier_mode_matches_reference() {
        let graph = symmetric_graph(180, 2, 3);
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(512 * 1024)
            .barrier_mode(BarrierMode::EpochBarrier)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&WccKernel::new()).unwrap();
        let expected = reference::wcc(&graph);
        assert_eq!(outcome.output.as_u32_array("value"), expected.labels());
        // WCC is the workload the paper singles out as benefiting most from
        // removing barriers because it runs many epochs.
        assert!(outcome.stats.epochs >= 2);
    }

    #[test]
    fn default_constructs_a_usable_kernel() {
        let kernel = WccKernel::new();
        assert_eq!(kernel.name(), "wcc");
        assert_eq!(kernel.tasks().len(), 4);
    }
}
