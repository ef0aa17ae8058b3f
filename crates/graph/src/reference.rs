//! Sequential reference implementations of the evaluated kernels.
//!
//! The paper validates the Dalorex simulator by checking its program output
//! against sequential x86 executions of the GAP benchmark applications
//! (Section IV-A).  These functions play that role here: the simulator's
//! output arrays must match them exactly (BFS/SSSP/WCC/SPMV) or within a
//! convergence tolerance (PageRank).

use crate::csr::CsrGraph;
use crate::{VertexId, Weight};
use std::collections::VecDeque;

/// Sentinel depth/distance for vertices not reachable from the root.
pub const UNREACHED: u32 = u32::MAX;

/// Result of a BFS traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    depths: Vec<u32>,
}

impl BfsResult {
    /// Hop count from the root for every vertex ([`UNREACHED`] if
    /// unreachable).
    pub fn depths(&self) -> &[u32] {
        &self.depths
    }

    /// Number of vertices reachable from the root (including the root).
    pub fn reached(&self) -> usize {
        self.depths.iter().filter(|&&d| d != UNREACHED).count()
    }
}

/// Breadth-first search from `root`, returning hop counts.
///
/// # Panics
///
/// Panics if `root` is out of range for a non-empty graph.
pub fn bfs(graph: &CsrGraph, root: VertexId) -> BfsResult {
    let n = graph.num_vertices();
    let mut depths = vec![UNREACHED; n];
    if n == 0 {
        return BfsResult { depths };
    }
    assert!((root as usize) < n, "bfs root {root} out of range");
    depths[root as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        let next_depth = depths[v as usize] + 1;
        for (dst, _) in graph.neighbors(v) {
            if depths[dst as usize] == UNREACHED {
                depths[dst as usize] = next_depth;
                queue.push_back(dst);
            }
        }
    }
    BfsResult { depths }
}

/// Result of an SSSP computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspResult {
    distances: Vec<u32>,
}

impl SsspResult {
    /// Shortest distance from the root for every vertex ([`UNREACHED`] if
    /// unreachable).
    pub fn distances(&self) -> &[u32] {
        &self.distances
    }
}

/// Single-source shortest paths from `root` with non-negative integer
/// weights (Dijkstra).
///
/// # Panics
///
/// Panics if `root` is out of range for a non-empty graph.
pub fn sssp(graph: &CsrGraph, root: VertexId) -> SsspResult {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = graph.num_vertices();
    let mut distances = vec![UNREACHED; n];
    if n == 0 {
        return SsspResult { distances };
    }
    assert!((root as usize) < n, "sssp root {root} out of range");
    distances[root as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, root)));
    while let Some(Reverse((dist, v))) = heap.pop() {
        if dist > distances[v as usize] {
            continue;
        }
        for (dst, weight) in graph.neighbors(v) {
            let candidate = dist.saturating_add(weight);
            if candidate < distances[dst as usize] {
                distances[dst as usize] = candidate;
                heap.push(Reverse((candidate, dst)));
            }
        }
    }
    SsspResult { distances }
}

/// Result of a weakly-connected-components labelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WccResult {
    labels: Vec<VertexId>,
}

impl WccResult {
    /// Component label per vertex. Two vertices have equal labels iff they
    /// are weakly connected; the label is the smallest vertex id in the
    /// component (the convention of the coloring-based algorithm the paper
    /// uses).
    pub fn labels(&self) -> &[VertexId] {
        &self.labels
    }

    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        let mut labels = self.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

/// Weakly connected components via label propagation to the minimum vertex
/// id over the undirected closure of the graph.
pub fn wcc(graph: &CsrGraph) -> WccResult {
    let n = graph.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
    if n == 0 {
        return WccResult { labels };
    }
    let transpose = graph.transpose();
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n as VertexId {
            let mut best = labels[v as usize];
            for (dst, _) in graph.neighbors(v).chain(transpose.neighbors(v)) {
                best = best.min(labels[dst as usize]);
            }
            if best < labels[v as usize] {
                labels[v as usize] = best;
                changed = true;
            }
        }
    }
    WccResult { labels }
}

/// Fixed-point scale used for PageRank ranks inside the simulator.
///
/// The Dalorex PU is an integer ALU; the paper's kernels operate on 32-bit
/// words.  We represent ranks in fixed point with this scale (1.0 ==
/// `PAGERANK_ONE`) so that the simulated kernel and the reference produce
/// bit-identical results.
pub const PAGERANK_ONE: u64 = 1 << 20;

/// Damping factor (0.85) in [`PAGERANK_ONE`] fixed point.
pub const PAGERANK_DAMPING: u64 = (85 * PAGERANK_ONE) / 100;

/// Result of a PageRank computation in fixed point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRankResult {
    ranks: Vec<u64>,
    iterations: usize,
}

impl PageRankResult {
    /// Fixed-point rank per vertex (scale [`PAGERANK_ONE`]).
    pub fn ranks(&self) -> &[u64] {
        &self.ranks
    }

    /// Number of epochs executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Push-based PageRank with integer fixed-point arithmetic, running a fixed
/// number of epochs (the paper runs PageRank with a barrier per epoch).
///
/// Each epoch, every vertex pushes `damping * rank / out_degree` to its
/// out-neighbors; the new rank is `(1 - damping) + sum(pushed)`.  Vertices
/// with no out-edges push nothing (their rank mass is dropped, as in the
/// GAP push implementation).
pub fn pagerank(graph: &CsrGraph, epochs: usize) -> PageRankResult {
    let n = graph.num_vertices();
    let mut ranks = vec![PAGERANK_ONE; n];
    let base = PAGERANK_ONE - PAGERANK_DAMPING;
    for _ in 0..epochs {
        let mut incoming = vec![0u64; n];
        for v in 0..n as VertexId {
            let degree = graph.out_degree(v) as u64;
            if degree == 0 {
                continue;
            }
            let share = (ranks[v as usize] * PAGERANK_DAMPING / PAGERANK_ONE) / degree;
            for (dst, _) in graph.neighbors(v) {
                incoming[dst as usize] += share;
            }
        }
        for v in 0..n {
            ranks[v] = base + incoming[v];
        }
    }
    PageRankResult {
        ranks,
        iterations: epochs,
    }
}

/// Result of a sparse matrix-vector multiplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmvResult {
    values: Vec<u64>,
}

impl SpmvResult {
    /// Output vector entries (`y[i] = sum_j A[i][j] * x[j]`), 64-bit to
    /// avoid overflow on high-degree rows.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Sparse matrix–vector multiplication `y = A * x`, where `A` is the graph's
/// adjacency matrix with `edge_values` as coefficients.
///
/// # Panics
///
/// Panics if `x.len() != graph.num_vertices()`.
pub fn spmv(graph: &CsrGraph, x: &[Weight]) -> SpmvResult {
    assert_eq!(
        x.len(),
        graph.num_vertices(),
        "input vector length must equal the vertex count"
    );
    let mut values = vec![0u64; graph.num_vertices()];
    for row in 0..graph.num_vertices() as VertexId {
        let mut acc = 0u64;
        for (col, coeff) in graph.neighbors(row) {
            acc += u64::from(coeff) * u64::from(x[col as usize]);
        }
        values[row as usize] = acc;
    }
    SpmvResult { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::{Edge, EdgeList};

    fn chain() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3 with weights 2, 3, 4.
        let edges = EdgeList::from_edges(
            4,
            [Edge::new(0, 1, 2), Edge::new(1, 2, 3), Edge::new(2, 3, 4)],
        )
        .unwrap();
        CsrGraph::from_edge_list(&edges)
    }

    fn diamond_with_shortcut() -> CsrGraph {
        // 0 -> 1 (1), 0 -> 2 (10), 1 -> 2 (1), 2 -> 3 (1), 1 -> 3 (10)
        let edges = EdgeList::from_edges(
            4,
            [
                Edge::new(0, 1, 1),
                Edge::new(0, 2, 10),
                Edge::new(1, 2, 1),
                Edge::new(2, 3, 1),
                Edge::new(1, 3, 10),
            ],
        )
        .unwrap();
        CsrGraph::from_edge_list(&edges)
    }

    #[test]
    fn bfs_computes_hop_counts() {
        let g = chain();
        let result = bfs(&g, 0);
        assert_eq!(result.depths(), &[0, 1, 2, 3]);
        assert_eq!(result.reached(), 4);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = chain();
        let result = bfs(&g, 2);
        assert_eq!(result.depths(), &[UNREACHED, UNREACHED, 0, 1]);
        assert_eq!(result.reached(), 2);
    }

    #[test]
    fn bfs_empty_graph() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        assert_eq!(bfs(&g, 0).depths().len(), 0);
    }

    #[test]
    fn sssp_prefers_cheaper_multi_hop_path() {
        let g = diamond_with_shortcut();
        let result = sssp(&g, 0);
        // 0->1 = 1, 0->1->2 = 2 (beats direct 10), 0->1->2->3 = 3 (beats 11).
        assert_eq!(result.distances(), &[0, 1, 2, 3]);
    }

    #[test]
    fn sssp_weights_accumulate() {
        let g = chain();
        assert_eq!(sssp(&g, 0).distances(), &[0, 2, 5, 9]);
    }

    #[test]
    fn wcc_labels_components_by_minimum_vertex() {
        // Two components: {0,1,2} and {3,4}.
        let edges = EdgeList::from_edges(
            5,
            [Edge::new(0, 1, 1), Edge::new(2, 1, 1), Edge::new(4, 3, 1)],
        )
        .unwrap();
        let g = CsrGraph::from_edge_list(&edges);
        let result = wcc(&g);
        assert_eq!(result.labels(), &[0, 0, 0, 3, 3]);
        assert_eq!(result.num_components(), 2);
    }

    #[test]
    fn wcc_isolated_vertices_are_their_own_component() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(3));
        let result = wcc(&g);
        assert_eq!(result.labels(), &[0, 1, 2]);
        assert_eq!(result.num_components(), 3);
    }

    #[test]
    fn pagerank_conserves_base_rank_and_orders_hubs_first() {
        // Star: every leaf points to vertex 0.
        let edges = EdgeList::from_edges(
            5,
            [
                Edge::new(1, 0, 1),
                Edge::new(2, 0, 1),
                Edge::new(3, 0, 1),
                Edge::new(4, 0, 1),
            ],
        )
        .unwrap();
        let g = CsrGraph::from_edge_list(&edges);
        let result = pagerank(&g, 10);
        let ranks = result.ranks();
        assert!(ranks[0] > ranks[1]);
        assert_eq!(ranks[1], ranks[2]);
        assert_eq!(result.iterations(), 10);
    }

    #[test]
    fn pagerank_zero_epochs_returns_initial_ranks() {
        let g = chain();
        let result = pagerank(&g, 0);
        assert!(result.ranks().iter().all(|&r| r == PAGERANK_ONE));
    }

    #[test]
    fn spmv_matches_dense_expansion() {
        let g = diamond_with_shortcut();
        let x = vec![1, 2, 3, 4];
        let result = spmv(&g, &x);
        // Row 0: 1*x[1] + 10*x[2] = 2 + 30 = 32
        // Row 1: 1*x[2] + 10*x[3] = 3 + 40 = 43
        // Row 2: 1*x[3] = 4
        // Row 3: 0
        assert_eq!(result.values(), &[32, 43, 4, 0]);
    }

    #[test]
    #[should_panic(expected = "input vector length")]
    fn spmv_rejects_wrong_vector_length() {
        let g = chain();
        let _ = spmv(&g, &[1, 2]);
    }
}
