//! Compressed-Sparse-Row graph storage.
//!
//! The paper (Section II-A, III-A) stores graphs "in formats like
//! Compressed-Sparse-Row (CSR) using four arrays". The four distributed
//! arrays are:
//!
//! * `ptr` — per-vertex offsets into the edge arrays (size `V + 1`; the
//!   paper distributes a tuple of size `V`, pairing `dist`/`ptr`),
//! * `edge_idx` — destination vertex of each edge (size `E`),
//! * `edge_values` — weight of each edge (size `E`),
//! * one per-vertex state array per kernel (`dist`, `depth`, `rank`, …),
//!   owned by the kernel, not by this type.
//!
//! [`CsrGraph`] is the immutable dataset handed to both the Dalorex
//! simulator and the baseline models; kernels read it but never mutate it.

use crate::edgelist::{Edge, EdgeList};
use crate::{GraphError, VertexId, Weight};

/// An immutable directed graph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    ptr: Vec<u32>,
    edge_idx: Vec<VertexId>,
    edge_values: Vec<Weight>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list.
    ///
    /// Edges are grouped by source vertex; within a source vertex they keep
    /// the relative order of the edge list (stable counting sort), which
    /// makes the layout deterministic for a deterministic generator.
    ///
    /// ```
    /// use dalorex_graph::{CsrGraph, Edge, EdgeList};
    ///
    /// # fn main() -> Result<(), dalorex_graph::GraphError> {
    /// let edges = EdgeList::from_edges(3, [Edge::new(0, 1, 4), Edge::new(0, 2, 1)])?;
    /// let graph = CsrGraph::from_edge_list(&edges);
    /// assert_eq!(graph.out_degree(0), 2);
    /// assert_eq!(graph.out_degree(1), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let num_vertices = edges.num_vertices();
        let mut counts = vec![0u32; num_vertices + 1];
        for edge in edges.iter() {
            counts[edge.src as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            counts[v + 1] += counts[v];
        }
        let ptr = counts.clone();
        let mut cursor: Vec<u32> = ptr[..num_vertices].to_vec();
        let num_edges = edges.num_edges();
        let mut edge_idx = vec![0 as VertexId; num_edges];
        let mut edge_values = vec![0 as Weight; num_edges];
        for edge in edges.iter() {
            let slot = cursor[edge.src as usize] as usize;
            edge_idx[slot] = edge.dst;
            edge_values[slot] = edge.weight;
            cursor[edge.src as usize] += 1;
        }
        CsrGraph {
            ptr,
            edge_idx,
            edge_values,
        }
    }

    /// Builds a CSR graph directly from its raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InconsistentCsr`] if `ptr` is empty, not
    /// monotonically non-decreasing, or its last entry does not match the
    /// edge-array lengths; and [`GraphError::VertexOutOfBounds`] if any
    /// destination index is `>= num_vertices`.
    pub fn from_raw_parts(
        ptr: Vec<u32>,
        edge_idx: Vec<VertexId>,
        edge_values: Vec<Weight>,
    ) -> Result<Self, GraphError> {
        if ptr.is_empty() {
            return Err(GraphError::InconsistentCsr {
                reason: "ptr array must have at least one entry".to_string(),
            });
        }
        if edge_idx.len() != edge_values.len() {
            return Err(GraphError::InconsistentCsr {
                reason: format!(
                    "edge_idx has {} entries but edge_values has {}",
                    edge_idx.len(),
                    edge_values.len()
                ),
            });
        }
        if ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InconsistentCsr {
                reason: "ptr array must be monotonically non-decreasing".to_string(),
            });
        }
        let declared_edges = *ptr.last().expect("ptr checked non-empty") as usize;
        if declared_edges != edge_idx.len() {
            return Err(GraphError::InconsistentCsr {
                reason: format!(
                    "ptr declares {declared_edges} edges but edge_idx has {}",
                    edge_idx.len()
                ),
            });
        }
        let num_vertices = (ptr.len() - 1) as u64;
        if let Some(&bad) = edge_idx.iter().find(|&&dst| u64::from(dst) >= num_vertices) {
            return Err(GraphError::VertexOutOfBounds {
                vertex: u64::from(bad),
                num_vertices,
            });
        }
        Ok(CsrGraph {
            ptr,
            edge_idx,
            edge_values,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edge_idx.len()
    }

    /// Average out-degree (`E / V`), zero for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// The `ptr` offsets array (length `V + 1`).
    pub fn ptr(&self) -> &[u32] {
        &self.ptr
    }

    /// The `edge_idx` destinations array (length `E`).
    pub fn edge_idx(&self) -> &[VertexId] {
        &self.edge_idx
    }

    /// The `edge_values` weights array (length `E`).
    pub fn edge_values(&self) -> &[Weight] {
        &self.edge_values
    }

    /// Out-degree of `vertex`.
    ///
    /// # Panics
    ///
    /// Panics if `vertex >= num_vertices`.
    pub fn out_degree(&self, vertex: VertexId) -> usize {
        let v = vertex as usize;
        (self.ptr[v + 1] - self.ptr[v]) as usize
    }

    /// The half-open edge-array range `[begin, end)` owned by `vertex`.
    ///
    /// This is exactly what task T1 of the paper's SSSP listing reads
    /// (`neighbor_begin, neighbor_end = ptr[v], ptr[v+1]`).
    ///
    /// # Panics
    ///
    /// Panics if `vertex >= num_vertices`.
    pub fn neighbor_range(&self, vertex: VertexId) -> std::ops::Range<usize> {
        let v = vertex as usize;
        self.ptr[v] as usize..self.ptr[v + 1] as usize
    }

    /// Iterates over `(destination, weight)` pairs for `vertex`'s out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `vertex >= num_vertices`.
    pub fn neighbors(&self, vertex: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.neighbor_range(vertex);
        self.edge_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.edge_values[range].iter().copied())
    }

    /// Memory footprint of the three CSR arrays in bytes, assuming 32-bit
    /// entries: `ptr` (`V + 1` words), `edge_idx` (`E` words) and
    /// `edge_values` (`E` words).
    ///
    /// This is the graph alone — kernel per-vertex state (e.g. `dist`) is
    /// declared by each kernel and accounted in the simulator's per-tile
    /// arenas, not here.  For the footprint of the graph *as distributed
    /// across tile scratchpads*, see
    /// [`distributed_footprint_bytes`](Self::distributed_footprint_bytes).
    pub fn footprint_bytes(&self) -> usize {
        (self.ptr.len() + self.edge_idx.len() + self.edge_values.len()) * 4
    }

    /// Memory footprint of the graph once distributed across tile
    /// scratchpads, in bytes: each tile stores an explicit `[begin, end)`
    /// row pair per local vertex (2 words — the shared-`ptr` trick of the
    /// monolithic layout does not survive chunking) plus the 2 edge words,
    /// so the total is `4 * (2V + 2E)` regardless of the tile count.
    ///
    /// This equals the `csr_bytes` line of the simulator's memory report.
    pub fn distributed_footprint_bytes(&self) -> usize {
        (2 * self.num_vertices() + 2 * self.num_edges()) * 4
    }

    /// Converts back to an edge list (mainly for tests and round-trips).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut list = EdgeList::new(self.num_vertices());
        for v in 0..self.num_vertices() as VertexId {
            for (dst, weight) in self.neighbors(v) {
                list.push(Edge::new(v, dst, weight));
            }
        }
        list
    }

    /// Returns the transpose (all edges reversed), used by pull-based
    /// algorithm variants and by WCC on directed inputs.
    pub fn transpose(&self) -> CsrGraph {
        let mut list = EdgeList::new(self.num_vertices());
        for v in 0..self.num_vertices() as VertexId {
            for (dst, weight) in self.neighbors(v) {
                list.push(Edge::new(dst, v, weight));
            }
        }
        CsrGraph::from_edge_list(&list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let edges = EdgeList::from_edges(
            4,
            [
                Edge::new(0, 1, 1),
                Edge::new(0, 2, 2),
                Edge::new(1, 3, 3),
                Edge::new(2, 3, 4),
            ],
        )
        .unwrap();
        CsrGraph::from_edge_list(&edges)
    }

    #[test]
    fn builds_expected_arrays() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.ptr(), &[0, 2, 3, 4, 4]);
        assert_eq!(g.edge_idx(), &[1, 2, 3, 3]);
        assert_eq!(g.edge_values(), &[1, 2, 3, 4]);
    }

    #[test]
    fn degrees_and_ranges() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbor_range(1), 2..3);
        assert_eq!(g.average_degree(), 1.0);
    }

    #[test]
    fn neighbors_iterator_pairs_destinations_with_weights() {
        let g = diamond();
        let n: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n, vec![(1, 1), (2, 2)]);
        assert_eq!(g.neighbors(3).count(), 0);
    }

    #[test]
    fn round_trips_through_edge_list() {
        let g = diamond();
        let list = g.to_edge_list();
        let rebuilt = CsrGraph::from_edge_list(&list);
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.out_degree(3), 2);
        assert_eq!(t.out_degree(0), 0);
        let back = t.transpose();
        // Transposing twice yields the same edge set (possibly reordered).
        let mut a = g.to_edge_list();
        let mut b = back.to_edge_list();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn from_raw_parts_accepts_valid_arrays() {
        let g = CsrGraph::from_raw_parts(vec![0, 1, 2], vec![1, 0], vec![5, 6]).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn from_raw_parts_rejects_bad_ptr() {
        assert!(CsrGraph::from_raw_parts(vec![], vec![], vec![]).is_err());
        assert!(CsrGraph::from_raw_parts(vec![0, 2, 1], vec![0, 0], vec![1, 1]).is_err());
        assert!(CsrGraph::from_raw_parts(vec![0, 1], vec![0, 0], vec![1, 1]).is_err());
    }

    #[test]
    fn from_raw_parts_rejects_out_of_bounds_destination() {
        let err = CsrGraph::from_raw_parts(vec![0, 1], vec![7], vec![1]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfBounds { vertex: 7, .. }
        ));
    }

    #[test]
    fn from_raw_parts_rejects_mismatched_value_lengths() {
        let err = CsrGraph::from_raw_parts(vec![0, 1], vec![0], vec![]).unwrap_err();
        assert!(matches!(err, GraphError::InconsistentCsr { .. }));
    }

    #[test]
    fn footprint_counts_the_three_csr_arrays() {
        let g = diamond();
        // ptr: 5 words, edge_idx: 4 words, edge_values: 4 words — and
        // nothing else: kernel state is not the graph's to count.
        assert_eq!(g.footprint_bytes(), (5 + 4 + 4) * 4);
    }

    #[test]
    fn distributed_footprint_from_first_principles() {
        let g = diamond();
        // Chunked across tiles every vertex carries an explicit [begin, end)
        // row pair: 2 words per vertex + 2 words per edge.
        assert_eq!(g.distributed_footprint_bytes(), (2 * 4 + 2 * 4) * 4);
        // The distributed layout trades the shared ptr array (V + 1 words)
        // for per-vertex pairs (2V words): for any non-trivial graph the
        // distributed form is the larger of the two.
        assert!(g.distributed_footprint_bytes() >= g.footprint_bytes() - 4);
    }

    #[test]
    fn empty_graph_is_consistent() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }
}
