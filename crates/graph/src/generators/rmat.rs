//! RMAT (Recursive-MATrix) Kronecker graph generator.
//!
//! The paper's synthetic datasets are "several different sizes of synthetic
//! RMAT graphs of up to 67M vertices and 1.3B edges" with "average ten edges
//! per vertex" (Section IV / V-B).  RMAT generates each edge by recursively
//! descending a 2x2 partition of the adjacency matrix with probabilities
//! `(a, b, c, d)`; the standard Graph500 parameters `(0.57, 0.19, 0.19,
//! 0.05)` produce the heavy-tailed degree distribution (hot vertices) that
//! drives the paper's load-balance discussion.

use super::{ensure, random_weight};
use crate::csr::CsrGraph;
use crate::edgelist::{Edge, EdgeList};
use crate::{GraphError, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration (builder) for the RMAT generator.
///
/// ```
/// use dalorex_graph::generators::rmat::RmatConfig;
///
/// # fn main() -> Result<(), dalorex_graph::GraphError> {
/// // RMAT-10: 2^10 vertices, average degree 10 like the paper's datasets.
/// let graph = RmatConfig::new(10, 10).seed(1).build()?;
/// assert_eq!(graph.num_vertices(), 1 << 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RmatConfig {
    scale: u32,
    avg_degree: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
    symmetric: bool,
}

impl RmatConfig {
    /// Creates a configuration for a graph with `2^scale` vertices and an
    /// average out-degree of `avg_degree`, using the Graph500 skew
    /// parameters.
    pub fn new(scale: u32, avg_degree: usize) -> Self {
        RmatConfig {
            scale,
            avg_degree,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 0,
            symmetric: false,
        }
    }

    /// Sets the RNG seed (default 0). The generator is deterministic for a
    /// fixed seed and configuration.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the RMAT partition probabilities `(a, b, c)`; `d` is
    /// implied as `1 - a - b - c`.
    pub fn probabilities(mut self, a: f64, b: f64, c: f64) -> Self {
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Also emit the reverse of every generated edge, producing a symmetric
    /// graph (the GAP benchmark symmetrizes inputs for WCC).
    pub fn symmetric(mut self, symmetric: bool) -> Self {
        self.symmetric = symmetric;
        self
    }

    /// Number of vertices this configuration will generate.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Generates the edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidGeneratorConfig`] if the scale is zero or
    /// larger than 31, the average degree is zero, or the probabilities are
    /// not a valid distribution.
    pub fn build_edge_list(&self) -> Result<EdgeList, GraphError> {
        ensure(self.scale > 0, "rmat scale must be at least 1")?;
        ensure(self.scale < 32, "rmat scale must be below 32")?;
        ensure(self.avg_degree > 0, "rmat average degree must be non-zero")?;
        let d = 1.0 - self.a - self.b - self.c;
        ensure(
            self.a > 0.0 && self.b > 0.0 && self.c > 0.0 && d > 0.0,
            "rmat probabilities must be strictly positive and sum below 1",
        )?;

        let num_vertices = self.num_vertices();
        let target_edges = num_vertices * self.avg_degree;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut edges = EdgeList::new(num_vertices);
        for _ in 0..target_edges {
            let (src, dst) = self.sample_edge(&mut rng);
            let weight = random_weight(&mut rng);
            edges.push(Edge::new(src, dst, weight));
            if self.symmetric {
                edges.push(Edge::new(dst, src, weight));
            }
        }
        edges.dedup_and_remove_self_loops();
        Ok(edges)
    }

    /// Generates the graph in CSR form.
    ///
    /// # Errors
    ///
    /// See [`RmatConfig::build_edge_list`].
    pub fn build(&self) -> Result<CsrGraph, GraphError> {
        Ok(CsrGraph::from_edge_list(&self.build_edge_list()?))
    }

    fn sample_edge<R: Rng>(&self, rng: &mut R) -> (VertexId, VertexId) {
        let mut row = 0u64;
        let mut col = 0u64;
        for level in (0..self.scale).rev() {
            let r: f64 = rng.gen();
            let (row_bit, col_bit): (u64, u64) = if r < self.a {
                (0, 0)
            } else if r < self.a + self.b {
                (0, 1)
            } else if r < self.a + self.b + self.c {
                (1, 0)
            } else {
                (1, 1)
            };
            row |= row_bit << level;
            col |= col_bit << level;
        }
        (row as VertexId, col as VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_vertex_count() {
        let g = RmatConfig::new(6, 4).seed(3).build().unwrap();
        assert_eq!(g.num_vertices(), 64);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = RmatConfig::new(7, 6).seed(11).build().unwrap();
        let b = RmatConfig::new(7, 6).seed(11).build().unwrap();
        assert_eq!(a, b);
        let c = RmatConfig::new(7, 6).seed(12).build().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn average_degree_is_roughly_requested() {
        // Duplicates and self-loops are removed, so the realized degree is a
        // bit below the target, but it should stay in the same ballpark.
        let g = RmatConfig::new(10, 8).seed(5).build().unwrap();
        let avg = g.average_degree();
        assert!(avg > 4.0 && avg <= 8.0, "average degree was {avg}");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // RMAT with Graph500 parameters must produce hot vertices: the
        // maximum degree should far exceed the average.
        let g = RmatConfig::new(10, 8).seed(9).build().unwrap();
        let max_degree = (0..g.num_vertices() as VertexId)
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        assert!(
            (max_degree as f64) > 8.0 * g.average_degree(),
            "max degree {max_degree} not skewed vs average {}",
            g.average_degree()
        );
    }

    #[test]
    fn symmetric_mode_produces_reverse_edges() {
        let g = RmatConfig::new(6, 4)
            .seed(2)
            .symmetric(true)
            .build()
            .unwrap();
        for v in 0..g.num_vertices() as VertexId {
            for (dst, _) in g.neighbors(v) {
                assert!(
                    g.neighbors(dst).any(|(back, _)| back == v),
                    "edge {v}->{dst} has no reverse"
                );
            }
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(RmatConfig::new(0, 4).build().is_err());
        assert!(RmatConfig::new(32, 4).build().is_err());
        assert!(RmatConfig::new(4, 0).build().is_err());
        assert!(RmatConfig::new(4, 4)
            .probabilities(0.9, 0.1, 0.05)
            .build()
            .is_err());
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let list = RmatConfig::new(8, 6).seed(4).build_edge_list().unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in list.iter() {
            assert_ne!(e.src, e.dst, "self loop survived cleanup");
            assert!(seen.insert((e.src, e.dst)), "duplicate edge {e:?}");
        }
    }
}
