//! Data placement: mapping global array indices to (tile, local index).
//!
//! Section III-A of the paper distributes every dataset array in equal
//! chunks across tiles, so that each tile owns `len / num_tiles` elements
//! and all accesses to them are local.  Two vertex-array placements appear
//! in the evaluation:
//!
//! * **Chunked (high-order bits)** — element `i` lives on tile `i / chunk`;
//!   contiguous blocks per tile.  This is the placement of the ablation
//!   steps before `Uniform-Distr` in Figure 5.
//! * **Interleaved (low-order bits)** — element `i` lives on tile
//!   `i % num_tiles`.  "Dalorex uses low-order bits of indices to distribute
//!   data randomly, so the number of hot vertices per tile is relatively
//!   uniform" (Section III-F).  This is the `Uniform-Distr` step and the
//!   full-Dalorex default.
//!
//! Edge arrays are always chunked: task T1 sends *ranges* of edge indices
//! to the edge-owning tile (Listing 1 splits a range at every chunk
//! boundary), which requires consecutive edge indices to be co-located.
//! Vertex placement is the knob that spreads hot vertices.
//!
//! The head flit of every network message carries a global index; the TSU's
//! head encoder uses these mappings to derive the destination tile, and the
//! head decoder converts the index to the local offset before pushing it to
//! the input queue — that conversion is [`Placement::to_local`].

use dalorex_noc::TileId;

/// Placement policy for vertex-indexed arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexPlacement {
    /// Element `i` on tile `i / chunk_size` (high-order index bits).
    Chunked,
    /// Element `i` on tile `i % num_tiles` (low-order index bits); the
    /// Dalorex default.
    Interleaved,
}

/// Which distributed array an index refers to, for routing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArraySpace {
    /// Vertex-indexed arrays (`dist`, `ptr`-descriptors, ranks, ...).
    Vertex,
    /// Edge-indexed arrays (`edge_idx`, `edge_values`).
    Edge,
}

/// Concrete placement of a dataset across a tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    num_tiles: usize,
    num_vertices: usize,
    num_edges: usize,
    vertex_placement: VertexPlacement,
    vertices_per_tile: usize,
    edges_per_tile: usize,
}

impl Placement {
    /// Creates a placement for a dataset of `num_vertices` and `num_edges`
    /// over `num_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero.
    pub fn new(
        num_tiles: usize,
        num_vertices: usize,
        num_edges: usize,
        vertex_placement: VertexPlacement,
    ) -> Self {
        assert!(num_tiles > 0, "at least one tile is required");
        Placement {
            num_tiles,
            num_vertices,
            num_edges,
            vertex_placement,
            vertices_per_tile: num_vertices.div_ceil(num_tiles).max(1),
            edges_per_tile: num_edges.div_ceil(num_tiles).max(1),
        }
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// Number of vertices in the dataset.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges in the dataset.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The vertex placement policy.
    pub fn vertex_placement(&self) -> VertexPlacement {
        self.vertex_placement
    }

    /// Vertex-array chunk size per tile (`NODES_PER_CHUNK` in Listing 1).
    pub fn vertices_per_tile(&self) -> usize {
        self.vertices_per_tile
    }

    /// Edge-array chunk size per tile (`EDGES_PER_CHUNK` in Listing 1).
    pub fn edges_per_tile(&self) -> usize {
        self.edges_per_tile
    }

    /// Tile that owns global index `index` of the given array space.
    pub fn owner(&self, space: ArraySpace, index: usize) -> TileId {
        match space {
            ArraySpace::Edge => (index / self.edges_per_tile).min(self.num_tiles - 1),
            ArraySpace::Vertex => match self.vertex_placement {
                VertexPlacement::Chunked => {
                    (index / self.vertices_per_tile).min(self.num_tiles - 1)
                }
                VertexPlacement::Interleaved => index % self.num_tiles,
            },
        }
    }

    /// Local offset of global index `index` within its owner's chunk.
    pub fn to_local(&self, space: ArraySpace, index: usize) -> usize {
        match space {
            ArraySpace::Edge => index - self.owner(space, index) * self.edges_per_tile,
            ArraySpace::Vertex => match self.vertex_placement {
                VertexPlacement::Chunked => {
                    index - self.owner(space, index) * self.vertices_per_tile
                }
                VertexPlacement::Interleaved => index / self.num_tiles,
            },
        }
    }

    /// Global index of local offset `local` on `tile`.
    pub fn to_global(&self, space: ArraySpace, tile: TileId, local: usize) -> usize {
        match space {
            ArraySpace::Edge => tile * self.edges_per_tile + local,
            ArraySpace::Vertex => match self.vertex_placement {
                VertexPlacement::Chunked => tile * self.vertices_per_tile + local,
                VertexPlacement::Interleaved => local * self.num_tiles + tile,
            },
        }
    }

    /// Number of elements of the given array space stored on `tile`.
    pub fn local_len(&self, space: ArraySpace, tile: TileId) -> usize {
        let (total, per_tile) = match space {
            ArraySpace::Vertex => (self.num_vertices, self.vertices_per_tile),
            ArraySpace::Edge => (self.num_edges, self.edges_per_tile),
        };
        match (space, self.vertex_placement) {
            (ArraySpace::Edge, _) | (ArraySpace::Vertex, VertexPlacement::Chunked) => {
                let start = tile * per_tile;
                if start >= total {
                    0
                } else {
                    per_tile.min(total - start)
                }
            }
            (ArraySpace::Vertex, VertexPlacement::Interleaved) => {
                // Elements tile, tile + T, tile + 2T, ...
                if tile >= total {
                    0
                } else {
                    (total - tile).div_ceil(self.num_tiles)
                }
            }
        }
    }

    /// Chunk capacity each tile reserves for the given array space (the
    /// scratchpad allocation, which is the same on every tile regardless of
    /// how many elements the last tile actually holds).
    pub fn chunk_capacity(&self, space: ArraySpace) -> usize {
        match space {
            ArraySpace::Vertex => self.vertices_per_tile,
            ArraySpace::Edge => self.edges_per_tile,
        }
    }

    /// Splits the global edge range `[begin, end)` into maximal sub-ranges
    /// that each live on a single tile, exactly like task T1 in Listing 1
    /// splits a neighbour range at every `EDGES_PER_CHUNK` boundary.
    pub fn split_edge_range(
        &self,
        begin: usize,
        end: usize,
    ) -> impl Iterator<Item = (TileId, usize, usize)> + '_ {
        let mut current = begin;
        std::iter::from_fn(move || {
            if current >= end {
                return None;
            }
            let tile = self.owner(ArraySpace::Edge, current);
            let chunk_end = (tile + 1) * self.edges_per_tile;
            let stop = end.min(chunk_end);
            let item = (tile, current, stop);
            current = stop;
            Some(item)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_placement_maps_contiguously() {
        let p = Placement::new(4, 100, 400, VertexPlacement::Chunked);
        assert_eq!(p.vertices_per_tile(), 25);
        assert_eq!(p.owner(ArraySpace::Vertex, 0), 0);
        assert_eq!(p.owner(ArraySpace::Vertex, 24), 0);
        assert_eq!(p.owner(ArraySpace::Vertex, 25), 1);
        assert_eq!(p.owner(ArraySpace::Vertex, 99), 3);
        assert_eq!(p.to_local(ArraySpace::Vertex, 26), 1);
    }

    #[test]
    fn interleaved_placement_spreads_consecutive_indices() {
        let p = Placement::new(4, 100, 400, VertexPlacement::Interleaved);
        assert_eq!(p.owner(ArraySpace::Vertex, 0), 0);
        assert_eq!(p.owner(ArraySpace::Vertex, 1), 1);
        assert_eq!(p.owner(ArraySpace::Vertex, 5), 1);
        assert_eq!(p.to_local(ArraySpace::Vertex, 5), 1);
    }

    #[test]
    fn round_trip_global_local_for_both_placements() {
        for placement in [VertexPlacement::Chunked, VertexPlacement::Interleaved] {
            let p = Placement::new(7, 103, 311, placement);
            for space in [ArraySpace::Vertex, ArraySpace::Edge] {
                let total = match space {
                    ArraySpace::Vertex => 103,
                    ArraySpace::Edge => 311,
                };
                for index in 0..total {
                    let tile = p.owner(space, index);
                    let local = p.to_local(space, index);
                    assert!(tile < 7);
                    assert_eq!(
                        p.to_global(space, tile, local),
                        index,
                        "round trip failed for {space:?} {index} under {placement:?}"
                    );
                    assert!(local < p.chunk_capacity(space));
                }
            }
        }
    }

    #[test]
    fn local_len_sums_to_total() {
        for placement in [VertexPlacement::Chunked, VertexPlacement::Interleaved] {
            let p = Placement::new(6, 101, 257, placement);
            let vertex_total: usize = (0..6).map(|t| p.local_len(ArraySpace::Vertex, t)).sum();
            let edge_total: usize = (0..6).map(|t| p.local_len(ArraySpace::Edge, t)).sum();
            assert_eq!(vertex_total, 101);
            assert_eq!(edge_total, 257);
        }
    }

    #[test]
    fn edges_are_always_chunked() {
        let p = Placement::new(4, 16, 100, VertexPlacement::Interleaved);
        assert_eq!(p.owner(ArraySpace::Edge, 0), 0);
        assert_eq!(p.owner(ArraySpace::Edge, 24), 0);
        assert_eq!(p.owner(ArraySpace::Edge, 25), 1);
    }

    #[test]
    fn split_edge_range_respects_chunk_boundaries() {
        let p = Placement::new(4, 16, 100, VertexPlacement::Chunked);
        // edges_per_tile = 25; range [20, 60) spans tiles 0, 1 and 2.
        let parts: Vec<_> = p.split_edge_range(20, 60).collect();
        assert_eq!(parts, vec![(0, 20, 25), (1, 25, 50), (2, 50, 60)]);
        // A range inside one chunk is returned unchanged.
        let parts: Vec<_> = p.split_edge_range(30, 40).collect();
        assert_eq!(parts, vec![(1, 30, 40)]);
        // An empty range yields nothing.
        assert_eq!(p.split_edge_range(10, 10).count(), 0);
    }

    #[test]
    fn more_tiles_than_elements_is_handled() {
        let p = Placement::new(8, 3, 5, VertexPlacement::Chunked);
        assert_eq!(p.vertices_per_tile(), 1);
        assert_eq!(p.local_len(ArraySpace::Vertex, 0), 1);
        assert_eq!(p.local_len(ArraySpace::Vertex, 3), 0);
        assert_eq!(p.local_len(ArraySpace::Vertex, 7), 0);
        let total: usize = (0..8).map(|t| p.local_len(ArraySpace::Vertex, t)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_tiles_rejected() {
        let _ = Placement::new(0, 10, 10, VertexPlacement::Chunked);
    }
}
