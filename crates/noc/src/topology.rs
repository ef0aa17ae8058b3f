//! Grid geometry, topologies and dimension-ordered routing.
//!
//! The paper evaluates a 2D mesh, a 2D torus (the Dalorex default up to
//! 32x32 tiles) and a torus with *ruche channels* — long physical wires that
//! let a router reach the router `R` tiles away in one hop, increasing
//! bisection bandwidth by `(R-1)x` over the underlying network (Section
//! III-F).  Routing is dimension-ordered (X first, then Y) wormhole routing;
//! the torus picks the shorter wrap direction per dimension.

use crate::TileId;

/// Dimensions of the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridShape {
    width: usize,
    height: usize,
}

impl GridShape {
    /// Creates a `width x height` grid shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        GridShape { width, height }
    }

    /// Creates a square grid of `side x side` tiles.
    pub fn square(side: usize) -> Self {
        GridShape::new(side, side)
    }

    /// Grid width (tiles in the X dimension).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (tiles in the Y dimension).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.width * self.height
    }

    /// `(x, y)` coordinates of a tile id (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn coords(&self, tile: TileId) -> (usize, usize) {
        assert!(tile < self.num_tiles(), "tile {tile} out of range");
        (tile % self.width, tile / self.width)
    }

    /// Tile id of `(x, y)` coordinates (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn tile_at(&self, x: usize, y: usize) -> TileId {
        assert!(x < self.width && y < self.height, "coords out of range");
        y * self.width + x
    }
}

/// Physical NoC topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// 2D mesh: links only between adjacent tiles, no wraparound.
    Mesh,
    /// 2D torus: adjacent links plus wraparound links in both dimensions.
    /// The paper's default for grids up to 32x32.
    Torus,
    /// 2D torus augmented with ruche channels of the given factor: every
    /// router also has a direct link to the router `factor` tiles away in
    /// each direction. The paper uses this for grids larger than 32x32.
    TorusRuche {
        /// Ruche factor `R >= 2`: length, in tiles, of the express links.
        factor: usize,
    },
}

impl Topology {
    /// Human-readable name used in figure output ("Mesh", "Torus",
    /// "Torus-Ruche").
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Mesh => "Mesh",
            Topology::Torus => "Torus",
            Topology::TorusRuche { .. } => "Torus-Ruche",
        }
    }

    /// Whether the topology has wraparound links.
    pub fn has_wraparound(&self) -> bool {
        !matches!(self, Topology::Mesh)
    }

    /// The ruche factor, or `None` for plain mesh/torus.
    pub fn ruche_factor(&self) -> Option<usize> {
        match self {
            Topology::TorusRuche { factor } => Some(*factor),
            _ => None,
        }
    }

    /// Physical wire length of one hop, in units of the tile pitch.
    ///
    /// The paper notes a torus "can be fabricated with nearly equidistant
    /// wires by having consecutive logical tiles at a distance of two in the
    /// silicon", so torus hops cost twice the mesh wire length; ruche hops
    /// span `factor` tile pitches.  Used by the energy model (pJ per flit
    /// per mm).
    pub fn hop_wire_tiles(&self, hop: HopKind) -> f64 {
        match (self, hop) {
            (Topology::Mesh, _) => 1.0,
            (Topology::Torus, _) => 2.0,
            (Topology::TorusRuche { .. }, HopKind::Regular) => 2.0,
            (Topology::TorusRuche { factor }, HopKind::Ruche) => *factor as f64 * 2.0,
        }
    }

    /// Relative bisection bandwidth versus a mesh of the same width
    /// (mesh = 1.0; torus doubles it; a full ruche network of factor `R`
    /// adds `(R-1)x` on top of the underlying torus, per Section III-F).
    pub fn relative_bisection_bandwidth(&self) -> f64 {
        match self {
            Topology::Mesh => 1.0,
            Topology::Torus => 2.0,
            Topology::TorusRuche { factor } => 2.0 * (*factor as f64 - 1.0).max(1.0) + 2.0,
        }
    }

    /// Relative router + link area versus a mesh of the same size.
    /// "A 32-bit 2D torus is 50% bigger than a 2D mesh"; the ruche-torus
    /// "uses more than twice the area of a regular torus" (Section V-C).
    pub fn relative_area(&self) -> f64 {
        match self {
            Topology::Mesh => 1.0,
            Topology::Torus => 1.5,
            Topology::TorusRuche { .. } => 3.2,
        }
    }
}

/// Whether a hop used a regular link or a ruche (express) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// Nearest-neighbour (or wraparound) link.
    Regular,
    /// Ruche express link spanning `factor` tiles.
    Ruche,
}

/// An output port of a router.
///
/// `RucheEast`/... are only present when the topology has ruche channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Toward increasing X.
    East,
    /// Toward decreasing X.
    West,
    /// Toward increasing Y.
    North,
    /// Toward decreasing Y.
    South,
    /// Express link toward increasing X (ruche).
    RucheEast,
    /// Express link toward decreasing X (ruche).
    RucheWest,
    /// Express link toward increasing Y (ruche).
    RucheNorth,
    /// Express link toward decreasing Y (ruche).
    RucheSouth,
    /// Ejection into the local tile (TSU).
    Local,
}

impl Port {
    /// All ports, in a fixed order (used to size per-port arrays).  Each
    /// direction sits next to its opposite, so `index() ^ 1` of a non-local
    /// port is the port its link arrives through at the far router.
    pub const ALL: [Port; 9] = [
        Port::East,
        Port::West,
        Port::North,
        Port::South,
        Port::RucheEast,
        Port::RucheWest,
        Port::RucheNorth,
        Port::RucheSouth,
        Port::Local,
    ];

    /// Index of this port within [`Port::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Port::East => 0,
            Port::West => 1,
            Port::North => 2,
            Port::South => 3,
            Port::RucheEast => 4,
            Port::RucheWest => 5,
            Port::RucheNorth => 6,
            Port::RucheSouth => 7,
            Port::Local => 8,
        }
    }

    /// Whether this is a ruche express port.
    pub fn is_ruche(self) -> bool {
        matches!(
            self,
            Port::RucheEast | Port::RucheWest | Port::RucheNorth | Port::RucheSouth
        )
    }

    /// The hop kind of traversing this port.
    pub fn hop_kind(self) -> HopKind {
        if self.is_ruche() {
            HopKind::Ruche
        } else {
            HopKind::Regular
        }
    }
}

/// A routing decision: which output port to take, and which tile the link
/// leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Output port to use at the current router.
    pub port: Port,
    /// Tile on the other end of that link.
    pub next: TileId,
}

/// Routing geometry for a (shape, topology) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingGrid {
    shape: GridShape,
    topology: Topology,
}

impl RoutingGrid {
    /// Creates the routing geometry for a grid and topology.
    pub fn new(shape: GridShape, topology: Topology) -> Self {
        RoutingGrid { shape, topology }
    }

    /// The grid shape.
    pub fn shape(&self) -> GridShape {
        self.shape
    }

    /// The topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Signed distance to travel in one dimension, given the topology.
    ///
    /// For a mesh this is simply `to - from`; for a torus it is the shorter
    /// way around the ring (ties broken toward the positive direction).
    fn dimension_delta(&self, from: usize, to: usize, extent: usize) -> isize {
        let direct = to as isize - from as isize;
        if !self.topology.has_wraparound() || extent <= 2 {
            return direct;
        }
        let wrap = if direct > 0 {
            direct - extent as isize
        } else {
            direct + extent as isize
        };
        if wrap.abs() < direct.abs() {
            wrap
        } else {
            direct
        }
    }

    /// Computes the dimension-ordered (X then Y) next hop from `current`
    /// toward `dest`, or `None` if `current == dest` (the message ejects to
    /// the local port).
    ///
    /// With ruche channels, the router takes the express link whenever the
    /// remaining distance in the dimension is at least the ruche factor
    /// (express links never overshoot).
    ///
    /// # Panics
    ///
    /// Panics if either tile is out of range.
    pub fn next_hop(&self, current: TileId, dest: TileId) -> Option<Hop> {
        if current == dest {
            return None;
        }
        Some(self.next_hop_from(self.shape.coords(current), self.shape.coords(dest)))
    }

    /// [`RoutingGrid::next_hop`] with both tiles' coordinates already in
    /// hand.  Hot callers (the network's per-candidate routing) cache the
    /// row-major→`(x, y)` conversion, so this entry point skips the two
    /// divisions `next_hop` would redo.
    ///
    /// The caller guarantees `current != dest`.
    #[inline]
    pub fn next_hop_from(&self, current: (usize, usize), dest: (usize, usize)) -> Hop {
        let (cx, cy) = current;
        let (dx_coord, dy_coord) = dest;
        debug_assert!(current != dest, "next_hop_from requires distinct tiles");
        let delta_x = self.dimension_delta(cx, dx_coord, self.shape.width);
        let delta_y = self.dimension_delta(cy, dy_coord, self.shape.height);

        if delta_x != 0 {
            self.hop_in_x(cx, cy, delta_x)
        } else {
            self.hop_in_y(cx, cy, delta_y)
        }
    }

    fn hop_in_x(&self, cx: usize, cy: usize, delta: isize) -> Hop {
        let width = self.shape.width;
        let ruche = self
            .topology
            .ruche_factor()
            .filter(|&r| delta.unsigned_abs() >= r);
        let (port, step) = match (delta > 0, ruche) {
            (true, Some(r)) => (Port::RucheEast, r as isize),
            (true, None) => (Port::East, 1),
            (false, Some(r)) => (Port::RucheWest, -(r as isize)),
            (false, None) => (Port::West, -1),
        };
        let nx = (cx as isize + step).rem_euclid(width as isize) as usize;
        Hop {
            port,
            next: self.shape.tile_at(nx, cy),
        }
    }

    fn hop_in_y(&self, cx: usize, cy: usize, delta: isize) -> Hop {
        let height = self.shape.height;
        let ruche = self
            .topology
            .ruche_factor()
            .filter(|&r| delta.unsigned_abs() >= r);
        let (port, step) = match (delta > 0, ruche) {
            (true, Some(r)) => (Port::RucheNorth, r as isize),
            (true, None) => (Port::North, 1),
            (false, Some(r)) => (Port::RucheSouth, -(r as isize)),
            (false, None) => (Port::South, -1),
        };
        let ny = (cy as isize + step).rem_euclid(height as isize) as usize;
        Hop {
            port,
            next: self.shape.tile_at(cx, ny),
        }
    }

    /// Number of hops a message from `src` to `dest` will take under
    /// dimension-ordered routing with this topology.
    pub fn hop_count(&self, src: TileId, dest: TileId) -> usize {
        let mut hops = 0;
        let mut current = src;
        while let Some(hop) = self.next_hop(current, dest) {
            current = hop.next;
            hops += 1;
            debug_assert!(hops <= 4 * (self.shape.width + self.shape.height));
        }
        hops
    }

    /// Whether the mesh topology would route this hop through the grid
    /// centre region (used only by tests to sanity-check the contention
    /// claim behind Figure 10).
    pub fn average_hop_count(&self) -> f64 {
        // Analytic averages: mesh ~ (W+H)/3, torus ~ (W+H)/4.
        let w = self.shape.width as f64;
        let h = self.shape.height as f64;
        match self.topology {
            Topology::Mesh => (w + h) / 3.0,
            Topology::Torus => (w + h) / 4.0,
            Topology::TorusRuche { factor } => (w + h) / 4.0 / (factor as f64 / 2.0).max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_coords_round_trip() {
        let shape = GridShape::new(4, 3);
        for tile in 0..shape.num_tiles() {
            let (x, y) = shape.coords(tile);
            assert_eq!(shape.tile_at(x, y), tile);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn shape_rejects_zero_dimension() {
        let _ = GridShape::new(0, 4);
    }

    #[test]
    fn mesh_routes_x_then_y() {
        let grid = RoutingGrid::new(GridShape::new(4, 4), Topology::Mesh);
        // From (0,0) to (2,2): two east hops then two north hops.
        let mut current = 0;
        let dest = grid.shape().tile_at(2, 2);
        let mut ports = Vec::new();
        while let Some(hop) = grid.next_hop(current, dest) {
            ports.push(hop.port);
            current = hop.next;
        }
        assert_eq!(
            ports,
            vec![Port::East, Port::East, Port::North, Port::North]
        );
    }

    #[test]
    fn torus_takes_wraparound_when_shorter() {
        let grid = RoutingGrid::new(GridShape::new(8, 8), Topology::Torus);
        // From (0,0) to (7,0): one west wraparound hop instead of 7 east.
        let dest = grid.shape().tile_at(7, 0);
        let hop = grid.next_hop(0, dest).unwrap();
        assert_eq!(hop.port, Port::West);
        assert_eq!(hop.next, dest);
        assert_eq!(grid.hop_count(0, dest), 1);
    }

    #[test]
    fn mesh_never_wraps() {
        let grid = RoutingGrid::new(GridShape::new(8, 8), Topology::Mesh);
        let dest = grid.shape().tile_at(7, 0);
        assert_eq!(grid.hop_count(0, dest), 7);
    }

    #[test]
    fn torus_halves_worst_case_hops_vs_mesh() {
        let shape = GridShape::new(8, 8);
        let mesh = RoutingGrid::new(shape, Topology::Mesh);
        let torus = RoutingGrid::new(shape, Topology::Torus);
        let far = shape.tile_at(7, 7);
        assert_eq!(mesh.hop_count(0, far), 14);
        assert_eq!(torus.hop_count(0, far), 2);
    }

    #[test]
    fn ruche_links_cut_hop_count() {
        let shape = GridShape::new(16, 16);
        let torus = RoutingGrid::new(shape, Topology::Torus);
        let ruche = RoutingGrid::new(shape, Topology::TorusRuche { factor: 4 });
        let dest = shape.tile_at(7, 0);
        assert_eq!(torus.hop_count(0, dest), 7);
        // 7 = 4 + 1 + 1 + 1 -> one ruche hop + three regular hops.
        assert_eq!(ruche.hop_count(0, dest), 4);
    }

    #[test]
    fn ruche_never_overshoots() {
        let shape = GridShape::new(16, 16);
        let ruche = RoutingGrid::new(shape, Topology::TorusRuche { factor: 4 });
        for dest in 0..shape.num_tiles() {
            // Routing must always terminate (the debug_assert in hop_count
            // catches livelock).
            let _ = ruche.hop_count(5, dest);
        }
    }

    #[test]
    fn routing_reaches_destination_for_all_pairs_small_grid() {
        for topology in [
            Topology::Mesh,
            Topology::Torus,
            Topology::TorusRuche { factor: 2 },
        ] {
            let shape = GridShape::new(5, 4);
            let grid = RoutingGrid::new(shape, topology);
            for src in 0..shape.num_tiles() {
                for dest in 0..shape.num_tiles() {
                    let mut current = src;
                    let mut steps = 0;
                    while let Some(hop) = grid.next_hop(current, dest) {
                        current = hop.next;
                        steps += 1;
                        assert!(steps < 64, "routing loop for {src}->{dest} on {topology:?}");
                    }
                    assert_eq!(current, dest);
                }
            }
        }
    }

    #[test]
    fn bisection_bandwidth_ordering_matches_paper() {
        let mesh = Topology::Mesh.relative_bisection_bandwidth();
        let torus = Topology::Torus.relative_bisection_bandwidth();
        let ruche = Topology::TorusRuche { factor: 4 }.relative_bisection_bandwidth();
        assert!(torus > mesh);
        assert!(ruche > torus);
        assert_eq!(torus, 2.0 * mesh);
    }

    #[test]
    fn area_ordering_matches_paper() {
        assert!(Topology::Torus.relative_area() > Topology::Mesh.relative_area());
        assert!(
            Topology::TorusRuche { factor: 4 }.relative_area()
                > 2.0 * Topology::Torus.relative_area()
        );
    }

    #[test]
    fn wire_lengths_follow_folded_layout() {
        assert_eq!(Topology::Mesh.hop_wire_tiles(HopKind::Regular), 1.0);
        assert_eq!(Topology::Torus.hop_wire_tiles(HopKind::Regular), 2.0);
        assert_eq!(
            Topology::TorusRuche { factor: 4 }.hop_wire_tiles(HopKind::Ruche),
            8.0
        );
    }

    #[test]
    fn port_indices_are_unique_and_dense() {
        let mut seen = [false; 9];
        for port in Port::ALL {
            assert!(!seen[port.index()]);
            seen[port.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn average_hop_count_favors_torus() {
        let shape = GridShape::new(16, 16);
        let mesh = RoutingGrid::new(shape, Topology::Mesh).average_hop_count();
        let torus = RoutingGrid::new(shape, Topology::Torus).average_hop_count();
        assert!(torus < mesh);
    }
}
