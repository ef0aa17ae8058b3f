//! Network statistics: traffic counters, latency, and utilization heatmaps.
//!
//! These feed two consumers: the energy model in `dalorex-sim` (flit-hops
//! and flit wire-length determine network energy, Section IV-A) and the
//! Figure 10 heatmaps of router utilization.

/// Aggregate traffic counters for a network run.
///
/// Equality deliberately ignores the four `walk_*` scheduler-efficiency
/// counters: they measure simulator work (how many routers a cycle's walk
/// touched, and how many of its scans were wasted), which legitimately differs between router schedulers whose
/// *modeled* schedules are bit-identical.  The equivalence suites compare
/// whole `NocStats` values across engines and schedulers, so the manual
/// `PartialEq` below keeps that contract about the modeled schedule only.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Messages injected into the network.
    pub injected_messages: u64,
    /// Messages delivered to their destination tile.
    pub delivered_messages: u64,
    /// Total flits delivered (sum of delivered message lengths).
    pub delivered_flits: u64,
    /// Total flit-hops: each flit crossing each link counts once.
    pub flit_hops: u64,
    /// Total flit wire length in units of the tile pitch (multiply by the
    /// physical tile pitch in millimetres to obtain flit-mm for the energy
    /// model).
    pub flit_tile_spans: f64,
    /// Sum over delivered messages of (delivery cycle − injection cycle).
    pub total_latency_cycles: u64,
    /// Back-pressure rejections per source tile (row-major, sized by the
    /// network at construction).  `try_inject` returning the message to the
    /// caller used to be the only trace a rejection left; this counter
    /// attributes every rejected attempt to the tile that suffered it so
    /// sweeps can report where endpoint stalls concentrate.
    pub injection_rejections_per_tile: Vec<u64>,
    /// Routers the calendar walk *visited*: stamped routers (set bits of
    /// its bitset) it examined, summed over all cycles; the reference
    /// scheduler counts no walk work.  A simulator-efficiency counter,
    /// excluded from equality.
    pub walk_routers_visited: u64,
    /// Routers the calendar walk actually *port-scanned*, summed over all
    /// cycles: each due router once per cycle.  The gap to
    /// [`NocStats::walk_routers_visited`] is the stamped routers whose
    /// stamp still lay in the future.
    pub walk_routers_scanned: u64,
    /// Cycles in which the calendar walk scanned no router (none was due).
    pub walks_elided: u64,
    /// Port scans of the calendar walk that committed no forward, summed
    /// over all cycles: the share of
    /// [`NocStats::walk_routers_scanned`] that was wasted work.
    pub walk_idle_scans: u64,
}

impl PartialEq for NocStats {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.injected_messages == other.injected_messages
            && self.delivered_messages == other.delivered_messages
            && self.delivered_flits == other.delivered_flits
            && self.flit_hops == other.flit_hops
            && self.flit_tile_spans == other.flit_tile_spans
            && self.total_latency_cycles == other.total_latency_cycles
            && self.injection_rejections_per_tile == other.injection_rejections_per_tile
    }
}

impl NocStats {
    /// Average end-to-end latency in cycles per delivered message.
    pub fn average_latency(&self) -> f64 {
        if self.delivered_messages == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.delivered_messages as f64
        }
    }

    /// Average hops travelled per delivered flit.
    pub fn average_hops_per_flit(&self) -> f64 {
        if self.delivered_flits == 0 {
            0.0
        } else {
            self.flit_hops as f64 / self.delivered_flits as f64
        }
    }

    /// Delivered messages per cycle (network throughput).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered_messages as f64 / self.cycles as f64
        }
    }

    /// Total back-pressure rejections across all tiles (the sum of
    /// [`NocStats::injection_rejections_per_tile`]).
    pub fn total_injection_rejections(&self) -> u64 {
        self.injection_rejections_per_tile.iter().sum()
    }
}

/// Per-router utilization snapshot (the data behind the paper's Figure 10
/// router heatmap).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationGrid {
    width: usize,
    height: usize,
    /// Fraction of simulated cycles each router spent forwarding at least
    /// one flit, row-major.
    values: Vec<f64>,
}

impl UtilizationGrid {
    /// Builds a grid from row-major per-router values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != width * height`.
    pub fn new(width: usize, height: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), width * height, "grid size mismatch");
        UtilizationGrid {
            width,
            height,
            values,
        }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Utilization of the router at `(x, y)`, in `[0, 1]`.
    pub fn at(&self, x: usize, y: usize) -> f64 {
        self.values[y * self.width + x]
    }

    /// Row-major values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean utilization across all routers.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum utilization across all routers.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Coefficient of variation of the utilization (std-dev / mean).  The
    /// paper's mesh-vs-torus heatmaps differ exactly here: the mesh
    /// concentrates traffic toward the centre (high variation) while the
    /// torus is uniform (low variation).
    pub fn variation(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 || self.values.is_empty() {
            return 0.0;
        }
        let variance = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        variance.sqrt() / mean
    }

    /// Renders the grid as an ASCII heatmap (one row per line, `0`–`9`
    /// intensity buckets), used by the Figure 10 binary.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        for y in 0..self.height {
            for x in 0..self.width {
                let bucket = (self.at(x, y) * 9.999).floor().clamp(0.0, 9.0) as u8;
                out.push(char::from(b'0' + bucket));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_averages_handle_zero_denominators() {
        let stats = NocStats::default();
        assert_eq!(stats.average_latency(), 0.0);
        assert_eq!(stats.average_hops_per_flit(), 0.0);
        assert_eq!(stats.throughput(), 0.0);
    }

    #[test]
    fn stats_averages_compute() {
        let stats = NocStats {
            cycles: 100,
            injected_messages: 10,
            delivered_messages: 10,
            delivered_flits: 30,
            flit_hops: 90,
            flit_tile_spans: 90.0,
            total_latency_cycles: 200,
            injection_rejections_per_tile: vec![0, 3, 1, 0],
            ..NocStats::default()
        };
        assert_eq!(stats.average_latency(), 20.0);
        assert_eq!(stats.average_hops_per_flit(), 3.0);
        assert!((stats.throughput() - 0.1).abs() < 1e-12);
        assert_eq!(stats.total_injection_rejections(), 4);
        assert_eq!(NocStats::default().total_injection_rejections(), 0);
    }

    #[test]
    fn equality_ignores_walk_efficiency_counters() {
        // The walk counters measure simulator work, not modeled schedule;
        // two runs whose schedulers did different amounts of walking must
        // still compare equal when their schedules match.
        let a = NocStats::default();
        let b = NocStats {
            walk_routers_visited: 7,
            walk_routers_scanned: 3,
            walks_elided: 9,
            walk_idle_scans: 2,
            ..NocStats::default()
        };
        assert_eq!(a, b);
        let c = NocStats {
            cycles: 1,
            ..NocStats::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn utilization_grid_statistics() {
        let grid = UtilizationGrid::new(2, 2, vec![0.2, 0.4, 0.6, 0.8]);
        assert_eq!(grid.at(0, 0), 0.2);
        assert_eq!(grid.at(1, 1), 0.8);
        assert!((grid.mean() - 0.5).abs() < 1e-12);
        assert_eq!(grid.max(), 0.8);
        assert!(grid.variation() > 0.0);
    }

    #[test]
    fn uniform_grid_has_zero_variation() {
        let grid = UtilizationGrid::new(2, 2, vec![0.5; 4]);
        assert_eq!(grid.variation(), 0.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn grid_rejects_wrong_length() {
        let _ = UtilizationGrid::new(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn ascii_heatmap_has_one_row_per_line() {
        let grid = UtilizationGrid::new(3, 2, vec![0.0, 0.5, 1.0, 0.1, 0.9, 0.3]);
        let ascii = grid.to_ascii();
        let lines: Vec<&str> = ascii.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 3);
        assert!(lines[0].starts_with('0'));
    }
}
