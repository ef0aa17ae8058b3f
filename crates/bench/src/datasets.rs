//! Dataset construction for the figure binaries, honouring the
//! reproduction-scale environment variables.

use crate::cli::env_number;
use dalorex_graph::datasets::{DatasetCatalog, DatasetLabel};
use dalorex_graph::CsrGraph;

/// Default number of powers of two subtracted from each dataset's original
/// size (1024× fewer vertices than the paper).
pub const DEFAULT_SCALE_SHIFT: u32 = 10;

/// Reads the reproduction scale shift from `DALOREX_SCALE_SHIFT`
/// (default [`DEFAULT_SCALE_SHIFT`]; `0` reproduces the paper's sizes).
/// A malformed value exits with code 2 ([`crate::cli::env_number`]).
pub fn scale_shift() -> u32 {
    env_number("DALOREX_SCALE_SHIFT", 0).unwrap_or(DEFAULT_SCALE_SHIFT)
}

/// Reads the largest grid side allowed for sweeps from `DALOREX_MAX_SIDE`
/// (default 16, i.e. up to 256 tiles; the paper sweeps up to 128).  Zero
/// or a malformed value exits with code 2 ([`crate::cli::env_number`]).
pub fn max_grid_side() -> usize {
    env_number("DALOREX_MAX_SIDE", 1).unwrap_or(16)
}

/// The dataset catalog at the configured reproduction scale.
pub fn catalog() -> DatasetCatalog {
    DatasetCatalog::new().with_scale_shift(scale_shift())
}

/// Builds a labelled dataset at the configured reproduction scale.
///
/// # Panics
///
/// Panics if the generator rejects its configuration, which cannot happen
/// for the catalogued labels.
pub fn build(label: DatasetLabel) -> CsrGraph {
    catalog()
        .build(label)
        .expect("catalogued dataset configurations are valid")
}

/// A scratchpad size, in bytes, large enough for `graph` distributed over
/// `tiles` tiles (with the code/queue reserve the simulator requires),
/// rounded up to a power of two of at least 256 KiB.  The figure binaries
/// use this instead of the 4 MiB default so that small reproduction-scale
/// runs report sensible leakage energy.
pub fn fitting_scratchpad_bytes(graph: &CsrGraph, tiles: usize) -> usize {
    let per_tile_words =
        (2 * graph.num_vertices().div_ceil(tiles) + 2 * graph.num_edges().div_ceil(tiles)) * 4;
    let kernel_state = 16 * graph.num_vertices().div_ceil(tiles);
    let required = per_tile_words + kernel_state + 128 * 1024;
    required.next_power_of_two().max(256 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_shift_defaults_when_env_is_unset() {
        // The test environment does not set the variable.
        assert!(scale_shift() >= 1 || std::env::var("DALOREX_SCALE_SHIFT").is_ok());
        assert!(max_grid_side() >= 2);
    }

    #[test]
    fn builds_reduced_datasets() {
        let graph = build(DatasetLabel::Rmat(16));
        assert!(graph.num_vertices() >= 64);
        assert!(graph.num_edges() > 0);
    }

    #[test]
    fn fitting_scratchpad_is_large_enough_and_power_of_two() {
        let graph = build(DatasetLabel::Amazon);
        let bytes = fitting_scratchpad_bytes(&graph, 16);
        assert!(bytes >= 256 * 1024);
        assert_eq!(bytes.count_ones(), 1);
    }
}
