//! Named dataset catalog.
//!
//! The paper's figures refer to datasets by short labels: `AZ` (Amazon),
//! `WK` (Wikipedia), `LJ` (LiveJournal) and `R16`/`R22`/`R25`/`R26` (RMAT at
//! scale 16/22/25/26).  This module maps those labels to generator
//! configurations.
//!
//! Because the original datasets are far too large to regenerate and
//! simulate on a single machine inside the benchmark harness, every label
//! has a *reproduction scale factor*: the generated graph keeps the original
//! shape (degree distribution, average degree, RMAT parameters) but at a
//! reduced vertex count.  The scale can be raised towards the paper's
//! original sizes via [`DatasetCatalog::with_scale_shift`].

use crate::csr::CsrGraph;
use crate::generators::realworld::RealWorldDataset;
use crate::generators::rmat::RmatConfig;
use crate::GraphError;

/// A dataset label used by the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetLabel {
    /// Amazon co-purchase network stand-in.
    Amazon,
    /// Wikipedia hyperlink graph stand-in.
    Wikipedia,
    /// LiveJournal social network stand-in.
    LiveJournal,
    /// RMAT graph of the given scale (the paper uses 16, 22, 25, 26).
    Rmat(u32),
}

impl DatasetLabel {
    /// The label string used in the paper's figure axes.
    pub fn as_str(self) -> String {
        match self {
            DatasetLabel::Amazon => "AZ".to_string(),
            DatasetLabel::Wikipedia => "WK".to_string(),
            DatasetLabel::LiveJournal => "LJ".to_string(),
            DatasetLabel::Rmat(scale) => format!("R{scale}"),
        }
    }

    /// Parses a label string (`"AZ"`, `"WK"`, `"LJ"`, `"R22"`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownDataset`] for unrecognized labels.
    pub fn parse(label: &str) -> Result<Self, GraphError> {
        match label {
            "AZ" => Ok(DatasetLabel::Amazon),
            "WK" => Ok(DatasetLabel::Wikipedia),
            "LJ" => Ok(DatasetLabel::LiveJournal),
            other => {
                if let Some(scale) = other.strip_prefix('R') {
                    if let Ok(scale) = scale.parse::<u32>() {
                        return Ok(DatasetLabel::Rmat(scale));
                    }
                }
                Err(GraphError::UnknownDataset {
                    label: other.to_string(),
                })
            }
        }
    }

    /// The four datasets of Figure 5 (AZ, WK, LJ, R22).
    pub fn figure5_set() -> [DatasetLabel; 4] {
        [
            DatasetLabel::Amazon,
            DatasetLabel::Wikipedia,
            DatasetLabel::LiveJournal,
            DatasetLabel::Rmat(22),
        ]
    }

    /// The four RMAT datasets of Figure 6 (R16, R22, R25, R26).
    pub fn figure6_set() -> [DatasetLabel; 4] {
        [
            DatasetLabel::Rmat(16),
            DatasetLabel::Rmat(22),
            DatasetLabel::Rmat(25),
            DatasetLabel::Rmat(26),
        ]
    }
}

/// Catalog that instantiates labelled datasets at a chosen reproduction
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetCatalog {
    /// How many powers of two to subtract from each dataset's original
    /// vertex-count exponent. Zero reproduces the paper's sizes.
    scale_shift: u32,
}

/// The generator seed every catalog dataset derives its own seed from.
const SEED: u64 = 0xDA10;

impl Default for DatasetCatalog {
    fn default() -> Self {
        DatasetCatalog::new()
    }
}

impl DatasetCatalog {
    /// Default catalog: datasets are reduced by 2^10 (1024x fewer vertices)
    /// so that the whole figure suite runs on one machine. The degree
    /// structure and generator parameters are unchanged.
    pub fn new() -> Self {
        DatasetCatalog { scale_shift: 10 }
    }

    /// Catalog at the paper's original sizes (use with care: RMAT-26 needs
    /// roughly 12 GB for the dataset alone).
    pub fn full_scale() -> Self {
        DatasetCatalog { scale_shift: 0 }
    }

    /// Overrides the scale shift: generated vertex counts are the original
    /// exponent minus `shift`, floored at 2^6 vertices.
    pub fn with_scale_shift(mut self, shift: u32) -> Self {
        self.scale_shift = shift;
        self
    }

    /// The RMAT scale (log2 vertex count) this catalog will use for a label.
    pub fn effective_scale(&self, label: DatasetLabel) -> u32 {
        let original = match label {
            DatasetLabel::Amazon => 18,      // ~262K vertices
            DatasetLabel::Wikipedia => 22,   // ~4.2M vertices
            DatasetLabel::LiveJournal => 22, // ~5.3M vertices (round down to 2^22)
            DatasetLabel::Rmat(scale) => scale,
        };
        original.saturating_sub(self.scale_shift).max(6)
    }

    /// Builds the dataset for `label` at this catalog's scale.
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors.
    pub fn build(&self, label: DatasetLabel) -> Result<CsrGraph, GraphError> {
        let scale = self.effective_scale(label);
        let num_vertices = 1usize << scale;
        match label {
            DatasetLabel::Amazon => RealWorldDataset::Amazon
                .config(num_vertices)
                .seed(SEED)
                .build(),
            DatasetLabel::Wikipedia => RealWorldDataset::Wikipedia
                .config(num_vertices)
                .seed(SEED.wrapping_add(1))
                .build(),
            DatasetLabel::LiveJournal => RealWorldDataset::LiveJournal
                .config(num_vertices)
                .seed(SEED.wrapping_add(2))
                .build(),
            DatasetLabel::Rmat(_) => RmatConfig::new(scale, 10)
                .seed(SEED.wrapping_add(3))
                .build(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_strings() {
        for label in [
            DatasetLabel::Amazon,
            DatasetLabel::Wikipedia,
            DatasetLabel::LiveJournal,
            DatasetLabel::Rmat(22),
        ] {
            assert_eq!(DatasetLabel::parse(&label.as_str()).unwrap(), label);
        }
        assert!(DatasetLabel::parse("nope").is_err());
        assert!(DatasetLabel::parse("Rxy").is_err());
    }

    #[test]
    fn figure_sets_match_paper() {
        let f5: Vec<String> = DatasetLabel::figure5_set()
            .iter()
            .map(|l| l.as_str())
            .collect();
        assert_eq!(f5, ["AZ", "WK", "LJ", "R22"]);
        let f6: Vec<String> = DatasetLabel::figure6_set()
            .iter()
            .map(|l| l.as_str())
            .collect();
        assert_eq!(f6, ["R16", "R22", "R25", "R26"]);
    }

    #[test]
    fn catalog_reduces_scale_but_keeps_ordering() {
        let catalog = DatasetCatalog::new();
        // Wikipedia/LiveJournal are larger than Amazon in the original and
        // must stay larger after scaling.
        assert!(
            catalog.effective_scale(DatasetLabel::Wikipedia)
                >= catalog.effective_scale(DatasetLabel::Amazon)
        );
        // The reduced RMAT-26 must be larger than the reduced RMAT-22.
        assert!(
            catalog.effective_scale(DatasetLabel::Rmat(26))
                > catalog.effective_scale(DatasetLabel::Rmat(22))
        );
    }

    #[test]
    fn catalog_builds_small_datasets() {
        let catalog = DatasetCatalog::new().with_scale_shift(14);
        for label in DatasetLabel::figure5_set() {
            let graph = catalog.build(label).unwrap();
            assert!(graph.num_vertices() >= 64);
            assert!(graph.num_edges() > 0, "{} has no edges", label.as_str());
        }
    }

    #[test]
    fn scale_shift_floors_at_64_vertices() {
        let catalog = DatasetCatalog::new().with_scale_shift(30);
        assert_eq!(catalog.effective_scale(DatasetLabel::Rmat(16)), 6);
    }

    #[test]
    fn full_scale_catalog_matches_paper_exponents() {
        let catalog = DatasetCatalog::full_scale();
        assert_eq!(catalog.effective_scale(DatasetLabel::Rmat(26)), 26);
        assert_eq!(catalog.effective_scale(DatasetLabel::Wikipedia), 22);
    }
}
