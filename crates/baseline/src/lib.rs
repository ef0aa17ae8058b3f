//! Baseline models and the Figure-5 ablation ladder for the Dalorex
//! reproduction.
//!
//! The paper's headline comparison (Section V-A, Figure 5) pits Dalorex
//! against Tesseract, the processing-in-memory graph accelerator built on
//! Hybrid Memory Cubes, with both systems using 256 cores.  It then climbs
//! an ablation ladder from Tesseract to full Dalorex, enabling one
//! optimization at a time.  This crate provides:
//!
//! * [`workload`] — the workload descriptions shared by the baseline and
//!   the ablation runner (BFS, SSSP, PageRank, WCC, SPMV).
//! * [`tesseract`] — a first-order performance and energy model of
//!   Tesseract: one in-order core per HMC vault, vertex-centric data
//!   placement, interrupting remote vertex updates, per-epoch barriers,
//!   DRAM access plus refresh/background energy, and the `Tesseract-LC`
//!   variant with large per-core SRAM caches.  The paper simulated
//!   Tesseract on zsim; `DESIGN.md` §3 documents why this first-order model
//!   preserves the effects the comparison depends on.
//! * [`ablation`] — the eight-rung ladder of Figure 5 (`Tesseract`,
//!   `Tesseract-LC`, `Data-Local`, `Basic-TSU`, `Uniform-Distr`,
//!   `Traffic-Aware`, `Torus-NoC`, `Dalorex`), mapping each rung either to
//!   the Tesseract model or to a `dalorex-sim` configuration, and a runner
//!   that produces comparable cycle and energy numbers.
//! * [`roofline`] — the DRAM-bandwidth roofline used in Section IV-B to
//!   explain why accelerators such as Polygraph stop scaling once they
//!   saturate HBM, while Dalorex's aggregate SRAM bandwidth keeps growing
//!   with the tile count.
//!
//! # Place in the workspace
//!
//! `dalorex-baseline` sits between the simulator and the figure harness:
//! it consumes graphs from `dalorex-graph`, drives `dalorex-sim` (through
//! the per-rung configurations in [`ablation`]) and is consumed by
//! `dalorex-bench`, whose `fig05_ablation` binary regenerates the Figure 5
//! ladder.  The README's "Architecture tour" section diagrams the full
//! crate graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod roofline;
pub mod tesseract;
pub mod workload;

pub use ablation::{AblationOutcome, AblationRung};
pub use tesseract::{TesseractConfig, TesseractModel, TesseractOutcome};
pub use workload::Workload;
