//! Benchmark harness for the Dalorex reproduction.
//!
//! Every table and figure of the paper's evaluation (Section V) has a
//! regeneration target in this crate:
//!
//! | Paper artefact | Binary (`cargo run -p dalorex-bench --release --bin …`) |
//! |---|---|
//! | Figure 5 (performance & energy vs. Tesseract, ablation ladder) + the Section V-A geomean factors | `fig05_ablation` |
//! | Figure 6 (BFS strong scaling: runtime and energy vs. core count) + the Section V-B knee points | `fig06_scaling` |
//! | Figure 7 (throughput and memory bandwidth vs. grid size) | `fig07_throughput` |
//! | Figure 8 (mesh vs. torus vs. torus-ruche speedups) | `fig08_noc` |
//! | Figure 9 (energy breakdown: logic / memory / network) | `fig09_energy_breakdown` |
//! | Figure 10 (PU and router utilization heatmaps) | `fig10_heatmaps` |
//! | Section V-A area / power-density claims | `area_report` |
//!
//! All binaries print aligned tables (and `--csv` prints machine-readable
//! CSV; `--json <path>` writes the underlying [`report::Measurement`]s).
//! By default they run at a reduced *reproduction scale* so the whole
//! suite completes on a laptop; set `DALOREX_SCALE_SHIFT` (smaller shift =
//! bigger graphs, 0 = the paper's original sizes) and `DALOREX_MAX_SIDE`
//! to push the experiments toward the paper's scale.  The scaling figures
//! (`fig06_scaling`, `fig07_throughput`) additionally accept
//! `--max-side <n>` (reach the paper's 32x32 / 64x64 grids in one
//! invocation) and `--drains <a,b,...>` (sweep the endpoint bandwidth,
//! messages per tile per cycle); the drain budget and the NoC's
//! injection-rejection count are emitted into the JSON report.  Every
//! binary runs the production calendar engine.  `docs/FIGURES.md` maps
//! every binary to its paper figure, flags and output shape.
//!
//! The crate itself is thin: [`cli`] owns the shared flag parsing,
//! [`datasets`] builds the catalogued graphs at reproduction scale,
//! [`runner`] configures and runs one simulation per figure cell, and
//! [`report`] renders tables/CSV/JSON.
//!
//! Simulator speed is measured by the `perf_snapshot` binary and by the
//! repository's `benchmark/` package, which runs the calendar engine end
//! to end and reports per-layer timings; `docs/FIGURES.md` says how to
//! compare two builds with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod datasets;
pub mod report;
pub mod runner;
