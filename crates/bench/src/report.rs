//! Table, CSV and JSON reporting used by the figure binaries (their shared
//! command-line flags live in [`crate::cli`]).

/// A simple aligned-text table, printed like the rows of a paper figure.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header's.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, width)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}"));
            }
            out.push('\n');
        };
        render(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render(row, &widths, &mut out);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table as aligned text, or as CSV when `csv` is set (the
    /// figure binaries pass [`crate::cli::FigureCli`]'s parsed `--csv`
    /// flag, the single source of truth for the format).
    pub fn print(&self, title: &str, csv: bool) {
        println!("# {title}");
        if csv {
            print!("{}", self.to_csv());
        } else {
            print!("{}", self.to_text());
        }
        println!();
    }
}

/// The memory-report columns a figure row may carry, mirroring the
/// subsystem lines of [`dalorex_sim::MemoryReport`] (the physical lines
/// only — the calendar line is simulator bookkeeping, not modeled
/// hardware, so it stays out of the figure schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryColumns {
    /// Total modeled bytes across every subsystem line.
    pub modeled_bytes: usize,
    /// The distributed CSR chunks.
    pub csr_bytes: usize,
    /// Per-tile arena slabs, summed over every tile of the grid.
    pub tile_arena_bytes: usize,
    /// Total tiles in the grid.
    pub total_tiles: usize,
    /// Router port + ejection buffers across the fabric.
    pub noc_buffer_bytes: usize,
}

impl MemoryColumns {
    /// Extracts the figure columns from a run's memory report.
    pub fn from_report(report: &dalorex_sim::MemoryReport) -> Self {
        MemoryColumns {
            modeled_bytes: report.modeled_total_bytes(),
            csr_bytes: report.csr_bytes,
            tile_arena_bytes: report.tile_arena_bytes,
            total_tiles: report.total_tiles,
            noc_buffer_bytes: report.noc_buffer_bytes,
        }
    }
}

/// The work columns a figure row may carry: how much per-cycle work the
/// run's router walk and tile loop actually did.  These are
/// simulator-efficiency counters — the modeled schedule is identical
/// across schedulers — so the BENCH series can show the calendar engine's
/// cost (and catch a regression) without touching the figure numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkColumns {
    /// Stamped routers the calendar walk examined, summed over all cycles
    /// (0 under the reference scheduler, which counts no walk work).
    pub routers_visited: u64,
    /// Routers the walk actually port-scanned; the gap to
    /// `routers_visited` is the stamped routers not yet due.
    pub routers_scanned: u64,
    /// Cycles in which the calendar walk scanned no router.
    pub walks_elided: u64,
    /// Port scans that committed no forward.
    pub idle_scans: u64,
    /// The engine's tile-side work: tiles visited, tile cycles run and
    /// injection attempts.
    pub work: dalorex_sim::WorkCounters,
}

impl WalkColumns {
    /// Extracts the work columns from a run's outcome.
    pub fn from_outcome(outcome: &dalorex_sim::SimOutcome) -> Self {
        let stats = &outcome.stats.noc;
        WalkColumns {
            routers_visited: stats.walk_routers_visited,
            routers_scanned: stats.walk_routers_scanned,
            walks_elided: stats.walks_elided,
            idle_scans: stats.walk_idle_scans,
            work: outcome.work,
        }
    }
}

/// One measured cell of a figure, serializable for downstream plotting.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Which figure or table this belongs to ("fig5-perf", "fig6", ...).
    pub experiment: String,
    /// Workload name.
    pub workload: String,
    /// Dataset label.
    pub dataset: String,
    /// Configuration label (ablation rung, topology, grid size, ...).
    pub configuration: String,
    /// Runtime in cycles.
    pub cycles: u64,
    /// Energy in Joules.
    pub energy_j: f64,
    /// Figure-specific value (speedup, edges/s, percentage, ...), if any.
    pub value: f64,
    /// Endpoint bandwidth the run used (messages drained/injected per tile
    /// per cycle); 1 is the paper's single-local-port tile.
    pub endpoint_drains: usize,
    /// Injection attempts the NoC rejected with back-pressure during the
    /// run (total across tiles).
    pub rejected_injections: u64,
    /// Modeled memory footprint of the run, when the producing binary
    /// reports one (`None` for analytical baselines and figures that
    /// aggregate across runs).
    pub memory: Option<MemoryColumns>,
    /// Peak resident-set size of the measuring *process* when the row was
    /// taken (the VmHWM high-water mark, so it only ever grows across a
    /// run's rows).  `perf_snapshot` reports it next to `modeled_bytes` to
    /// catch the simulator's own footprint regressing; the figure binaries
    /// leave it `None`.
    pub peak_rss_bytes: Option<usize>,
    /// The host's available parallelism (its core count) when the row was
    /// taken.  `perf_snapshot` fills it so that every `BENCH_<n>.json` row
    /// names the host it measured; the figure binaries leave it `None`.
    pub host_parallelism: Option<usize>,
    /// Walk-efficiency counters of the run's router scheduler, when the
    /// producing binary reports them (`None` for analytical baselines and
    /// aggregated rows).
    pub walk: Option<WalkColumns>,
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as JSON (finite values only; NaN/inf become null).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, keeping the output valid JSON numbers.
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

impl Measurement {
    /// Serializes this measurement as a JSON object.
    ///
    /// The environment this reproduction builds in has no registry access,
    /// so the serialization is hand-rolled rather than pulled from serde;
    /// the output is plain JSON consumable by any plotting pipeline.
    pub fn to_json(&self) -> String {
        let memory = match &self.memory {
            Some(m) => format!(
                concat!(
                    ",\"memory\":{{\"modeled_bytes\":{},\"csr_bytes\":{},",
                    "\"tile_arena_bytes\":{},\"total_tiles\":{},",
                    "\"noc_buffer_bytes\":{}}}"
                ),
                m.modeled_bytes, m.csr_bytes, m.tile_arena_bytes, m.total_tiles, m.noc_buffer_bytes,
            ),
            None => String::new(),
        };
        let peak_rss = match self.peak_rss_bytes {
            Some(bytes) => format!(",\"peak_rss_bytes\":{bytes}"),
            None => String::new(),
        };
        let host = match self.host_parallelism {
            Some(cores) => format!(",\"host_parallelism\":{cores}"),
            None => String::new(),
        };
        let walk = match &self.walk {
            Some(w) => format!(
                concat!(
                    ",\"walk\":{{\"routers_visited\":{},",
                    "\"routers_scanned\":{},\"walks_elided\":{},\"idle_scans\":{}}}",
                    ",\"work\":{{\"tile_visits\":{},\"tile_cycles_run\":{},",
                    "\"injection_attempts\":{}}}"
                ),
                w.routers_visited,
                w.routers_scanned,
                w.walks_elided,
                w.idle_scans,
                w.work.tile_visits,
                w.work.tile_cycles_run,
                w.work.injection_attempts,
            ),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"experiment\":\"{}\",\"workload\":\"{}\",\"dataset\":\"{}\",",
                "\"configuration\":\"{}\",\"cycles\":{},\"energy_j\":{},\"value\":{},",
                "\"endpoint_drains\":{},\"rejected_injections\":{}{}{}{}{}}}"
            ),
            json_escape(&self.experiment),
            json_escape(&self.workload),
            json_escape(&self.dataset),
            json_escape(&self.configuration),
            self.cycles,
            json_f64(self.energy_j),
            json_f64(self.value),
            self.endpoint_drains,
            self.rejected_injections,
            memory,
            peak_rss,
            host,
            walk,
        )
    }
}

/// Renders measurements as a pretty-printed JSON array.
pub fn to_json_array(measurements: &[Measurement]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&m.to_json());
        if i + 1 < measurements.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Writes measurements as a JSON array to `path` (the destination of the
/// figure binaries' `--json <path>` flag; see
/// [`crate::cli::FigureCli::write_json_if_requested`]).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_json(
    path: &str,
    measurements: &[Measurement],
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::write(path, to_json_array(measurements))?;
    Ok(())
}

/// Formats a ratio the way the paper quotes factors ("6.2x").
pub fn format_factor(factor: f64) -> String {
    if factor >= 100.0 {
        format!("{factor:.0}x")
    } else {
        format!("{factor:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text_and_csv() {
        let mut table = Table::new(vec!["config", "cycles"]);
        table.push_row(vec!["Tesseract".to_string(), "100".to_string()]);
        table.push_row(vec!["Dalorex".to_string(), "5".to_string()]);
        let text = table.to_text();
        assert!(text.contains("Tesseract"));
        assert!(text.lines().count() >= 4);
        let csv = table.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "config,cycles");
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut table = Table::new(vec!["a", "b"]);
        table.push_row(vec!["only one"]);
    }

    #[test]
    fn factors_format_like_the_paper() {
        assert_eq!(format_factor(6.23), "6.2x");
        assert_eq!(format_factor(221.4), "221x");
    }

    #[test]
    fn measurements_serialize() {
        let m = Measurement {
            experiment: "fig5-perf".into(),
            workload: "BFS".into(),
            dataset: "R22".into(),
            configuration: "Dalorex".into(),
            cycles: 123,
            energy_j: 0.5,
            value: 221.0,
            endpoint_drains: 2,
            rejected_injections: 17,
            memory: Some(MemoryColumns {
                modeled_bytes: 1000,
                csr_bytes: 600,
                tile_arena_bytes: 300,
                total_tiles: 16,
                noc_buffer_bytes: 100,
            }),
            peak_rss_bytes: Some(4096),
            host_parallelism: Some(2),
            walk: Some(WalkColumns {
                routers_visited: 500,
                routers_scanned: 40,
                walks_elided: 9,
                idle_scans: 6,
                work: dalorex_sim::WorkCounters {
                    tile_visits: 300,
                    tile_cycles_run: 120,
                    injection_attempts: 80,
                },
            }),
        };
        let json = m.to_json();
        assert!(json.contains("fig5-perf"));
        assert!(json.contains("\"cycles\":123"));
        assert!(json.contains("\"energy_j\":0.5"));
        assert!(json.contains("\"endpoint_drains\":2"));
        assert!(json.contains("\"rejected_injections\":17"));
        assert!(json.contains("\"memory\":{\"modeled_bytes\":1000"));
        assert!(json.contains("\"tile_arena_bytes\":300,\"total_tiles\":16,"));
        assert!(json.contains("\"peak_rss_bytes\":4096,\"host_parallelism\":2,"));
        assert!(json.contains("\"walk\":{\"routers_visited\":500"));
        assert!(json.contains("\"walks_elided\":9,\"idle_scans\":6}"));
        assert!(json.contains(
            "\"work\":{\"tile_visits\":300,\"tile_cycles_run\":120,\"injection_attempts\":80}"
        ));
        let array = to_json_array(&[m.clone(), m]);
        assert!(array.starts_with('['));
        assert!(array.ends_with(']'));
        assert_eq!(array.matches("fig5-perf").count(), 2);
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        let m = Measurement {
            experiment: "quote\"back\\slash\nnewline".into(),
            workload: "W".into(),
            dataset: "D".into(),
            configuration: "C".into(),
            cycles: 1,
            energy_j: f64::NAN,
            value: 1.0,
            endpoint_drains: 1,
            rejected_injections: 0,
            memory: None,
            peak_rss_bytes: None,
            host_parallelism: None,
            walk: None,
        };
        let json = m.to_json();
        assert!(json.contains("quote\\\"back\\\\slash\\nnewline"));
        assert!(json.contains("\"energy_j\":null"));
        assert!(!json.contains("\"memory\""), "absent report emits no key");
        assert!(!json.contains("peak_rss"), "absent RSS emits no key");
        assert!(
            !json.contains("host_parallelism"),
            "absent host emits no key"
        );
        assert!(!json.contains("\"walk\""), "absent walk emits no key");
        assert!(!json.contains("\"work\""), "absent walk emits no work key");
    }
}
