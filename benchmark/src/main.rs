//! Benchmark of the Dalorex simulator on three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! It repeats the workload, each time set-up, simulation and check, for
//! about `--seconds` seconds.  It reports medians over those repetitions
//! and checks every output.  With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it then runs once more under the span recorder
//! and reports the per-layer metrics.  The last line of standard output is
//! one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! The exit code is 1 if any operation failed, 2 on a usage or set-up
//! error.
//!
//! Workloads:
//! * `noc-convergecast-t16384`: a 128x128 torus drained of a hotspot wave,
//!   driven through `Network` directly;
//! * `sssp-rmat14-t4096`: SSSP on RMAT-14, 64x64 ruche torus;
//! * `pagerank-rmat13-t1024-faults`: 10 PageRank epochs on RMAT-13, 32x32
//!   torus, under a seeded random fault plan.
//!
//! `BENCHMARK.json` lists the last two, the ones measured on every change,
//! and why each was chosen.  The wave is run by hand: its host speed swings
//! too far between runs for the bound a routine comparison needs (see
//! `README.md`).
//!
//! `--seed` changes the RMAT seed and the fault-plan seed; seed 0 is RMAT
//! seed 11 and plan seed 7.  On W1 it changes only payload bits.

mod graphs;
mod trace;
mod wave;

use dalorex_noc::NocStats;
use graphs::{GraphSpec, KernelKind};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics, reported with `--trace 0`: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("modelled_cycles", "cycles"),
    ("modelled_energy_uj", "uJ"),
];

/// Per-task invocation counters, indexed by the kernel's task id (both
/// kernels declare three tasks).
pub const TASK_METRICS: [&str; 3] = [
    "kernels.task0.invocations",
    "kernels.task1.invocations",
    "kernels.task2.invocations",
];

/// The per-layer metrics, reported with `--trace 1`: name and unit.  A
/// layer a workload does not call into reads 0 (e.g. `graph.*` on W1, the
/// outside-timed `noc.*` host times on W2/W3).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("graph.build_s", "s"),
    ("graph.self_s", "s"),
    ("graph.edges", "count"),
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.ns_per_tile_cycle", "ns"),
    ("sim.ns_per_invocation", "ns"),
    ("sim.task_invocations", "count"),
    ("sim.messages_sent", "count"),
    ("sim.messages_received", "count"),
    ("sim.edges_processed", "count"),
    ("sim.epochs", "count"),
    ("sim.pu_utilization", "ratio"),
    ("sim.sram_accesses", "count"),
    ("sim.mem.modeled_bytes", "bytes"),
    ("sim.mem.tile_arena_bytes", "bytes"),
    ("sim.mem.materialized_tiles", "count"),
    ("sim.mem.noc_buffer_bytes", "bytes"),
    ("sim.mem.calendar_bytes", "bytes"),
    ("sim.fault.events", "count"),
    ("sim.fault.delayed_cycles", "cycles"),
    ("noc.new_s", "s"),
    ("noc.inject_s", "s"),
    ("noc.cycle_s", "s"),
    ("noc.drain_s", "s"),
    ("noc.self_s", "s"),
    ("noc.ns_per_router_scan", "ns"),
    ("noc.cycle_calls", "count"),
    ("noc.cycle_call_ns.p50", "ns"),
    ("noc.cycle_call_ns.p99.99", "ns"),
    ("noc.routers_visited", "count"),
    ("noc.routers_scanned", "count"),
    ("noc.walks_elided", "count"),
    ("noc.scan_ratio", "ratio"),
    ("noc.memory_bytes", "bytes"),
    ("noc.flit_hops", "count"),
    ("noc.delivered_messages", "count"),
    ("noc.injection_rejections", "count"),
    ("noc.rejections_per_injection", "ratio"),
    ("noc.avg_latency_cycles", "cycles"),
    (TASK_METRICS[0], "count"),
    (TASK_METRICS[1], "count"),
    (TASK_METRICS[2], "count"),
    ("bench.check_s", "s"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// Per-tile scratchpad of every workload.  W2/W3 configure the simulator
/// with it; W1's energy model derives the tile pitch from it.
pub const SCRATCHPAD_BYTES: usize = 1 << 20;

/// Set-ups timed and dropped before each repetition, so that `setup_s` is a
/// median over many samples spread across the run.
const EXTRA_SETUPS_PER_REP: usize = 3;

/// The result of one repetition of a workload.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub cycles: u64,
    pub tiles: usize,
    pub energy_uj: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic per-layer counters, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Rep {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }

    /// The network's work and modelled counters.
    pub fn noc_counters(&mut self, stats: &NocStats) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let rejections = stats.total_injection_rejections();
        self.set("noc.routers_visited", stats.walk_routers_visited as f64);
        self.set("noc.routers_scanned", stats.walk_routers_scanned as f64);
        self.set("noc.walks_elided", stats.walks_elided as f64);
        self.set(
            "noc.scan_ratio",
            ratio(stats.walk_routers_scanned, stats.walk_routers_visited),
        );
        self.set("noc.flit_hops", stats.flit_hops as f64);
        self.set("noc.delivered_messages", stats.delivered_messages as f64);
        self.set("noc.injection_rejections", rejections as f64);
        self.set(
            "noc.rejections_per_injection",
            ratio(rejections, stats.injected_messages),
        );
        self.set("noc.avg_latency_cycles", stats.average_latency());
    }

    fn cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.run_s
    }
}

/// Problem sizes: the benchmark's, or the toy sizes of the self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// Every workload the command runs; `BENCHMARK.json` lists the last two.
pub const WORKLOADS: [&str; 3] = [
    "noc-convergecast-t16384",
    "sssp-rmat14-t4096",
    "pagerank-rmat13-t1024-faults",
];

enum Workload {
    Wave { side: usize },
    Graph(GraphSpec),
}

impl Workload {
    fn new(name: &str, scale: Scale) -> Option<Workload> {
        let toy = scale == Scale::Toy;
        let workload = match name {
            "noc-convergecast-t16384" => Workload::Wave {
                side: if toy { 8 } else { 128 },
            },
            "sssp-rmat14-t4096" => Workload::Graph(GraphSpec {
                kernel: KernelKind::Sssp,
                rmat_scale: if toy { 8 } else { 14 },
                side: if toy { 4 } else { 64 },
                faults: None,
            }),
            "pagerank-rmat13-t1024-faults" => Workload::Graph(GraphSpec {
                kernel: KernelKind::PageRank,
                rmat_scale: if toy { 8 } else { 13 },
                side: if toy { 4 } else { 32 },
                faults: Some(if toy { (4, 4_000) } else { (16, 90_000) }),
            }),
            _ => return None,
        };
        Some(workload)
    }

    fn rep(&self, seed: u64, probe: &mut impl trace::Probe) -> Result<Rep, String> {
        match self {
            Workload::Wave { side } => Ok(wave::rep(*side, seed, probe)),
            Workload::Graph(spec) => spec.rep(seed, probe),
        }
    }

    /// Times one set-up and drops what it built.
    fn setup_s(&self, seed: u64) -> Result<f64, String> {
        let started = Instant::now();
        match self {
            Workload::Wave { side } => drop(wave::setup(*side, seed, &mut ())),
            Workload::Graph(spec) => drop(spec.setup(seed, &mut ())?),
        }
        Ok(started.elapsed().as_secs_f64())
    }
}

/// Untraced rounds for about `seconds`.  A new round starts while it is
/// expected to end at most half a round past the budget, so a run measures
/// close to `seconds` however long a round takes; there is always at least
/// one.  Returns the repetitions and every set-up time taken.
fn measure(workload: &Workload, seed: u64, seconds: f64) -> Result<(Vec<Rep>, Vec<f64>), String> {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    loop {
        for _ in 0..EXTRA_SETUPS_PER_REP {
            setups.push(workload.setup_s(seed)?);
        }
        let rep = workload.rep(seed, &mut ())?;
        setups.push(rep.setup_s);
        reps.push(rep);
        let elapsed = started.elapsed().as_secs_f64();
        let round = elapsed / reps.len() as f64;
        if elapsed + round / 2.0 > seconds {
            return Ok((reps, setups));
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of already sorted values.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// What one invocation reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The spans of the traced repetition, if there was one.
    pub spans: Option<Tracer>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one invocation of the benchmark.
pub fn run(
    name: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    let workload = Workload::new(name, scale).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {}",
            WORKLOADS.join(", ")
        )
    })?;
    let (reps, setups) = measure(&workload, seed, seconds)?;
    let first = &reps[0];
    // The simulator is deterministic: every repetition must model the same
    // run, or the outputs cannot be trusted.
    let deterministic = reps.iter().all(|r| {
        r.cycles == first.cycles && r.energy_uj == first.energy_uj && r.counters == first.counters
    });
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    let cycles_per_s: Vec<f64> = reps.iter().map(Rep::cycles_per_s).collect();
    let untraced_cycles_per_s = median(&cycles_per_s);
    eprintln!(
        "{name}: seed {seed}, {} repetitions, {} set-ups, cycles/s {cycles_per_s:?}",
        reps.len(),
        setups.len()
    );

    let (metrics, spans) = if !traced {
        let values = [
            untraced_cycles_per_s,
            median(&setups),
            peak_rss_mb(),
            first.cycles as f64,
            first.energy_uj,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect();
        (metrics, None)
    } else {
        let mut tracer = Tracer::new();
        tracer.enter("bench.workload");
        let rep = workload.rep(seed, &mut tracer)?;
        tracer.exit();
        attempted += rep.attempted;
        failed += rep.failed;
        (
            per_layer(&rep, &tracer, untraced_cycles_per_s),
            Some(tracer),
        )
    };
    Ok(Report {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        metrics,
        spans,
    })
}

/// The per-layer metrics of the traced repetition `rep`.
fn per_layer(
    rep: &Rep,
    tracer: &Tracer,
    untraced_cycles_per_s: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut values = rep.counters.clone();
    let mut cycle_ns: Vec<u64> = tracer.durations_ns("noc.cycle").collect();
    cycle_ns.sort_unstable();
    let noc_cycle_s = tracer.total_s("noc.cycle");
    let scanned = values.get("noc.routers_scanned").copied().unwrap_or(0.0);
    let sim_run_s = tracer.total_s("sim.run");
    for (name, value) in [
        ("graph.build_s", tracer.total_s("graph.build")),
        ("sim.new_s", tracer.total_s("sim.new")),
        ("sim.run_s", sim_run_s),
        ("noc.new_s", tracer.total_s("noc.new")),
        ("noc.inject_s", tracer.total_s("noc.try_inject")),
        ("noc.cycle_s", noc_cycle_s),
        ("noc.drain_s", tracer.total_s("noc.pop_delivered")),
        ("noc.cycle_calls", cycle_ns.len() as f64),
        ("noc.cycle_call_ns.p50", percentile(&cycle_ns, 50.0)),
        ("noc.cycle_call_ns.p99.99", percentile(&cycle_ns, 99.99)),
        ("bench.check_s", tracer.total_s("bench.check")),
        (
            "bench.trace_overhead",
            untraced_cycles_per_s / rep.cycles_per_s() - 1.0,
        ),
    ] {
        values.insert(name, value);
    }
    if !cycle_ns.is_empty() && scanned > 0.0 {
        values.insert("noc.ns_per_router_scan", noc_cycle_s * 1e9 / scanned);
    }
    let invocations = values.get("sim.task_invocations").copied().unwrap_or(0.0);
    if sim_run_s > 0.0 && invocations > 0.0 {
        let tile_cycles = rep.cycles as f64 * rep.tiles as f64;
        values.insert("sim.ns_per_tile_cycle", sim_run_s * 1e9 / tile_cycles);
        values.insert("sim.ns_per_invocation", sim_run_s * 1e9 / invocations);
    }
    for (layer, self_s) in tracer.self_s_by_layer() {
        let name = match layer {
            "graph" => "graph.self_s",
            "sim" => "sim.self_s",
            "noc" => "noc.self_s",
            "bench" => "bench.self_s",
            _ => continue,
        };
        values.insert(name, self_s);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 60.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let report = run(
            &args.workload,
            Scale::Full,
            args.seed,
            args.seconds,
            args.trace,
        )?;
        Ok((args.workload, report))
    });
    match result {
        Ok((workload, report)) => {
            if let Some(spans) = &report.spans {
                let path = std::path::Path::new("bench-traces").join(format!("{workload}.csv"));
                match spans.write_csv(&path) {
                    Ok(()) => eprintln!("spans written to {}", path.display()),
                    Err(e) => eprintln!("could not write {}: {e}", path.display()),
                }
            }
            for (name, unit, value) in &report.metrics {
                eprintln!("{name:<32} {value:>16.6} {unit}");
            }
            eprintln!(
                "operations: {} attempted, {} failed",
                report.attempted, report.failed
            );
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, which lists
    /// one entry per line.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
            .collect()
    }

    fn pairs(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
        assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
        let json = include_str!("../../BENCHMARK.json");
        for name in WORKLOADS {
            let listed = json.contains(&format!("{{\"name\": \"{name}\""));
            assert_eq!(listed, name != WORKLOADS[0], "{name}");
        }
    }

    #[test]
    fn every_workload_emits_every_metric_with_its_unit_at_toy_size() {
        for name in WORKLOADS {
            for (traced, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                // Long enough for several repetitions, which must agree.
                let report = run(name, Scale::Toy, 1, 0.05, traced).expect("toy run");
                assert!(report.correct && report.failed == 0, "{name}");
                assert!(report.attempted > 0, "{name}");
                let emitted: Vec<(&str, &str)> =
                    report.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
                assert_eq!(emitted, catalogue, "{name}");
                assert!(report.metrics.iter().all(|m| m.2.is_finite()), "{name}");
                let json = report.to_json();
                for (metric, unit) in catalogue {
                    assert!(
                        json.contains(&format!("\"{metric}\": {{\"value\": "))
                            && json.contains(&format!("\"unit\": \"{unit}\"")),
                        "{name}: {metric}"
                    );
                }
                if !traced {
                    // End-to-end metrics are never 0.
                    assert!(report.metrics.iter().all(|m| m.2 > 0.0), "{name}");
                }
            }
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.99), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
