//! Static verification of every shipped kernel: runs the `dalorex-verify`
//! pass pipeline ([`dalorex_sim::verify`]) over each workload's task graph
//! and prints the diagnostic table — no simulation, no dataset, no cycles.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --bin verify_kernels -- [--csv] [--verify <off|warn|deny>]
//! ```
//!
//! Under `--verify deny` (what CI runs) any error-severity finding on any
//! shipped kernel exits 1 after the full table has printed, so one broken
//! kernel does not hide another's findings.  `--verify off` restricts the
//! table to structural findings, mirroring what a run under that mode
//! would enforce.  Every diagnostic is also listed, one per line, under
//! the summary table.

use dalorex_baseline::Workload;
use dalorex_bench::cli::{CommonFlag, FigureCli};
use dalorex_bench::report::Table;
use dalorex_sim::verify::{verify_kernel, VerifyContext, VerifyMode};

fn main() {
    let cli = FigureCli::parse(&[]);
    // Static analysis only: no simulation for these flags to act on.
    cli.reject_unapplied(&[
        CommonFlag::Json,
        CommonFlag::MaxSide,
        CommonFlag::Drains,
        CommonFlag::Faults,
    ]);
    let ctx = VerifyContext::paper_default();

    let mut table = Table::new(vec![
        "kernel",
        "tasks",
        "channels",
        "errors",
        "warnings",
        "suppressed",
        "codes",
    ]);
    let mut failed = false;
    let mut details: Vec<String> = Vec::new();

    for workload in Workload::full_set() {
        let kernel = workload.kernel();
        let mut report = verify_kernel(kernel.as_ref(), &ctx);
        if cli.verify == VerifyMode::Off {
            report.diagnostics.retain(|d| d.structural);
        }
        let errors = report.errors().count();
        let warnings = report.warnings().count();
        if errors > 0 {
            failed = true;
        }
        let mut codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        codes.dedup();
        table.push_row(vec![
            workload.name().to_string(),
            kernel.tasks().len().to_string(),
            kernel.channels().len().to_string(),
            errors.to_string(),
            warnings.to_string(),
            report.suppressed.to_string(),
            if codes.is_empty() {
                "clean".to_string()
            } else {
                codes.join(" ")
            },
        ]);
        for diag in &report.diagnostics {
            details.push(format!("{}: {diag}", report.kernel));
        }
    }

    table.print("Static verification of shipped kernels", cli.csv);
    for line in &details {
        println!("{line}");
    }

    if failed && cli.verify == VerifyMode::Deny {
        eprintln!("verify_kernels: error-severity findings under --verify deny");
        std::process::exit(1);
    }
}
