//! Shared command-line parsing for the figure binaries.
//!
//! Every `fig*` binary takes the same hand-rolled flags; this module owns
//! them in one place so a new knob (like `--faults`) lands everywhere at
//! once:
//!
//! * `--csv` — print tables as CSV instead of aligned text.
//! * `--json <path>` — persist the run's [`crate::report::Measurement`]s.
//! * `--max-side <n>` — cap of the grid sweep (overrides
//!   `DALOREX_MAX_SIDE`).
//! * `--drains <a,b,...>` — endpoint-bandwidth sweep (messages per tile
//!   per cycle).
//! * `--faults <plan-file|spec>` — a deterministic fault plan every run is
//!   driven under.  The value is tried as a file path first (a plan file
//!   in the [`dalorex_sim::FaultPlan`] spec syntax, `#` comments and
//!   newlines allowed) and falls back to an inline `;`-separated spec
//!   (`"stall:tile=3,start=50,end=400;random:seed=7,count=4,horizon=2000"`).
//!   The `DALOREX_FAULTS` environment variable supplies a default when the
//!   flag is absent — handy for switching a whole figure pipeline without
//!   editing every invocation — and the flag wins when both are given.
//! * `--verify <off|warn|deny>` — how the static task-graph verifier
//!   ([`dalorex_sim::verify`]) treats its findings when each run is built:
//!   `warn` (the default) prints them, `deny` makes any error-severity
//!   finding fatal before the first simulated cycle, `off` skips the
//!   analysis passes.  The `DALOREX_VERIFY` environment variable supplies
//!   a default exactly like `DALOREX_FAULTS`, and the flag wins.
//!
//! Every run drives the production calendar engine; the reference oracle
//! it is pinned against is reachable only from the equivalence tests.
//!
//! Parse once with [`FigureCli::parse`] at the top of `main`, naming the
//! binary's own switches (only `perf_snapshot` has one, `--full`), then
//! name the common flags the binary does not apply in
//! [`FigureCli::reject_unapplied`].
//!
//! # Error policy
//!
//! A malformed value for a flag that selects *what gets measured* aborts
//! with exit code 2 and a single diagnostic on stderr: silently measuring
//! the wrong configuration is exactly the mistake these flags exist to
//! avoid.  So does any argument that is not a common flag, the value
//! following one, or one of the binary's own switches: a typo or a
//! retired flag must not run the default configuration.  This covers
//! `--faults` (unreadable plan file, malformed spec,
//! bad env default), `--verify` (unknown mode, missing value, bad env
//! default), `--drains` (missing value or no valid entry) and
//! `--max-side` (missing, zero or non-numeric value).  Individually invalid `--drains` entries
//! alongside valid ones are dropped with a warning so a long sweep
//! survives one typo, but the run never proceeds on an empty sweep.  The
//! numeric reproduction-scale variables `DALOREX_SCALE_SHIFT`,
//! `DALOREX_MAX_SIDE` and `DALOREX_FIG5_SIDE` are read where they are used,
//! through [`env_number`], which exits 2 the same way on a malformed value
//! instead of silently running the default (a much larger or smaller
//! experiment than the one asked for).  As with `--faults`, a flag that
//! overrides a variable means the variable is never read.
//!
//! Every binary parses every common flag, so a binary that does not apply
//! one (an analytical table has no verifier, the ablation ladder no fault
//! plan) exits 2 when it is set to anything but its default rather than
//! printing a table that ignores it.  Once running, a figure cell whose
//! simulation fails goes through [`cell_outcome`]: a dataset too large
//! for the cell's scratchpad is skipped with a note, and any other error
//! exits 2 naming the cell, so a sweep never ends with a silently empty
//! table.

use dalorex_sim::{FaultPlan, SimError, VerifyMode};
use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

/// Default endpoint budget (messages drained/injected per tile per cycle)
/// for the figure binaries whose comparison must run *fabric-bound*:
/// `fig08_noc`, `fig09_energy_breakdown` and `fig10_heatmaps` all pass
/// `&[FABRIC_BOUND_DRAINS]` to [`FigureCli::drains_or`].  Two is the
/// smallest budget at which the dense runs stop being serialized by the
/// single local router port; retune it here, in one place, if larger
/// grids ever move the knee.
pub const FABRIC_BOUND_DRAINS: usize = 2;

/// A common flag, as named to [`FigureCli::reject_unapplied`] by a binary
/// that does not apply it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommonFlag {
    /// `--json`.
    Json,
    /// `--max-side`.
    MaxSide,
    /// `--drains`.
    Drains,
    /// `--faults` (or `DALOREX_FAULTS`).
    Faults,
    /// `--verify` (or `DALOREX_VERIFY`).
    Verify,
}

impl CommonFlag {
    /// Every common flag but `--csv`, which every binary applies.
    pub const ALL: [CommonFlag; 5] = [
        CommonFlag::Json,
        CommonFlag::MaxSide,
        CommonFlag::Drains,
        CommonFlag::Faults,
        CommonFlag::Verify,
    ];
}

/// The figure binaries' common command-line flags, parsed once.
#[derive(Debug, Clone)]
pub struct FigureCli {
    /// `--csv`: print CSV instead of aligned text.
    pub csv: bool,
    /// `--json <path>`: where to persist the measurements, if anywhere.
    pub json: Option<String>,
    /// `--max-side <n>`: sweep cap override, if given.
    pub max_side: Option<usize>,
    /// `--faults <plan-file|spec>` (or the `DALOREX_FAULTS` default): the
    /// fault plan every run is driven under (default empty — no faults).
    pub faults: FaultPlan,
    /// `--verify <off|warn|deny>` (or the `DALOREX_VERIFY` default): how
    /// strictly the static task-graph verifier treats its findings when
    /// each run is built (default [`VerifyMode::Warn`]).
    pub verify: VerifyMode,
    drains: Option<Vec<usize>>,
    /// The bare flags given: `--csv` and the binary's own switches.
    switches: Vec<&'static str>,
    started: Instant,
}

/// The common flags that take a value, in the order [`walk_args`] reports
/// them.
const VALUE_FLAGS: [&str; 5] = ["--json", "--max-side", "--drains", "--faults", "--verify"];

/// Outcome of looking a flag up in an argument list: distinguishes "the
/// user never mentioned the flag" from "the flag is there but the value
/// is not" so the two produce different diagnostics.
#[derive(Debug, PartialEq, Eq)]
enum FlagLookup {
    /// The flag does not appear.
    Absent,
    /// The flag appears with no usable value: bare at the end of the
    /// line, followed by another flag, or written `--flag=` with nothing
    /// after the `=`.
    ValueMissing,
    /// The flag appears with this value.
    Value(String),
}

impl FigureCli {
    /// Parses the common flags and the calling binary's own `switches`
    /// (bare flags, queried with [`FigureCli::switch`]) from the process
    /// arguments, with the `DALOREX_FAULTS` / `DALOREX_VERIFY` environment
    /// defaults.  See the module docs for the error policy; on a fatal
    /// parse error, an unknown argument included, the single diagnostic
    /// goes to stderr and the process exits with code 2.
    pub fn parse(switches: &[&'static str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let faults = std::env::var("DALOREX_FAULTS").ok();
        let verify = std::env::var("DALOREX_VERIFY").ok();
        match Self::parse_from(&args, switches, faults.as_deref(), verify.as_deref()) {
            Ok(cli) => cli,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`FigureCli::parse`]: pure over an argument
    /// slice (without the program name), the binary's switches and
    /// optional `DALOREX_FAULTS` / `DALOREX_VERIFY` values, returning the
    /// diagnostic instead of exiting.
    fn parse_from(
        args: &[String],
        switches: &[&'static str],
        env_faults: Option<&str>,
        env_verify: Option<&str>,
    ) -> Result<Self, String> {
        let ([json, max_side, drains, faults, verify], given) = walk_args(args, switches)?;
        let faults = match faults {
            FlagLookup::Value(value) => faults_value_to_plan(&value)?,
            FlagLookup::ValueMissing => return Err(faults_value_missing()),
            FlagLookup::Absent => match env_faults {
                Some(value) => {
                    faults_value_to_plan(value).map_err(|err| format!("DALOREX_FAULTS: {err}"))?
                }
                None => FaultPlan::empty(),
            },
        };
        let verify = match verify {
            FlagLookup::Value(mode) => mode.parse::<VerifyMode>()?,
            FlagLookup::ValueMissing => return Err(verify_value_missing()),
            FlagLookup::Absent => match env_verify {
                Some(mode) => mode
                    .parse()
                    .map_err(|err: String| format!("DALOREX_VERIFY: {err}"))?,
                None => VerifyMode::default(),
            },
        };
        Ok(FigureCli {
            csv: given.contains(&"--csv"),
            json: match json {
                FlagLookup::Value(path) => Some(path),
                FlagLookup::ValueMissing => return Err("--json requires a path".to_string()),
                FlagLookup::Absent => None,
            },
            max_side: max_side_flag(max_side)?,
            faults,
            verify,
            drains: drains_flag(drains)?,
            switches: given,
            started: Instant::now(),
        })
    }

    /// Whether `switch`, one of the switches named to
    /// [`FigureCli::parse`], was given.
    pub fn switch(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The `--drains` sweep, or `[1]` (the paper's single-port endpoint)
    /// when the flag is absent.
    pub fn drains(&self) -> Vec<usize> {
        self.drains_or(&[1])
    }

    /// The `--drains` sweep, with a caller-chosen default for binaries
    /// whose figure is not measured at the paper's single-port endpoint
    /// (`fig08`/`fig09`/`fig10` default to [`FABRIC_BOUND_DRAINS`]).
    pub fn drains_or(&self, default: &[usize]) -> Vec<usize> {
        match &self.drains {
            Some(sweep) => sweep.clone(),
            None => default.to_vec(),
        }
    }

    /// Writes `measurements` to the `--json` path, if one was given.  On a
    /// write failure it reports the error and exits nonzero so that
    /// pipelines like `fig07_throughput -- --json out.json && plot
    /// out.json` do not proceed without the file.
    pub fn write_json_if_requested(&self, measurements: &[crate::report::Measurement]) {
        let Some(path) = &self.json else {
            return;
        };
        match crate::report::write_json(path, measurements) {
            Ok(()) => eprintln!("wrote {} measurements to {path}", measurements.len()),
            Err(err) => {
                eprintln!("failed to write JSON to {path}: {err}");
                std::process::exit(1);
            }
        }
    }

    /// Exits 2 if any of `flags`, which the calling binary does not apply,
    /// is set to anything but its default, by the flag or by its
    /// environment variable.  Call right after [`FigureCli::parse`].
    pub fn reject_unapplied(&self, flags: &[CommonFlag]) {
        if let Some(message) = self.unapplied(flags) {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }

    /// The testable core of [`FigureCli::reject_unapplied`]: the
    /// diagnostic for the first of `flags` that is set, if any.
    fn unapplied(&self, flags: &[CommonFlag]) -> Option<String> {
        flags.iter().find_map(|&flag| {
            let (name, value) = match flag {
                CommonFlag::Json => ("--json", self.json.clone()?),
                CommonFlag::MaxSide => ("--max-side", self.max_side?.to_string()),
                CommonFlag::Drains => ("--drains", format!("{:?}", self.drains.as_ref()?)),
                CommonFlag::Faults => (
                    "--faults (or DALOREX_FAULTS)",
                    (!self.faults.is_empty()).then(|| self.faults.to_string())?,
                ),
                CommonFlag::Verify => (
                    "--verify (or DALOREX_VERIFY)",
                    (self.verify != VerifyMode::default()).then(|| self.verify.to_string())?,
                ),
            };
            Some(format!(
                "{name} is set to {value:?}, but this binary does not apply it"
            ))
        })
    }

    /// Prints the wall-clock line on stderr.  Call at the end of `main`.
    pub fn report_wall_clock(&self) {
        if self.faults.is_empty() {
            eprintln!("wall-clock: {:.2?}", self.started.elapsed());
        } else {
            // Name the plan so an A/B pair accidentally run under
            // different fault plans cannot be compared unnoticed.
            eprintln!(
                "faults: {} | wall-clock: {:.2?}",
                self.faults,
                self.started.elapsed()
            );
        }
    }
}

/// Unwraps the run of one figure cell, named by `cell` in diagnostics.  A
/// dataset too large for the cell's scratchpad is the one failure a sweep
/// steps over: it is noted on stderr and yields `None`.  Any other error
/// means the cell cannot be measured as asked, so the process exits 2
/// naming the cell and the error.
pub fn cell_outcome<T>(cell: &str, result: Result<T, SimError>) -> Option<T> {
    match result {
        Ok(outcome) => Some(outcome),
        Err(err) if skips_cell(&err) => {
            eprintln!("skipping {cell}: {err}");
            None
        }
        Err(err) => {
            eprintln!("{cell}: {err}");
            std::process::exit(2);
        }
    }
}

/// Whether a cell failing with `err` is skipped rather than fatal.
fn skips_cell(err: &SimError) -> bool {
    matches!(err, SimError::DatasetTooLarge { .. })
}

/// The one `--verify`-without-a-value diagnostic (missing value and empty
/// `--verify=` share it).
fn verify_value_missing() -> String {
    "--verify requires a value (off, warn or deny)".to_string()
}

/// The one `--faults`-without-a-value diagnostic.
fn faults_value_missing() -> String {
    "--faults requires a value (a plan file path or an inline spec like \
     \"stall:tile=3,start=50,end=400\")"
        .to_string()
}

/// Resolves a `--faults` value into a plan: a readable file wins (its
/// *contents* are the spec — a file full of typos must not silently fall
/// back to parsing the file *name*), otherwise the value itself is parsed
/// as an inline spec.
fn faults_value_to_plan(value: &str) -> Result<FaultPlan, String> {
    if let Ok(contents) = std::fs::read_to_string(value) {
        return contents
            .parse()
            .map_err(|err| format!("fault plan file {value:?}: {err}"));
    }
    value.parse().map_err(|err| {
        format!("--faults value {value:?} is neither a readable plan file nor a valid spec: {err}")
    })
}

/// Walks `args` once.  Returns the first occurrence of each of
/// [`VALUE_FLAGS`], in its order, in either the two-token or the
/// `--<name>=<value>` spelling, and the bare flags given (`--csv` and the
/// binary's `switches`).  Any other token is fatal, named in the
/// diagnostic.
fn walk_args(
    args: &[String],
    switches: &[&'static str],
) -> Result<([FlagLookup; 5], Vec<&'static str>), String> {
    let mut values = std::array::from_fn(|_| FlagLookup::Absent);
    let mut given = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(&bare) = ["--csv"].iter().chain(switches).find(|&&s| s == arg) {
            given.push(bare);
            continue;
        }
        let (flag, assigned) = arg
            .split_once('=')
            .map_or((arg.as_str(), None), |(flag, value)| (flag, Some(value)));
        let Some(index) = VALUE_FLAGS.iter().position(|&f| f == flag) else {
            return Err(format!("unknown argument {arg:?}"));
        };
        let lookup = match assigned {
            Some("") => FlagLookup::ValueMissing,
            Some(value) => FlagLookup::Value(value.to_string()),
            // A following token that is itself a flag means the value was
            // forgotten; surface that instead of consuming the other flag.
            None => match iter.next_if(|value| !value.starts_with("--")) {
                Some(value) => FlagLookup::Value(value.clone()),
                None => FlagLookup::ValueMissing,
            },
        };
        if values[index] == FlagLookup::Absent {
            values[index] = lookup;
        }
    }
    Ok((values, given))
}

/// Parses the `--drains <a,b,...>` flag into a sweep, if given.
/// Individually invalid or zero entries are dropped with a warning; a
/// `--drains` that yields *no* valid entry (including a missing value) is
/// fatal — the run must never proceed on a sweep other than the one the
/// user asked for.
fn drains_flag(lookup: FlagLookup) -> Result<Option<Vec<usize>>, String> {
    let list = match lookup {
        FlagLookup::Absent => return Ok(None),
        FlagLookup::ValueMissing => {
            return Err(
                "--drains requires a value (a comma-separated list of positive integers)"
                    .to_string(),
            )
        }
        FlagLookup::Value(list) => list,
    };
    let mut parsed = Vec::new();
    for entry in list.split(',') {
        match entry.trim().parse::<usize>() {
            Ok(drains) if drains > 0 => parsed.push(drains),
            _ => eprintln!("ignoring invalid --drains entry {entry:?} (want a positive integer)"),
        }
    }
    if parsed.is_empty() {
        return Err(format!(
            "--drains {list:?} contains no valid entry (want a comma-separated list of \
             positive integers)"
        ));
    }
    Ok(Some(parsed))
}

/// Parses the `--max-side <n>` flag overriding the `DALOREX_MAX_SIDE`
/// environment variable, so one invocation can push a sweep to 32x32 or
/// 64x64 grids without touching the environment.  A missing, zero or
/// unparsable value is fatal, like a bad `--drains`.
fn max_side_flag(lookup: FlagLookup) -> Result<Option<usize>, String> {
    match lookup {
        FlagLookup::Absent => Ok(None),
        FlagLookup::ValueMissing => Err("--max-side requires a value (a positive integer)".into()),
        FlagLookup::Value(value) => match value.parse::<usize>() {
            Ok(side) if side > 0 => Ok(Some(side)),
            _ => Err(format!("--max-side {value:?} is not a positive integer")),
        },
    }
}

/// Reads the numeric environment variable `name`: `None` when it is unset,
/// its value when that is an integer of at least `min`.  Anything else is
/// fatal under the module's error policy: the diagnostic goes to stderr
/// and the process exits with code 2.
pub fn env_number<T: FromStr + PartialOrd + Display>(name: &str, min: T) -> Option<T> {
    let raw = std::env::var(name).ok();
    match parse_env_number(name, raw.as_deref(), min) {
        Ok(value) => value,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// The testable core of [`env_number`]: pure over the variable's raw value
/// (`None` when unset), returning the diagnostic instead of exiting.
fn parse_env_number<T: FromStr + PartialOrd + Display>(
    name: &str,
    raw: Option<&str>,
    min: T,
) -> Result<Option<T>, String> {
    raw.map(|raw| match raw.parse::<T>() {
        Ok(value) if value >= min => Ok(value),
        _ => Err(format!("{name} {raw:?} is not an integer >= {min}")),
    })
    .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_flags_are_passed() {
        let cli = FigureCli::parse_from(&[], &["--full"], None, None).unwrap();
        assert!(!cli.csv);
        assert!(!cli.switch("--full"));
        assert_eq!(cli.json, None);
        assert_eq!(cli.max_side, None);
        assert_eq!(cli.drains(), vec![1]);
        assert_eq!(cli.drains_or(&[FABRIC_BOUND_DRAINS]), vec![2]);
    }

    #[test]
    fn parses_drains_and_csv() {
        let cli =
            FigureCli::parse_from(&args(&["--drains", "1,2,4", "--csv"]), &[], None, None).unwrap();
        assert!(cli.csv);
        assert_eq!(cli.drains(), vec![1, 2, 4]);

        let cli = FigureCli::parse_from(&args(&["--drains=3"]), &[], None, None).unwrap();
        assert!(!cli.csv);
        assert_eq!(cli.drains(), vec![3]);
    }

    #[test]
    fn verify_flag_parses_and_defaults_to_warn() {
        let cli = FigureCli::parse_from(&[], &[], None, None).unwrap();
        assert_eq!(cli.verify, VerifyMode::Warn);
        let cli = FigureCli::parse_from(&args(&["--verify", "deny"]), &[], None, None).unwrap();
        assert_eq!(cli.verify, VerifyMode::Deny);
        let cli = FigureCli::parse_from(&args(&["--verify=off"]), &[], None, None).unwrap();
        assert_eq!(cli.verify, VerifyMode::Off);
    }

    #[test]
    fn verify_errors_are_fatal_and_the_flag_wins_over_the_env() {
        let expected = verify_value_missing();
        for case in [
            args(&["--verify"]),
            args(&["--verify", "--csv"]),
            args(&["--verify="]),
        ] {
            let err = FigureCli::parse_from(&case, &[], None, None).unwrap_err();
            assert_eq!(err, expected, "case: {case:?}");
        }
        let err =
            FigureCli::parse_from(&args(&["--verify", "strict"]), &[], None, None).unwrap_err();
        assert!(
            err.contains("strict"),
            "diagnostic names the bad value: {err}"
        );

        // Env default, env error prefix, and flag-wins.
        let cli = FigureCli::parse_from(&[], &[], None, Some("deny")).unwrap();
        assert_eq!(cli.verify, VerifyMode::Deny);
        let err = FigureCli::parse_from(&[], &[], None, Some("strict")).unwrap_err();
        assert!(err.starts_with("DALOREX_VERIFY:"), "{err}");
        let cli =
            FigureCli::parse_from(&args(&["--verify", "warn"]), &[], None, Some("strict")).unwrap();
        assert_eq!(cli.verify, VerifyMode::Warn);
    }

    #[test]
    fn faults_flag_parses_inline_specs_and_defaults_to_empty() {
        let cli = FigureCli::parse_from(&[], &[], None, None).unwrap();
        assert!(cli.faults.is_empty());
        let cli = FigureCli::parse_from(
            &args(&[
                "--faults",
                "stall:tile=3,start=50,end=400;link:tile=1,start=10,end=20",
            ]),
            &[],
            None,
            None,
        )
        .unwrap();
        assert_eq!(cli.faults.events.len(), 2);
        let cli = FigureCli::parse_from(
            &args(&["--faults=random:seed=7,count=4,horizon=2000"]),
            &[],
            None,
            None,
        )
        .unwrap();
        assert!(cli.faults.random.is_some());
    }

    #[test]
    fn faults_flag_reads_plan_files() {
        let path = std::env::temp_dir().join("dalorex_cli_test_plan.faults");
        std::fs::write(
            &path,
            "# two windows\nstall:tile=3,start=50,end=400\nslow:tile=1,factor=2,start=0,end=100\n",
        )
        .unwrap();
        let path = path.to_str().unwrap().to_string();
        let cli = FigureCli::parse_from(&args(&["--faults", &path]), &[], None, None).unwrap();
        assert_eq!(cli.faults.events.len(), 2);
        // A readable file full of garbage is fatal — it must not silently
        // fall back to parsing the file *name* as a spec.
        std::fs::write(&path, "not a fault spec").unwrap();
        let err = FigureCli::parse_from(&args(&["--faults", &path]), &[], None, None).unwrap_err();
        assert!(err.contains("fault plan file"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn faults_errors_are_fatal_and_the_flag_wins_over_the_env() {
        let expected = faults_value_missing();
        for case in [
            args(&["--faults"]),
            args(&["--faults", "--csv"]),
            args(&["--faults="]),
        ] {
            let err = FigureCli::parse_from(&case, &[], None, None).unwrap_err();
            assert_eq!(err, expected, "case: {case:?}");
        }
        let err = FigureCli::parse_from(&args(&["--faults", "warp:tile=1"]), &[], None, None)
            .unwrap_err();
        assert!(
            err.contains("warp"),
            "diagnostic names the bad value: {err}"
        );

        let cli =
            FigureCli::parse_from(&[], &[], Some("stall:tile=0,start=1,end=2"), None).unwrap();
        assert_eq!(cli.faults.events.len(), 1);
        let err = FigureCli::parse_from(&[], &[], Some("warp:tile=1"), None).unwrap_err();
        assert!(err.starts_with("DALOREX_FAULTS:"), "{err}");
        let cli = FigureCli::parse_from(
            &args(&["--faults", "link:tile=2,start=5,end=9"]),
            &[],
            Some("warp:tile=1"),
            None,
        )
        .unwrap();
        assert_eq!(cli.faults.events.len(), 1);
    }

    #[test]
    fn entirely_invalid_drains_list_is_fatal() {
        // The old parser warned per entry and then silently fell back to
        // the default sweep.
        for case in [
            args(&["--drains", "x,y"]),
            args(&["--drains", "0"]),
            args(&["--drains", ""]),
            args(&["--drains"]),
            args(&["--drains", "--csv"]),
        ] {
            let err = FigureCli::parse_from(&case, &[], None, None).unwrap_err();
            assert!(err.contains("--drains"), "case {case:?}: {err}");
        }
    }

    #[test]
    fn partially_invalid_drains_list_keeps_the_valid_entries() {
        let cli = FigureCli::parse_from(&args(&["--drains", "1,oops,4"]), &[], None, None).unwrap();
        assert_eq!(cli.drains(), vec![1, 4]);
    }

    #[test]
    fn max_side_errors_are_fatal_and_name_the_value() {
        for (case, side) in [
            (args(&["--max-side", "32"]), 32),
            (args(&["--max-side=1"]), 1),
        ] {
            let cli = FigureCli::parse_from(&case, &[], None, None).unwrap();
            assert_eq!(cli.max_side, Some(side));
        }
        for (case, names) in [
            (args(&["--max-side", "0"]), "\"0\""),
            (args(&["--max-side", "abc"]), "\"abc\""),
            (args(&["--max-side"]), "requires a value"),
            (args(&["--max-side", "--csv"]), "requires a value"),
            (args(&["--max-side="]), "requires a value"),
        ] {
            let err = FigureCli::parse_from(&case, &[], None, None).unwrap_err();
            assert!(
                err.starts_with("--max-side") && err.contains(names),
                "{case:?}: {err}"
            );
        }
    }

    #[test]
    fn numeric_env_values_parse_or_name_the_bad_value() {
        // Unset means the default; a scale shift of 0 is the paper's size.
        assert_eq!(parse_env_number("DALOREX_MAX_SIDE", None, 1), Ok(None));
        assert_eq!(
            parse_env_number("DALOREX_MAX_SIDE", Some("8"), 1),
            Ok(Some(8))
        );
        assert_eq!(
            parse_env_number("DALOREX_SCALE_SHIFT", Some("0"), 0),
            Ok(Some(0))
        );
        for (name, raw, min) in [
            ("DALOREX_MAX_SIDE", "0", 1),
            ("DALOREX_FIG5_SIDE", "", 1),
            ("DALOREX_SCALE_SHIFT", "abc", 0),
            ("DALOREX_SCALE_SHIFT", "-1", 0),
        ] {
            let err = parse_env_number::<u32>(name, Some(raw), min).unwrap_err();
            assert!(
                err.starts_with(name) && err.contains(&format!("{raw:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn only_a_dataset_too_large_skips_a_cell() {
        assert!(skips_cell(&SimError::DatasetTooLarge {
            required_bytes: 2,
            scratchpad_bytes: 1,
        }));
        for err in [
            SimError::InvalidConfig {
                reason: "fault event 0 names tile 999".to_string(),
            },
            SimError::CycleLimitExceeded { limit: 10 },
            SimError::UnknownKernelResource {
                resource: "output array \"x\"".to_string(),
            },
        ] {
            assert!(!skips_cell(&err), "{err}");
        }
    }

    #[test]
    fn unapplied_flags_are_named_only_when_set() {
        let every = CommonFlag::ALL;
        // Defaults, including flags spelled at their default value, pass.
        for case in [args(&[]), args(&["--csv", "--verify", "warn"])] {
            let cli = FigureCli::parse_from(&case, &[], None, None).unwrap();
            assert_eq!(cli.unapplied(&every), None, "{case:?}");
        }
        for (case, flag, names) in [
            (args(&["--json", "out.json"]), CommonFlag::Json, "--json"),
            (
                args(&["--max-side", "8"]),
                CommonFlag::MaxSide,
                "--max-side",
            ),
            (args(&["--drains", "1,2"]), CommonFlag::Drains, "--drains"),
            (
                args(&["--faults", "stall:tile=1,start=1,end=10"]),
                CommonFlag::Faults,
                "stall:tile=1",
            ),
            (args(&["--verify", "deny"]), CommonFlag::Verify, "deny"),
        ] {
            let cli = FigureCli::parse_from(&case, &[], None, None).unwrap();
            let message = cli.unapplied(&every).expect("a set flag is named");
            assert!(message.contains(names), "{case:?}: {message}");
            // A binary that applies the flag does not list it.
            let others: Vec<CommonFlag> = every.into_iter().filter(|&f| f != flag).collect();
            assert_eq!(cli.unapplied(&others), None, "{case:?}");
        }
        // Environment defaults count as set.
        let cli =
            FigureCli::parse_from(&[], &[], Some("stall:tile=1,start=1,end=10"), None).unwrap();
        assert!(cli.unapplied(&[CommonFlag::Faults]).is_some());
    }

    #[test]
    fn lookup_distinguishes_absent_from_value_missing() {
        let verify = |list: &[&str]| {
            let ([.., verify], _) = walk_args(&args(list), &[]).unwrap();
            verify
        };
        assert_eq!(verify(&[]), FlagLookup::Absent);
        assert_eq!(verify(&["--verify"]), FlagLookup::ValueMissing);
        assert_eq!(verify(&["--verify="]), FlagLookup::ValueMissing);
        assert_eq!(
            verify(&["--verify", "off"]),
            FlagLookup::Value("off".to_string())
        );
        assert_eq!(
            verify(&["--verify=off"]),
            FlagLookup::Value("off".to_string())
        );
    }

    #[test]
    fn unknown_arguments_are_fatal_and_named() {
        // `--full` is known only to a binary that names it as its switch.
        for (case, names) in [
            (args(&["--engine", "reference"]), "\"--engine\""),
            (args(&["--csv", "stray"]), "\"stray\""),
            (args(&["--jsn", "x"]), "\"--jsn\""),
            (args(&["--full"]), "\"--full\""),
        ] {
            let err = FigureCli::parse_from(&case, &[], None, None).unwrap_err();
            assert_eq!(err, format!("unknown argument {names}"));
        }
        let case = args(&[
            "--json",
            "out.json",
            "--faults",
            "stall:tile=3,start=5,end=9",
            "--full",
        ]);
        let cli = FigureCli::parse_from(&case, &["--full"], None, None).unwrap();
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        assert_eq!(cli.faults.events.len(), 1);
        assert!(cli.switch("--full"));
    }
}
