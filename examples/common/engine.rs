//! Shared `--engine` handling for the examples (included via
//! `#[path = "common/engine.rs"]`, not an example itself).
//!
//! Every example accepts `--engine <name>` / `--engine=<name>` with the
//! same names as the figure binaries (`calendar`, the default, and the
//! `reference` oracle) and honours the `DALOREX_ENGINE` environment
//! variable as a default when the flag is absent — the flag wins when both
//! are given.  Both engines model the identical schedule, so an example's
//! printed results never change with this knob; it exists so the examples
//! double as end-to-end oracle cross-checks.  A malformed value aborts
//! with exit code 2 rather than silently running the default engine under
//! the wrong label.

use dalorex::sim::config::Engine;

/// Resolves the engine from `--engine` (first) or `DALOREX_ENGINE`
/// (fallback); exits with code 2 on a malformed or missing value.
pub fn engine_arg() -> Engine {
    let mut args = std::env::args().skip(1);
    let mut from_flag: Option<String> = None;
    while let Some(arg) = args.next() {
        if arg == "--engine" {
            match args.next().filter(|v| !v.starts_with("--")) {
                Some(value) => from_flag = Some(value),
                None => abort("--engine requires a value"),
            }
        } else if let Some(value) = arg.strip_prefix("--engine=") {
            if value.is_empty() {
                abort("--engine requires a value");
            }
            from_flag = Some(value.to_string());
        }
    }
    if let Some(name) = from_flag {
        return name.parse().unwrap_or_else(|err: String| abort(&err));
    }
    match std::env::var("DALOREX_ENGINE") {
        Ok(name) => name
            .parse()
            .unwrap_or_else(|err: String| abort(&format!("DALOREX_ENGINE: {err}"))),
        Err(_) => Engine::default(),
    }
}

fn abort(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}
