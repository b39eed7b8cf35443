//! # isa-experiments
//!
//! End-to-end reproduction pipelines for every table and figure of the
//! DATE 2017 paper:
//!
//! * [`design_table`] — the Section V.A design characterization (synthesis
//!   + structural accuracy of the twelve designs);
//! * [`prediction`] — Figs. 7 (ABPER) and 8 (AVPE): per-bit Random Forest
//!   timing-error prediction, trained and evaluated per (design, CPR);
//! * [`fig9`] — Figs. 9a/b/c: structural/timing/joint relative-error RMS
//!   under 5/10/15 % overclocking;
//! * [`fig10`] — Fig. 10: bit-level-equivalent error distributions inside
//!   ISA (8,0,0,4) at 15 % CPR.
//!
//! Beyond the paper, [`energy`] reproduces the energy-efficiency
//! comparison style of the paper's reference \[17\] from simulated switching
//! activity, [`guardband`] quantifies the paper's positioning against
//! Razor-style detect-and-recover schemes (reference \[10\]),
//! [`apps_quality`] scores real application kernels (FIR, 2-D convolution,
//! dot product, histogram) in PSNR/SNR dB across the clock sweep — the
//! units the paper's RMS-RE argument appeals to — and
//! [`explore`](mod@explore) *searches* the combined structural × timing
//! space the figures only sample: a Pareto front over (error, delay,
//! energy) via [`isa_explore`]'s two-tier analytical + gate-level
//! evaluator.
//!
//! Each module exposes one `run_on(&Engine, ...)` entry point, so callers
//! share one engine — and hence one set of memoized synthesis artifacts
//! and one worker pool — across pipelines, as `all_figures` does. Reports keep their
//! `render()`/`to_csv()` methods; the `fig7`, `fig8`, `fig9`, `fig10`,
//! `design_table`, `energy_table`, `guardband`, `workloads` and
//! `all_figures` binaries drive them from the command line. The `netlint`
//! and `prove` sweep binaries share [`sweep`]'s design list and map it on
//! the engine's worker pool.
//!
//! All pipelines execute through the [`isa_engine`] plan API — the Fig. 6
//! statistics come from [`Engine::run`] (gate level) or
//! [`isa_core::structural_errors`] (structural only), and no binary
//! hand-rolls a synthesize→annotate→simulate loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps_quality;
pub mod design_table;
pub mod energy;
pub mod explore;
pub mod fig10;
pub mod fig9;
pub mod guardband;
pub mod prediction;
pub mod report;
pub mod sweep;
pub mod workload_sensitivity;

pub use isa_engine::{
    ArtifactCache, DesignContext, Engine, ExperimentConfig, ExperimentPlan, GateLevelSubstrate,
    PredictedSubstrate, RunResult,
};

/// A malformed command-line option: the flag is present but its value is
/// missing or does not parse. Carries the flag name so the user sees what
/// to fix instead of a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    flag: String,
    detail: String,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.flag, self.detail)
    }
}

/// The command line after the program name, checked against the
/// binary's usage line (e.g. `"fig10 [--cycles N] [--csv PATH] [--threads
/// N]"`), whose `--` words are the flags it takes.
///
/// Any other flag — a typo such as `--thread` or `--cycels` — exits
/// through [`cli_error`] with the usage line before any work, instead of
/// being ignored while a default runs.
#[must_use]
pub fn cli_args(usage: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let takes = |flag: &str| {
        usage
            .split_whitespace()
            .any(|word| word.trim_matches(['[', ']']) == flag)
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !takes(a)) {
        cli_error(format_args!("{flag}: unknown flag; usage: {usage}"));
    }
    args
}

/// Parses a `--name value` style option from a raw argument list.
///
/// Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Returns an [`ArgError`] naming the flag when it is present but its
/// value is missing or fails to parse.
pub fn try_arg_value<T: std::str::FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, ArgError>
where
    T::Err: std::fmt::Display,
{
    let flag = format!("--{name}");
    let Some(i) = args.iter().position(|a| a == &flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(ArgError {
            flag,
            detail: "missing a value".to_owned(),
        });
    };
    raw.parse().map(Some).map_err(|e| ArgError {
        flag,
        detail: format!("invalid value {raw:?}: {e}"),
    })
}

/// Parses `--name value` style options from a raw argument list, returning
/// the value for `name` if present.
///
/// A present-but-malformed value exits the process with code 2 and a
/// message naming the flag (use [`try_arg_value`] to handle the error
/// yourself) — silently falling back to a default on a typo would run a
/// different experiment than the one asked for.
#[must_use]
pub fn arg_value<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    try_arg_value(args, name).unwrap_or_else(|e| cli_error(e))
}

/// [`arg_value`] for a count that must be at least 1 (`--cycles`,
/// `--samples`, `--train`, `--test`, `--scale`, `--energy-cycles`,
/// `--threads`): zero exits through [`cli_error`] too, instead of a panic
/// deep in a pipeline, a table of zeros or a quietly substituted 1.
#[must_use]
pub fn count_arg(args: &[String], name: &str) -> Option<usize> {
    let count = arg_value::<usize>(args, name)?;
    if count == 0 {
        cli_error(format_args!("--{name}: must be at least 1, got 0"));
    }
    Some(count)
}

/// Prints `error: {message}` to stderr and exits with code 2 (the
/// conventional usage-error status).
pub fn cli_error(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Writes a report artifact (CSV, JSON) to `path`, exiting with a message
/// naming the path on I/O failure, and confirming on stderr on success.
///
/// Writes are atomic ([`isa_obs::export::write_atomic`]): a crash (or a
/// failing disk) mid-write leaves either the previous artifact or none —
/// never a truncated file that a plotting script or CI diff would
/// silently consume as complete data.
pub fn write_output(path: &str, contents: &str) {
    if let Err(e) = isa_obs::export::write_atomic(std::path::Path::new(path), contents.as_bytes()) {
        cli_error(format_args!("cannot write {path}: {e}"));
    }
    eprintln!("wrote {path}");
}

/// Builds the experiment engine every binary shares: machine-sized worker
/// pool, overridable with `--threads N` (at least 1).
#[must_use]
pub fn engine_from_args(args: &[String]) -> Engine {
    count_arg(args, "threads").map_or_else(Engine::new, Engine::with_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_parses_flags() {
        let args: Vec<String> = ["--cycles", "500", "--out", "x.csv"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(arg_value::<usize>(&args, "cycles"), Some(500));
        assert_eq!(arg_value::<String>(&args, "out"), Some("x.csv".into()));
        assert_eq!(arg_value::<usize>(&args, "missing"), None);
    }

    #[test]
    fn malformed_values_report_the_flag() {
        let args: Vec<String> = ["--cycles", "many", "--tail"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let err = try_arg_value::<usize>(&args, "cycles").unwrap_err();
        assert!(err.to_string().contains("--cycles"), "{err}");
        assert!(err.to_string().contains("\"many\""), "{err}");
        let err = try_arg_value::<usize>(&args, "tail").unwrap_err();
        assert!(err.to_string().contains("missing a value"), "{err}");
        assert_eq!(try_arg_value::<usize>(&args, "absent"), Ok(None));
    }
}
