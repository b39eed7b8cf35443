//! Static-analysis sweep: lints every seed design plus the full
//! non-overlapping quadruple grid through the same
//! `DesignContext::try_build` gate the experiments use.
//!
//! The pipeline compiles each design's instruction tape from the
//! netlist's level schedule (`isa_netlist::tape`), and the `tape.shape`
//! and `tape.replay` rules execute it on random planes and demand
//! bit-equality with `evaluate_words`. The context keeps that verified
//! tape for the engine's word hot path, so the tape every simulation runs
//! is proven on every design in the space, not just the twelve the
//! figures use.
//!
//! Synthesis-infeasible grid points are skipped (they are a feasibility
//! boundary, not a lint failure). Any design with an Error-severity
//! finding, or whose build panics, prints its full report and the sweep
//! exits with status 1 — this is the CI gate proving the whole design
//! space is analyzable and clean. Failures are listed in design order at
//! any `--threads`. The summary also reports aggregate lint time against
//! total build (synthesis + lint) time, the figure BENCHMARKS.md tracks.
//!
//! The `--json` report (`isa-netlint-sweep/v1`) covers the sampled
//! per-build checks; the proofs over all operand pairs (equivalence and
//! false-path STA) run only in the sibling `prove` sweep
//! (`isa-prove-sweep/v1`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use isa_core::IsaConfig;
use isa_engine::{BuildError, DesignContext, ExperimentConfig};
use isa_experiments::{arg_value, cli_args, engine_from_args, sweep, write_output};
use isa_obs::Json;

/// One feasible design's lint outcome.
struct Linted {
    build: Duration,
    lint: Duration,
    warnings: usize,
    /// Rendered report and JSON body, when lint found errors.
    failure: Option<(String, String)>,
}

fn main() {
    let args = cli_args("netlint [--seeds-only] [--width N] [--threads N] [--json PATH]");
    let width = sweep::width_arg(&args, 32, IsaConfig::MAX_WIDTH);
    let seeds_only = args.iter().any(|a| a == "--seeds-only");
    let engine = engine_from_args(&args);
    let designs = sweep::designs(width, seeds_only);
    eprintln!(
        "netlint: sweeping {} designs ({}) on {} thread(s)",
        designs.len(),
        sweep::scope(width, seeds_only),
        engine.threads()
    );

    let config = ExperimentConfig::default();
    let started = Instant::now();
    // `None` marks a synthesis-infeasible design.
    let outcomes = sweep::map(&engine, &config, &designs, |design| {
        let t0 = Instant::now();
        let built = DesignContext::try_build(design, &config);
        let build = t0.elapsed();
        let report = match built {
            Ok(ctx) => ctx.lint,
            Err(BuildError::Synthesis(_)) => return None,
            Err(BuildError::Lint(report)) => *report,
        };
        Some(Linted {
            build,
            lint: report.elapsed,
            warnings: report.warning_count(),
            failure: report
                .has_errors()
                .then(|| (report.render(), report.to_json())),
        })
    });

    let (mut checked, mut infeasible, mut warnings) = (0usize, 0usize, 0usize);
    let (mut lint, mut build) = (Duration::ZERO, Duration::ZERO);
    let mut failures: Vec<(String, String)> = Vec::new();
    for (design, outcome) in designs.iter().zip(outcomes) {
        match outcome {
            Ok(None) => infeasible += 1,
            Ok(Some(linted)) => {
                checked += 1;
                build += linted.build;
                lint += linted.lint;
                warnings += linted.warnings;
                failures.extend(linted.failure);
            }
            Err(panic) => {
                checked += 1;
                let body = Json::Obj(vec![
                    ("design".to_owned(), Json::Str(design.to_string())),
                    ("panic".to_owned(), Json::Str(panic.clone())),
                ]);
                failures.push((
                    format!("{design}: build panicked: {panic}\n"),
                    body.render(),
                ));
            }
        }
    }

    for (rendered, _) in &failures {
        eprint!("{rendered}");
    }
    let lint_s = lint.as_secs_f64();
    let build_s = build.as_secs_f64();
    let fraction = if build_s > 0.0 { lint_s / build_s } else { 0.0 };
    println!(
        "netlint: {checked} checked, {infeasible} infeasible skipped, {} design(s) with errors, \
         {warnings} warning finding(s)",
        failures.len(),
    );
    println!(
        "netlint: lint {lint_s:.2}s of {build_s:.2}s total build time \
         ({:.2}% overhead), wall {:.2}s",
        fraction * 100.0,
        started.elapsed().as_secs_f64()
    );

    if let Some(path) = arg_value::<String>(&args, "json") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"schema\": \"isa-netlint-sweep/v1\",");
        let _ = writeln!(json, "  \"width\": {width},");
        let _ = writeln!(json, "  \"seeds_only\": {seeds_only},");
        let _ = writeln!(json, "  \"checked\": {checked},");
        let _ = writeln!(json, "  \"infeasible\": {infeasible},");
        let _ = writeln!(json, "  \"designs_with_errors\": {},", failures.len());
        let _ = writeln!(json, "  \"warning_findings\": {warnings},");
        let _ = writeln!(json, "  \"lint_seconds\": {lint_s},");
        let _ = writeln!(json, "  \"build_seconds\": {build_s},");
        let _ = writeln!(json, "  \"lint_fraction\": {fraction},");
        json.push_str("  \"failures\": [");
        for (i, (_, body)) in failures.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str("\n    ");
            json.push_str(body);
        }
        json.push_str("\n  ]\n}\n");
        write_output(&path, &json);
    }

    if !failures.is_empty() {
        std::process::exit(1);
    }
}
