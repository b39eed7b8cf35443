//! Design-space explorer: Pareto search over the combined structural ×
//! timing × workload space (extension).
//!
//! Every run evaluates every point of the chosen space. `--stats-json
//! PATH` writes a one-run `isa-explore-run/v2` summary (space size,
//! pruned/simulated counts, assumption-1 violations and the smallest
//! simulated error minus bound, front size, wall time). `--no-prefilter`
//! simulates every feasible candidate; its Pareto front must equal the
//! pre-filtered one (CI diffs the `on_front` rows of both CSVs). An
//! unknown space, workload or kernel name, a zero count, a non-finite
//! `--min-quality`, and a `--max-clock` that is not a finite positive
//! period or comes without `--min-quality`, exit with status 2 before any
//! work.

use std::fmt::Write as _;
use std::time::Instant;

use isa_apps::kernels::KERNEL_NAMES;
use isa_engine::GATE_BACKEND_LABEL;
use isa_experiments::explore::{run_on, ExploreSettings, SPACES};
use isa_experiments::{
    arg_value, cli_args, cli_error, count_arg, engine_from_args, write_output, ExperimentConfig,
};
use isa_workloads::STREAM_NAMES;

const USAGE: &str = "explore [--space paper|compact|full] [--cycles N] \
    [--workload uniform|walk|sine|accumulate] [--kernel NAME --scale N] [--min-quality DB] \
    [--max-clock PS] [--no-prefilter] [--energy-cycles N] [--csv PATH] [--threads N] \
    [--stats-json PATH]";

fn settings_from_args(args: &[String]) -> ExploreSettings {
    let defaults = ExploreSettings::default();
    ExploreSettings {
        space: arg_value(args, "space").unwrap_or(defaults.space),
        cycles: count_arg(args, "cycles").unwrap_or(defaults.cycles),
        workload: arg_value(args, "workload").unwrap_or(defaults.workload),
        kernel: arg_value(args, "kernel"),
        scale: count_arg(args, "scale").unwrap_or(defaults.scale),
        prefilter: !args.iter().any(|a| a == "--no-prefilter"),
        energy_cycles: count_arg(args, "energy-cycles").unwrap_or(defaults.energy_cycles),
        min_quality_db: arg_value(args, "min-quality"),
        max_clock_ps: arg_value(args, "max-clock"),
    }
}

/// Exits with a usage error naming `--flag` and its valid choices unless
/// `value` is one of them.
fn check_choice(flag: &str, value: &str, choices: &[&str]) {
    if !choices.contains(&value) {
        cli_error(format_args!(
            "--{flag}: unknown value {value:?} ({})",
            choices.join("|")
        ));
    }
}

/// Exits with a usage error unless the query flags form a query the
/// report can answer: a finite quality floor, and a clock cap only beside
/// one, as a finite positive period.
fn check_query(settings: &ExploreSettings) {
    if let Some(db) = settings.min_quality_db {
        if !db.is_finite() {
            cli_error(format_args!("--min-quality: must be finite, got {db}"));
        }
    }
    if let Some(ps) = settings.max_clock_ps {
        if !(ps.is_finite() && ps > 0.0) {
            cli_error(format_args!(
                "--max-clock: must be a finite period above 0, got {ps}"
            ));
        }
        if settings.min_quality_db.is_none() {
            cli_error("--max-clock: caps a query, so it needs --min-quality");
        }
    }
}

fn main() {
    let args = cli_args(USAGE);
    let settings = settings_from_args(&args);
    check_choice("space", &settings.space, &SPACES);
    check_choice("workload", &settings.workload, &STREAM_NAMES);
    if let Some(kernel) = &settings.kernel {
        check_choice("kernel", kernel, &KERNEL_NAMES);
    }
    check_query(&settings);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let started = Instant::now();
    let report = run_on(&engine, &config, &settings);
    let wall_s = started.elapsed().as_secs_f64();
    print!("{}", report.render());
    eprintln!(
        "explore: done in {wall_s:.2}s ({} workers)",
        engine.threads()
    );
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
    if let Some(path) = arg_value::<String>(&args, "stats-json") {
        let stats = &report.outcome.stats;
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"schema\": \"isa-explore-run/v2\",");
        let _ = writeln!(json, "  \"backend\": \"{GATE_BACKEND_LABEL}\",");
        let _ = writeln!(json, "  \"space\": \"{}\",", settings.space);
        let _ = writeln!(json, "  \"space_points\": {},", stats.space_points);
        let _ = writeln!(json, "  \"workload\": \"{}\",", report.outcome.workload);
        let _ = writeln!(json, "  \"cycles\": {},", settings.cycles);
        let _ = writeln!(json, "  \"candidates\": {},", stats.considered);
        let _ = writeln!(json, "  \"pruned\": {},", stats.pruned);
        let _ = writeln!(json, "  \"simulated\": {},", stats.simulated);
        let _ = writeln!(json, "  \"infeasible\": {},", stats.infeasible);
        let _ = writeln!(
            json,
            "  \"assumption1_violations\": {},",
            stats.assumption1_violations
        );
        let margin = report.outcome.min_bound_margin().filter(|m| m.is_finite());
        let _ = writeln!(
            json,
            "  \"assumption1_min_margin\": {},",
            margin.map_or_else(|| "null".to_owned(), |m| m.to_string())
        );
        let _ = writeln!(json, "  \"front_points\": {},", report.outcome.front.len());
        let _ = writeln!(json, "  \"threads\": {},", engine.threads());
        let _ = writeln!(json, "  \"wall_s\": {wall_s}");
        json.push_str("}\n");
        write_output(&path, &json);
    }
}
