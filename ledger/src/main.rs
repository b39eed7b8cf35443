//! `isa-ledger` — the layer-ledger benchmark.
//!
//! ```text
//! isa-ledger --workload figures|explore|serve --seed N --seconds S --trace 0|1
//!            --serve-bin PATH --workdir DIR
//! ```
//!
//! With `--trace 0` it repeats cold runs of one workload for `--seconds`
//! seconds (each figures/explore run is a fresh child process, each serve
//! run a fresh daemon with an empty store), checks the outputs, and
//! prints the end-to-end metrics: the cheapest rep's set-up CPU time
//! (each rep's the median of repeated set-ups) and work CPU time, and the
//! median peak RSS. With `--trace 1` it
//! makes one untraced and one traced run of every workload and prints
//! the whole layer ledger: span-attributed stage times, isolated unit
//! costs on each workload's own inputs, the program's counters, and the
//! tracing overhead. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `isa-ledger child figures|explore --seed N [--check] [--trace-file P]`
//! is the measured child process; it prints one report line.

mod child;
mod explore;
mod figures;
mod gen;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use isa_obs::Json;

use child::Report;

/// End-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")];

/// The layer ledger a traced run reports, with units.
const PER_LAYER: [(&str, &str); 43] = [
    ("experiments.design_table_s", "s"),
    ("experiments.fig9_s", "s"),
    ("experiments.prediction_s", "s"),
    ("experiments.fig10_s", "s"),
    ("experiments.energy_s", "s"),
    ("experiments.guardband_s", "s"),
    ("experiments.workloads_s", "s"),
    ("experiments.apps_s", "s"),
    ("experiments.explore_paper_s", "s"),
    ("figures.unattributed_s", "s"),
    ("learn.train_ms_per_cell", "ms"),
    ("timing_sim.razor_ns_per_cycle", "ns"),
    ("core.behavioural_ns_per_op", "ns"),
    ("timing_sim.filtered_ns_per_cycle", "ns"),
    ("timing_sim.safe_lane_fraction", "ratio"),
    ("netlist.synth_us_per_design", "us"),
    ("netlist.classifier_us_per_design", "us"),
    ("netlist.tape_us_per_design", "us"),
    ("netlint.lint_us_per_design", "us"),
    ("prove.exact_rms_us_per_design", "us"),
    ("core.structural_us_per_design", "us"),
    ("timing_sim.energy_us_per_design", "us"),
    ("explore.sim_us_per_candidate", "us"),
    ("explore.pruned_fraction", "ratio"),
    ("explore.simulated", "count"),
    ("explore.infeasible", "count"),
    ("explore.unattributed_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("engine.cache_build_ms_p50", "ms"),
    ("serve.qps", "req/s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.hit_latency_p50_ms", "ms"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("serve.miss_latency_p99_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.store_put_us", "us"),
    ("serve.eval_ms_p50", "ms"),
    ("serve.computed", "count"),
    ("serve.degraded", "count"),
];

/// The tracing overhead, one per workload.
const OVERHEAD: [&str; 3] = [
    "obs.trace_overhead_frac.figures",
    "obs.trace_overhead_frac.explore",
    "obs.trace_overhead_frac.serve",
];

/// Cold runs made per timed measurement at the least.
const MIN_REPS: usize = 3;
/// Extra daemon start-ups per serve rep, so set-up is a median of many.
const SERVE_EXTRA_SETUPS: usize = 6;
/// Stream-quality answers compared with a direct engine computation.
const ENGINE_CHECKS: usize = 24;

fn arg(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    arg(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(&format!("missing or invalid {name}")))
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        child_main(&args[1..]);
        return;
    }
    let workload: String = required(&args, "--workload");
    let seed: u64 = required(&args, "--seed");
    let seconds: f64 = required(&args, "--seconds");
    let trace: u8 = required(&args, "--trace");
    let serve_bin = PathBuf::from(required::<String>(&args, "--serve-bin"));
    let workdir = PathBuf::from(required::<String>(&args, "--workdir"));
    if !["figures", "explore", "serve"].contains(&workload.as_str()) {
        fail(&format!(
            "unknown workload {workload:?} (figures|explore|serve)"
        ));
    }
    let ctx = Ctx {
        seed,
        serve_bin,
        workdir,
    };
    let outcome = if trace == 1 {
        ledger(&ctx)
    } else {
        timed(&ctx, &workload, seconds)
    };
    let outcome = outcome.unwrap_or_else(|e| fail(&e));
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let metrics: Vec<(String, Json)> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            println!("{name} = {value} {unit}");
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(unit.clone())),
                ]),
            )
        })
        .collect();
    for (name, unit, value) in &outcome.extra {
        println!("{name} = {value} {unit}");
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}

/// Where and how the benchmark runs.
struct Ctx {
    seed: u64,
    serve_bin: PathBuf,
    workdir: PathBuf,
}

/// A finished measurement.
#[derive(Default)]
struct Outcome {
    /// (name, unit, value) of the reported metrics.
    metrics: Vec<(String, String, f64)>,
    /// Figures printed for people but not part of the metric set.
    extra: Vec<(String, String, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, report: &Report) {
        self.attempted += report.attempted;
        self.failed += report.failed;
        self.problems.extend(report.problems.iter().cloned());
    }
}

/// Spawns one measured child run of a figures/explore workload; returns
/// its report and the child's wall lifetime from spawn to exit.
fn spawn_child(
    ctx: &Ctx,
    workload: &str,
    check: bool,
    trace: Option<&Path>,
) -> Result<(Report, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", workload, "--seed", &ctx.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if check {
        cmd.arg("--check");
    }
    if let Some(path) = trace {
        cmd.arg("--trace-file").arg(path);
    }
    let started = Instant::now();
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let lifetime = started.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload} child failed ({}): {line}", out.status));
    }
    Ok((Report::parse(line)?, lifetime))
}

fn child_main(args: &[String]) {
    let workload = args.first().cloned().unwrap_or_default();
    let seed: u64 = required(args, "--seed");
    let check = args.iter().any(|a| a == "--check");
    let trace = arg(args, "--trace-file").map(PathBuf::from);
    let mut report = match workload.as_str() {
        "figures" => figures::run(seed, check, trace.as_deref()),
        "explore" => explore::run(seed, check, trace.as_deref()),
        other => fail(&format!("no child workload {other:?}")),
    };
    if let Some(end) = report.work_end {
        report.tail_s = end.elapsed().as_secs_f64();
    }
    println!("{}", report.to_json().render());
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

/// Repeats cold runs for `seconds` (at least [`MIN_REPS`]) and reports
/// the end-to-end metrics.
fn timed(ctx: &Ctx, workload: &str, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut reports: Vec<Report> = Vec::new();
    let mut serve_e2e: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let serve_inputs = (workload == "serve").then(|| serve::requests(ctx.seed));
    while reports.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let first = reports.is_empty();
        let report = match &serve_inputs {
            None => spawn_child(ctx, workload, first, None)?.0,
            Some(inputs) => {
                let dir = ctx.workdir.join(format!("rep{}", reports.len()));
                let rep = serve::run(&ctx.serve_bin, &dir, inputs, false)?;
                out.problems.extend(serve::check_rep(&rep, inputs));
                if first {
                    out.problems.extend(serve::check_against_engine(
                        ctx.seed,
                        &rep,
                        inputs,
                        ENGINE_CHECKS,
                    ));
                }
                for (k, v) in serve::end_to_end(&rep) {
                    serve_e2e.entry(k).or_default().push(v);
                }
                let mut setups = serve::extra_setups(&ctx.serve_bin, &dir, SERVE_EXTRA_SETUPS)?;
                setups.push(rep.report.setup_s);
                let _ = std::fs::remove_dir_all(&dir);
                Report {
                    setup_s: med(&setups),
                    ..rep.report
                }
            }
        };
        out.absorb(&report);
        reports.push(report);
    }
    if reports.iter().any(|r| r.digest != reports[0].digest) {
        out.problems.push(format!(
            "{workload} outputs differ between runs of one seed"
        ));
    }
    let of = |f: fn(&Report) -> f64| reports.iter().map(f).collect::<Vec<_>>();
    let cheapest = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    // Other tenants of a shared host slow the work in phases of seconds
    // to minutes that inflate CPU time as much as wall time (contention
    // for the physical core, not preemption) and only ever add time, so
    // the cheapest cold rep is the steadiest estimate of the work's cost.
    // Each rep's set-up figure is already the median of its repeats.
    let values = [
        cheapest(of(|r| r.setup_s)),
        cheapest(of(|r| r.cpu_s)),
        med(&of(|r| r.peak_rss_mb)),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        out.metrics.push(((*name).into(), (*unit).into(), value));
    }
    let units = [
        ("qps", "req/s"),
        ("latency_p50_ms", "ms"),
        ("latency_p99_ms", "ms"),
    ];
    for (name, unit) in units {
        if let Some(v) = serve_e2e.get(name) {
            out.extra.push((name.into(), unit.into(), med(v)));
        }
    }
    out.extra.push((
        "error_rate".into(),
        "ratio".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    out.extra
        .push(("wall_s".into(), "s".into(), med(&of(|r| r.wall_s))));
    out.extra
        .push(("reps".into(), "count".into(), reports.len() as f64));
    Ok(out)
}

/// One untraced and one traced run of every workload: the whole ledger.
fn ledger(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    std::fs::create_dir_all(&ctx.workdir).map_err(|e| format!("workdir: {e}"))?;

    for (w, workload) in ["figures", "explore"].into_iter().enumerate() {
        let (plain, _) = spawn_child(ctx, workload, true, None)?;
        let path = ctx.workdir.join(format!("{workload}.trace.jsonl"));
        let (mut traced, lifetime) = spawn_child(ctx, workload, false, Some(&path))?;
        let _ = std::fs::remove_file(&path);
        out.absorb(&plain);
        out.absorb(&traced);
        if plain.digest != traced.digest {
            out.problems
                .push(format!("{workload} outputs differ with tracing on"));
        }
        layers.insert(OVERHEAD[w].into(), traced.cpu_s / plain.cpu_s - 1.0);
        let share = if workload == "figures" {
            // The stage spans against the child's whole life up to the end
            // of the suite: exec, set-up, tracing and teardown count too.
            let lived = lifetime - traced.tail_s;
            let covered: f64 = figures::STAGES
                .iter()
                .filter_map(|s| traced.layers.get(&format!("experiments.{s}_s")))
                .sum();
            let unattributed = lived - covered;
            traced
                .layers
                .insert("figures.unattributed_s".into(), unattributed);
            let share = unattributed / lived;
            if share.is_nan() || share > 0.10 {
                out.problems.push(format!(
                    "figures stage spans cover {:.1} % of the child's life, below 90 %",
                    100.0 * (1.0 - share)
                ));
            }
            share
        } else {
            traced
                .layers
                .get("explore.unattributed_s")
                .copied()
                .unwrap_or(f64::NAN)
                / traced.cpu_s
        };
        out.extra.push((
            format!("{workload}.unattributed_share"),
            "ratio".into(),
            share,
        ));
        layers.extend(traced.layers);
    }

    let inputs = serve::requests(ctx.seed);
    let plain = serve::run(&ctx.serve_bin, &ctx.workdir.join("plain"), &inputs, false)?;
    let traced = serve::run(&ctx.serve_bin, &ctx.workdir.join("traced"), &inputs, true)?;
    for rep in [&plain, &traced] {
        out.absorb(&rep.report);
        out.problems.extend(serve::check_rep(rep, &inputs));
    }
    if plain.report.digest != traced.report.digest {
        out.problems
            .push("serve responses differ with tracing on".into());
    }
    layers.insert(
        OVERHEAD[2].into(),
        traced.report.cpu_s / plain.report.cpu_s - 1.0,
    );
    layers.extend(serve::layers(&plain, &traced, &inputs));
    for dir in [&plain.dir, &traced.dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let named = PER_LAYER
        .iter()
        .copied()
        .chain(OVERHEAD.iter().map(|n| (*n, "ratio")));
    for (name, unit) in named {
        match layers.get(name) {
            Some(v) => out.metrics.push((name.into(), unit.into(), *v)),
            None => out
                .problems
                .push(format!("traced run did not measure {name}")),
        }
    }
    Ok(out)
}
