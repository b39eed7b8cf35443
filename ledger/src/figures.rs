//! The `figures` workload: the production `all_figures` suite at its
//! default counts on one engine worker, under seed-derived workload and
//! die seeds.
//!
//! Few designs and long streams: `learn`, `timing-sim` and `core` do the
//! work, synthesis is only set-up, and the artifact cache is ~100 % hits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use isa_core::batch::{segment_len, LANES};
use isa_core::{paper_designs, Design, IsaConfig, Substrate as _};
use isa_engine::{Engine, ExperimentConfig, GateLevelSubstrate};
use isa_experiments::prediction::trace_to_cycles;
use isa_experiments::{
    apps_quality, design_table, energy, explore, fig10, fig9, guardband, prediction,
    workload_sensitivity,
};
use isa_learn::{PredictorConfig, TimingErrorPredictor};
use isa_netlist::CellLibrary;
use isa_serve::store::fnv1a64;
use isa_timing_sim::{run_filtered_batch_tape, run_razor_trace, ClockedSim, RazorConfig};
use isa_workloads::{take_pairs, UniformWorkload};
use rand::Rng as _;

use crate::child::{cpu_once, cpu_s, peak_rss_mb, read_trace, span_totals_s, start_trace, Report};
use crate::gen::{derived_seeds, rng, sample_indices};
use crate::stats::median;

/// `all_figures` default counts.
const CYCLES: usize = 50_000;
const TRAIN: usize = 8_000;
const TEST: usize = 4_000;
const SAMPLES: usize = 1_000_000;
/// Set-ups timed per run.
const SETUP_REPS: usize = 15;

/// The suite's stages, in run order; each is one span in a traced run.
pub const STAGES: [&str; 9] = [
    "design_table",
    "fig9",
    "prediction",
    "fig10",
    "energy",
    "guardband",
    "workloads",
    "apps",
    "explore_paper",
];

/// The experiment configuration a seed runs under.
#[must_use]
pub fn config(seed: u64) -> ExperimentConfig {
    let (workload_seed, variation_seed) = derived_seeds(seed);
    ExperimentConfig {
        workload_seed,
        variation_seed,
        ..ExperimentConfig::default()
    }
}

/// Runs one stage by name, returning its CSV.
fn stage(name: &str, engine: &Engine, config: &ExperimentConfig, designs: &[Design]) -> String {
    let extension = (CYCLES / 5).max(1_000);
    let isa_8004 = IsaConfig::new(32, 8, 0, 0, 4).expect("valid design");
    match name {
        "design_table" => design_table::run_on(engine, config, designs, SAMPLES).to_csv(),
        "fig9" => fig9::run_on(engine, config, designs, CYCLES).to_csv(),
        "prediction" => prediction::run_on(engine, config, designs, TRAIN, TEST).to_csv(),
        "fig10" => fig10::run_on(engine, config, Design::Isa(isa_8004), 0.15, CYCLES * 2).to_csv(),
        "energy" => energy::run_on(engine, config, designs, extension).to_csv(),
        "guardband" => guardband::run_on(engine, config, isa_8004, extension).to_csv(),
        "workloads" => {
            workload_sensitivity::run_on(engine, config, designs, 0.10, extension).to_csv()
        }
        "apps" => {
            let apps_designs = [
                Design::Isa(isa_8004),
                Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).expect("valid design")),
                Design::Exact { width: 32 },
            ];
            let scale = (CYCLES / 12_500).max(1);
            apps_quality::run_on(
                engine,
                config,
                &apps_designs,
                &apps_quality::APP_CPRS,
                scale,
            )
            .to_csv()
        }
        "explore_paper" => explore::run_on(
            engine,
            config,
            &explore::ExploreSettings {
                cycles: extension,
                ..explore::ExploreSettings::default()
            },
        )
        .to_csv(),
        other => unreachable!("unknown stage {other}"),
    }
}

/// One cold run of the suite. `check` replays a seeded fig9 cell on the
/// scalar oracle; `trace` (a span file path) turns on the traced run,
/// which also measures the layer unit costs.
#[must_use]
pub fn run(seed: u64, check: bool, trace: Option<&Path>) -> Report {
    let config = config(seed);
    let designs = paper_designs();
    if let Some(path) = trace {
        start_trace(path);
    }
    let setup = || {
        let engine = Engine::with_threads(1);
        engine.prewarm(&designs, &config);
        engine
    };
    let (setup_s, engine) = cpu_once(setup);
    let mut setups = vec![setup_s];

    let mut report = Report::default();
    let mut csv = String::new();
    let work = Instant::now();
    let work_cpu = cpu_s(None).expect("own CPU clock");
    for name in STAGES {
        report.attempted += 1;
        let span_name = format!("experiments.{name}");
        let out = catch_unwind(AssertUnwindSafe(|| {
            let _span = isa_obs::span(&span_name);
            stage(name, &engine, &config, &designs)
        }));
        match out {
            Ok(text) => csv.push_str(&text),
            Err(_) => {
                report.failed += 1;
                report.problems.push(format!("stage {name} panicked"));
            }
        }
    }
    report.cpu_s = cpu_s(None).expect("own CPU clock") - work_cpu;
    report.wall_s = work.elapsed().as_secs_f64();
    report.work_end = Some(Instant::now());
    report.peak_rss_mb = peak_rss_mb("self").unwrap_or(f64::NAN);
    report.digest = format!("{:016x}", fnv1a64(csv.as_bytes()));
    // Set-up takes milliseconds: repeat it on fresh engines and report
    // the median.
    for _ in 1..SETUP_REPS {
        setups.push(cpu_once(|| drop(setup())).0);
    }
    report.setup_s = median(&setups).expect("at least one set-up");

    if let Some(path) = trace {
        let totals = span_totals_s(&read_trace(path));
        for name in STAGES {
            let key = format!("experiments.{name}");
            let t = totals.get(&key).copied().unwrap_or(0.0);
            report.layers.insert(format!("{key}_s"), t);
        }
        unit_costs(seed, &engine, &config, &designs, &mut report);
    }
    if check {
        if let Err(problem) = oracle_check(seed, &engine, &config) {
            report.failed += 1;
            report.problems.push(problem);
        }
    }
    report
}

/// A seeded fig9 cell: (design, cpr).
fn seeded_cell(seed: u64, config: &ExperimentConfig) -> (Design, f64) {
    let mut rng = rng(seed, 0xF19);
    let designs = paper_designs();
    (
        designs[rng.gen_range(0..designs.len())],
        config.cprs[rng.gen_range(0..config.cprs.len())],
    )
}

/// Replays a seeded set of lane segments of a seeded fig9 cell on the
/// scalar `ClockedSim` oracle, comparing every sampled output with the
/// production batched path.
fn oracle_check(seed: u64, engine: &Engine, config: &ExperimentConfig) -> Result<(), String> {
    let (design, cpr) = seeded_cell(seed, config);
    let clock = config.clock_ps(cpr);
    let inputs = take_pairs(UniformWorkload::new(32, config.workload_seed), CYCLES);
    let production =
        GateLevelSubstrate::new(engine.cache(), config.clone()).run_batch(&design, clock, &inputs);
    let ctx = engine.context(&design, config);
    let adder = &ctx.synthesized.adder;
    let seg = segment_len(inputs.len());
    for lane in sample_indices(&mut rng(seed, 0x0AC), LANES, 8) {
        let start = lane * seg;
        if start >= inputs.len() {
            continue;
        }
        let end = (start + seg).min(inputs.len());
        let mut scalar = ClockedSim::new(adder.netlist(), &ctx.annotation, clock);
        for (i, &(a, b)) in inputs[start..end].iter().enumerate() {
            let expect = scalar.step(&adder.input_values(a, b));
            if production[start + i] != expect {
                return Err(format!(
                    "fig9 cell {design} @ cpr {cpr}: lane {lane} cycle {i} differs from the scalar oracle"
                ));
            }
        }
    }
    Ok(())
}

/// Per-layer unit costs on the suite's own inputs.
fn unit_costs(
    seed: u64,
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    report: &mut Report,
) {
    let lib = CellLibrary::industrial_65nm();
    let registry = isa_obs::global();
    let counter = |name: &str| registry.snapshot().counter(name).unwrap_or(0) as f64;

    // Filtered backend over every fig9 cell.
    let inputs = take_pairs(UniformWorkload::new(32, config.workload_seed), CYCLES);
    let (cycles0, fast0) = (
        counter("sim.filtered.cycles"),
        counter("sim.filtered.fast_path_cycles"),
    );
    let mut filtered_s = 0.0;
    let mut filtered_cycles = 0usize;
    for design in designs {
        let ctx = engine.context(design, config);
        let (classifier, tape) = (ctx.classifier(), ctx.tape());
        for &cpr in &config.cprs {
            let clock = config.clock_ps(cpr);
            let t = Instant::now();
            std::hint::black_box(run_filtered_batch_tape(
                &ctx.synthesized.adder,
                &ctx.annotation,
                classifier,
                tape,
                clock,
                &inputs,
            ));
            filtered_s += t.elapsed().as_secs_f64();
            filtered_cycles += inputs.len();
        }
    }
    let layers = &mut report.layers;
    layers.insert(
        "timing_sim.filtered_ns_per_cycle".into(),
        filtered_s * 1e9 / filtered_cycles as f64,
    );
    let cycles = counter("sim.filtered.cycles") - cycles0;
    let fast = counter("sim.filtered.fast_path_cycles") - fast0;
    layers.insert(
        "timing_sim.safe_lane_fraction".into(),
        if cycles > 0.0 { fast / cycles } else { 0.0 },
    );

    // Scalar Razor on the exact adder, as the guardband stage runs it.
    let exact = engine.context(&Design::Exact { width: 32 }, config);
    let razor_inputs = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0xE7A1),
        (CYCLES / 5).max(1_000),
    );
    let razor_cfg = RazorConfig {
        margin_ps: 0.12 * config.period_ps,
        recovery_cycles: 5,
    };
    let t = Instant::now();
    for &cpr in &config.cprs {
        std::hint::black_box(run_razor_trace(
            &exact.synthesized.adder,
            &exact.annotation,
            &lib,
            config.clock_ps(cpr),
            &razor_cfg,
            &razor_inputs,
        ));
    }
    layers.insert(
        "timing_sim.razor_ns_per_cycle".into(),
        t.elapsed().as_secs_f64() * 1e9 / (razor_inputs.len() * config.cprs.len()) as f64,
    );

    // Forest fit on three seeded (design, 15 % CPR) cells.
    let train_inputs = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0x7A1),
        TRAIN,
    );
    let mut train_s = 0.0;
    for i in sample_indices(&mut rng(seed, 0x7EA), designs.len(), 3) {
        let ctx = engine.context(&designs[i], config);
        let cycles = trace_to_cycles(&ctx.trace(config.clock_ps(0.15), &train_inputs));
        let t = Instant::now();
        std::hint::black_box(TimingErrorPredictor::train(
            &cycles,
            32,
            &PredictorConfig::default(),
        ));
        train_s += t.elapsed().as_secs_f64();
    }
    layers.insert("learn.train_ms_per_cell".into(), train_s * 1e3 / 3.0);

    // Behavioural model over design-table-style samples.
    let samples = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0xB5),
        200_000,
    );
    let t = Instant::now();
    for design in designs {
        std::hint::black_box(design.behavioural().add_batch(&samples));
    }
    layers.insert(
        "core.behavioural_ns_per_op".into(),
        t.elapsed().as_secs_f64() * 1e9 / (samples.len() * designs.len()) as f64,
    );
}
