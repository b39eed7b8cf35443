//! The `explore` workload: exhaustive `isa_explore::explore` over a seeded
//! sample of the full width-32 design space × the four paper clocks, on
//! one engine worker.
//!
//! Many designs and short streams: every design is built once, so
//! `netlist`, `netlint`, `prove` and the energy runs do the work, while
//! `learn`, Razor and the design table do none.

use std::path::Path;
use std::time::Instant;

use isa_core::{structural_errors, Design};
use isa_engine::{BuildError, Engine, ExperimentConfig, ExperimentPlan};
use isa_explore::{
    explore, snr_db_of_rms_pct, EvalMode, EvalSettings, ObjectiveVector, SearchOutcome,
    SearchSettings, SpaceSpec, Strategy, DEFAULT_CPRS,
};
use isa_netlint::{lint_adder_with_classifier, LintOptions};
use isa_netlist::{
    synthesize_exact, synthesize_isa, CellLibrary, InstructionTape, LaneClassifier,
    SynthesisOptions,
};
use isa_prove::ErrorDistribution;
use isa_serve::store::fnv1a64;
use isa_timing_sim::measure_clocked_batch;
use isa_workloads::{take_pairs, UniformWorkload};

use crate::child::{cpu_once, cpu_s, peak_rss_mb, read_trace, start_trace, Report};
use crate::gen::{explore_designs, rng, sample_indices};
use crate::stats::median;

/// Sampled quadruples per run (plus the exact baseline), × 4 clocks.
pub const DESIGNS: usize = 500;
/// Operand-stream length every survivor is simulated on.
pub const CYCLES: usize = 5_000;
/// Designs of the sample whose layer costs are timed in isolation.
const UNIT_DESIGNS: usize = 100;
/// Set-ups timed per run.
const SETUP_REPS: usize = 101;

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        workload_seed: crate::gen::derived_seeds(seed).0,
        ..ExperimentConfig::default()
    }
}

/// The Pareto front's signature: every entry's key and objective bits.
fn front_signature(outcome: &SearchOutcome) -> String {
    let mut text = String::new();
    for e in outcome.front.entries() {
        let [a, b, c] = e.objectives.components();
        text.push_str(&format!(
            "{} {:x} {:x} {:x}\n",
            e.key,
            a.to_bits(),
            b.to_bits(),
            c.to_bits()
        ));
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// One cold exploration. `check` simulates a seeded handful of pruned
/// candidates, which the front must dominate; `trace` turns on the traced
/// run with the layer unit costs.
#[must_use]
pub fn run(seed: u64, check: bool, trace: Option<&Path>) -> Report {
    if let Some(path) = trace {
        start_trace(path);
    }
    let config = config(seed);
    let setup = || {
        let engine = Engine::with_threads(1);
        let space = SpaceSpec {
            width: 32,
            designs: explore_designs(seed, DESIGNS),
            cprs: DEFAULT_CPRS.to_vec(),
        };
        let mode = EvalMode::uniform_stream(32, CYCLES, config.workload_seed);
        (engine, space, mode)
    };
    let (setup_s, (engine, space, mode)) = cpu_once(setup);
    let mut setups = vec![setup_s];

    let work = Instant::now();
    let work_cpu = cpu_s(None).expect("own CPU clock");
    let outcome = {
        let _span = isa_obs::span("explore.explore");
        explore(
            &engine,
            config.clone(),
            &space,
            mode.clone(),
            EvalSettings::default(),
            SearchSettings {
                strategy: Strategy::Exhaustive,
                ..SearchSettings::default()
            },
        )
    };
    let cpu_s = cpu_s(None).expect("own CPU clock") - work_cpu;
    let wall_s = work.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb("self").unwrap_or(f64::NAN);

    // Set-up takes a fraction of a millisecond: repeat it and report the
    // median.
    for _ in 1..SETUP_REPS {
        setups.push(cpu_once(|| drop(setup())).0);
    }
    let stats = &outcome.stats;
    let mut report = Report {
        setup_s: median(&setups).expect("at least one set-up"),
        cpu_s,
        wall_s,
        peak_rss_mb,
        digest: front_signature(&outcome),
        attempted: space.len() as u64,
        ..Report::default()
    };
    let rejected = lint_rejected(&engine, &config, &space);
    report.failed = rejected as u64;
    if rejected > 0 {
        report
            .problems
            .push(format!("{rejected} designs failed static analysis"));
    }

    if let Some(path) = trace {
        let _ = read_trace(path);
        let layers = &mut report.layers;
        layers.insert("explore.simulated".into(), stats.simulated as f64);
        layers.insert("explore.infeasible".into(), stats.infeasible as f64);
        layers.insert(
            "explore.pruned_fraction".into(),
            stats.pruned as f64 / stats.considered.max(1) as f64,
        );
        unit_costs(seed, &engine, &config, &space, &mode, &outcome, &mut report);
    }
    if check {
        if let Err(problem) = dominance_check(seed, &engine, &config, &mode, &outcome) {
            report.failed += 1;
            report.problems.push(problem);
        }
    }
    report
}

/// Designs the explorer dropped for a lint failure. Missing the timing
/// constraint is a valid answer; failing static analysis is not. Built
/// designs are cache hits here, so only the dropped ones are rebuilt.
fn lint_rejected(engine: &Engine, config: &ExperimentConfig, space: &SpaceSpec) -> usize {
    space
        .designs
        .iter()
        .filter(|d| matches!(engine.try_context(d, config), Err(BuildError::Lint(_))))
        .count()
}

/// The objective vector of `design` at `cpr`, simulated by the engine's
/// own plan executor, independently of the explorer's evaluator.
fn simulate(
    engine: &Engine,
    config: &ExperimentConfig,
    inputs: &[(u64, u64)],
    design: &Design,
    cpr: f64,
    energy_fj: f64,
) -> ObjectiveVector {
    let plan = ExperimentPlan::new(config.clone())
        .designs([*design])
        .cprs([cpr])
        .workload("explore", inputs.to_vec());
    let run = &engine.run(&plan)[0];
    ObjectiveVector::new(run.stats.rms_re_percent().2, run.clock_ps, energy_fj)
}

/// The explorer's one unproven pruning assumption, checked from outside:
/// simulated pruned candidates must be dominated by the front.
fn dominance_check(
    seed: u64,
    engine: &Engine,
    config: &ExperimentConfig,
    mode: &EvalMode,
    outcome: &SearchOutcome,
) -> Result<(), String> {
    let EvalMode::Stream { inputs, .. } = mode else {
        unreachable!("the explore workload is a stream");
    };
    let pruned: Vec<_> = outcome.evaluated.iter().filter(|e| e.pruned).collect();
    for i in sample_indices(&mut rng(seed, 0xD0), pruned.len(), 5) {
        let e = pruned[i];
        let v = simulate(
            engine,
            config,
            inputs,
            &e.point.design,
            e.point.cpr,
            e.energy_fj,
        );
        if !outcome.front.dominates(&v) {
            return Err(format!(
                "pruned candidate {} (error {:.4} %, {:.1} dB) is not dominated by the front",
                e.point.id(),
                v.components()[0],
                snr_db_of_rms_pct(v.components()[0])
            ));
        }
    }
    Ok(())
}

/// Per-design layer costs (CPU time) on a seeded subset of the sample,
/// and the share of the explore CPU time they account for.
fn unit_costs(
    seed: u64,
    engine: &Engine,
    config: &ExperimentConfig,
    space: &SpaceSpec,
    mode: &EvalMode,
    outcome: &SearchOutcome,
    report: &mut Report,
) {
    let EvalMode::Stream { inputs, .. } = mode else {
        unreachable!("the explore workload is a stream");
    };
    let lib = CellLibrary::industrial_65nm();
    let energy_inputs = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0xEC0),
        EvalSettings::default().energy_cycles,
    );
    let mut rng = rng(seed, 0x0C0);
    let subset: Vec<Design> = sample_indices(&mut rng, space.designs.len(), UNIT_DESIGNS)
        .into_iter()
        .map(|i| space.designs[i])
        .collect();

    let mut sums = [0.0f64; 7];
    let mut feasible = 0usize;
    for design in &subset {
        let (synth_s, synthesized) = cpu_once(|| match design {
            Design::Isa(cfg) => {
                synthesize_isa(cfg, config.period_ps, &lib, &SynthesisOptions::default())
            }
            Design::Exact { width } => {
                synthesize_exact(*width, config.period_ps, &lib, &SynthesisOptions::paper())
            }
        });
        sums[0] += synth_s;
        let Ok(synthesized) = synthesized else {
            continue;
        };
        feasible += 1;
        let adder = &synthesized.adder;
        let ann = &synthesized.annotation;
        let gold = design.behavioural();
        let (classifier_s, classifier) = cpu_once(|| LaneClassifier::build(adder, ann));
        let (lint_s, lint) = cpu_once(|| {
            lint_adder_with_classifier(
                adder,
                ann,
                &classifier,
                Some(gold.as_ref()),
                &LintOptions::default(),
            )
        });
        let (tape_s, _) = cpu_once(|| match &lint.levelization {
            Some(level) => InstructionTape::compile_from_levels(adder.netlist(), level.levels()),
            None => InstructionTape::compile(adder.netlist()),
        });
        let (rms_s, _) =
            cpu_once(|| ErrorDistribution::analyze_with_pmf_cap(design, 0).rms_error());
        let (structural_s, _) =
            cpu_once(|| structural_errors(gold.as_ref(), inputs.iter().copied()).rms_re_percent());
        let (energy_s, _) =
            cpu_once(|| measure_clocked_batch(adder, ann, config.period_ps, &energy_inputs, &lib));
        for (sum, t) in
            sums[1..]
                .iter_mut()
                .zip([classifier_s, tape_s, lint_s, rms_s, structural_s, energy_s])
        {
            *sum += t;
        }
    }
    let per_design = |s: f64, n: usize| s * 1e6 / n.max(1) as f64;
    let names = [
        "netlist.synth_us_per_design",
        "netlist.classifier_us_per_design",
        "netlist.tape_us_per_design",
        "netlint.lint_us_per_design",
        "prove.exact_rms_us_per_design",
        "core.structural_us_per_design",
        "timing_sim.energy_us_per_design",
    ];
    let layers = &mut report.layers;
    layers.insert(names[0].into(), per_design(sums[0], subset.len()));
    for (name, sum) in names[1..].iter().zip(&sums[1..]) {
        layers.insert((*name).into(), per_design(*sum, feasible));
    }

    // Tier B: re-simulate a seeded sample of the simulated candidates.
    let simulated: Vec<_> = outcome.evaluated.iter().filter(|e| !e.pruned).collect();
    let picks = sample_indices(&mut rng, simulated.len(), 200);
    let started = cpu_s(None).expect("own CPU clock");
    for &i in &picks {
        let e = simulated[i];
        std::hint::black_box(simulate(
            engine,
            config,
            inputs,
            &e.point.design,
            e.point.cpr,
            e.energy_fj,
        ));
    }
    let sim_us = (cpu_s(None).expect("own CPU clock") - started) * 1e6 / picks.len().max(1) as f64;
    layers.insert("explore.sim_us_per_candidate".into(), sim_us);

    // Attribution: unit costs × counts against the measured CPU time.
    let designs_all = space.designs.len() as f64;
    let designs_ok = (space.designs.len() - outcome.stats.infeasible) as f64;
    let tier_a_us: f64 = [1usize, 3, 4, 5, 6]
        .iter()
        .map(|&i| per_design(sums[i], feasible))
        .sum();
    let attributed_s = (designs_all * per_design(sums[0], subset.len())
        + designs_ok * tier_a_us
        + outcome.stats.simulated as f64 * sim_us)
        / 1e6;
    layers.insert("explore.unattributed_s".into(), report.cpu_s - attributed_s);
}
