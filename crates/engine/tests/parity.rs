//! Parity of the production paths with their references: at a safe clock
//! (period above the critical path) the gate-level circuit settles every
//! cycle, so [`Engine::run`]'s joint statistics equal the structural-only
//! flow ([`structural_errors`]) exactly; overclocked, they equal the Fig. 6
//! flow over the scalar oracle's outputs ([`scalar_segments`]), whose lane
//! segments the gate-level substrate's production `run_batch` matches bit
//! for bit. The learned substrate tracks the gate level on aggregate.

use std::sync::Arc;

use isa_core::{combine_errors, structural_errors, Design, IsaConfig, Substrate};
use isa_engine::{
    ArtifactCache, Engine, ExperimentConfig, ExperimentPlan, GateLevelSubstrate, PredictedSubstrate,
};
use isa_timing_sim::scalar_segments;
use isa_workloads::{take_pairs, UniformWorkload};

fn paper_subset() -> Vec<Design> {
    vec![
        Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
        Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).unwrap()),
        Design::Exact { width: 32 },
    ]
}

/// The plan's one stream (its default uniform workload).
fn plan_inputs(plan: &ExperimentPlan) -> Vec<(u64, u64)> {
    plan.resolved_workloads()[0].inputs.to_vec()
}

#[test]
fn gate_level_at_safe_clock_matches_structural_errors_exactly() {
    let engine = Engine::new();
    let config = ExperimentConfig::default();
    // A negative CPR is an *underclock*: -0.2 runs at 360 ps, above even
    // the +3σ-perturbed critical path of the slack-wall exact adder (the
    // variation model clamps at ±3σ = ±15%), so no output bit is ever
    // sampled before settling. Both flows accumulate in stream order, so
    // the statistics compare bit-for-bit.
    let plan = ExperimentPlan::new(config)
        .designs(paper_subset())
        .cprs([-0.2])
        .cycles(600);
    let inputs = plan_inputs(&plan);
    let gate = engine.run(&plan);

    assert_eq!(gate.len(), 3);
    for (g, design) in gate.iter().zip(paper_subset()) {
        assert_eq!(
            g.timing_error_rate(),
            0.0,
            "{}: safe clock must be timing-error-free",
            g.design_label
        );
        assert_eq!(g.stats.e_timing.rms(), 0.0);
        let structural = structural_errors(design.behavioural().as_ref(), inputs.iter().copied());
        assert_eq!(
            g.stats, structural,
            "{}: joint stats must match the structural-only flow exactly",
            g.design_label
        );
    }
}

#[test]
fn production_run_batch_equals_scalar_segments() {
    // The production path deals the stream to 64 lanes in contiguous
    // segments, each starting from reset; every lane must equal a fresh
    // scalar `ClockedSim` fed that segment, bit for bit, at a safe clock
    // and overclocked — including which cycles err.
    let config = ExperimentConfig::default();
    let substrate = GateLevelSubstrate::new(Arc::new(ArtifactCache::new()), config.clone());
    let inputs = take_pairs(UniformWorkload::new(32, config.workload_seed), 1_000);
    let mut timing_errors = 0usize;
    for design in paper_subset() {
        let gold = design.behavioural();
        let ctx = substrate.context(&design);
        for cpr in [-0.2, 0.15] {
            let clock = config.clock_ps(cpr);
            let batched = substrate.run_batch(&design, clock, &inputs);
            let oracle = scalar_segments(&ctx.synthesized.adder, &ctx.annotation, clock, &inputs);
            assert_eq!(batched, oracle, "{design} at cpr {cpr}");
            timing_errors += inputs
                .iter()
                .zip(&batched)
                .filter(|&(&(a, b), &y)| y != gold.add(a, b))
                .count();
        }
    }
    assert!(timing_errors > 0, "the overclocked point must actually err");
}

#[test]
fn overclocked_engine_run_equals_the_scalar_oracle_flow() {
    // `Engine::run` end to end, overclocked: each run's statistics must
    // equal the Fig. 6 flow over the scalar oracle's silver stream.
    let engine = Engine::new();
    let config = ExperimentConfig::default();
    let plan = ExperimentPlan::new(config.clone())
        .designs(paper_subset())
        .cprs([0.15])
        .cycles(1_000);
    let inputs = plan_inputs(&plan);
    let runs = engine.run(&plan);
    assert_eq!(runs.len(), 3);
    for (run, design) in runs.iter().zip(paper_subset()) {
        let ctx = engine.context(&design, &config);
        let silvers = scalar_segments(
            &ctx.synthesized.adder,
            &ctx.annotation,
            run.clock_ps,
            &inputs,
        );
        let golds = design.behavioural().add_batch(&inputs);
        let oracle = combine_errors(design.width(), &inputs, &golds, &silvers);
        assert_eq!(run.stats, oracle, "{design} at 15% CPR");
    }
    assert!(
        runs.iter().any(|run| run.timing_error_rate() > 0.0),
        "the overclocked runs must actually err"
    );
}

#[test]
fn overclocked_gate_level_diverges_from_structural_errors() {
    // Sanity check that the parity above is not vacuous: with the clock
    // pushed below the critical path, the gate-level run must show timing
    // errors the structural-only flow cannot.
    let engine = Engine::new();
    let design = Design::Exact { width: 32 };
    let plan = ExperimentPlan::new(ExperimentConfig::default())
        .designs([design])
        .cprs([0.15])
        .cycles(600);
    let gate = &engine.run(&plan)[0];
    let structural = structural_errors(
        design.behavioural().as_ref(),
        plan_inputs(&plan).iter().copied(),
    );
    assert!(gate.timing_error_rate() > 0.0);
    assert_eq!(structural.e_timing.error_rate(), 0.0);
    assert!(gate.stats.re_joint.rms() > structural.re_joint.rms());
}

#[test]
fn predicted_substrate_tracks_gate_level_on_aggregate() {
    // The learned substrate is approximate; at a mild overclock of an
    // error-free design it must agree exactly (everything collapses to
    // gold), and where errors exist its timing-error rate should be in the
    // same regime as the ground truth, not orders of magnitude off.
    let engine = Engine::new();
    let config = ExperimentConfig::default();
    let predicted_run = |plan: &ExperimentPlan, train_cycles: usize| {
        let design = plan.design_list()[0];
        let clock = config.clock_ps(plan.cpr_list()[0]);
        let inputs = plan_inputs(plan);
        let substrate = PredictedSubstrate::new(engine.cache(), config.clone(), train_cycles);
        let silvers = substrate.run_batch(&design, clock, &inputs);
        let golds = design.behavioural().add_batch(&inputs);
        combine_errors(design.width(), &inputs, &golds, &silvers)
    };

    // Error-free case: exact agreement.
    let quiet = ExperimentPlan::new(config.clone())
        .designs([Design::Isa(IsaConfig::new(32, 16, 0, 0, 0).unwrap())])
        .cprs([0.05])
        .cycles(400);
    let gate = &engine.run(&quiet)[0];
    assert_eq!(gate.timing_error_rate(), 0.0);
    assert_eq!(predicted_run(&quiet, 400), gate.stats);

    // Error-heavy case: same regime.
    let noisy = ExperimentPlan::new(config.clone())
        .designs([Design::Exact { width: 32 }])
        .cprs([0.15])
        .cycles(800);
    let truth = engine.run(&noisy)[0].timing_error_rate();
    let model = predicted_run(&noisy, 1_500).e_timing.error_rate();
    assert!(truth > 0.05, "ground truth must be error-heavy: {truth}");
    assert!(
        model > truth * 0.3 && model < truth * 3.0,
        "predicted rate {model} out of regime vs truth {truth}"
    );
}
