//! Substrate parity: the same plan evaluated on different substrates
//! through the one `Substrate` interface must agree where the physics says
//! it has to — at a safe clock (period above the critical path) the
//! gate-level circuit settles every cycle, so its joint statistics equal
//! the behavioural (structural-only) substrate's exactly. And the
//! gate-level substrate's production `run_batch` must equal the scalar
//! oracle ([`scalar_segments`]), lane segment by lane segment.

use std::sync::Arc;

use isa_core::{Design, IsaConfig, Substrate};
use isa_engine::{
    ArtifactCache, Engine, ExperimentConfig, ExperimentPlan, GateLevelSubstrate, SubstrateChoice,
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

#[test]
fn gate_level_at_safe_clock_matches_behavioural_exactly() {
    let engine = Engine::new();
    let config = ExperimentConfig::default();
    // A negative CPR is an *underclock*: -0.2 runs at 360 ps, above even
    // the +3σ-perturbed critical path of the slack-wall exact adder (the
    // variation model clamps at ±3σ = ±15%), so no output bit is ever
    // sampled before settling. Both substrates accumulate each run in
    // stream order, so the statistics compare bit-for-bit.
    let base = ExperimentPlan::new(config)
        .designs(paper_subset())
        .cprs([-0.2])
        .cycles(600);
    let gate = engine.run(&base.clone().substrate(SubstrateChoice::GateLevel));
    let behavioural = engine.run(&base.substrate(SubstrateChoice::Behavioural));

    assert_eq!(gate.len(), behavioural.len());
    for (g, b) in gate.iter().zip(&behavioural) {
        assert_eq!(g.design_label, b.design_label);
        assert_eq!(
            g.timing_error_rate(),
            0.0,
            "{}: safe clock must be timing-error-free",
            g.design_label
        );
        assert_eq!(g.stats.e_timing.rms(), 0.0);
        assert_eq!(
            g.stats, b.stats,
            "{}: joint stats must match the behavioural substrate exactly",
            g.design_label
        );
        assert_eq!(g.structural_bits, b.structural_bits);
        assert_eq!(g.timing_bits, b.timing_bits);
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
fn overclocked_gate_level_diverges_from_behavioural() {
    // Sanity check that the parity above is not vacuous: with the clock
    // pushed below the critical path, the gate-level substrate must show
    // timing errors the behavioural substrate cannot.
    let engine = Engine::new();
    let plan = ExperimentPlan::new(ExperimentConfig::default())
        .designs([Design::Exact { width: 32 }])
        .cprs([0.15])
        .cycles(600);
    let gate = &engine.run(&plan.clone().substrate(SubstrateChoice::GateLevel))[0];
    let behavioural = &engine.run(&plan.substrate(SubstrateChoice::Behavioural))[0];
    assert!(gate.timing_error_rate() > 0.0);
    assert_eq!(behavioural.timing_error_rate(), 0.0);
    assert!(gate.stats.re_joint.rms() > behavioural.stats.re_joint.rms());
}

#[test]
fn predicted_substrate_tracks_gate_level_on_aggregate() {
    // The learned substrate is approximate; at a mild overclock of an
    // error-free design it must agree exactly (everything collapses to
    // gold), and where errors exist its timing-error rate should be in the
    // same regime as the ground truth, not orders of magnitude off.
    let engine = Engine::new();
    let config = ExperimentConfig::default();

    // Error-free case: exact agreement.
    let quiet = ExperimentPlan::new(config.clone())
        .designs([Design::Isa(IsaConfig::new(32, 16, 0, 0, 0).unwrap())])
        .cprs([0.05])
        .cycles(400);
    let gate = &engine.run(&quiet.clone().substrate(SubstrateChoice::GateLevel))[0];
    let predicted =
        &engine.run(&quiet.substrate(SubstrateChoice::Predicted { train_cycles: 400 }))[0];
    assert_eq!(gate.timing_error_rate(), 0.0);
    assert_eq!(predicted.stats, gate.stats);

    // Error-heavy case: same regime.
    let noisy = ExperimentPlan::new(config)
        .designs([Design::Exact { width: 32 }])
        .cprs([0.15])
        .cycles(800);
    let gate = &engine.run(&noisy.clone().substrate(SubstrateChoice::GateLevel))[0];
    let predicted = &engine.run(&noisy.substrate(SubstrateChoice::Predicted {
        train_cycles: 1_500,
    }))[0];
    let truth = gate.timing_error_rate();
    let model = predicted.timing_error_rate();
    assert!(truth > 0.05, "ground truth must be error-heavy: {truth}");
    assert!(
        model > truth * 0.3 && model < truth * 3.0,
        "predicted rate {model} out of regime vs truth {truth}"
    );
}
