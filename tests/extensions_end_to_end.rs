//! Integration tests of the extension systems on the full synthesized
//! stack: Razor baseline, energy model, artifact export, model
//! persistence, the ISA multiplier and the analytical cross-check.

use overclocked_isa::core::analysis::DesignAnalysis;
use overclocked_isa::core::{
    paper_designs, paper_isa_configs, Design, IsaConfig, Multiplier, SpeculativeMultiplier,
};
use overclocked_isa::experiments::prediction::trace_to_cycles;
use overclocked_isa::experiments::{design_table, DesignContext, Engine, ExperimentConfig};
use overclocked_isa::learn::{PredictorConfig, TimingErrorPredictor};
use overclocked_isa::metrics::abper;
use overclocked_isa::netlist::cell::CellLibrary;
use overclocked_isa::netlist::{sdf, verilog};
use overclocked_isa::timing_sim::razor::{run_razor_trace, RazorConfig};
use overclocked_isa::timing_sim::{measure_activity, GateLevelSim};
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

#[test]
fn razor_protects_the_slack_walled_exact_adder() {
    let config = ExperimentConfig::default();
    let ctx = DesignContext::build(Design::Exact { width: 32 }, &config);
    let lib = CellLibrary::industrial_65nm();
    let inputs = take_pairs(UniformWorkload::new(32, 0x0A2E), 400);
    let razor_cfg = RazorConfig {
        margin_ps: 0.12 * config.period_ps,
        recovery_cycles: 5,
    };
    let (cycles, report) = run_razor_trace(
        &ctx.synthesized.adder,
        &ctx.annotation,
        &lib,
        config.clock_ps(0.10),
        &razor_cfg,
        &inputs,
    );
    // The slack-walled exact adder at 10% CPR errors massively; Razor must
    // be catching them (that is its purpose) at a throughput cost.
    assert!(report.detections > 50, "detections {}", report.detections);
    assert!(report.throughput() < 0.8);
    let committed_correct = cycles.iter().filter(|c| c.committed() == c.a + c.b).count();
    assert!(
        committed_correct as f64 / cycles.len() as f64 > 0.95,
        "recovery must restore almost all results"
    );
}

#[test]
fn energy_model_tracks_clock_independent_activity() {
    // Dynamic energy per op is an activity property: measuring at the safe
    // clock and at 15% CPR must agree within a few percent (same input
    // transitions, same gates switched).
    let config = ExperimentConfig::default();
    let ctx = DesignContext::build(
        Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
        &config,
    );
    let lib = CellLibrary::industrial_65nm();
    let inputs = take_pairs(UniformWorkload::new(32, 0xE6), 500);
    let mut dynamic = Vec::new();
    for period in [config.period_ps, config.clock_ps(0.15)] {
        let netlist = ctx.synthesized.adder.netlist();
        let mut sim = GateLevelSim::new(netlist, &ctx.annotation);
        for &(a, b) in &inputs {
            let t0 = sim.now_fs();
            sim.set_inputs(&ctx.synthesized.adder.input_values(a, b));
            sim.run_until(t0 + overclocked_isa::timing_sim::ps_to_fs(period));
        }
        // Drain residual activity so both runs count every transition.
        sim.run_to_quiescence(10_000_000).unwrap();
        let report = measure_activity(sim.net_commit_counts(), sim.now_fs(), netlist, &lib);
        dynamic.push(report.dynamic_fj);
    }
    let ratio = dynamic[0] / dynamic[1];
    assert!(
        (0.95..1.05).contains(&ratio),
        "dynamic energy should be clock-independent: {dynamic:?}"
    );
}

#[test]
fn exported_artifacts_are_consistent() {
    let config = ExperimentConfig::default();
    let ctx = DesignContext::build(
        Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).unwrap()),
        &config,
    );
    let netlist = ctx.synthesized.adder.netlist();
    let v = verilog::write(netlist);
    let s = sdf::write(netlist, &ctx.annotation);
    // Same design name in both artifacts; one SDF entry per Verilog
    // instance.
    assert!(v.contains(&format!("module {}", netlist.name())));
    assert!(s.contains(&format!("(DESIGN \"{}\")", netlist.name())));
    assert_eq!(s.matches("(CELL ").count(), netlist.cell_count());
    let instances = v
        .lines()
        .filter(|l| l.contains("(.") && l.contains(");"))
        .count();
    assert_eq!(instances, netlist.cell_count());
}

#[test]
fn trained_model_survives_disk_roundtrip_on_real_traces() {
    let config = ExperimentConfig::default();
    let ctx = DesignContext::build(Design::Exact { width: 32 }, &config);
    let clk = config.clock_ps(0.15);
    let train = trace_to_cycles(&ctx.trace(clk, &take_pairs(UniformWorkload::new(32, 1), 2_000)));
    let test = trace_to_cycles(&ctx.trace(clk, &take_pairs(UniformWorkload::new(32, 2), 800)));
    let model = TimingErrorPredictor::train(&train, 32, &PredictorConfig::default());
    let reloaded = TimingErrorPredictor::from_text(&model.to_text()).expect("roundtrip");
    let pred_a: Vec<u64> = test.iter().map(|c| model.predict_flips(c)).collect();
    let pred_b: Vec<u64> = test.iter().map(|c| reloaded.predict_flips(c)).collect();
    assert_eq!(pred_a, pred_b);
    let real: Vec<u64> = test.iter().map(|c| c.flips).collect();
    assert!((abper(&pred_a, &real, 33) - abper(&pred_b, &real, 33)).abs() < 1e-15);
}

#[test]
fn multiplier_quality_follows_accumulator_analysis() {
    // The analytical per-design error rate orders the multiplier's product
    // quality: accumulators with lower analytical error rates give smaller
    // mean product error.
    let configs = [
        IsaConfig::new(32, 8, 0, 0, 0).unwrap(),
        IsaConfig::new(32, 8, 0, 1, 4).unwrap(),
        IsaConfig::new(32, 16, 2, 1, 6).unwrap(),
    ];
    let inputs = take_pairs(UniformWorkload::new(16, 0x3u64), 4_000);
    let mut previous_rate = f64::INFINITY;
    let mut previous_err = f64::INFINITY;
    for cfg in configs {
        let rate = DesignAnalysis::analyze(&Design::Isa(cfg)).error_rate();
        let mul = SpeculativeMultiplier::new(16, cfg).unwrap();
        let mean_err: f64 = inputs
            .iter()
            .map(|&(a, b)| (a * b - mul.multiply(a, b)) as f64)
            .sum::<f64>()
            / inputs.len() as f64;
        assert!(rate < previous_rate, "{cfg}: analysis must order designs");
        assert!(
            mean_err < previous_err,
            "{cfg}: product error {mean_err} vs previous {previous_err}"
        );
        previous_rate = rate;
        previous_err = mean_err;
    }
}

#[test]
fn analytical_rates_match_design_table_error_rates() {
    // Cross-check the analysis crate against the experiment pipeline's
    // Monte-Carlo characterization at the integration level.
    let config = ExperimentConfig::default();
    let table = design_table::run_on(&Engine::new(), &config, &paper_designs(), 100_000);
    for cfg in paper_isa_configs() {
        let analytical = DesignAnalysis::analyze(&Design::Isa(cfg)).error_rate();
        let measured = table
            .rows
            .iter()
            .find(|r| r.design == cfg.to_string())
            .expect("design present")
            .structural_error_rate;
        assert!(
            (analytical - measured).abs() < 0.01,
            "{cfg}: analytical {analytical} vs measured {measured}"
        );
    }
}
