//! End-to-end smoke tests of every figure pipeline at reduced sample
//! counts, asserting the paper's headline qualitative findings.

use overclocked_isa::core::{paper_designs, Design, IsaConfig};
use overclocked_isa::engine::Engine;
use overclocked_isa::experiments::{design_table, fig10, fig9, prediction, ExperimentConfig};

fn mini_designs() -> Vec<Design> {
    // A representative subset: a low-accuracy 8-block, a high-accuracy
    // 16-block, and the exact baseline.
    vec![
        Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
        Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).unwrap()),
        Design::Exact { width: 32 },
    ]
}

#[test]
fn fig9_headline_findings_hold_at_small_scale() {
    let config = ExperimentConfig::default();
    let report = fig9::run_on(&Engine::new(), &config, &mini_designs(), 2_000);

    let isa8 = report.row("(8,0,0,4)").unwrap();
    let isa16 = report.row("(16,2,1,6)").unwrap();
    let exact = report.row("exact").unwrap();

    // 1. The exact adder is the worst joint-error adder at 5% CPR.
    for row in [&isa8, &isa16] {
        assert!(
            exact.points[0].rms_re_joint_pct > row.points[0].rms_re_joint_pct,
            "exact must be worst at 5%: {} vs {}",
            exact.points[0].rms_re_joint_pct,
            row.points[0].rms_re_joint_pct
        );
    }
    // 2. Exact adder error grows monotonically with CPR.
    assert!(exact.points[1].rms_re_joint_pct >= exact.points[0].rms_re_joint_pct);
    assert!(exact.points[2].rms_re_joint_pct >= exact.points[1].rms_re_joint_pct);
    // 3. The 8-block ISA's joint error is dominated by structural error at
    //    every CPR.
    for p in &isa8.points {
        assert!(p.rms_re_struct_pct > p.rms_re_timing_pct);
    }
    // 4. Exact adder has no structural error.
    assert!(exact.points.iter().all(|p| p.rms_re_struct_pct == 0.0));
}

#[test]
fn prediction_pipeline_beats_the_trivial_baseline_when_errors_exist() {
    let config = ExperimentConfig {
        cprs: vec![0.15],
        ..ExperimentConfig::default()
    };
    let designs = [Design::Exact { width: 32 }];
    let report = prediction::run_on(&Engine::new(), &config, &designs, 2_000, 1_000);
    let p = report.rows[0].points[0];
    assert!(p.test_error_rate > 0.2, "exact at 15% must be error-heavy");
    // Trivial always-correct prediction would score ABPER equal to the
    // average per-bit error rate; the model must do better than half that.
    // (The per-bit rate is bounded below by the cycle rate / 33.)
    assert!(
        p.abper < p.test_error_rate,
        "ABPER {} vs cycle error rate {}",
        p.abper,
        p.test_error_rate
    );
    assert!(p.trained_bits > 0);
}

#[test]
fn fig10_reproduces_the_distribution_shape() {
    let config = ExperimentConfig::default();
    let design = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap());
    let report = fig10::run_on(&Engine::new(), &config, design, 0.15, 3_000);
    let s = report.structural.rates();
    // Error-free LSB path start.
    assert!(s[..4].iter().all(|&r| r == 0.0));
    // Reduction rewrites bits 4..8/12..16/20..24: mass left of boundaries.
    for boundary in [8usize, 16, 24] {
        let left: f64 = s[boundary - 4..boundary].iter().sum();
        let right: f64 = s[boundary..boundary + 4].iter().sum();
        assert!(left > right, "boundary {boundary}: {left} vs {right}");
    }
}

#[test]
fn design_table_characterizes_all_designs() {
    let config = ExperimentConfig::default();
    let table = design_table::run_on(&Engine::new(), &config, &paper_designs(), 20_000);
    assert_eq!(table.rows.len(), 12);
    // All meet the 0.3 ns constraint; exact has zero structural error and
    // infinite SNR (None).
    for row in &table.rows {
        assert!(row.critical_ps <= config.period_ps + 1e-9, "{}", row.design);
    }
    let exact = table.rows.last().unwrap();
    assert_eq!(exact.design, "exact");
    assert_eq!(exact.rms_re_struct_pct, 0.0);
    assert!(exact.snr_db.is_none());
    // ISA rows all have positive area and cells.
    assert!(table.rows.iter().all(|r| r.area > 0.0 && r.cells > 0));
}

#[test]
fn csv_exports_are_well_formed() {
    let config = ExperimentConfig::default();
    let designs = [Design::Isa(IsaConfig::new(32, 8, 0, 1, 4).unwrap())];
    let f9 = fig9::run_on(&Engine::new(), &config, &designs, 200);
    let csv = f9.to_csv();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert_eq!(header.split(',').count(), 6);
    for line in lines {
        // The quoted design name contains commas; strip it first.
        let after_design = line.rsplit('"').next().unwrap();
        assert_eq!(after_design.split(',').count() - 1, 5, "line {line}");
    }
}
