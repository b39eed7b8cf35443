//! Figs. 7 and 8 reproduction: the bit-level timing-error prediction model
//! trained per (design, CPR), evaluated by ABPER (Eq. 1) and AVPE (Eq. 4).
//!
//! Data collection follows Section III.A: delay-annotated gate-level
//! simulation over random operands produces per-cycle timing-class vectors;
//! a Random Forest per output bit learns `{x[t], x[t-1], yRTL_n[t-1],
//! yRTL_n[t]} -> timing class`; evaluation runs on held-out cycles from an
//! independently seeded stream.

use isa_core::{Design, Substrate};
use isa_engine::{
    cycles_with_segment_resets, Engine, ExperimentConfig, ExperimentPlan, GateLevelSubstrate,
    PredictedSubstrate,
};
use isa_learn::CyclePair;
use isa_metrics::{AbperAccumulator, AvpeAccumulator};
use isa_timing_sim::CycleRecord;
use isa_workloads::{take_pairs, UniformWorkload};

use crate::report::{sci, Table};

/// Converts a gate-level trace into the predictor's cycle stream.
#[must_use]
pub fn trace_to_cycles(trace: &[CycleRecord]) -> Vec<CyclePair> {
    let raw: Vec<(u64, u64, u64, u64)> = trace
        .iter()
        .map(|r| (r.a, r.b, r.settled, r.flipped_bits()))
        .collect();
    CyclePair::from_stream(&raw)
}

/// One (design, CPR) prediction evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionPoint {
    /// Clock-period reduction.
    pub cpr: f64,
    /// Average bit-level prediction error rate (Eq. 1), un-floored.
    pub abper: f64,
    /// Average value-level predictive error (Eq. 4), un-floored.
    pub avpe: f64,
    /// Bits that needed a trained forest (non-constant labels).
    pub trained_bits: usize,
    /// Timing-error rate of the *test* trace (ground truth activity).
    pub test_error_rate: f64,
}

/// One design's prediction row across CPRs.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionRow {
    /// Design label.
    pub design: String,
    /// Per-CPR results.
    pub points: Vec<PredictionPoint>,
}

/// The Figs. 7 + 8 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionReport {
    /// CPRs evaluated.
    pub cprs: Vec<f64>,
    /// Per-design rows.
    pub rows: Vec<PredictionRow>,
    /// Training cycles per (design, CPR).
    pub train_cycles: usize,
    /// Held-out test cycles per (design, CPR).
    pub test_cycles: usize,
}

/// Runs model training + evaluation on a shared engine for an explicit
/// design list.
///
/// Training goes through the engine's [`PredictedSubstrate`] (which
/// memoizes one trained model per (design, clock) against the shared
/// artifact cache); ground truth comes from independent
/// [`GateLevelSubstrate`] runs over the held-out stream. The
/// (design × CPR) evaluations are spread over the engine's workers.
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    train_cycles: usize,
    test_cycles: usize,
) -> PredictionReport {
    let predicted = PredictedSubstrate::new(engine.cache(), config.clone(), train_cycles);
    let gate = GateLevelSubstrate::new(engine.cache(), config.clone());
    let test_inputs = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0x7E57),
        test_cycles,
    );
    let plan = ExperimentPlan::new(config.clone())
        .designs(designs.iter().copied())
        .workload("uniform-test", test_inputs);
    let points = engine.map(&plan, |unit| {
        let predictor = predicted.predictor(&unit.design, unit.clock_ps);
        // Golds and ground truth for the whole held-out stream, one
        // batched call each.
        let golds = unit.design.behavioural().add_batch(unit.inputs);
        let real_silvers = gate.run_batch(&unit.design, unit.clock_ps, unit.inputs);
        // The circuit restarts from reset at every lane-segment seam; the
        // model's x[t-1] features must follow the *physical* predecessor,
        // so reset them at the same positions.
        let raw: Vec<(u64, u64, u64, u64)> = unit
            .inputs
            .iter()
            .zip(&golds)
            .zip(&real_silvers)
            .map(|((&(a, b), &gold_y), &real_silver)| (a, b, gold_y, real_silver ^ gold_y))
            .collect();
        let cycles = cycles_with_segment_resets(&raw);
        let predicted = predictor.predict_flips_batch(&cycles);
        let mut abper = AbperAccumulator::new(unit.design.width() + 1);
        let mut avpe = AvpeAccumulator::new();
        let mut erroneous = 0usize;
        for ((cycle, &predicted_flips), &real_silver) in
            cycles.iter().zip(&predicted).zip(&real_silvers)
        {
            abper.record(predicted_flips, cycle.flips);
            avpe.record(cycle.gold ^ predicted_flips, real_silver);
            if cycle.flips != 0 {
                erroneous += 1;
            }
        }
        PredictionPoint {
            cpr: unit.cpr,
            abper: abper.abper(),
            avpe: avpe.avpe(),
            trained_bits: predictor.trained_bits(),
            test_error_rate: erroneous as f64 / unit.inputs.len().max(1) as f64,
        }
    });
    let ncpr = config.cprs.len();
    let rows = designs
        .iter()
        .enumerate()
        .map(|(d, design)| PredictionRow {
            design: design.to_string(),
            points: points[d * ncpr..(d + 1) * ncpr].to_vec(),
        })
        .collect();
    PredictionReport {
        cprs: config.cprs.clone(),
        rows,
        train_cycles,
        test_cycles,
    }
}

impl PredictionReport {
    /// Renders the Fig. 7 view (ABPER per design per CPR, with the paper's
    /// 10⁻⁶ floor).
    #[must_use]
    pub fn render_fig7(&self) -> String {
        self.render_metric("Fig. 7: ABPER", |p| isa_metrics::floor(p.abper))
    }

    /// Renders the Fig. 8 view (AVPE per design per CPR, floored).
    #[must_use]
    pub fn render_fig8(&self) -> String {
        self.render_metric("Fig. 8: AVPE", |p| isa_metrics::floor(p.avpe))
    }

    fn render_metric(&self, title: &str, metric: impl Fn(&PredictionPoint) -> f64) -> String {
        let mut headers = vec!["design".into()];
        for &cpr in &self.cprs {
            headers.push(format!("{:.3}ns", 0.3 * (1.0 - cpr)));
        }
        let mut table = Table::new(headers);
        for row in &self.rows {
            let mut cells = vec![row.design.clone()];
            for p in &row.points {
                cells.push(sci(metric(p)));
            }
            table.push_row(cells);
        }
        format!(
            "{title} (train {} / test {} cycles)\n{}",
            self.train_cycles,
            self.test_cycles,
            table.render()
        )
    }

    /// CSV with both metrics.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "cpr".into(),
            "abper".into(),
            "avpe".into(),
            "trained_bits".into(),
            "test_error_rate".into(),
        ]);
        for row in &self.rows {
            for p in &row.points {
                table.push_row(vec![
                    row.design.clone(),
                    format!("{}", p.cpr),
                    format!("{}", p.abper),
                    format!("{}", p.avpe),
                    format!("{}", p.trained_bits),
                    format!("{}", p.test_error_rate),
                ]);
            }
        }
        table.to_csv()
    }

    /// The row for a design label, if present.
    #[must_use]
    pub fn row(&self, design: &str) -> Option<&PredictionRow> {
        self.rows.iter().find(|r| r.design == design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::{Design, IsaConfig};

    #[test]
    fn error_free_design_yields_floor_metrics() {
        // (16,0,0,0) has no timing errors at 5% CPR under the default die:
        // ABPER and AVPE must be exactly 0 (displayed as the 1e-6 floor).
        let config = ExperimentConfig {
            cprs: vec![0.05],
            ..ExperimentConfig::default()
        };
        let designs = [Design::Isa(IsaConfig::new(32, 16, 0, 0, 0).unwrap())];
        let report = run_on(&Engine::new(), &config, &designs, 300, 150);
        let p = report.rows[0].points[0];
        assert_eq!(p.test_error_rate, 0.0);
        assert_eq!(p.abper, 0.0);
        assert_eq!(p.avpe, 0.0);
        assert!(report.render_fig7().contains("1.000e-6"));
    }

    #[test]
    fn erroneous_design_trains_bits_and_reports_metrics() {
        // The exact adder at 15% CPR has plenty of timing errors; the
        // predictor should train forests and keep ABPER well below the
        // error rate (predicting constant-correct would score ABPER equal
        // to the per-bit error rate).
        let config = ExperimentConfig {
            cprs: vec![0.15],
            ..ExperimentConfig::default()
        };
        let designs = [Design::Exact { width: 32 }];
        let report = run_on(&Engine::new(), &config, &designs, 1500, 600);
        let p = report.rows[0].points[0];
        assert!(p.test_error_rate > 0.05, "rate {}", p.test_error_rate);
        assert!(p.trained_bits > 0);
        assert!(p.abper > 0.0, "mispredictions are expected");
        assert!(p.abper < 0.2, "ABPER should stay small: {}", p.abper);
    }

    #[test]
    fn csv_has_one_line_per_design_cpr() {
        let config = ExperimentConfig::default();
        let designs = [Design::Isa(IsaConfig::new(32, 8, 0, 0, 0).unwrap())];
        let report = run_on(&Engine::new(), &config, &designs, 100, 50);
        assert_eq!(report.to_csv().lines().count(), 1 + 3);
    }
}
