//! Workload sensitivity of timing errors (extension).
//!
//! The paper notes that "presented results are statistical estimations
//! depending on the random sample distribution (occurrence of specific
//! patterns initiates errors in specific adders)", and its prediction model
//! keys on both `x[t]` and `x[t-1]` precisely because path sensitization is
//! a two-vector phenomenon. This experiment quantifies that: the same
//! design at the same clock shows different timing-error rates under
//! uniform, correlated (random-walk), DSP-tone and accumulation workloads.

use isa_core::Design;
use isa_engine::{Engine, ExperimentConfig, ExperimentPlan};
use isa_workloads::{
    take_pairs, AccumulationWorkload, RandomWalkWorkload, SineWorkload, UniformWorkload,
};

use crate::report::{sci, Table};

/// One (workload, design) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPoint {
    /// Workload name.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// Cycle-level timing-error rate.
    pub timing_error_rate: f64,
    /// RMS of the timing relative error, percent.
    pub rms_re_timing_pct: f64,
    /// RMS of the joint relative error, percent.
    pub rms_re_joint_pct: f64,
}

/// The workload-sensitivity dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Clock-period reduction used.
    pub cpr: f64,
    /// All measurements, grouped by design then workload.
    pub points: Vec<WorkloadPoint>,
    /// Cycles per measurement.
    pub cycles: usize,
}

/// The workload suite: name + generator of `cycles` operand pairs.
fn workloads(seed: u64, cycles: usize) -> Vec<(&'static str, Vec<(u64, u64)>)> {
    vec![
        (
            "uniform",
            take_pairs(UniformWorkload::new(32, seed), cycles),
        ),
        (
            "walk-4k",
            RandomWalkWorkload::new(32, 4096, seed)
                .take(cycles)
                .collect(),
        ),
        (
            "sine-mix",
            take_pairs(SineWorkload::new(32, 0.013, 0.029, 0.05, seed), cycles),
        ),
        (
            "accumulate",
            AccumulationWorkload::new(32, 24, seed)
                .take(cycles)
                .collect(),
        ),
    ]
}

/// Runs the sensitivity study for given designs at one CPR on a shared
/// engine: one gate-level plan whose workload axis carries the whole
/// suite, spread over the engine's workers.
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    cpr: f64,
    cycles: usize,
) -> WorkloadReport {
    let mut plan = ExperimentPlan::new(config.clone())
        .designs(designs.iter().copied())
        .cprs([cpr]);
    for (name, inputs) in workloads(config.workload_seed ^ 0x3013, cycles) {
        plan = plan.workload(name, inputs);
    }
    let points = engine
        .run(&plan)
        .into_iter()
        .map(|result| {
            let (_, t, j) = result.stats.rms_re_percent();
            WorkloadPoint {
                workload: result.workload.clone(),
                design: result.design_label.clone(),
                timing_error_rate: result.timing_error_rate(),
                rms_re_timing_pct: t,
                rms_re_joint_pct: j,
            }
        })
        .collect();
    WorkloadReport {
        cpr,
        points,
        cycles,
    }
}

impl WorkloadReport {
    /// Renders the sensitivity table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "workload".into(),
            "err-rate".into(),
            "RMS REt(%)".into(),
            "RMS REj(%)".into(),
        ]);
        for p in &self.points {
            table.push_row(vec![
                p.design.clone(),
                p.workload.clone(),
                format!("{:.4}", p.timing_error_rate),
                sci(p.rms_re_timing_pct),
                sci(p.rms_re_joint_pct),
            ]);
        }
        format!(
            "Workload sensitivity at {:.0}% CPR ({} cycles per point)\n{}",
            self.cpr * 100.0,
            self.cycles,
            table.render()
        )
    }

    /// CSV export.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "workload".into(),
            "cpr".into(),
            "timing_error_rate".into(),
            "rms_re_timing_pct".into(),
            "rms_re_joint_pct".into(),
        ]);
        for p in &self.points {
            table.push_row(vec![
                p.design.clone(),
                p.workload.clone(),
                format!("{}", self.cpr),
                format!("{}", p.timing_error_rate),
                format!("{}", p.rms_re_timing_pct),
                format!("{}", p.rms_re_joint_pct),
            ]);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::Design;

    #[test]
    fn correlated_workloads_reduce_timing_errors_on_exact() {
        let config = ExperimentConfig::default();
        let report = run_on(
            &Engine::new(),
            &config,
            &[Design::Exact { width: 32 }],
            0.10,
            1_500,
        );
        let rate = |name: &str| {
            report
                .points
                .iter()
                .find(|p| p.workload == name)
                .unwrap()
                .timing_error_rate
        };
        // Small-step walks sensitize fewer long paths than uniform data.
        assert!(
            rate("walk-4k") < rate("uniform"),
            "walk {} vs uniform {}",
            rate("walk-4k"),
            rate("uniform")
        );
        assert!(rate("uniform") > 0.2, "exact at 10% must be error-heavy");
    }

    #[test]
    fn report_covers_every_workload() {
        let config = ExperimentConfig::default();
        let designs = [Design::Isa(
            isa_core::IsaConfig::new(32, 8, 0, 0, 4).unwrap(),
        )];
        let report = run_on(&Engine::new(), &config, &designs, 0.15, 300);
        assert_eq!(report.points.len(), 4);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(report.render().contains("accumulate"));
    }
}
