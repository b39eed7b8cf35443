//! Fig. 9 reproduction: structural, timing and joint relative-error RMS of
//! every design at 5/10/15 % clock-period reduction.
//!
//! Implements the Fig. 6 flow end to end through the engine: `ydiamond`
//! from exact addition, `ygold` from the behavioural ISA model, `ysilver`
//! from the gate-level substrate's `run_batch` at the reduced clock.

use isa_core::Design;
use isa_engine::{Engine, ExperimentConfig, ExperimentPlan};

use crate::report::{sci, Table};

/// One (design, CPR) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Point {
    /// Clock-period reduction (e.g. 0.10).
    pub cpr: f64,
    /// RMS of the structural relative error, percent.
    pub rms_re_struct_pct: f64,
    /// RMS of the timing relative error, percent.
    pub rms_re_timing_pct: f64,
    /// RMS of the joint relative error, percent.
    pub rms_re_joint_pct: f64,
    /// Fraction of cycles with at least one timing-erroneous output bit.
    pub timing_error_rate: f64,
}

/// One design's row across all CPRs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Design label (quadruple or `exact`).
    pub design: String,
    /// Measurements per CPR, in configuration order.
    pub points: Vec<Fig9Point>,
}

/// The full Fig. 9 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Report {
    /// CPRs evaluated.
    pub cprs: Vec<f64>,
    /// Per-design rows in figure order (exact last).
    pub rows: Vec<Fig9Row>,
    /// Cycles simulated per (design, CPR).
    pub cycles: usize,
}

/// Runs the error-combination experiment on a shared engine (memoized
/// synthesis artifacts, runs spread over its worker pool) for an explicit
/// design list.
///
/// `cycles` is the gate-level sample count per (design, CPR) pair; the
/// paper uses ten million behavioural samples — see the README for the
/// counts used in the reproduction and their convergence check.
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    cycles: usize,
) -> Fig9Report {
    let plan = ExperimentPlan::new(config.clone())
        .designs(designs.iter().copied())
        .cycles(cycles);
    let results = engine.run(&plan);
    let ncpr = config.cprs.len();
    let rows = designs
        .iter()
        .enumerate()
        .map(|(d, design)| {
            let points = (0..ncpr)
                .map(|c| {
                    let result = &results[d * ncpr + c];
                    let (s, t, j) = result.stats.rms_re_percent();
                    Fig9Point {
                        cpr: result.cpr,
                        rms_re_struct_pct: s,
                        rms_re_timing_pct: t,
                        rms_re_joint_pct: j,
                        timing_error_rate: result.timing_error_rate(),
                    }
                })
                .collect();
            Fig9Row {
                design: design.to_string(),
                points,
            }
        })
        .collect();
    Fig9Report {
        cprs: config.cprs.clone(),
        rows,
        cycles,
    }
}

impl Fig9Report {
    /// Renders one plain-text table per CPR (matching Fig. 9a/b/c).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, &cpr) in self.cprs.iter().enumerate() {
            out.push_str(&format!(
                "Fig. 9{}: relative error RMS (%) at {:.0}% CPR ({} cycles)\n",
                char::from(b'a' + i as u8),
                cpr * 100.0,
                self.cycles
            ));
            let mut table = Table::new(vec![
                "design".into(),
                "structural".into(),
                "timing".into(),
                "joint".into(),
                "err-rate".into(),
            ]);
            for row in &self.rows {
                let p = row.points[i];
                table.push_row(vec![
                    row.design.clone(),
                    sci(p.rms_re_struct_pct),
                    sci(p.rms_re_timing_pct),
                    sci(p.rms_re_joint_pct),
                    format!("{:.4}", p.timing_error_rate),
                ]);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Renders the full dataset as CSV (one line per design x CPR).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "cpr".into(),
            "rms_re_struct_pct".into(),
            "rms_re_timing_pct".into(),
            "rms_re_joint_pct".into(),
            "timing_error_rate".into(),
        ]);
        for row in &self.rows {
            for p in &row.points {
                table.push_row(vec![
                    row.design.clone(),
                    format!("{}", p.cpr),
                    format!("{}", p.rms_re_struct_pct),
                    format!("{}", p.rms_re_timing_pct),
                    format!("{}", p.rms_re_joint_pct),
                    format!("{}", p.timing_error_rate),
                ]);
            }
        }
        table.to_csv()
    }

    /// The row for a given design label, if present.
    #[must_use]
    pub fn row(&self, design: &str) -> Option<&Fig9Row> {
        self.rows.iter().find(|r| r.design == design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::{Design, IsaConfig};

    /// A miniature two-design run exercising the full pipeline.
    #[test]
    fn small_run_produces_consistent_rows() {
        let config = ExperimentConfig::default();
        let designs = [
            Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
            Design::Exact { width: 32 },
        ];
        let report = run_on(&Engine::new(), &config, &designs, 400);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.points.len(), 3);
        }
        let isa = report.row("(8,0,0,4)").unwrap();
        let exact = report.row("exact").unwrap();
        // Structural component: nonzero for the ISA, zero for exact,
        // identical across CPRs (it does not depend on the clock).
        for p in &isa.points {
            assert!(p.rms_re_struct_pct > 0.0);
        }
        let s0 = isa.points[0].rms_re_struct_pct;
        assert!(isa
            .points
            .iter()
            .all(|p| (p.rms_re_struct_pct - s0).abs() < 1e-12));
        for p in &exact.points {
            assert_eq!(p.rms_re_struct_pct, 0.0);
            // Exact adder's joint error is purely timing.
            assert!((p.rms_re_joint_pct - p.rms_re_timing_pct).abs() < 1e-9);
        }
        // The exact adder must be failing at 5% CPR already (the paper's
        // headline observation).
        assert!(exact.points[0].rms_re_joint_pct > isa.points[0].rms_re_joint_pct);
    }

    #[test]
    fn render_and_csv_contain_all_designs() {
        let config = ExperimentConfig::default();
        let designs = [Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).unwrap())];
        let report = run_on(&Engine::new(), &config, &designs, 100);
        let text = report.render();
        assert!(text.contains("Fig. 9a"));
        assert!(text.contains("(16,2,1,6)"));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3); // header + 3 CPRs
    }
}
