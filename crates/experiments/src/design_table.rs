//! The Section V.A design characterization: synthesis results and
//! structural accuracy of the twelve designs (the reproduction's
//! counterpart of the design-selection table from reference \[17\]).

use std::sync::Arc;

use isa_core::{structural_errors, Design};
use isa_engine::{Engine, ExperimentConfig, WorkloadSpec};
use isa_metrics::snr_db;
use isa_workloads::UniformWorkload;

use crate::report::{sci, Table};

/// One design's characterization row.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRow {
    /// Design label.
    pub design: String,
    /// Chosen sub-adder/adder topology.
    pub topology: String,
    /// Area in NAND2-equivalent units.
    pub area: f64,
    /// Post-synthesis critical delay, ps.
    pub critical_ps: f64,
    /// Gate count.
    pub cells: usize,
    /// Structural relative-error RMS, percent (behavioural, properly
    /// clocked).
    pub rms_re_struct_pct: f64,
    /// Fraction of additions with any structural error.
    pub structural_error_rate: f64,
    /// Mean absolute structural arithmetic error.
    pub mean_abs_e: f64,
    /// Equivalent SNR in dB (`None` for the exact adder).
    pub snr_db: Option<f64>,
}

/// The full design table.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignTable {
    /// Rows in figure order.
    pub rows: Vec<DesignRow>,
    /// Behavioural sample count used for the accuracy columns.
    pub samples: usize,
}

/// Characterizes an explicit design list on a shared engine: synthesis
/// metrics plus structural accuracy over `samples` behavioural additions
/// (the paper uses 10⁷).
///
/// Each design is one task on the engine's worker pool: its synthesis
/// columns come from the memoized artifacts, its accuracy columns from
/// [`structural_errors`] over a uniform stream (as wide as the widest
/// design, seeded from `config.workload_seed`) that is generated as it is
/// consumed, never collected.
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    samples: usize,
) -> DesignTable {
    let width = designs.iter().map(Design::width).max().unwrap_or(32);
    let points: Vec<(Design, f64)> = designs.iter().map(|&d| (d, 0.0)).collect();
    // Each task draws its own stream below; the shared workload is unused.
    let no_workload = WorkloadSpec {
        name: String::new(),
        inputs: Arc::default(),
    };
    let rows = engine.map_points(config, &points, &no_workload, |unit| {
        let ctx = unit.context();
        let stream = UniformWorkload::new(width, config.workload_seed).take(samples);
        let stats = structural_errors(ctx.gold.as_ref(), stream);
        DesignRow {
            design: ctx.label(),
            topology: ctx.synthesized.topology.name(),
            area: ctx.synthesized.area,
            critical_ps: ctx.synthesized.critical_ps,
            cells: ctx.synthesized.adder.netlist().cell_count(),
            rms_re_struct_pct: stats.re_struct.rms() * 100.0,
            structural_error_rate: stats.e_struct.error_rate(),
            mean_abs_e: stats.e_struct.mean_abs(),
            snr_db: (stats.re_struct.rms() > 0.0).then(|| snr_db(stats.re_struct.rms())),
        }
    });
    DesignTable { rows, samples }
}

impl DesignTable {
    /// Renders the characterization table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "topology".into(),
            "area".into(),
            "cells".into(),
            "crit(ps)".into(),
            "RMS REs(%)".into(),
            "err-rate".into(),
            "mean|E|".into(),
            "SNR(dB)".into(),
        ]);
        for r in &self.rows {
            table.push_row(vec![
                r.design.clone(),
                r.topology.clone(),
                format!("{:.0}", r.area),
                format!("{}", r.cells),
                format!("{:.1}", r.critical_ps),
                sci(r.rms_re_struct_pct),
                format!("{:.4}", r.structural_error_rate),
                format!("{:.1}", r.mean_abs_e),
                r.snr_db.map_or_else(|| "inf".into(), |v| format!("{v:.1}")),
            ]);
        }
        format!(
            "Design characterization ({} behavioural samples, 0.3 ns constraint)\n{}",
            self.samples,
            table.render()
        )
    }

    /// CSV export.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "topology".into(),
            "area".into(),
            "cells".into(),
            "critical_ps".into(),
            "rms_re_struct_pct".into(),
            "structural_error_rate".into(),
            "mean_abs_e".into(),
            "snr_db".into(),
        ]);
        for r in &self.rows {
            table.push_row(vec![
                r.design.clone(),
                r.topology.clone(),
                format!("{}", r.area),
                format!("{}", r.cells),
                format!("{}", r.critical_ps),
                format!("{}", r.rms_re_struct_pct),
                format!("{}", r.structural_error_rate),
                format!("{}", r.mean_abs_e),
                r.snr_db.map_or_else(String::new, |v| format!("{v}")),
            ]);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_increases_left_to_right() {
        // The paper orders its designs from low to high accuracy; the
        // structural RMS RE must be (weakly) decreasing along the row
        // order, with the exact adder at zero.
        let config = ExperimentConfig::default();
        let table = run_on(&Engine::new(), &config, &isa_core::paper_designs(), 30_000);
        assert_eq!(table.rows.len(), 12);
        let rms: Vec<f64> = table.rows.iter().map(|r| r.rms_re_struct_pct).collect();
        assert_eq!(rms[11], 0.0, "exact adder has no structural error");
        // Spot checks of the ordering (allow local wiggle, demand the
        // decade-scale trend).
        assert!(rms[0] > rms[4], "(8,0,0,0) vs (8,0,1,6)");
        assert!(rms[4] > rms[5], "8-block worst case vs (16,0,0,0)");
        assert!(
            rms[5] > rms[10] || rms[10] == 0.0,
            "(16,0,0,0) vs (16,7,0,8)"
        );
    }

    #[test]
    fn every_design_meets_the_constraint() {
        let config = ExperimentConfig::default();
        let table = run_on(&Engine::new(), &config, &isa_core::paper_designs(), 1000);
        for r in &table.rows {
            assert!(
                r.critical_ps <= config.period_ps,
                "{} at {} ps",
                r.design,
                r.critical_ps
            );
        }
    }

    #[test]
    fn render_includes_topologies() {
        let config = ExperimentConfig::default();
        let table = run_on(&Engine::new(), &config, &isa_core::paper_designs(), 500);
        let text = table.render();
        assert!(text.contains("ripple"));
        assert!(text.contains("exact"));
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 13);
    }
}
