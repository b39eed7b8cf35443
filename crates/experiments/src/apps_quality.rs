//! Application-level quality under overclocking (extension).
//!
//! The paper motivates RMS relative error via its proportionality to the
//! SNR "in many applications, particularly in multimedia processing"; this
//! pipeline measures exactly that, end to end. Every standard application
//! kernel (FIR, 2-D blur/Sobel convolution, blocked dot product,
//! histogram — see [`isa_apps`]) runs with *all* of its additions routed
//! through the gate-level substrate for each (design, clock) pair of the
//! sweep, and the output is scored against the exact reference in
//! application units: PSNR / SNR in dB and the maximum output error. The
//! structural-only (properly clocked, behavioural) quality is reported
//! alongside, so the table separates what the inexact architecture costs
//! from what overclocking past the safe point adds.

use std::collections::HashMap;

use isa_apps::{run_behavioural, run_exact, run_on_substrate, score, standard_kernels, KernelRun};
use isa_core::Design;
use isa_engine::{
    Engine, ExperimentConfig, ExperimentPlan, GateLevelSubstrate, GATE_BACKEND_LABEL,
};
use isa_metrics::QualityStats;

use crate::report::Table;

/// The clock sweep every apps run uses: the safe clock plus the paper's
/// three clock-period reductions.
pub const APP_CPRS: [f64; 4] = [0.0, 0.05, 0.10, 0.15];

/// One (kernel, design, clock) quality measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AppQualityPoint {
    /// Kernel name.
    pub kernel: String,
    /// Design label.
    pub design: String,
    /// Clock-period reduction (0.0 = safe clock).
    pub cpr: f64,
    /// Absolute clock period in picoseconds.
    pub clock_ps: f64,
    /// Additions routed through the adder.
    pub adds: u64,
    /// Application output samples scored.
    pub outputs: usize,
    /// Largest absolute output error vs the exact reference.
    pub max_abs_error: u64,
    /// Signal-to-noise ratio in dB (infinite when error-free).
    pub snr_db: f64,
    /// Peak signal-to-noise ratio in dB against the reference peak.
    pub psnr_db: f64,
    /// PSNR of the structural-only (properly clocked behavioural) run —
    /// the quality ceiling the design allows regardless of clocking.
    pub structural_psnr_db: f64,
}

/// The application-quality dataset of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AppsReport {
    /// All measurements, designs outermost, then clocks, then kernels.
    pub points: Vec<AppQualityPoint>,
    /// Kernel input scale factor.
    pub scale: usize,
}

/// Runs the sweep on a shared engine: one [`ExperimentPlan`] whose
/// workload axis carries the kernel suite, evaluated with
/// [`Engine::map`] so (design × clock × kernel) units share the memoized
/// synthesis artifacts and the worker pool. Within a unit, every
/// breadth-first kernel pass is one batched `run_batch` call on the
/// gate-level substrate.
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    cprs: &[f64],
    scale: usize,
) -> AppsReport {
    let gate = GateLevelSubstrate::new(engine.cache(), config.clone());
    let suite = standard_kernels(scale, config.workload_seed);
    let mut plan = ExperimentPlan::new(config.clone())
        .designs(designs.iter().copied())
        .cprs(cprs.iter().copied());
    for kernel in &suite {
        plan = plan.workload(kernel.name(), Vec::new());
    }
    // The exact reference (and its PSNR peak) depends only on the kernel,
    // and the structural-only quality only on (kernel, design) — compute
    // each once up front instead of once per sweep unit; the gate-level
    // run is the only per-clock quantity.
    let references: HashMap<&'static str, (KernelRun, u64)> = suite
        .iter()
        .map(|kernel| {
            let reference = run_exact(kernel.as_ref());
            let peak = reference.output.iter().copied().max().unwrap_or(1).max(1);
            (kernel.name(), (reference, peak))
        })
        .collect();
    let structural: HashMap<(String, &'static str), QualityStats> = designs
        .iter()
        .flat_map(|design| {
            suite.iter().map(|kernel| {
                let (reference, _) = &references[kernel.name()];
                let run = run_behavioural(kernel.as_ref(), design);
                ((design.to_string(), kernel.name()), score(reference, &run))
            })
        })
        .collect();
    let points = engine.map(&plan, |unit| {
        let kernel = suite
            .iter()
            .find(|k| k.name() == unit.workload)
            .expect("plan workloads name standard kernels");
        let (reference, peak) = &references[kernel.name()];
        let structural_quality = structural[&(unit.design.to_string(), kernel.name())];
        let silver = run_on_substrate(kernel.as_ref(), &gate, &unit.design, unit.clock_ps);
        let quality = score(reference, &silver);
        AppQualityPoint {
            kernel: unit.workload.to_owned(),
            design: unit.design.to_string(),
            cpr: unit.cpr,
            clock_ps: unit.clock_ps,
            adds: silver.adds,
            outputs: silver.output.len(),
            max_abs_error: quality.max_abs_error(),
            snr_db: quality.snr_db(),
            psnr_db: quality.psnr_db(*peak),
            structural_psnr_db: structural_quality.psnr_db(*peak),
        }
    });
    AppsReport { points, scale }
}

/// Formats a dB value for tables and CSVs (`inf` for error-free runs).
fn db(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.2}")
    } else {
        format!("{value}")
    }
}

impl AppsReport {
    /// The point for one (kernel, design, cpr), if measured.
    #[must_use]
    pub fn point(&self, kernel: &str, design: &str, cpr: f64) -> Option<&AppQualityPoint> {
        self.points
            .iter()
            .find(|p| p.kernel == kernel && p.design == design && p.cpr == cpr)
    }

    /// Renders the quality table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "kernel".into(),
            "design".into(),
            "cpr".into(),
            "PSNR(dB)".into(),
            "SNR(dB)".into(),
            "max|err|".into(),
            "PSNR-struct(dB)".into(),
        ]);
        for p in &self.points {
            table.push_row(vec![
                p.kernel.clone(),
                p.design.clone(),
                format!("{:.2}", p.cpr),
                db(p.psnr_db),
                db(p.snr_db),
                format!("{}", p.max_abs_error),
                db(p.structural_psnr_db),
            ]);
        }
        format!(
            "Application quality vs clock (scale {}, {GATE_BACKEND_LABEL} backend)\n{}",
            self.scale,
            table.render()
        )
    }

    /// CSV export.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "kernel".into(),
            "design".into(),
            "cpr".into(),
            "clock_ps".into(),
            "backend".into(),
            "adds".into(),
            "outputs".into(),
            "max_abs_error".into(),
            "snr_db".into(),
            "psnr_db".into(),
            "structural_psnr_db".into(),
        ]);
        for p in &self.points {
            table.push_row(vec![
                p.kernel.clone(),
                p.design.clone(),
                format!("{}", p.cpr),
                format!("{}", p.clock_ps),
                GATE_BACKEND_LABEL.to_owned(),
                format!("{}", p.adds),
                format!("{}", p.outputs),
                format!("{}", p.max_abs_error),
                db(p.snr_db),
                db(p.psnr_db),
                db(p.structural_psnr_db),
            ]);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    #[test]
    fn safe_clock_behavioural_equivalence_and_degradation() {
        // No process variation: the safe clock is genuinely safe, so the
        // gate-level run at cpr 0.0 carries structural errors only and the
        // joint PSNR equals the structural PSNR; tightening to 15% must
        // then cost quality on the exact adder (which has no slack).
        let config = ExperimentConfig {
            variation_sigma: 0.0,
            cprs: vec![0.0, 0.15],
            ..ExperimentConfig::default()
        };
        let designs = [Design::Exact { width: 32 }];
        let report = run_on(&Engine::new(), &config, &designs, &[0.0, 0.15], 1);
        assert_eq!(report.points.len(), 2 * 5);
        for p in &report.points {
            assert!(p.adds > 0);
            if p.cpr == 0.0 {
                assert_eq!(
                    p.psnr_db, p.structural_psnr_db,
                    "{}: safe clock must be timing-error-free",
                    p.kernel
                );
                // The exact adder has no structural errors either.
                assert_eq!(p.max_abs_error, 0);
                assert_eq!(p.psnr_db, f64::INFINITY);
            }
        }
        // PSNR degrades as the clock tightens past the safe point, on
        // every kernel.
        for kernel in ["fir", "conv2d-blur", "conv2d-sobel", "dot", "histogram"] {
            let safe = report.point(kernel, "exact", 0.0).unwrap();
            let tight = report.point(kernel, "exact", 0.15).unwrap();
            assert!(
                tight.psnr_db < safe.psnr_db,
                "{kernel}: {} !< {}",
                tight.psnr_db,
                safe.psnr_db
            );
            assert!(tight.psnr_db.is_finite(), "15% CPR must cause errors");
            assert!(tight.max_abs_error > 0);
        }
    }

    #[test]
    fn inexact_design_has_finite_structural_ceiling() {
        let config = ExperimentConfig {
            variation_sigma: 0.0,
            ..ExperimentConfig::default()
        };
        let designs = [Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())];
        let report = run_on(&Engine::new(), &config, &designs, &[0.0], 1);
        for p in &report.points {
            assert!(
                p.structural_psnr_db.is_finite(),
                "{}: an inexact adder must cost some quality",
                p.kernel
            );
            assert_eq!(p.psnr_db, p.structural_psnr_db, "safe clock, sigma 0");
        }
    }

    #[test]
    fn csv_covers_every_point_and_names_the_backend() {
        let config = ExperimentConfig {
            variation_sigma: 0.0,
            ..ExperimentConfig::default()
        };
        let designs = [Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())];
        let report = run_on(&Engine::new(), &config, &designs, &[0.0, 0.05], 1);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * 5);
        assert!(csv.contains("filtered"));
        assert!(report.render().contains("conv2d-sobel"));
    }
}
