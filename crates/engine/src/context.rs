//! Experiment configuration and per-design artifact construction.
//!
//! A [`DesignContext`] bundles everything one design needs across the
//! paper's experiments: the synthesized netlist, its delay annotation with
//! process variation (the die sample), the behavioural golden model, and
//! the lane classifier and instruction tape the gate-level hot path runs,
//! both checked by static analysis when the context is built.
//!
//! Flow asymmetry (see the root README's "Synthesis flow" note): ISA
//! designs are Pareto points from the NEWCAS'15 library that *fit* the
//! 0.3 ns constraint with natural slack, so they are synthesized min-area
//! without area recovery; the exact adder is *constrained at* 0.3 ns ("also
//! constrained at 0.3 ns") and recovered to the slack wall like any
//! commercial flow would.

use std::fmt;

use isa_core::{Adder, Design};
use isa_netlint::{lint_adder_with_classifier, LintOptions, LintReport};
use isa_netlist::cell::CellLibrary;
use isa_netlist::classify::LaneClassifier;
use isa_netlist::synth::{
    synthesize_exact, synthesize_isa, SynthesisError, SynthesisOptions, Synthesized,
};
use isa_netlist::tape::InstructionTape;
use isa_netlist::timing::{DelayAnnotation, VariationModel};
use isa_timing_sim::{run_adder_trace, CycleRecord};

/// Why [`DesignContext::try_build`] rejected a design: either synthesis
/// found no feasible implementation, or the synthesized artifact failed
/// the static-analysis gate ([`isa_netlint`]) that every design must pass
/// before anything simulates it.
#[derive(Debug)]
pub enum BuildError {
    /// No implementation meets the timing constraint.
    Synthesis(SynthesisError),
    /// The synthesized netlist/annotation failed lint with at least one
    /// Error-severity finding (the full report is attached).
    Lint(Box<LintReport>),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Synthesis(e) => write!(f, "{e}"),
            BuildError::Lint(report) => {
                let first = report
                    .first_error()
                    .map_or_else(|| "unknown lint failure".to_string(), ToString::to_string);
                write!(
                    f,
                    "design {} failed static analysis with {} error(s); first: {first}",
                    report.design,
                    report.error_count()
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SynthesisError> for BuildError {
    fn from(e: SynthesisError) -> Self {
        BuildError::Synthesis(e)
    }
}

/// Shared settings of the paper's evaluation (Section V.A).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Safe clock period: the synthesis constraint (0.3 ns at 3.3 GHz).
    pub period_ps: f64,
    /// Clock-period reductions evaluated (5, 10, 15 %).
    pub cprs: Vec<f64>,
    /// Process-variation sigma applied to every die sample.
    pub variation_sigma: f64,
    /// Seed of the die sample.
    pub variation_seed: u64,
    /// Seed of the input workload.
    pub workload_seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            period_ps: 300.0,
            cprs: vec![0.05, 0.10, 0.15],
            variation_sigma: 0.05,
            variation_seed: 0xD1E_5A3D,
            workload_seed: 0x5EED_CAFE,
        }
    }
}

impl ExperimentConfig {
    /// The overclocked period for a clock-period reduction.
    ///
    /// # Examples
    ///
    /// ```
    /// use isa_engine::ExperimentConfig;
    ///
    /// let cfg = ExperimentConfig::default();
    /// assert_eq!(cfg.clock_ps(0.10), 270.0);
    /// ```
    #[must_use]
    pub fn clock_ps(&self, cpr: f64) -> f64 {
        self.period_ps * (1.0 - cpr)
    }
}

/// Everything one design contributes to the experiments.
#[derive(Debug)]
pub struct DesignContext {
    /// Which of the twelve designs this is.
    pub design: Design,
    /// Synthesis result (netlist, topology, area, post-recovery timing).
    pub synthesized: Synthesized,
    /// Delay annotation including the die's process variation.
    pub annotation: DelayAnnotation,
    /// Behavioural golden model (structural errors only).
    pub gold: Box<dyn Adder>,
    /// The static-analysis report from build time: zero errors (or the
    /// context would not exist), possibly warnings, the level schedule and
    /// the lint wall-clock time. Its `tape` is `None`: the context owns the
    /// verified tape ([`DesignContext::tape`]).
    pub lint: LintReport,
    /// Timing-safety classifier for the filtered runner (period
    /// independent — see [`DesignContext::classifier`]).
    classifier: LaneClassifier,
    /// The instruction tape lint verified (see [`DesignContext::tape`]).
    tape: InstructionTape,
}

impl DesignContext {
    /// Synthesizes and annotates one design under the configuration.
    ///
    /// Prefer fetching contexts through
    /// [`Engine::context`](crate::Engine::context), which memoizes them per
    /// (design, die) so each design is synthesized once per process.
    ///
    /// # Panics
    ///
    /// Panics if the design cannot meet the timing constraint — the twelve
    /// paper designs always can under the default configuration. Arbitrary
    /// design-space points should go through [`DesignContext::try_build`]
    /// (or [`ArtifactCache::try_context`](crate::ArtifactCache::try_context))
    /// instead.
    #[must_use]
    pub fn build(design: Design, config: &ExperimentConfig) -> Self {
        Self::try_build(design, config)
            .unwrap_or_else(|e| panic!("synthesis of {design} failed: {e}"))
    }

    /// Fallible variant of [`DesignContext::build`] for designs that may
    /// not meet the timing constraint (the design-space explorer's
    /// feasibility boundary).
    ///
    /// Every successfully synthesized design is statically analyzed
    /// ([`isa_netlint`]) before the context is returned: structural
    /// well-formedness, the instruction tape's replay proof, timing-graph
    /// sanity and the classifier conservatism audit all must pass. A
    /// context therefore never wraps a netlist the analyzer would reject,
    /// and it keeps the classifier and the tape that lint checked.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Synthesis`] when no feasible implementation
    /// exists at the configuration's clock period, and
    /// [`BuildError::Lint`] (with the full report) when the synthesized
    /// artifact fails static analysis.
    pub fn try_build(design: Design, config: &ExperimentConfig) -> Result<Self, BuildError> {
        let lib = CellLibrary::industrial_65nm();
        let synthesized = match &design {
            Design::Isa(cfg) => {
                // Pareto designs fitting the constraint: natural slack.
                synthesize_isa(cfg, config.period_ps, &lib, &SynthesisOptions::default())
            }
            Design::Exact { width } => {
                // Constrained at the period: recovered to the slack wall.
                synthesize_exact(*width, config.period_ps, &lib, &SynthesisOptions::paper())
            }
        }?;
        let variation = VariationModel::new(
            config.variation_sigma,
            config.variation_seed ^ design_seed(&design),
        );
        let annotation = synthesized.annotation.perturbed(&variation);
        let gold = design.behavioural();
        // The audit stage checks the classifier the filtered runner keeps,
        // so its construction cost is not billed to the lint budget.
        let classifier = LaneClassifier::build(&synthesized.adder, &annotation);
        let mut lint = lint_adder_with_classifier(
            &synthesized.adder,
            &annotation,
            &classifier,
            Some(gold.as_ref()),
            &LintOptions::default(),
        );
        if lint.has_errors() {
            return Err(BuildError::Lint(Box::new(lint)));
        }
        let tape = lint
            .tape
            .take()
            .expect("a report without errors carries its verified tape");
        Ok(Self {
            design,
            synthesized,
            annotation,
            gold,
            lint,
            classifier,
            tape,
        })
    }

    /// The design's operand-adaptive timing classifier (for the filtered
    /// runner), built against this die's annotation and shared by every
    /// clock period — the exposure, chain and run-bound tables are period
    /// independent.
    #[must_use]
    pub fn classifier(&self) -> &LaneClassifier {
        &self.classifier
    }

    /// The design's instruction tape (the filtered runner's functional
    /// evaluator and timed-replay schedule), shared by every clock period
    /// like the classifier: the tape lint compiled from the netlist's level
    /// schedule and proved bit-identical to `evaluate_words` (netlint's
    /// `tape.replay` rule) at build time.
    #[must_use]
    pub fn tape(&self) -> &InstructionTape {
        &self.tape
    }

    /// The die's exact critical delay in picoseconds: the slowest
    /// input-to-output path of *this* die sample (process variation
    /// included), from the classifier's femtosecond STA. Any clock period
    /// at or above this value cannot produce timing errors; the nominal
    /// [`Synthesized::critical_ps`] is the pre-variation figure.
    #[must_use]
    pub fn die_critical_ps(&self) -> f64 {
        self.classifier().critical_fs() as f64 / 1000.0
    }

    /// Display label of the design (quadruple or `exact`).
    #[must_use]
    pub fn label(&self) -> String {
        self.design.to_string()
    }

    /// Runs the overclocked gate-level trace for this design.
    #[must_use]
    pub fn trace(&self, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<CycleRecord> {
        run_adder_trace(&self.synthesized.adder, &self.annotation, clock_ps, inputs)
    }
}

/// Stable per-design seed component so each die sample differs.
pub(crate) fn design_seed(design: &Design) -> u64 {
    match design {
        Design::Exact { width } => 0xE0_0000 | u64::from(*width),
        Design::Isa(cfg) => {
            let (b, s, c, r) = cfg.quadruple();
            u64::from(b) << 24 | u64::from(s) << 16 | u64::from(c) << 8 | u64::from(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ps_applies_cpr() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.clock_ps(0.05), 285.0);
        assert_eq!(cfg.clock_ps(0.15), 255.0);
    }

    #[test]
    fn build_context_for_one_isa() {
        let cfg = ExperimentConfig::default();
        let design = Design::Isa(isa_core::IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let ctx = DesignContext::build(design, &cfg);
        assert!(ctx.synthesized.critical_ps <= cfg.period_ps);
        assert_eq!(ctx.label(), "(8,0,0,4)");
        // Gold model and netlist agree functionally.
        assert_eq!(ctx.gold.add(1000, 24), ctx.synthesized.adder.add(1000, 24));
    }

    #[test]
    fn trace_at_safe_clock_matches_gold() {
        let cfg = ExperimentConfig {
            variation_sigma: 0.0,
            ..ExperimentConfig::default()
        };
        let design = Design::Isa(isa_core::IsaConfig::new(32, 8, 2, 1, 4).unwrap());
        let ctx = DesignContext::build(design, &cfg);
        let inputs = [(5u64, 6u64), (1 << 20, 1 << 20), (0xFFFF, 0x1)];
        let trace = ctx.trace(cfg.period_ps, &inputs);
        for rec in &trace {
            assert_eq!(rec.sampled, rec.settled, "no timing error at safe clock");
            assert_eq!(rec.settled, ctx.gold.add(rec.a, rec.b), "settled == gold");
        }
    }

    #[test]
    fn die_critical_delay_matches_the_classifier_and_variation() {
        let design = Design::Isa(isa_core::IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let varied = DesignContext::build(design, &ExperimentConfig::default());
        assert_eq!(
            varied.die_critical_ps(),
            varied.classifier().critical_fs() as f64 / 1000.0
        );
        // Without process variation the die equals the nominal synthesis
        // figure (STA and synthesis agree to the femtosecond grid).
        let clean = DesignContext::build(
            design,
            &ExperimentConfig {
                variation_sigma: 0.0,
                ..ExperimentConfig::default()
            },
        );
        assert!((clean.die_critical_ps() - clean.synthesized.critical_ps).abs() < 1e-3);
    }

    #[test]
    fn die_seeds_differ_per_design() {
        let d1 = Design::Isa(isa_core::IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let d2 = Design::Isa(isa_core::IsaConfig::new(32, 8, 0, 1, 4).unwrap());
        assert_ne!(design_seed(&d1), design_seed(&d2));
        assert_ne!(design_seed(&d1), design_seed(&Design::Exact { width: 32 }));
    }
}
