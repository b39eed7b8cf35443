//! The two-tier candidate evaluator.
//!
//! **Tier A (structural, no gate-level simulation of the workload):** for
//! each candidate design the evaluator synthesizes once (memoized in the
//! engine's artifact cache), reads the die's topological critical delay,
//! characterizes energy per addition from a short switching-activity
//! run at the safe clock, and computes the
//! design's **exact structural error in objective units**: for stream
//! workloads the behavioural model runs over the actual operand stream
//! (structural-only, so a few plane passes per design) and yields the
//! very RMS-relative-error the objective measures, with zero timing
//! error; for application workloads the behavioural kernel run yields the
//! exact structural PSNR ceiling. The exact full-input-space error RMS
//! over all `2^(2W)` operand pairs ([`isa_core::DesignAnalysis`], a
//! per-bit dynamic program of a few microseconds per design) is recorded
//! alongside for reports; it covers every design, overlapping
//! compensation included. A candidate whose structural bound
//! is already strictly dominated by a *reference* — a certain
//! configuration's bound or a simulated candidate's measured objectives —
//! is pruned without ever simulating it.
//!
//! **Tier B (simulation):** surviving candidates are scored by the engine
//! on the filtered gate-level backend over the full workload, yielding
//! exact (error, delay, energy) objective vectors.
//!
//! ## Pruning soundness
//!
//! One rule: a candidate is pruned iff some reference strictly dominates
//! its bound vector (structural error, exact delay, exact energy).
//!
//! * **References** are exact objective vectors, kept as one
//!   [`ParetoFront`] index for the evaluation: the bound of every
//!   *certain* candidate (clock period above the die's critical delay, so
//!   no timing error can occur and its measured vector will equal its
//!   bound), entered at tier A, and the measured vector of every simulated
//!   candidate, entered as soon as it is simulated.
//! * **Visiting order.** Baselines come first, simulated as one
//!   [`Engine::map_points`] batch on the worker pool. The other candidates
//!   follow one at a time in ascending [`ObjectiveVector::lex_cmp`] order
//!   of their bound (ties in input order): each is pruned against the
//!   references so far or simulated, and then its measured vector joins
//!   the references. A reference can prune only candidates whose bound
//!   error is at least its own measured error, which is at least its own
//!   bound error (assumption 1 below), so up to ties bound order visits
//!   every possible reference of a candidate before the candidate. Every
//!   decision sees the references of all candidates before it, so the same
//!   candidates are pruned at any worker count. Without the pre-filter
//!   nothing is pruned and every candidate is in the one batch.
//!
//! A pruned candidate cannot reach the Pareto front, under **one**
//! documented assumption:
//!
//! 1. **Timing errors do not reduce error:** a candidate's simulated error
//!    is never below its structural-only error. For kernel workloads this
//!    is the overclocking-monotonicity the apps tests pin (PSNR at an
//!    overclocked point never exceeds the structural ceiling).
//!
//! A reference is ≤ the pruned candidate's bound (strictly on one axis),
//! and the bound is ≤ the candidate's measured vector (assumption 1; delay
//! and energy are exact), so the reference strictly dominates the
//! candidate's measured vector — no model margin is needed. If the
//! reference is a measured vector, a simulated candidate dominates the
//! pruned one. If it is a certain candidate's bound, that candidate was
//! either simulated (measuring exactly its bound) or pruned itself by an
//! earlier reference, which then dominates both; strict dominance is
//! transitive and the chain is finite, so it ends at a simulated
//! candidate. The structural side rests on no assumption; only the timing
//! side rests on assumption 1, and [`SearchStats`](crate::SearchStats)
//! counts its violations among simulated candidates. It is empirical, not
//! a theorem: compensating timing errors can nudge the RMS below the
//! bound. In the compact space at 5,000 cycles, `(8,1,0,0)` at 5 % CPR
//! measures 1.1e-6 percentage points below its bound when simulated; it
//! is pruned either way, and other designs dominate it by far more than
//! that. Soundness is pinned by tests (every pruned candidate is
//! dominated by a simulated one), and CI reruns the compact-space search
//! without the pre-filter (`explore --no-prefilter`) and fails on any
//! on-front row that differs.
//!
//! Baseline configurations (anything at the safe clock, and the exact
//! adder at every clock) are exempt from pruning so quality queries and
//! the combined-thesis comparison always rest on measured numbers.

use std::collections::HashMap;
use std::sync::Arc;

use isa_apps::{run_behavioural, run_exact, run_on_substrate, score, Kernel, KernelRun};
use isa_core::{combine_errors, structural_errors, Design, DesignAnalysis, Substrate};
use isa_engine::{Engine, ExperimentConfig, GateLevelSubstrate, RunUnit, WorkloadSpec};
use isa_metrics::{snr_db_of_rms_pct, ObjectiveVector};
use isa_netlist::cell::CellLibrary;
use isa_timing_sim::measure_clocked_batch;
use isa_workloads::{take_pairs, UniformWorkload};

use crate::pareto::{FrontEntry, ParetoFront};
use crate::space::DesignPoint;

/// What the error objective measures.
#[derive(Clone)]
pub enum EvalMode {
    /// Joint RMS relative error (percent) over an operand stream.
    Stream {
        /// Workload name for reports.
        name: String,
        /// The cycle-ordered operand pairs every candidate sees.
        inputs: Arc<Vec<(u64, u64)>>,
    },
    /// Negated PSNR (dB) of an application kernel, so quality-constrained
    /// queries ("≥ 30 dB on Sobel") become objective-space constraints.
    Kernel {
        /// The kernel whose additions run through each candidate.
        kernel: Arc<dyn Kernel>,
    },
}

impl EvalMode {
    /// A uniform stream of `cycles` operand pairs (the default context).
    #[must_use]
    pub fn uniform_stream(width: u32, cycles: usize, seed: u64) -> Self {
        Self::Stream {
            name: "uniform".to_owned(),
            inputs: Arc::new(take_pairs(UniformWorkload::new(width, seed), cycles)),
        }
    }

    /// The workload label reports carry.
    #[must_use]
    pub fn workload_name(&self) -> String {
        match self {
            Self::Stream { name, .. } => name.clone(),
            Self::Kernel { kernel } => kernel.name().to_owned(),
        }
    }
}

/// Evaluator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSettings {
    /// Prune candidates a certain or measured reference dominates (see
    /// the module docs). Disabling it simulates every candidate — same
    /// front, more wall time.
    pub prefilter: bool,
    /// Cycles of the switching-activity run characterizing each design's
    /// energy per addition.
    pub energy_cycles: usize,
}

impl Default for EvalSettings {
    fn default() -> Self {
        Self {
            prefilter: true,
            energy_cycles: 512,
        }
    }
}

/// Per-design tier-A characterization (clock independent).
#[derive(Debug, Clone)]
struct DesignInfo {
    area: f64,
    die_critical_ps: f64,
    dyn_fj_per_op: f64,
    leak_fj_per_op_safe: f64,
    /// Exact structural error in objective units: the behavioural model
    /// run over the actual workload (stream: joint RMS relative-error
    /// percent with zero timing error; kernel: negated structural PSNR
    /// dB). This *is* the candidate's objective when no timing errors
    /// occur, for every design — overlapping compensation included.
    model_error: f64,
    /// Exact full-input-space structural error RMS over all `2^(2W)`
    /// operand pairs ([`DesignAnalysis`]) — the workload-independent
    /// design characterization reports carry.
    exact_struct_rms: f64,
}

/// One evaluated (or pruned) candidate.
#[derive(Debug, Clone)]
pub struct CandidateEval {
    /// The candidate.
    pub point: DesignPoint,
    /// Absolute clock period in picoseconds.
    pub clock_ps: f64,
    /// Synthesized area in NAND2-equivalent units.
    pub area: f64,
    /// The die's topological critical delay (process variation
    /// included).
    pub die_critical_ps: f64,
    /// True when the clock period exceeds the die critical delay: the
    /// configuration cannot produce timing errors.
    pub timing_safe: bool,
    /// Energy per addition at this clock (dynamic + leakage scaled to the
    /// shortened period), femtojoules.
    pub energy_fj: f64,
    /// Tier-A structural error in objective units, exact on the actual
    /// workload (stream: joint RMS relative-error percent with zero
    /// timing error; kernel: negated structural PSNR dB). Equals the
    /// simulated error whenever the candidate is timing-safe.
    pub model_error: f64,
    /// Exact full-input-space structural error RMS (absolute output
    /// units) from [`DesignAnalysis`] — workload-independent design
    /// characterization for reports.
    pub exact_struct_rms: f64,
    /// True if tier A pruned the candidate (no simulation performed).
    pub pruned: bool,
    /// Simulated error objective (`None` when pruned).
    pub error: Option<f64>,
    /// Quality in dB — SNR of the joint relative error (stream) or PSNR
    /// (kernel); infinite when error-free. `None` when pruned.
    pub quality_db: Option<f64>,
}

impl CandidateEval {
    /// The exact objective vector, for simulated candidates.
    #[must_use]
    pub fn objectives(&self) -> Option<ObjectiveVector> {
        self.error
            .map(|e| ObjectiveVector::new(e, self.clock_ps, self.energy_fj))
    }

    /// The optimistic objective vector every candidate has (structural
    /// error bound, exact delay and energy): what tier-A pruning compares,
    /// and the order in which it visits candidates one at a time.
    #[must_use]
    pub fn bound_objectives(&self) -> ObjectiveVector {
        ObjectiveVector::new(self.model_error, self.clock_ps, self.energy_fj)
    }

    /// Simulated error minus the structural bound (`None` when pruned).
    /// Assumption 1 of the module docs says it is never negative; equal
    /// infinite values (an error-free kernel run of an error-free design)
    /// read as zero.
    pub(crate) fn bound_margin(&self) -> Option<f64> {
        self.error.map(|error| {
            if error == self.model_error {
                0.0
            } else {
                error - self.model_error
            }
        })
    }
}

/// Two-tier evaluation of `points` (see the module docs): tier-A
/// characterization of every design, then tier-B simulation of the
/// baselines in parallel on the engine's worker pool, then pruning or
/// simulation of the rest in bound order. Returns the candidates in input
/// order, without the points whose design cannot meet the timing
/// constraint, and the number of such designs.
pub(crate) fn evaluate(
    engine: &Engine,
    config: &ExperimentConfig,
    mode: &EvalMode,
    settings: &EvalSettings,
    points: &[DesignPoint],
) -> (Vec<CandidateEval>, usize) {
    // Kernel mode: the exact reference output and its PSNR peak.
    let kernel_reference = match mode {
        EvalMode::Kernel { kernel } => {
            let reference = run_exact(kernel.as_ref());
            let peak = reference.output.iter().copied().max().unwrap_or(1).max(1);
            Some((reference, peak))
        }
        EvalMode::Stream { .. } => None,
    };

    // Tier A: per-design characterization, once per design in first-use
    // order; `None` marks a design that cannot meet the synthesis
    // constraint.
    let mut design_info: HashMap<Design, Option<DesignInfo>> = HashMap::new();
    for p in points {
        design_info.entry(p.design).or_insert_with(|| {
            characterize(
                engine,
                config,
                mode,
                kernel_reference.as_ref(),
                settings.energy_cycles,
                &p.design,
            )
        });
    }
    let infeasible = design_info.values().filter(|info| info.is_none()).count();

    // Optimistic candidate records.
    let mut evals: Vec<CandidateEval> = Vec::with_capacity(points.len());
    for p in points {
        let Some(Some(info)) = design_info.get(&p.design) else {
            continue;
        };
        let clock_ps = config.clock_ps(p.cpr);
        // Mirror the filtered backend's tier-0 rule: strictly longer
        // than the die's critical delay means no event can cross the
        // sampling edge.
        let timing_safe = clock_ps > info.die_critical_ps;
        evals.push(CandidateEval {
            point: *p,
            clock_ps,
            area: info.area,
            die_critical_ps: info.die_critical_ps,
            timing_safe,
            energy_fj: info.dyn_fj_per_op + info.leak_fj_per_op_safe * (1.0 - p.cpr),
            model_error: info.model_error,
            exact_struct_rms: info.exact_struct_rms,
            pruned: false,
            error: None,
            quality_db: None,
        });
    }

    // Pruning references: certain bounds and measured objectives, kept
    // as a front (strict dominance is transitive, so a dominated
    // reference prunes nothing its dominator would not). Certain
    // candidates are references from the start: their measured
    // objectives will equal their bounds.
    let mut refs = ParetoFront::new();
    for e in evals.iter().filter(|e| e.timing_safe) {
        add_reference(&mut refs, e.bound_objectives());
    }

    // Visiting order (module docs): the baselines (without the
    // pre-filter, every candidate) in one batch, then the rest one at a
    // time in ascending bound order (a stable sort keeps ties in input
    // order), so the best references are measured before the candidates
    // they can prune.
    let prefilter = settings.prefilter;
    let (batch, mut rest): (Vec<usize>, Vec<usize>) =
        (0..evals.len()).partition(|&i| !prefilter || !evals[i].point.is_combined());
    rest.sort_by(|&a, &b| {
        evals[a]
            .bound_objectives()
            .lex_cmp(&evals[b].bound_objectives())
    });

    // Tier B: simulate the survivors on the filtered backend.
    let gate = GateLevelSubstrate::new(engine.cache(), config.clone());
    let workload = match mode {
        EvalMode::Stream { name, inputs } => WorkloadSpec {
            name: name.clone(),
            inputs: Arc::clone(inputs),
        },
        EvalMode::Kernel { kernel } => WorkloadSpec {
            name: kernel.name().to_owned(),
            inputs: Arc::new(Vec::new()),
        },
    };
    let simulate = |unit: RunUnit<'_>| match mode {
        EvalMode::Stream { .. } => {
            let silvers = gate.run_batch(&unit.design, unit.clock_ps, unit.inputs);
            let golds = unit.context().gold.add_batch(unit.inputs);
            let stats = combine_errors(unit.design.width(), unit.inputs, &golds, &silvers);
            let (_, _, joint_pct) = stats.rms_re_percent();
            (joint_pct, snr_db_of_rms_pct(joint_pct))
        }
        EvalMode::Kernel { kernel } => {
            let (reference, peak) = kernel_reference
                .as_ref()
                .expect("kernel mode has a reference");
            let run = run_on_substrate(kernel.as_ref(), &gate, &unit.design, unit.clock_ps);
            let psnr = score(reference, &run).psnr_db(*peak);
            (-psnr, psnr)
        }
    };
    let steps = std::iter::once(batch.as_slice()).chain(rest.iter().map(std::slice::from_ref));
    for step in steps {
        let mut survivors: Vec<usize> = Vec::with_capacity(step.len());
        for &i in step {
            let e = &mut evals[i];
            if prefilter && e.point.is_combined() && refs.dominates(&e.bound_objectives()) {
                e.pruned = true;
            } else {
                survivors.push(i);
            }
        }
        let sparse: Vec<(Design, f64)> = survivors
            .iter()
            .map(|&i| (evals[i].point.design, evals[i].point.cpr))
            .collect();
        let scored = engine.map_points(config, &sparse, &workload, simulate);
        for (&i, (error, quality)) in survivors.iter().zip(scored) {
            evals[i].error = Some(error);
            evals[i].quality_db = Some(quality);
            add_reference(
                &mut refs,
                ObjectiveVector::new(error, evals[i].clock_ps, evals[i].energy_fj),
            );
        }
    }
    (evals, infeasible)
}

/// Enters an exact objective vector as a pruning reference.
fn add_reference(refs: &mut ParetoFront<()>, objectives: ObjectiveVector) {
    refs.insert(FrontEntry {
        objectives,
        key: String::new(),
        payload: (),
    });
}

/// Tier-A characterization: synthesis feasibility, die STA, energy per op
/// at the safe clock, and the exact structural error bounds. `None` when
/// the design cannot meet the synthesis constraint.
fn characterize(
    engine: &Engine,
    config: &ExperimentConfig,
    mode: &EvalMode,
    kernel_reference: Option<&(KernelRun, u64)>,
    energy_cycles: usize,
    design: &Design,
) -> Option<DesignInfo> {
    // Fallible cache entry: arbitrary grid points (unlike the paper's
    // twelve) may miss the timing constraint, and the infallible
    // `Engine::context` would panic on them. Feasible designs synthesize
    // exactly once, straight into the shared cache.
    let ctx = engine.try_context(design, config).ok()?;
    let lib = CellLibrary::industrial_65nm();

    // Energy per addition from a short activity run at the safe clock.
    let cycles = energy_cycles.max(1);
    let inputs = take_pairs(
        UniformWorkload::new(design.width(), config.workload_seed ^ 0xEC0),
        cycles,
    );
    let report = measure_clocked_batch(
        &ctx.synthesized.adder,
        &ctx.annotation,
        config.period_ps,
        &inputs,
        &lib,
    );
    let n = cycles as f64;

    let model_error = match mode {
        // The behavioural model over the actual stream, silver = gold:
        // the exact structural side of the joint RMS relative error — the
        // very objective tier B measures, minus timing errors.
        EvalMode::Stream { inputs, .. } => {
            structural_errors(ctx.gold.as_ref(), inputs.iter().copied())
                .rms_re_percent()
                .2
        }
        EvalMode::Kernel { kernel } => {
            let (reference, peak) = kernel_reference.expect("kernel mode has a reference");
            let run = run_behavioural(kernel.as_ref(), design);
            -score(reference, &run).psnr_db(*peak)
        }
    };
    Some(DesignInfo {
        area: ctx.synthesized.area,
        die_critical_ps: ctx.die_critical_ps(),
        dyn_fj_per_op: report.dynamic_fj / n,
        leak_fj_per_op_safe: report.leakage_fj / n,
        model_error,
        exact_struct_rms: DesignAnalysis::analyze(design).rms_error(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    fn point(quad: (u32, u32, u32, u32), cpr: f64) -> DesignPoint {
        DesignPoint {
            design: Design::Isa(IsaConfig::new(32, quad.0, quad.1, quad.2, quad.3).unwrap()),
            cpr,
        }
    }

    /// One evaluation of `points` on a uniform stream of `cycles` pairs,
    /// on a fresh engine of `threads` workers.
    fn evaluate_on(
        threads: usize,
        cycles: usize,
        prefilter: bool,
        points: &[DesignPoint],
    ) -> Vec<CandidateEval> {
        let engine = Engine::with_threads(threads);
        let config = ExperimentConfig::default();
        let mode = EvalMode::uniform_stream(32, cycles, config.workload_seed);
        let settings = EvalSettings {
            prefilter,
            ..EvalSettings::default()
        };
        evaluate(&engine, &config, &mode, &settings, points).0
    }

    fn pruned_count(evals: &[CandidateEval]) -> usize {
        evals.iter().filter(|e| e.pruned).count()
    }

    #[test]
    fn safe_points_have_zero_timing_excess_and_exact_structural_error() {
        // (8,0,0,0) die crit 251 ps: safe at 0 % and 15 % CPR alike.
        let evals = evaluate_on(
            1,
            1500,
            true,
            &[point((8, 0, 0, 0), 0.0), point((8, 0, 0, 0), 0.15)],
        );
        assert_eq!(evals.len(), 2);
        assert!(evals[0].timing_safe && evals[1].timing_safe);
        // Safe at both clocks: identical measured error, cheaper energy
        // and faster clock at 15 % — the combined point dominates.
        assert_eq!(evals[0].error, evals[1].error);
        assert!(evals[1].energy_fj < evals[0].energy_fj);
        let (a, b) = (
            evals[1].objectives().unwrap(),
            evals[0].objectives().unwrap(),
        );
        assert!(a.dominates(&b));
    }

    #[test]
    fn infeasible_designs_are_reported_not_evaluated() {
        let engine = Engine::with_threads(1);
        // At a 100 ps constraint nothing in the library fits: every
        // design must be reported infeasible instead of panicking in the
        // artifact cache.
        let config = ExperimentConfig {
            period_ps: 100.0,
            ..ExperimentConfig::default()
        };
        let mode = EvalMode::uniform_stream(32, 64, config.workload_seed);
        let (evals, infeasible) = evaluate(
            &engine,
            &config,
            &mode,
            &EvalSettings::default(),
            &[
                point((8, 0, 0, 0), 0.0),
                point((8, 0, 0, 0), 0.05),
                DesignPoint {
                    design: Design::Exact { width: 32 },
                    cpr: 0.0,
                },
            ],
        );
        assert!(evals.is_empty());
        // Counted per design, not per point.
        assert_eq!(infeasible, 2);
    }

    #[test]
    fn kernel_mode_bound_is_the_structural_ceiling() {
        let engine = Engine::with_threads(1);
        let config = ExperimentConfig::default();
        let kernel: Arc<dyn Kernel> =
            Arc::from(isa_apps::kernel_by_name("conv2d-sobel", 1, config.workload_seed).unwrap());
        let (evals, _) = evaluate(
            &engine,
            &config,
            &EvalMode::Kernel { kernel },
            &EvalSettings::default(),
            &[point((8, 0, 0, 4), 0.0), point((8, 0, 0, 4), 0.15)],
        );
        // Safe-clock PSNR equals the structural ceiling; overclocked PSNR
        // cannot exceed it.
        let ceiling = -evals[0].model_error;
        assert_eq!(evals[0].quality_db.unwrap(), ceiling);
        if let Some(q) = evals[1].quality_db {
            assert!(q <= ceiling + 1e-9);
        }
    }

    #[test]
    fn bounds_are_exact_for_every_design_including_former_model_gaps() {
        // Overlapping-compensation designs get real bounds too: the
        // stream bound is the behavioural model on the actual workload and
        // the full-space RMS is the exact moment program
        // (`DesignAnalysis`), both exact for *every* design.
        let overlapping = DesignPoint {
            // C + R = 9 > B = 8: overlapping compensation, feasible at
            // the default 300 ps constraint.
            design: Design::Isa(IsaConfig::new(32, 8, 0, 2, 7).unwrap()),
            cpr: 0.0,
        };
        let exact = DesignPoint {
            design: Design::Exact { width: 32 },
            cpr: 0.0,
        };
        let evals = evaluate_on(1, 600, true, &[overlapping, exact]);
        assert_eq!(evals.len(), 2);
        let e = &evals[0];
        assert!(
            e.model_error > 0.0 && e.exact_struct_rms > 0.0,
            "{}: formerly out-of-domain design must get a real bound",
            e.point.label()
        );
        // Timing-safe at the safe clock: the measured error IS the
        // structural bound.
        assert!(e.timing_safe);
        assert!((e.error.unwrap() - e.model_error).abs() < 1e-9);
        assert_eq!(evals[1].model_error, 0.0);
        assert_eq!(evals[1].exact_struct_rms, 0.0);
    }

    #[test]
    fn inaccurate_certain_reference_cannot_prune_accurate_candidates() {
        // (8,0,0,0) is the cheapest paper design and the least accurate
        // (0.88 % structural RMS). At 10 % CPR (270 ps) its period still
        // exceeds its critical delay (248.5 ps nominal in the design
        // table), so it is certain: its bound joins the references before
        // any candidate is visited, and it is as fast as or faster than
        // both candidates below. Its bound is its *exact* on-stream
        // error, so the dominance rule rejects it on the error axis
        // alone: no flag or trust level is needed.
        let evals = evaluate_on(
            1,
            800,
            true,
            &[
                point((8, 0, 0, 0), 0.10),
                point((16, 7, 0, 8), 0.10),
                point((16, 2, 1, 6), 0.05),
            ],
        );
        assert_eq!(evals.len(), 3);
        assert!(
            evals[0].timing_safe,
            "premise: the inaccurate design must be a certain reference"
        );
        for e in &evals[1..] {
            assert!(
                e.model_error < evals[0].model_error,
                "premise: {} must be more accurate than the reference",
                e.point.label()
            );
            assert!(
                !e.pruned,
                "{} was pruned by a less accurate reference",
                e.point.label()
            );
            assert!(e.error.is_some());
        }
    }

    /// The paper space (12 designs × 4 clocks): 33 candidates that are
    /// not baselines, overclocked points included.
    fn paper_points() -> Vec<DesignPoint> {
        crate::SpaceSpec::paper().enumerate()
    }

    #[test]
    fn pruned_candidates_are_dominated_and_unpruned_errors_unchanged() {
        // The bound needs no margin: everything the pre-filter prunes is
        // still strictly dominated by a candidate it simulated — the front
        // is unchanged — every candidate it keeps scores exactly as in a
        // run without the pre-filter, and baselines are never pruned.
        // Over a space with overclocked points, so measured references
        // prune too.
        let points = paper_points();
        let pruned = evaluate_on(1, 400, true, &points);
        let unpruned = evaluate_on(1, 400, false, &points);
        assert_eq!(pruned_count(&unpruned), 0);
        assert!(
            pruned_count(&pruned) > 0,
            "the pre-filter must prune something"
        );

        for (p, u) in pruned.iter().zip(&unpruned) {
            assert_eq!(p.point.label(), u.point.label());
            if !p.point.is_combined() {
                assert!(!p.pruned, "{} is a baseline", p.point.label());
            }
            if p.pruned {
                let objectives = u.objectives().unwrap();
                assert!(
                    pruned
                        .iter()
                        .filter_map(CandidateEval::objectives)
                        .any(|o| o.dominates(&objectives)),
                    "pruned {} is dominated by no measured candidate",
                    p.point.label()
                );
            } else {
                assert_eq!(p.error, u.error, "{}", p.point.label());
            }
            // Assumption 1 on every simulated candidate.
            assert!(u.bound_margin().unwrap() >= 0.0, "{}", u.point.label());
        }
    }

    #[test]
    fn measured_reference_prunes_what_no_certain_reference_can() {
        // (16,7,0,8) is certain at 10 % CPR (270 ps > 268.6 ps die
        // critical) but not at 15 %, where it still measures no timing
        // error on this stream. Only that *measured* 15 % vector —
        // same error, faster clock, less energy — dominates the 10 %
        // point; no certain reference does.
        let fast = point((16, 7, 0, 8), 0.15);
        let slow = point((16, 7, 0, 8), 0.10);
        // Listed slow first: bound order still simulates 15 % first.
        let both = evaluate_on(1, 400, true, &[slow, fast]);
        assert!(!both[1].timing_safe, "premise: 15 % is not certain");
        assert_eq!(both[1].bound_margin(), Some(0.0), "premise: error-free");
        assert!(both[0].timing_safe);
        assert!(both[0].pruned, "the measured 15 % point must prune 10 %");
        assert_eq!(pruned_count(&both), 1);

        // Without the pre-filter both are simulated, and the measured
        // 15 % vector strictly dominates the measured 10 % one.
        let all = evaluate_on(1, 400, false, &[fast, slow]);
        let (fast, slow) = (all[0].objectives().unwrap(), all[1].objectives().unwrap());
        assert!(fast.dominates(&slow));
    }

    #[test]
    fn pruning_is_thread_count_invariant() {
        // Only the baseline batch runs on the pool; each pruning decision
        // sees the same references at any worker count.
        let points = paper_points();
        let one = evaluate_on(1, 400, true, &points);
        let three = evaluate_on(3, 400, true, &points);
        assert_eq!(one.len(), three.len());
        for (a, b) in one.iter().zip(&three) {
            assert_eq!(a.point.label(), b.point.label());
            assert_eq!(a.pruned, b.pruned, "{}", a.point.label());
            assert_eq!(
                a.error.map(f64::to_bits),
                b.error.map(f64::to_bits),
                "{}",
                a.point.label()
            );
        }
    }
}
