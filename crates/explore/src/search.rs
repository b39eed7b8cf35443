//! The search over the design space, plus front queries.
//!
//! [`explore`] runs the two-tier evaluation (see [`mod@crate::evaluate`])
//! on every point of the space in one call and assembles the Pareto front
//! of the simulated candidates. The structural bounds are exact and
//! pruning needs no margin, so even the full 86,476-point width-32 space
//! is one call on one worker; no sampled search is needed.

use crate::evaluate::{evaluate, CandidateEval, EvalMode, EvalSettings};
use crate::pareto::{FrontEntry, ParetoFront};
use crate::space::{DesignPoint, SpaceSpec};
use isa_engine::{Engine, ExperimentConfig};

/// How to traverse the space. Its one value evaluates every point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Evaluate every point of the space.
    #[default]
    Exhaustive,
}

/// Search-level settings. Its one field has one value, and [`explore`]
/// ignores it; the layer ledger (`ledger/src/explore.rs`) still passes
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchSettings {
    /// Traversal strategy (always [`Strategy::Exhaustive`]).
    pub strategy: Strategy,
}

/// Aggregate counters of one search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchStats {
    /// Points in the space.
    pub space_points: usize,
    /// Distinct candidates characterized (tier A).
    pub considered: usize,
    /// Candidates pruned because a certain or measured reference
    /// dominates their bound (tier A).
    pub pruned: usize,
    /// Candidates simulated on the gate-level backend (tier B).
    pub simulated: usize,
    /// Simulated candidates whose error fell below their structural bound:
    /// violations of the pruning's one assumption (timing errors never
    /// reduce error).
    pub assumption1_violations: usize,
    /// Designs rejected as unable to meet the timing constraint.
    pub infeasible: usize,
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every feasible candidate, in space order (designs outermost).
    pub evaluated: Vec<CandidateEval>,
    /// The Pareto front over the simulated candidates.
    pub front: ParetoFront<DesignPoint>,
    /// Search counters.
    pub stats: SearchStats,
    /// Workload label the objectives were measured on.
    pub workload: String,
}

/// A quality-constrained front query: "the cheapest configuration meeting
/// at least `min_quality_db`, no slower than `max_clock_ps`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Minimum quality in dB (SNR of the joint relative error for stream
    /// workloads, PSNR for kernels).
    pub min_quality_db: f64,
    /// Optional clock-period cap in picoseconds.
    pub max_clock_ps: Option<f64>,
}

/// A combined configuration reproducing the paper's thesis as a search
/// result: at its own quality level it strictly dominates every measured
/// pure-structural and pure-overclocking configuration of that quality.
#[derive(Debug, Clone)]
pub struct ThesisWitness {
    /// The witnessing combined (inexact + overclocked) point.
    pub combined: DesignPoint,
    /// The quality constraint it witnesses (its own quality, dB).
    pub quality_db: f64,
    /// Pure-structural configurations meeting the constraint, all
    /// strictly dominated.
    pub dominated_structural: usize,
    /// Pure-overclocking configurations meeting the constraint, all
    /// strictly dominated.
    pub dominated_overclocking: usize,
}

impl SearchOutcome {
    /// The smallest simulated error minus structural bound over the
    /// simulated candidates (equal infinities count as zero); `None` when
    /// nothing was simulated. Negative exactly when
    /// [`SearchStats::assumption1_violations`] is nonzero.
    #[must_use]
    pub fn min_bound_margin(&self) -> Option<f64> {
        self.evaluated
            .iter()
            .filter_map(CandidateEval::bound_margin)
            .min_by(f64::total_cmp)
    }

    /// The cheapest (lowest energy, then delay, then label) simulated
    /// candidate satisfying the query, if any.
    #[must_use]
    pub fn cheapest(&self, query: &Query) -> Option<&CandidateEval> {
        self.evaluated
            .iter()
            .filter(|e| {
                e.quality_db
                    .is_some_and(|quality| quality >= query.min_quality_db)
                    && query.max_clock_ps.is_none_or(|cap| e.clock_ps <= cap)
            })
            .min_by(|a, b| {
                a.energy_fj
                    .total_cmp(&b.energy_fj)
                    .then(a.clock_ps.total_cmp(&b.clock_ps))
                    .then_with(|| a.point.id().cmp(&b.point.id()))
            })
    }

    /// Searches the front for a combined-errors thesis witness: a
    /// combined front point whose quality level is met by at least one
    /// pure configuration, with every such pure configuration strictly
    /// dominated by it.
    #[must_use]
    pub fn thesis_witness(&self) -> Option<ThesisWitness> {
        for entry in self.front.entries() {
            if !entry.payload.is_combined() {
                continue;
            }
            let combined = self
                .evaluated
                .iter()
                .find(|e| e.point.id() == entry.key)
                .expect("front entries come from evaluated candidates");
            let Some(quality) = combined.quality_db else {
                continue;
            };
            let objectives = entry.objectives;
            let mut dominated_structural = 0usize;
            let mut dominated_overclocking = 0usize;
            let mut all_dominated = true;
            for pure in self.evaluated.iter().filter(|e| {
                (e.point.is_pure_structural() || e.point.is_pure_overclocking())
                    && e.quality_db.is_some_and(|q| q >= quality)
            }) {
                let Some(pure_objectives) = pure.objectives() else {
                    continue;
                };
                if objectives.dominates(&pure_objectives) {
                    if pure.point.is_pure_structural() {
                        dominated_structural += 1;
                    } else {
                        dominated_overclocking += 1;
                    }
                } else {
                    all_dominated = false;
                    break;
                }
            }
            if all_dominated && dominated_structural + dominated_overclocking > 0 {
                return Some(ThesisWitness {
                    combined: combined.point,
                    quality_db: quality,
                    dominated_structural,
                    dominated_overclocking,
                });
            }
        }
        None
    }
}

/// Runs one exploration: the two-tier evaluation of every point of the
/// space, then front assembly. `search` is ignored (its one setting has
/// one value).
#[must_use]
pub fn explore(
    engine: &Engine,
    config: ExperimentConfig,
    space: &SpaceSpec,
    mode: EvalMode,
    eval_settings: EvalSettings,
    _search: SearchSettings,
) -> SearchOutcome {
    let (evaluated, infeasible) =
        evaluate(engine, &config, &mode, &eval_settings, &space.enumerate());

    let mut front = ParetoFront::new();
    for e in &evaluated {
        if let Some(objectives) = e.objectives() {
            front.insert(FrontEntry {
                objectives,
                key: e.point.id(),
                payload: e.point,
            });
        }
    }
    // Every feasible candidate is either pruned or simulated.
    let pruned = evaluated.iter().filter(|e| e.pruned).count();
    let stats = SearchStats {
        space_points: space.len(),
        considered: evaluated.len(),
        pruned,
        simulated: evaluated.len() - pruned,
        assumption1_violations: evaluated
            .iter()
            .filter(|e| e.bound_margin().is_some_and(|m| m < 0.0))
            .count(),
        infeasible,
    };
    SearchOutcome {
        evaluated,
        front,
        stats,
        workload: mode.workload_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::{Design, IsaConfig};

    fn mini_space() -> SpaceSpec {
        let quads = [(8, 0, 0, 0), (8, 0, 0, 4), (16, 1, 0, 0), (16, 7, 0, 8)];
        SpaceSpec {
            width: 32,
            designs: quads
                .into_iter()
                .map(|(b, s, c, r)| Design::Isa(IsaConfig::new(32, b, s, c, r).unwrap()))
                .chain([Design::Exact { width: 32 }])
                .collect(),
            cprs: vec![0.0, 0.05, 0.10],
        }
    }

    fn run() -> SearchOutcome {
        let engine = Engine::with_threads(1);
        let config = ExperimentConfig::default();
        let mode = EvalMode::uniform_stream(32, 1200, config.workload_seed);
        explore(
            &engine,
            config,
            &mini_space(),
            mode,
            EvalSettings::default(),
            SearchSettings::default(),
        )
    }

    #[test]
    fn exhaustive_covers_the_space_and_finds_a_thesis_witness() {
        let outcome = run();
        assert_eq!(outcome.stats.considered, 15);
        assert!(outcome.stats.simulated + outcome.stats.pruned == 15);
        assert!(!outcome.front.is_empty());
        // The front is mutually non-dominated by construction; every
        // front point must be a simulated candidate.
        for entry in outcome.front.entries() {
            assert!(outcome
                .evaluated
                .iter()
                .any(|e| e.point.id() == entry.key && !e.pruned));
        }
        // The paper's thesis, as a search result: (16,7,0,8) is safe at
        // 10 % CPR, so its combined point dominates its own safe-clock
        // configuration (and whatever else reaches its quality).
        let witness = outcome.thesis_witness().expect("thesis witness exists");
        assert!(witness.combined.is_combined());
        assert!(witness.dominated_structural >= 1);
    }

    #[test]
    fn cheapest_query_respects_constraints() {
        let outcome = run();
        // A very lax constraint: the cheapest design overall wins.
        let lax = outcome
            .cheapest(&Query {
                min_quality_db: 0.0,
                max_clock_ps: None,
            })
            .expect("some candidate qualifies");
        // A tight quality floor excludes the cheap inaccurate designs.
        let tight = outcome
            .cheapest(&Query {
                min_quality_db: 80.0,
                max_clock_ps: None,
            })
            .expect("accurate candidates exist");
        assert!(tight.quality_db.unwrap() >= 80.0);
        assert!(tight.energy_fj >= lax.energy_fj);
        // An impossible constraint yields nothing.
        assert!(outcome
            .cheapest(&Query {
                min_quality_db: f64::INFINITY,
                max_clock_ps: Some(100.0),
            })
            .is_none());
    }
}
