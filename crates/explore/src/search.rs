//! Search strategies over the design space, plus front queries.
//!
//! Two strategies share the two-tier [`Evaluator`]:
//!
//! * [`Strategy::Exhaustive`] — every point of the space, one evaluator
//!   batch. Right for spaces up to a few hundred points (the paper and
//!   compact spaces).
//! * [`Strategy::Evolutionary`] — an NSGA-II-style seeded genetic search
//!   for large spaces: genomes are grid coordinates (design index, clock
//!   index), ranked by non-dominated sorting with crowding-distance
//!   tie-breaks, varied by axis crossover and ±1 neighbourhood mutation
//!   (the design axis is lexicographic in `(B, S, C, R)`, so neighbours
//!   are structurally similar). The initial population is seeded with the
//!   baseline configurations (every sampled design at the safe clock, the
//!   exact adder at every clock) so pure-structural and pure-overclocking
//!   references are always measured. Fully deterministic for a given
//!   `--seed`.
//!
//! [`Strategy::Auto`] picks exhaustive when the space fits the budget and
//! evolutionary otherwise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::evaluate::{CandidateEval, EvalMode, EvalSettings, Evaluator};
use crate::pareto::{FrontEntry, ParetoFront};
use crate::space::{DesignPoint, SpaceSpec};
use isa_engine::{Engine, ExperimentConfig};

/// Evolutionary-search knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvolutionSettings {
    /// Population size per generation.
    pub population: usize,
    /// Maximum generations (the budget may stop the search earlier).
    pub generations: usize,
}

impl Default for EvolutionSettings {
    fn default() -> Self {
        Self {
            population: 48,
            generations: 24,
        }
    }
}

/// How to traverse the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive when the space fits the budget, evolutionary otherwise.
    Auto,
    /// Enumerate every point (ignores the budget).
    Exhaustive,
    /// NSGA-II-style seeded genetic search.
    Evolutionary(EvolutionSettings),
}

/// Search-level settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSettings {
    /// Traversal strategy.
    pub strategy: Strategy,
    /// RNG seed: same seed, same space, same settings → byte-identical
    /// results.
    pub seed: u64,
    /// Maximum distinct candidates characterized (tier A + tier B
    /// combined). Exhaustive search ignores it.
    pub budget: usize,
}

impl Default for SearchSettings {
    fn default() -> Self {
        Self {
            strategy: Strategy::Auto,
            seed: 0x5EA2C4,
            budget: 256,
        }
    }
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
    /// Strategy actually used (`exhaustive` / `evolutionary`).
    pub strategy: &'static str,
    /// Generations run (0 for exhaustive).
    pub generations: usize,
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every candidate characterized, in first-consideration order
    /// (deterministic).
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
            // `continue`, not `?`: a front entry without a matching
            // candidate (possible after a caller-side front merge) must
            // not abort the scan — later entries can still witness.
            let Some(combined) = self.evaluated.iter().find(|e| e.point.id() == entry.key) else {
                continue;
            };
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

/// Runs one exploration: strategy resolution, candidate traversal through
/// the two-tier evaluator, front assembly.
#[must_use]
pub fn explore(
    engine: &Engine,
    config: ExperimentConfig,
    space: &SpaceSpec,
    mode: EvalMode,
    eval_settings: EvalSettings,
    search: SearchSettings,
) -> SearchOutcome {
    let workload = mode.workload_name();
    let mut evaluator = Evaluator::new(engine, config, mode, eval_settings);
    let (evaluated, strategy, generations) = match search.strategy {
        Strategy::Exhaustive => (exhaustive(&mut evaluator, space), "exhaustive", 0),
        Strategy::Evolutionary(evo) => {
            let (evals, gens) = evolutionary(&mut evaluator, space, evo, &search);
            (evals, "evolutionary", gens)
        }
        Strategy::Auto => {
            if space.len() <= search.budget {
                (exhaustive(&mut evaluator, space), "exhaustive", 0)
            } else {
                let (evals, gens) =
                    evolutionary(&mut evaluator, space, EvolutionSettings::default(), &search);
                (evals, "evolutionary", gens)
            }
        }
    };

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
    let stats = SearchStats {
        space_points: space.len(),
        considered: evaluated.len(),
        pruned: evaluator.pruned_count,
        simulated: evaluator.simulated_count,
        assumption1_violations: evaluated
            .iter()
            .filter(|e| e.bound_margin().is_some_and(|m| m < 0.0))
            .count(),
        infeasible: evaluator.infeasible.len(),
        strategy,
        generations,
    };
    SearchOutcome {
        evaluated,
        front,
        stats,
        workload,
    }
}

/// One evaluator batch over the whole space.
fn exhaustive(evaluator: &mut Evaluator<'_>, space: &SpaceSpec) -> Vec<CandidateEval> {
    evaluator.evaluate(&space.enumerate())
}

/// NSGA-II-style loop over grid coordinates.
fn evolutionary(
    evaluator: &mut Evaluator<'_>,
    space: &SpaceSpec,
    evo: EvolutionSettings,
    search: &SearchSettings,
) -> (Vec<CandidateEval>, usize) {
    let designs = space.designs.len();
    let clocks = space.cprs.len();
    assert!(designs > 0 && clocks > 0, "cannot search an empty space");
    let mut rng = StdRng::seed_from_u64(search.seed);
    // Cap at the space size: the seeding loop dedups grid coordinates,
    // so a population larger than the space could never fill.
    let population = evo.population.max(4).min(space.len());

    // Seed: baselines first (safe-clock column of a design stride plus
    // the exact adder at every clock), then an even design stride across
    // clocks, then random fill.
    let safe_idx = space.cprs.iter().position(|&c| c == 0.0);
    let mut genomes: Vec<(usize, usize)> = Vec::new();
    let push = |genomes: &mut Vec<(usize, usize)>, g: (usize, usize)| {
        if !genomes.contains(&g) {
            genomes.push(g);
        }
    };
    if let Some(exact_idx) = space.designs.iter().position(|d| d.is_exact()) {
        for c in 0..clocks {
            push(&mut genomes, (exact_idx, c));
        }
    }
    let stride = (designs / population.min(designs)).max(1);
    for (i, d) in (0..designs).step_by(stride).enumerate() {
        if genomes.len() >= population {
            break;
        }
        if let Some(s) = safe_idx {
            push(&mut genomes, (d, s));
        }
        push(&mut genomes, (d, i % clocks));
    }
    while genomes.len() < population {
        push(
            &mut genomes,
            (rng.gen_range(0..designs), rng.gen_range(0..clocks)),
        );
    }
    genomes.truncate(population);

    // Memoized evaluations, in first-consideration order.
    let mut evaluated: Vec<CandidateEval> = Vec::new();
    let mut eval_of: std::collections::HashMap<(usize, usize), Option<usize>> =
        std::collections::HashMap::new();
    let mut budget_left = search.budget;
    let evaluate_new = |genomes: &[(usize, usize)],
                        evaluator: &mut Evaluator<'_>,
                        evaluated: &mut Vec<CandidateEval>,
                        eval_of: &mut std::collections::HashMap<(usize, usize), Option<usize>>,
                        budget_left: &mut usize| {
        let mut fresh: Vec<(usize, usize)> = Vec::new();
        for &g in genomes {
            if fresh.len() == *budget_left {
                break;
            }
            if !eval_of.contains_key(&g) && !fresh.contains(&g) {
                fresh.push(g);
            }
        }
        if fresh.is_empty() {
            return;
        }
        *budget_left -= fresh.len();
        let points: Vec<DesignPoint> = fresh
            .iter()
            .map(|&(d, c)| space.point(d, c).expect("genomes stay in the grid"))
            .collect();
        let batch = evaluator.evaluate(&points);
        // Evaluations come back in order but infeasible designs are
        // dropped; align by point key.
        let mut by_key: std::collections::HashMap<(String, u64), CandidateEval> =
            batch.into_iter().map(|e| (e.point.key(), e)).collect();
        for (g, p) in fresh.iter().zip(&points) {
            match by_key.remove(&p.key()) {
                Some(e) => {
                    eval_of.insert(*g, Some(evaluated.len()));
                    evaluated.push(e);
                }
                None => {
                    eval_of.insert(*g, None);
                }
            }
        }
    };

    evaluate_new(
        &genomes,
        evaluator,
        &mut evaluated,
        &mut eval_of,
        &mut budget_left,
    );

    let mut generations = 0usize;
    for _ in 0..evo.generations {
        if budget_left == 0 {
            break;
        }
        generations += 1;
        // Parents: current population ranked by NSGA order.
        let ranked = nsga_order(&genomes, &eval_of, &evaluated);

        // Offspring: tournament selection + crossover + mutation.
        let mut offspring: Vec<(usize, usize)> = Vec::with_capacity(population);
        while offspring.len() < population {
            let a = tournament(&ranked, &mut rng);
            let b = tournament(&ranked, &mut rng);
            let (mut d, mut c) = if rng.gen_range(0.0..1.0) < 0.9 {
                // Axis crossover: one parent's design, the other's clock.
                (a.0, b.1)
            } else {
                a
            };
            // Neighbourhood mutation on each axis, with a rare random
            // jump to keep the search ergodic.
            if rng.gen_range(0.0..1.0) < 0.5 {
                d = step(d, designs, &mut rng);
            }
            if rng.gen_range(0.0..1.0) < 0.4 {
                c = step(c, clocks, &mut rng);
            }
            if rng.gen_range(0.0..1.0) < 0.1 {
                d = rng.gen_range(0..designs);
            }
            offspring.push((d, c));
        }
        evaluate_new(
            &offspring,
            evaluator,
            &mut evaluated,
            &mut eval_of,
            &mut budget_left,
        );

        // Elitist survival: NSGA order over parents ∪ offspring.
        let mut union = genomes.clone();
        for g in offspring {
            if !union.contains(&g) {
                union.push(g);
            }
        }
        let ordered = nsga_order(&union, &eval_of, &evaluated);
        genomes = ordered.into_iter().take(population).collect();
    }
    (evaluated, generations)
}

/// ±1 neighbourhood move on one axis.
fn step(i: usize, len: usize, rng: &mut StdRng) -> usize {
    if len <= 1 {
        return i;
    }
    if rng.gen_range(0..2usize) == 0 {
        i.saturating_sub(1)
    } else {
        (i + 1).min(len - 1)
    }
}

/// Binary tournament over an NSGA-ordered list (earlier = better): the
/// better of two uniform picks.
fn tournament(ranked: &[(usize, usize)], rng: &mut StdRng) -> (usize, usize) {
    let a = rng.gen_range(0..ranked.len());
    let b = rng.gen_range(0..ranked.len());
    ranked[a.min(b)]
}

/// Orders genomes by (non-domination rank, crowding distance): the NSGA-II
/// survival and tournament criterion. Unevaluated (infeasible) genomes go
/// last; pruned candidates rank by their optimistic bound vectors.
fn nsga_order(
    genomes: &[(usize, usize)],
    eval_of: &std::collections::HashMap<(usize, usize), Option<usize>>,
    evaluated: &[CandidateEval],
) -> Vec<(usize, usize)> {
    let mut feasible: Vec<((usize, usize), isa_metrics::ObjectiveVector)> = Vec::new();
    let mut infeasible: Vec<(usize, usize)> = Vec::new();
    for &g in genomes {
        match eval_of.get(&g).copied().flatten() {
            Some(idx) => {
                let e = &evaluated[idx];
                feasible.push((g, e.objectives().unwrap_or_else(|| e.bound_objectives())));
            }
            None => infeasible.push(g),
        }
    }

    // Non-dominated ranks, O(n²).
    let n = feasible.len();
    let mut rank = vec![0usize; n];
    for i in 0..n {
        rank[i] = (0..n)
            .filter(|&j| feasible[j].1.dominates(&feasible[i].1))
            .count();
    }
    // Crowding distance per objective across the whole pool (rank-local
    // crowding matters little at these population sizes and this keeps
    // the implementation compact and deterministic).
    let mut crowding = vec![0.0f64; n];
    for axis in 0..3 {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            feasible[a].1.components()[axis].total_cmp(&feasible[b].1.components()[axis])
        });
        if let (Some(&first), Some(&last)) = (idx.first(), idx.last()) {
            crowding[first] = f64::INFINITY;
            crowding[last] = f64::INFINITY;
            let span = feasible[last].1.components()[axis] - feasible[first].1.components()[axis];
            if span > 0.0 && span.is_finite() {
                for w in idx.windows(3) {
                    let gap =
                        feasible[w[2]].1.components()[axis] - feasible[w[0]].1.components()[axis];
                    crowding[w[1]] += gap / span;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        rank[a]
            .cmp(&rank[b])
            .then_with(|| crowding[b].total_cmp(&crowding[a]))
            .then_with(|| feasible[a].1.lex_cmp(&feasible[b].1))
            .then_with(|| feasible[a].0.cmp(&feasible[b].0))
    });
    order
        .into_iter()
        .map(|i| feasible[i].0)
        .chain(infeasible)
        .collect()
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

    fn run(strategy: Strategy, seed: u64, budget: usize) -> SearchOutcome {
        let engine = Engine::with_threads(1);
        let config = ExperimentConfig::default();
        let mode = EvalMode::uniform_stream(32, 1200, config.workload_seed);
        explore(
            &engine,
            config,
            &mini_space(),
            mode,
            EvalSettings::default(),
            SearchSettings {
                strategy,
                seed,
                budget,
            },
        )
    }

    #[test]
    fn exhaustive_covers_the_space_and_finds_a_thesis_witness() {
        let outcome = run(Strategy::Exhaustive, 1, usize::MAX);
        assert_eq!(outcome.stats.considered, 15);
        assert_eq!(outcome.stats.strategy, "exhaustive");
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
    fn same_seed_same_outcome_different_seed_may_differ() {
        let a = run(Strategy::Evolutionary(EvolutionSettings::default()), 7, 10);
        let b = run(Strategy::Evolutionary(EvolutionSettings::default()), 7, 10);
        let labels = |o: &SearchOutcome| -> Vec<String> {
            o.evaluated.iter().map(|e| e.point.label()).collect()
        };
        assert_eq!(labels(&a), labels(&b), "same seed, same traversal");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.front.len(), b.front.len());
    }

    #[test]
    fn budget_caps_evolutionary_evaluations() {
        let outcome = run(Strategy::Evolutionary(EvolutionSettings::default()), 3, 8);
        assert!(outcome.stats.considered <= 8);
        assert_eq!(outcome.stats.strategy, "evolutionary");
        // Baseline seeding puts the exact adder's clock column first.
        assert!(outcome.evaluated.iter().any(|e| e.point.design.is_exact()));
    }

    #[test]
    fn auto_picks_exhaustive_for_small_spaces() {
        let outcome = run(Strategy::Auto, 1, 100);
        assert_eq!(outcome.stats.strategy, "exhaustive");
        let outcome = run(Strategy::Auto, 1, 10);
        assert_eq!(outcome.stats.strategy, "evolutionary");
    }

    #[test]
    fn cheapest_query_respects_constraints() {
        let outcome = run(Strategy::Exhaustive, 1, usize::MAX);
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
