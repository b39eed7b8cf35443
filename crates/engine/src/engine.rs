//! The plan executor.
//!
//! [`Engine::run`] evaluates an [`ExperimentPlan`] — the cross product
//! `designs × cprs × workloads` — through the gate-level Fig. 6 flow, in
//! parallel across OS threads (`std::thread::scope`, no external
//! executor). One **run** (a (design, cpr, workload) triple) is the unit
//! of parallelism: runs are distributed over a worker pool, and each run's
//! stream is evaluated and accumulated in stream order on one thread, so
//! every result is identical for every worker count.
//!
//! Per-design synthesis/annotation artifacts are memoized in the engine's
//! [`ArtifactCache`], so a twelve-design seven-figure session synthesizes
//! each design once instead of once per figure.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use isa_obs::{Counter, Histogram};

use isa_core::{combine_errors, CombinedErrorStats, Design, Substrate};

use crate::cache::ArtifactCache;
use crate::context::{BuildError, DesignContext, ExperimentConfig};
use crate::plan::{ExperimentPlan, WorkloadSpec};
use crate::substrates::GateLevelSubstrate;

/// Process-wide engine instruments (`engine.*` in the global registry).
/// The engine is shared machinery — per-instance scoping buys nothing
/// here, unlike the serve layer's per-service counters.
struct EngineMetrics {
    runs: Counter,
    run_ns: Histogram,
    points_mapped: Counter,
    point_panics: Counter,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = isa_obs::global();
        EngineMetrics {
            runs: registry.counter("engine.runs"),
            run_ns: registry.histogram("engine.run_ns"),
            points_mapped: registry.counter("engine.points_mapped"),
            point_panics: registry.counter("engine.point_panics"),
        }
    })
}

/// Aggregated outcome of one (design, cpr, workload) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The evaluated design.
    pub design: Design,
    /// Display label of the design (quadruple or `exact`).
    pub design_label: String,
    /// Clock-period reduction applied (0.0 = safe clock).
    pub cpr: f64,
    /// Absolute clock period in picoseconds.
    pub clock_ps: f64,
    /// Workload name.
    pub workload: String,
    /// Cycles evaluated.
    pub cycles: u64,
    /// The Fig. 6 combined statistics (structural / timing / joint).
    pub stats: CombinedErrorStats,
}

impl RunResult {
    /// Fraction of cycles with at least one timing-erroneous output bit.
    #[must_use]
    pub fn timing_error_rate(&self) -> f64 {
        self.stats.e_timing.error_rate()
    }
}

/// The plan executor: a worker pool plus the shared artifact cache.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache: Arc<ArtifactCache>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine sized to the machine's available parallelism.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// Creates an engine with an explicit worker count (`1` = fully
    /// sequential, deterministic scheduling).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self::with_cache(threads, Arc::new(ArtifactCache::new()))
    }

    /// Creates an engine over an existing artifact cache — the serve layer
    /// uses this to share a bounded cross-request LRU between the engine
    /// and substrates it constructs itself.
    #[must_use]
    pub fn with_cache(threads: usize, cache: Arc<ArtifactCache>) -> Self {
        Self {
            threads: threads.max(1),
            cache,
        }
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared artifact cache (for substrates constructed outside the
    /// engine that should reuse its synthesis results).
    #[must_use]
    pub fn cache(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.cache)
    }

    /// Memoized synthesis/annotation artifacts for one design.
    #[must_use]
    pub fn context(&self, design: &Design, config: &ExperimentConfig) -> Arc<DesignContext> {
        self.cache.context(design, config)
    }

    /// Fallible variant of [`Engine::context`] for designs that may not
    /// meet the timing constraint (see
    /// [`ArtifactCache::try_context`](crate::ArtifactCache::try_context)).
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] for infeasible or lint-rejected designs.
    pub fn try_context(
        &self,
        design: &Design,
        config: &ExperimentConfig,
    ) -> Result<Arc<DesignContext>, BuildError> {
        self.cache.try_context(design, config)
    }

    /// Builds (and memoizes) the contexts of many designs in parallel.
    pub fn prewarm(&self, designs: &[Design], config: &ExperimentConfig) {
        self.parallel_indexed(designs.len(), |i| {
            let _ = self.cache.context(&designs[i], config);
        });
    }

    /// Executes the plan: the gate-level Fig. 6 flow for every (design ×
    /// cpr × workload) run, spread over the worker pool, results in plan
    /// order (designs outermost, workloads innermost).
    ///
    /// Each run's statistics are one [`combine_errors`] call: `ysilver`
    /// from [`GateLevelSubstrate::run_batch`](Substrate::run_batch),
    /// `ygold` from the design's memoized [`DesignContext::gold`]. A run
    /// is evaluated whole on one worker, so the statistics depend only on
    /// the plan — never on the engine's thread count.
    #[must_use]
    pub fn run(&self, plan: &ExperimentPlan) -> Vec<RunResult> {
        let _span = isa_obs::trace::span("engine.run");
        let started = Instant::now();
        let gate = GateLevelSubstrate::new(self.cache(), plan.config.clone());
        let metrics = engine_metrics();
        metrics.runs.inc();
        let results = self.map(plan, |unit| {
            let silvers = gate.run_batch(&unit.design, unit.clock_ps, unit.inputs);
            let golds = unit.context().gold.add_batch(unit.inputs);
            let stats = combine_errors(unit.design.width(), unit.inputs, &golds, &silvers);
            RunResult {
                design: unit.design,
                design_label: unit.design.to_string(),
                cpr: unit.cpr,
                clock_ps: unit.clock_ps,
                workload: unit.workload.to_owned(),
                cycles: stats.len(),
                stats,
            }
        });
        metrics.run_ns.observe_since(started);
        results
    }

    /// Runs an arbitrary evaluator over every (design × cpr × workload)
    /// unit of the plan, in parallel, returning results in plan order.
    ///
    /// This is the escape hatch for pipelines whose per-run logic does not
    /// reduce to combined error statistics (predictor training/evaluation,
    /// energy measurement, Razor comparisons, Fig. 10's bit histograms);
    /// they still inherit the engine's memoized artifacts and its worker
    /// pool. Parallelism is across *units* only: each evaluator sees its
    /// full stream on one thread, and a single-unit plan runs
    /// sequentially.
    pub fn map<T, F>(&self, plan: &ExperimentPlan, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RunUnit<'_>) -> T + Sync,
    {
        let workloads: Vec<WorkloadSpec> = plan.resolved_workloads();
        let designs = plan.design_list();
        let cprs = plan.cpr_list();
        let per_design = cprs.len() * workloads.len();
        let total = designs.len() * per_design;
        self.parallel_indexed(total, |i| {
            let design_idx = i / per_design;
            let cpr_idx = (i % per_design) / workloads.len();
            let workload_idx = i % workloads.len();
            let cpr = cprs[cpr_idx];
            f(RunUnit {
                engine: self,
                config: &plan.config,
                design: designs[design_idx],
                cpr,
                clock_ps: plan.config.clock_ps(cpr),
                workload: &workloads[workload_idx].name,
                inputs: &workloads[workload_idx].inputs,
            })
        })
    }

    /// Runs an evaluator over an explicit, possibly sparse list of
    /// (design, clock-period-reduction) points sharing one workload, in
    /// parallel across points, results in list order.
    ///
    /// [`Engine::map`] always evaluates a plan's *full* cross product;
    /// this is the evaluation plumbing for callers that select their own
    /// subset of the space — the design-space explorer scores only the
    /// candidates that survive its analytical pre-filter. Points still
    /// inherit the engine's memoized synthesis artifacts and worker pool.
    pub fn map_points<T, F>(
        &self,
        config: &ExperimentConfig,
        points: &[(Design, f64)],
        workload: &WorkloadSpec,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(RunUnit<'_>) -> T + Sync,
    {
        self.parallel_indexed(points.len(), |i| {
            let (design, cpr) = points[i];
            f(RunUnit {
                engine: self,
                config,
                design,
                cpr,
                clock_ps: config.clock_ps(cpr),
                workload: &workload.name,
                inputs: &workload.inputs,
            })
        })
    }

    /// Panic-isolated variant of [`Engine::map_points`] for long-lived
    /// callers: each point's evaluator runs under
    /// [`std::panic::catch_unwind`], so a poisoned evaluation (a synthesis
    /// panic, a substrate bug) fails *that point* with an error string
    /// instead of tearing down the process — sibling points complete
    /// normally. Results stay in list order.
    pub fn try_map_points<T, F>(
        &self,
        config: &ExperimentConfig,
        points: &[(Design, f64)],
        workload: &WorkloadSpec,
        f: F,
    ) -> Vec<Result<T, String>>
    where
        T: Send,
        F: Fn(RunUnit<'_>) -> T + Sync,
    {
        let metrics = engine_metrics();
        metrics.points_mapped.add(points.len() as u64);
        self.parallel_indexed(points.len(), |i| {
            let (design, cpr) = points[i];
            catch_unwind(AssertUnwindSafe(|| {
                f(RunUnit {
                    engine: self,
                    config,
                    design,
                    cpr,
                    clock_ps: config.clock_ps(cpr),
                    workload: &workload.name,
                    inputs: &workload.inputs,
                })
            }))
            .map_err(|payload| {
                metrics.point_panics.inc();
                panic_message(payload.as_ref())
            })
        })
    }

    /// Work-stealing parallel map over `0..n`, results in index order.
    /// Falls back to a plain sequential loop for one worker or one task.
    fn parallel_indexed<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    results.lock().expect("result sink poisoned").push((i, out));
                });
            }
        });
        let mut indexed = results.into_inner().expect("result sink poisoned");
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, out)| out).collect()
    }
}

/// One unit handed to an [`Engine::map`] evaluator.
pub struct RunUnit<'a> {
    engine: &'a Engine,
    /// The plan's configuration.
    pub config: &'a ExperimentConfig,
    /// The unit's design.
    pub design: Design,
    /// Clock-period reduction (0.0 = safe clock).
    pub cpr: f64,
    /// Absolute clock period in picoseconds.
    pub clock_ps: f64,
    /// Workload name.
    pub workload: &'a str,
    /// The unit's full input stream.
    pub inputs: &'a [(u64, u64)],
}

impl RunUnit<'_> {
    /// The memoized synthesis artifacts of this unit's design.
    #[must_use]
    pub fn context(&self) -> Arc<DesignContext> {
        self.engine.context(&self.design, self.config)
    }

    /// Fallible variant of [`RunUnit::context`] for points that may not
    /// meet the timing constraint.
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] for infeasible or lint-rejected designs.
    pub fn try_context(&self) -> Result<Arc<DesignContext>, BuildError> {
        self.engine.try_context(&self.design, self.config)
    }
}

/// Renders a `catch_unwind` payload as a message, the way the default
/// panic hook does for `&str` and `String` payloads (anything else gets a
/// fixed description).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    fn one_design() -> Design {
        Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())
    }

    #[test]
    fn underclocked_plan_matches_direct_structural_errors() {
        // CPR -0.2 underclocks (360 ps): every cycle settles, so the
        // gate-level run is the structural-only flow exactly.
        let engine = Engine::with_threads(4);
        let design = one_design();
        let plan = ExperimentPlan::new(ExperimentConfig::default())
            .designs([design])
            .cprs([-0.2])
            .cycles(2_000);
        let results = engine.run(&plan);
        assert_eq!(results.len(), 1);
        let result = &results[0];
        assert_eq!(result.cycles, 2_000);
        assert_eq!(result.timing_error_rate(), 0.0);

        let gold = design.behavioural();
        let inputs = plan.resolved_workloads()[0].inputs.clone();
        let direct = isa_core::structural_errors(gold.as_ref(), inputs.iter().copied());
        assert_eq!(result.stats, direct, "run matches the direct loop");
    }

    #[test]
    fn run_results_are_identical_on_one_and_eight_workers() {
        let plan = ExperimentPlan::new(ExperimentConfig::default())
            .designs([one_design(), Design::Exact { width: 32 }])
            .cprs([0.10])
            .cycles(40_000);
        let serial = Engine::with_threads(1).run(&plan);
        let parallel = Engine::with_threads(8).run(&plan);
        assert_eq!(serial.len(), 2);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cycles, 40_000);
            assert_eq!(p.design_label, s.design_label);
            assert_eq!(p.stats, s.stats);
        }
    }

    #[test]
    fn run_order_is_designs_then_cprs_then_workloads() {
        let engine = Engine::with_threads(2);
        let plan = ExperimentPlan::new(ExperimentConfig::default())
            .designs([one_design(), Design::Exact { width: 32 }])
            .cprs([0.05, 0.10])
            .workload("w0", vec![(1, 2); 64])
            .workload("w1", vec![(3, 4); 64]);
        let results = engine.run(&plan);
        assert_eq!(results.len(), 8);
        assert_eq!(results[0].workload, "w0");
        assert_eq!(results[1].workload, "w1");
        assert_eq!(results[0].cpr, 0.05);
        assert_eq!(results[2].cpr, 0.10);
        assert_eq!(results[0].design_label, "(8,0,0,4)");
        assert_eq!(results[4].design_label, "exact");
    }

    #[test]
    fn map_points_evaluates_exactly_the_sparse_list() {
        let engine = Engine::with_threads(4);
        let config = ExperimentConfig::default();
        let workload = crate::plan::WorkloadSpec {
            name: "w".to_owned(),
            inputs: std::sync::Arc::new(vec![(1, 2), (3, 4)]),
        };
        // A sparse, non-product subset (including a repeat).
        let points = [
            (one_design(), 0.15),
            (Design::Exact { width: 32 }, 0.05),
            (one_design(), 0.15),
        ];
        let labels = engine.map_points(&config, &points, &workload, |unit| {
            assert_eq!(unit.inputs.len(), 2);
            assert_eq!(unit.workload, "w");
            format!("{}@{:.2}@{}", unit.design, unit.cpr, unit.clock_ps)
        });
        assert_eq!(
            labels,
            vec!["(8,0,0,4)@0.15@255", "exact@0.05@285", "(8,0,0,4)@0.15@255"]
        );
    }

    #[test]
    fn map_preserves_plan_order_under_parallelism() {
        let engine = Engine::with_threads(4);
        let plan = ExperimentPlan::new(ExperimentConfig::default())
            .designs([one_design(), Design::Exact { width: 32 }])
            .cprs([0.05, 0.15])
            .workload("w", vec![(0, 0); 8]);
        let labels = engine.map(&plan, |unit| format!("{}@{:.2}", unit.design, unit.cpr));
        assert_eq!(
            labels,
            vec![
                "(8,0,0,4)@0.05",
                "(8,0,0,4)@0.15",
                "exact@0.05",
                "exact@0.15"
            ]
        );
    }
}
