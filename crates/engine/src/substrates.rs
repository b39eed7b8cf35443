//! The gate-level and predictor-backed [`Substrate`] implementations.
//!
//! Together with [`BehaviouralSubstrate`](isa_core::BehaviouralSubstrate)
//! (which lives in `isa-core` because it needs no artifacts), these cover
//! the paper's three `ysilver` provenances:
//!
//! | substrate            | `ysilver`                              | paper role |
//! |----------------------|----------------------------------------|------------|
//! | behavioural          | `ygold` (no timing errors)             | properly clocked baseline, Section V.A |
//! | [`GateLevelSubstrate`] | sampled from the delay-annotated netlist | ModelSim ground truth, Figs. 9–10 |
//! | [`PredictedSubstrate`] | `ygold ^ predicted flips`              | Section III model, Figs. 7–8 |
//!
//! Pick the predictor backend for wide sweeps where gate-level cost is
//! prohibitive (it is orders of magnitude faster per cycle and FATE-style
//! faithful on aggregate statistics), and the gate-level backend whenever
//! ground-truth timing behaviour — including cycle-to-cycle state carryover
//! — is the point of the measurement.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use isa_core::combine::SilverSource;
use isa_core::segment_len;
use isa_core::substrate::{CostClass, Substrate};
use isa_core::{Adder, Design};
use isa_learn::{CyclePair, PredictorConfig, TimingErrorPredictor};
use isa_timing_sim::{run_filtered_batch_tape, ClockedCore};
use isa_workloads::{take_pairs, UniformWorkload};

use crate::cache::ArtifactCache;
use crate::context::{DesignContext, ExperimentConfig};

/// The label every report prints for the gate-level path (the `backend`
/// column of the apps and explore CSVs, serve payloads and
/// `explore --stats-json`): the filtered runner on the compiled tape.
pub const GATE_BACKEND_LABEL: &str = "filtered";

/// The ground-truth substrate: delay-annotated gate-level simulation of
/// the synthesized design, sampled at the reduced clock edge.
///
/// [`run_batch`](Substrate::run_batch) is the production path: the
/// filtered runner ([`run_filtered_batch_tape`]) deals the stream to 64
/// lanes in contiguous segments. [`prepare`](Substrate::prepare) sessions
/// step the scalar event-driven [`ClockedCore`] instead — the reference
/// oracle every lane segment of `run_batch` equals bit for bit.
///
/// Synthesis and annotation artifacts are memoized per design in the shared
/// [`ArtifactCache`], so preparing many sessions for the same design (e.g.
/// one per CPR) synthesizes once.
#[derive(Debug)]
pub struct GateLevelSubstrate {
    cache: Arc<ArtifactCache>,
    config: ExperimentConfig,
}

impl GateLevelSubstrate {
    /// Creates a gate-level substrate over a shared artifact cache.
    #[must_use]
    pub fn new(cache: Arc<ArtifactCache>, config: ExperimentConfig) -> Self {
        Self { cache, config }
    }

    /// The memoized context for a design (synthesizing on first use).
    #[must_use]
    pub fn context(&self, design: &Design) -> Arc<DesignContext> {
        self.cache.context(design, &self.config)
    }
}

/// One gate-level session: owned clocked-simulation state plus the shared
/// design artifacts, carrying circuit state across cycles.
struct GateSession {
    ctx: Arc<DesignContext>,
    clocked: ClockedCore,
}

impl SilverSource for GateSession {
    fn next_silver(&mut self, a: u64, b: u64) -> u64 {
        let adder = &self.ctx.synthesized.adder;
        let pins = adder.input_values(a, b);
        self.clocked.step(adder.netlist(), &pins)
    }
}

impl Substrate for GateLevelSubstrate {
    fn prepare(&self, design: &Design, clock_ps: f64) -> Box<dyn SilverSource + '_> {
        let ctx = self.context(design);
        let clocked = ClockedCore::new(ctx.synthesized.adder.netlist(), &ctx.annotation, clock_ps);
        Box::new(GateSession { ctx, clocked })
    }

    fn label(&self) -> String {
        "gate-level".to_owned()
    }

    fn cost_class(&self) -> CostClass {
        CostClass::GateLevel
    }

    /// Full-stream evaluation on the filtered runner: classifier-proven
    /// safe lanes take one functional tape sweep, the unsafe minority a
    /// compacted 64-lane timed replay. Lane `l` equals a scalar session
    /// fed stream segment `l` (see [`segment_len`]).
    fn run_batch(&self, design: &Design, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
        let ctx = self.context(design);
        run_filtered_batch_tape(
            &ctx.synthesized.adder,
            &ctx.annotation,
            ctx.classifier(),
            ctx.tape(),
            clock_ps,
            inputs,
        )
    }
}

/// Key for one trained predictor: the design's artifact identity plus the
/// clock period (predictors are per (design, clock) by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PredictorKey {
    design: Design,
    clock_bits: u64,
}

/// The learned substrate: `ysilver` deduced from the paper's per-bit
/// timing-error predictor (Section III.A) instead of gate-level simulation.
///
/// On first [`prepare`](Substrate::prepare) of a (design, clock) pair the
/// substrate collects a gate-level training trace over its own training
/// workload, trains one Random Forest per output bit, and memoizes the
/// model; subsequent sessions reuse it. Sessions then run at behavioural
/// speed: golden output plus forest inference per cycle.
pub struct PredictedSubstrate {
    cache: Arc<ArtifactCache>,
    config: ExperimentConfig,
    train_cycles: usize,
    train_seed: u64,
    predictor_config: PredictorConfig,
    models: Mutex<HashMap<PredictorKey, Arc<OnceLock<Arc<TimingErrorPredictor>>>>>,
}

impl PredictedSubstrate {
    /// Creates a predictor substrate that trains on `train_cycles` cycles
    /// of a uniform workload seeded with `config.workload_seed ^ 0x7EA1`
    /// (the Figs. 7–8 training stream).
    #[must_use]
    pub fn new(cache: Arc<ArtifactCache>, config: ExperimentConfig, train_cycles: usize) -> Self {
        let train_seed = config.workload_seed ^ 0x7EA1;
        Self::with_train_seed(cache, config, train_cycles, train_seed)
    }

    /// Creates a predictor substrate with an explicit training-workload
    /// seed (e.g. the guardband study trains on a different stream).
    #[must_use]
    pub fn with_train_seed(
        cache: Arc<ArtifactCache>,
        config: ExperimentConfig,
        train_cycles: usize,
        train_seed: u64,
    ) -> Self {
        Self {
            cache,
            config,
            train_cycles,
            train_seed,
            predictor_config: PredictorConfig::default(),
            models: Mutex::new(HashMap::new()),
        }
    }

    /// The memoized trained predictor for a (design, clock) pair, training
    /// it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the design is wider than the predictor supports or if a
    /// concurrent training of the same pair panicked.
    #[must_use]
    pub fn predictor(&self, design: &Design, clock_ps: f64) -> Arc<TimingErrorPredictor> {
        let key = PredictorKey {
            design: *design,
            clock_bits: clock_ps.to_bits(),
        };
        let slot = {
            let mut models = self.models.lock().expect("predictor cache poisoned");
            Arc::clone(models.entry(key).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(self.train(design, clock_ps))))
    }

    /// Collects a gate-level training trace and fits the per-bit model.
    ///
    /// The trace comes from the filtered runner; the `x[t-1]` features
    /// then follow each *lane's* actual predecessor, restarting from the
    /// reset state at segment seams (see [`cycles_with_segment_resets`])
    /// so features always describe the circuit state that physically
    /// produced the labels.
    fn train(&self, design: &Design, clock_ps: f64) -> TimingErrorPredictor {
        let ctx = self.cache.context(design, &self.config);
        let inputs = take_pairs(
            UniformWorkload::new(design.width(), self.train_seed),
            self.train_cycles,
        );
        let adder = &ctx.synthesized.adder;
        let sampled = run_filtered_batch_tape(
            adder,
            &ctx.annotation,
            ctx.classifier(),
            ctx.tape(),
            clock_ps,
            &inputs,
        );
        let settled = adder.add_batch_with_tape(ctx.tape(), &inputs);
        let raw: Vec<(u64, u64, u64, u64)> = inputs
            .iter()
            .zip(sampled.iter().zip(&settled))
            .map(|(&(a, b), (&sam, &set))| (a, b, set, sam ^ set))
            .collect();
        TimingErrorPredictor::train(
            &cycles_with_segment_resets(&raw),
            design.width(),
            &self.predictor_config,
        )
    }
}

impl std::fmt::Debug for PredictedSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictedSubstrate")
            .field("train_cycles", &self.train_cycles)
            .field("train_seed", &self.train_seed)
            .finish_non_exhaustive()
    }
}

/// Builds the predictor's cycle stream from stream-ordered `(a, b, gold,
/// flips)` data produced by a 64-lane gate-level run: like
/// [`CyclePair::from_stream`], but the `t-1` features reset to the
/// all-zero state at every lane-segment seam (`i % segment_len(n) == 0`),
/// where the 64-lane simulator's circuit state actually restarted from
/// reset.
#[must_use]
pub fn cycles_with_segment_resets(raw: &[(u64, u64, u64, u64)]) -> Vec<CyclePair> {
    let seg = segment_len(raw.len());
    let mut prev = (0u64, 0u64, 0u64);
    raw.iter()
        .enumerate()
        .map(|(i, &(a, b, gold, flips))| {
            if i % seg == 0 {
                prev = (0, 0, 0);
            }
            let pair = CyclePair {
                a,
                b,
                a_prev: prev.0,
                b_prev: prev.1,
                gold,
                gold_prev: prev.2,
                flips,
            };
            prev = (a, b, gold);
            pair
        })
        .collect()
}

/// One predictor session: golden model plus previous-cycle state (the
/// model's `x[t-1]` / `yRTL[t-1]` features).
struct PredictedSession {
    predictor: Arc<TimingErrorPredictor>,
    gold: Box<dyn Adder>,
    prev: (u64, u64, u64),
}

impl SilverSource for PredictedSession {
    fn next_silver(&mut self, a: u64, b: u64) -> u64 {
        let gold = self.gold.add(a, b);
        let cycle = CyclePair {
            a,
            b,
            a_prev: self.prev.0,
            b_prev: self.prev.1,
            gold,
            gold_prev: self.prev.2,
            flips: 0,
        };
        let silver = self.predictor.predict_silver(&cycle);
        self.prev = (a, b, gold);
        silver
    }
}

impl Substrate for PredictedSubstrate {
    fn prepare(&self, design: &Design, clock_ps: f64) -> Box<dyn SilverSource + '_> {
        let predictor = self.predictor(design, clock_ps);
        Box::new(PredictedSession {
            predictor,
            gold: design.behavioural(),
            prev: (0, 0, 0),
        })
    }

    fn label(&self) -> String {
        "predicted".to_owned()
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    fn shared() -> (Arc<ArtifactCache>, ExperimentConfig) {
        (Arc::new(ArtifactCache::new()), ExperimentConfig::default())
    }

    #[test]
    fn gate_level_at_safe_clock_equals_gold() {
        let (cache, config) = shared();
        let substrate = GateLevelSubstrate::new(cache, config.clone());
        let design = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let gold = design.behavioural();
        let mut session = substrate.prepare(&design, config.period_ps);
        let mut seed = 0x5EEDu64;
        for _ in 0..100 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            let (a, b) = (seed >> 32, seed & 0xFFFF_FFFF);
            assert_eq!(session.next_silver(a, b), gold.add(a, b));
        }
    }

    #[test]
    fn gate_level_memoizes_synthesis_across_sessions() {
        let (cache, config) = shared();
        let substrate = GateLevelSubstrate::new(Arc::clone(&cache), config.clone());
        let design = Design::Exact { width: 32 };
        let _s1 = substrate.prepare(&design, config.clock_ps(0.05));
        let _s2 = substrate.prepare(&design, config.clock_ps(0.15));
        assert_eq!(cache.len(), 1, "one synthesis for two sessions");
    }

    #[test]
    fn predicted_substrate_trains_once_per_design_clock() {
        let (cache, config) = shared();
        let substrate = PredictedSubstrate::new(cache, config.clone(), 200);
        let design = Design::Isa(IsaConfig::new(32, 16, 0, 0, 0).unwrap());
        let clk = config.clock_ps(0.05);
        let p1 = substrate.predictor(&design, clk);
        let p2 = substrate.predictor(&design, clk);
        assert!(Arc::ptr_eq(&p1, &p2), "predictor must be memoized");
        // Error-free design at mild overclock: predictor degenerates to the
        // golden model.
        let gold = design.behavioural();
        let mut session = substrate.prepare(&design, clk);
        assert_eq!(session.next_silver(7, 9), gold.add(7, 9));
    }
}
