//! The gate-level and predictor-backed [`Substrate`] implementations —
//! the paper's two `ysilver` provenances:
//!
//! | substrate            | `ysilver`                              | paper role |
//! |----------------------|----------------------------------------|------------|
//! | [`GateLevelSubstrate`] | sampled from the delay-annotated netlist | ModelSim ground truth, Figs. 9–10; [`Engine::run`](crate::Engine::run)'s flow |
//! | [`PredictedSubstrate`] | `ygold ^ predicted flips`              | Section III model, Figs. 7–8 |
//!
//! The structural-only baseline (`ysilver == ygold`, Section V.A) needs
//! no substrate: it is [`isa_core::structural_errors`]. Pick the predictor
//! for wide sweeps where gate-level cost is prohibitive (it is orders of
//! magnitude faster per cycle and FATE-style faithful on aggregate
//! statistics), and the gate level whenever ground-truth timing behaviour
//! — including cycle-to-cycle state carryover — is the point of the
//! measurement. Each is pinned to an oracle: the gate level lane by lane
//! to [`scalar_segments`](isa_timing_sim::scalar_segments), the predictor
//! cycle by cycle to its own per-cycle prediction.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use isa_core::{Design, LaneSchedule, Substrate};
use isa_learn::{CyclePair, PredictorConfig, TimingErrorPredictor};
use isa_timing_sim::run_filtered_batch_tape;
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
/// [`run_batch`](Substrate::run_batch) runs the filtered runner
/// ([`run_filtered_batch_tape`]), which deals the stream to 64 lanes in
/// contiguous segments. Every lane segment equals the scalar oracle — a
/// fresh [`ClockedSim`](isa_timing_sim::ClockedSim) replaying that
/// segment from reset ([`scalar_segments`](isa_timing_sim::scalar_segments))
/// — bit for bit.
///
/// Synthesis and annotation artifacts are memoized per design in the shared
/// [`ArtifactCache`], so running many clocks of the same design (e.g. one
/// per CPR) synthesizes once.
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

impl Substrate for GateLevelSubstrate {
    /// Full-stream evaluation on the filtered runner: classifier-proven
    /// safe lanes take one functional tape sweep, the unsafe minority a
    /// compacted 64-lane timed replay. Lane `l` equals a scalar run of
    /// stream segment `l` (see [`LaneSchedule`]).
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
/// On the first [`run_batch`](Substrate::run_batch) of a (design, clock)
/// pair the substrate collects a gate-level training trace over its own
/// training workload, trains one Random Forest per output bit, and
/// memoizes the model; later runs reuse it. Runs then cost the golden
/// model plus 64-lane forest inference.
pub struct PredictedSubstrate {
    cache: Arc<ArtifactCache>,
    config: ExperimentConfig,
    train_cycles: usize,
    train_seed: u64,
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
            &PredictorConfig::default(),
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
/// flips)` data produced by a 64-lane gate-level run: the stream cut at
/// its lane-segment seams ([`LaneSchedule::segments`]), each piece passed
/// through [`CyclePair::from_stream`], so the `t-1` features restart from
/// the all-zero state where the 64-lane simulator's circuit state
/// actually restarted from reset.
#[must_use]
pub fn cycles_with_segment_resets(raw: &[(u64, u64, u64, u64)]) -> Vec<CyclePair> {
    LaneSchedule::new(raw.len())
        .segments(raw)
        .flat_map(CyclePair::from_stream)
        .collect()
}

impl Substrate for PredictedSubstrate {
    /// The golden stream with the predicted flips applied: golds from the
    /// model's [`add_batch`](isa_core::Adder::add_batch), `x[t-1]` /
    /// `yRTL[t-1]` features from [`CyclePair::from_stream`] (the first
    /// cycle's predecessor is the reset state), and
    /// [`TimingErrorPredictor::predict_flips_batch`] 64 cycles per pass.
    fn run_batch(&self, design: &Design, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
        let predictor = self.predictor(design, clock_ps);
        let golds = design.behavioural().add_batch(inputs);
        let stream: Vec<(u64, u64, u64, u64)> = inputs
            .iter()
            .zip(&golds)
            .map(|(&(a, b), &gold)| (a, b, gold, 0))
            .collect();
        let flips = predictor.predict_flips_batch(&CyclePair::from_stream(&stream));
        golds.iter().zip(flips).map(|(&gold, f)| gold ^ f).collect()
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
        let inputs = take_pairs(UniformWorkload::new(32, 0x5EED), 100);
        assert_eq!(
            substrate.run_batch(&design, config.period_ps, &inputs),
            design.behavioural().add_batch(&inputs)
        );
    }

    #[test]
    fn gate_level_memoizes_synthesis_across_clocks() {
        let (cache, config) = shared();
        let substrate = GateLevelSubstrate::new(Arc::clone(&cache), config.clone());
        let design = Design::Exact { width: 32 };
        let _ = substrate.run_batch(&design, config.clock_ps(0.05), &[(1, 2)]);
        let _ = substrate.run_batch(&design, config.clock_ps(0.15), &[(1, 2)]);
        assert_eq!(cache.len(), 1, "one synthesis for two clocks");
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
        assert_eq!(
            substrate.run_batch(&design, clk, &[(7, 9)]),
            [gold.add(7, 9)]
        );
    }

    #[test]
    fn predicted_run_batch_equals_per_cycle_prediction() {
        // An overclocked exact adder (timing errors on most cycles) over a
        // stream whose length is not a multiple of 64: the batched path
        // must equal `ygold ^ predict_flips` cycle by cycle, with the
        // stream's own predecessor features and a reset-state first cycle.
        let (cache, config) = shared();
        let substrate = PredictedSubstrate::new(cache, config.clone(), 600);
        let design = Design::Exact { width: 32 };
        let clk = config.clock_ps(0.15);
        let inputs = take_pairs(UniformWorkload::new(32, 0xF17), 1_000);
        assert_ne!(inputs.len() % 64, 0);
        let gold = design.behavioural();
        let raw: Vec<(u64, u64, u64, u64)> = inputs
            .iter()
            .map(|&(a, b)| (a, b, gold.add(a, b), 0))
            .collect();
        let predictor = substrate.predictor(&design, clk);
        let per_cycle: Vec<u64> = CyclePair::from_stream(&raw)
            .iter()
            .map(|c| c.gold ^ predictor.predict_flips(c))
            .collect();
        assert!(
            per_cycle.iter().zip(&raw).any(|(&y, r)| y != r.2),
            "the model must predict some timing errors"
        );
        assert_eq!(substrate.run_batch(&design, clk, &inputs), per_cycle);
    }
}
