//! The operand-adaptive **filtered** runner: classify, fast-path, and
//! simulate only the unsafe minority. This is how every gate-level
//! `ysilver` is produced.
//!
//! Timed replay of all 64 lanes of every cycle
//! ([`run_clocked_batch_timed`]) is wasted work when overclocking errors
//! are rare events — most operand pairs do not sensitize a carry chain
//! longer than the clock period. This runner exploits that:
//!
//! 1. **Classify** (word ops only): a [`LaneClassifier`] proves, per lane
//!    per cycle, that the sampled outputs will equal the settled
//!    (functional) outputs — see `isa_netlist::classify` for the
//!    conservative bounds. The safe/unsafe schedule depends only on the
//!    input stream, so it is computed in one simulation-free pass, which
//!    deals the stream with the batch layer's [`LaneSchedule`] and packs
//!    every step once ([`pack_pairs`]); the fast path reuses those
//!    planes.
//! 2. **Fast path**: safe cycles are settled functionally on the compiled
//!    [`InstructionTape`], [`CHUNK`] steps per topological sweep on
//!    `[u64; CHUNK]` vector planes — identical by construction to the
//!    settled timed result — and scattered back to stream order by the
//!    same schedule.
//! 3. **Compacted slow path**: the remaining unsafe cycles form, per
//!    lane, maximal *runs* of consecutive cycles. Each run starts from a
//!    proven-settled state (its predecessor cycle was safe, or the lane's
//!    segment reset), so runs are independent simulation tasks: seed a
//!    [`TimedTapeCore`] lane already settled at the predecessor operands
//!    ([`TimedTapeCore::with_settled`]), then clock the run's cycles.
//!    A lane's positions are contiguous, so a run is its first stream
//!    position and its length. Runs from all lanes are packed dense,
//!    longest first, into waves of up to 64 — timed replay only ever runs
//!    on compacted batches of genuinely at-risk lanes.
//!
//! The composition is **bit-identical** to [`run_clocked_batch_timed`],
//! and so to a scalar [`ClockedSim`](crate::ClockedSim) run of every lane
//! segment (enforced by the parity tests at every figure clock point and
//! an exhaustive 8-bit conservatism test). Two shortcuts preserve that
//! contract trivially: when the period exceeds the die's critical delay
//! no lane can ever violate and the whole stream is one functional
//! evaluation (tier-0); when the classifier proves too few lanes safe to
//! amortize the classification, the runner falls back to plain timed
//! replay of the whole stream.

use std::sync::OnceLock;

use isa_core::batch::{pack_pairs, unpack_lanes, LaneSchedule, LANES};
use isa_core::ChunkPlanes;
use isa_netlist::builders::AdderNetlist;
use isa_netlist::classify::LaneClassifier;
use isa_netlist::tape::{InstructionTape, CHUNK};
use isa_netlist::timing::{ps_to_fs, DelayAnnotation};
use isa_obs::Counter;

use crate::timedtape::{run_clocked_batch_timed, TimedTape, TimedTapeCore};

/// Below this fraction of classifier-proven safe cycles the filtered
/// two-pass evaluation would only add overhead on top of the timed
/// replay it cannot avoid; the runner then replays the whole stream
/// (identical results either way).
const MIN_SAFE_FRACTION: f64 = 0.25;

/// What one filtered run did — the observability half of the runner's
/// contract (the results half is bit-identity, which needs no reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Stream cycles evaluated.
    pub cycles: u64,
    /// Cycles the classifier proved safe (settled at the sampling edge).
    pub classified_safe: u64,
    /// Cycles actually served by the functional fast path (equals
    /// `classified_safe` unless the runner fell back).
    pub fast_path: u64,
    /// Whole stream proven safe statically (period above critical delay).
    pub tier0: bool,
    /// Classifier yield too low — plain timed replay used instead.
    pub fell_back: bool,
    /// Compacted slow-path waves simulated.
    pub waves: u64,
}

/// `sim.filtered.*` counters in the global [`isa_obs`] registry — the
/// process-wide accumulation of [`FilterStats`] that the metrics
/// exposition and the serve `metrics` op report. Strictly out-of-band:
/// bumped once per run, never consulted by the simulation itself.
struct SimMetrics {
    runs: Counter,
    cycles: Counter,
    fast_path_cycles: Counter,
    simulated_cycles: Counter,
    waves: Counter,
    tier0_runs: Counter,
    fallback_runs: Counter,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = isa_obs::global();
        SimMetrics {
            runs: registry.counter("sim.filtered.runs"),
            cycles: registry.counter("sim.filtered.cycles"),
            fast_path_cycles: registry.counter("sim.filtered.fast_path_cycles"),
            simulated_cycles: registry.counter("sim.filtered.simulated_cycles"),
            waves: registry.counter("sim.filtered.waves"),
            tier0_runs: registry.counter("sim.filtered.tier0_runs"),
            fallback_runs: registry.counter("sim.filtered.fallback_runs"),
        }
    })
}

fn record(stats: &FilterStats) {
    let metrics = sim_metrics();
    metrics.runs.inc();
    metrics.cycles.add(stats.cycles);
    metrics.fast_path_cycles.add(stats.fast_path);
    metrics.simulated_cycles.add(stats.cycles - stats.fast_path);
    metrics.waves.add(stats.waves);
    if stats.tier0 {
        metrics.tier0_runs.inc();
    }
    if stats.fell_back {
        metrics.fallback_runs.inc();
    }
}

/// Runs an adder's operand stream on the filtered runner, returning the
/// sampled (`ysilver`) outputs in stream order — bit-identical to
/// [`run_clocked_batch_timed`] with the same arguments.
///
/// The classifier and the tape must have been built for this
/// `(adder, annotation)` pair (both are period independent, so callers
/// memoize them per design).
///
/// # Panics
///
/// Panics if the period is not positive/finite, the annotation does not
/// cover the netlist, or the tape was compiled from another netlist.
#[must_use]
pub fn run_filtered_batch_tape(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    classifier: &LaneClassifier,
    tape: &InstructionTape,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> Vec<u64> {
    run_filtered_batch_with_stats_tape(adder, annotation, classifier, tape, period_ps, inputs).0
}

/// Like [`run_filtered_batch_tape`], but also reports what the run did.
#[must_use]
pub fn run_filtered_batch_with_stats_tape(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    classifier: &LaneClassifier,
    tape: &InstructionTape,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> (Vec<u64>, FilterStats) {
    let n = inputs.len();
    let mut stats = FilterStats {
        cycles: n as u64,
        ..FilterStats::default()
    };
    if n == 0 {
        return (Vec::new(), stats);
    }

    // Tier-0: the period covers the die's critical delay, so every cycle
    // of every lane settles before its sampling edge — the stream is one
    // functional (bit-sliced) evaluation.
    if classifier.critical_fs() < ps_to_fs(period_ps).max(1) {
        stats.tier0 = true;
        stats.classified_safe = n as u64;
        stats.fast_path = n as u64;
        record(&stats);
        return (adder.add_batch_with_tape(tape, inputs), stats);
    }

    let netlist = adder.netlist();
    let width = adder.width();
    let w = width as usize;
    let schedule = LaneSchedule::new(n);
    let steps = schedule.steps();

    // Pass 1 — classification only. The schedule is a pure function of
    // the input stream; lanes deal the stream in the same contiguous
    // segments as the timed replay, exhausted lanes holding their last
    // operands (no input change, hence no activity). Every step's packed
    // input planes are kept for the fast path.
    let mut stream_cls = classifier.stream_classifier(period_ps);
    let mut lane_pairs = [(0u64, 0u64); LANES];
    let mut planes = vec![0u64; steps * 2 * w];
    let mut safe_masks = vec![0u64; steps];
    let mut active_masks = vec![0u64; steps];
    for (t, step_planes) in planes.chunks_exact_mut(2 * w).enumerate() {
        let active = schedule.gather(inputs, t, &mut lane_pairs);
        pack_pairs(width, &lane_pairs, step_planes);
        let (a_t, b_t) = step_planes.split_at(w);
        safe_masks[t] = stream_cls.step(a_t, b_t);
        active_masks[t] = active;
        stats.classified_safe += u64::from((safe_masks[t] & active).count_ones());
    }

    // Adaptive fallback: identical results, without the two-pass overhead,
    // when the classifier yield is too low to pay for itself.
    if (stats.classified_safe as f64) < MIN_SAFE_FRACTION * n as f64 {
        stats.fell_back = true;
        record(&stats);
        let program = TimedTape::new(netlist, tape, annotation);
        let sampled = run_clocked_batch_timed(adder, &program, tape, period_ps, inputs);
        return (sampled, stats);
    }
    stats.fast_path = stats.classified_safe;

    // Pass 2a — functional fast path for every safe cycle: gather CHUNK
    // served steps into `[u64; CHUNK]` vector planes and settle them all
    // in one topological sweep.
    let mut out = vec![0u64; n];
    let served_steps: Vec<usize> = (0..steps)
        .filter(|&t| safe_masks[t] & active_masks[t] != 0)
        .collect();
    let mut chunk_in = vec![[0u64; CHUNK]; 2 * w];
    let mut arena: Vec<[u64; CHUNK]> = Vec::new();
    let mut settled = Vec::with_capacity(w + 1);
    let mut lane_outputs = [0u64; LANES];
    for group in served_steps.chunks(CHUNK) {
        chunk_in.fill([0; CHUNK]);
        for (j, &t) in group.iter().enumerate() {
            for (lanes, &plane) in chunk_in.iter_mut().zip(&planes[t * 2 * w..]) {
                lanes[j] = plane;
            }
        }
        tape.execute_into(&mut ChunkPlanes::<CHUNK>, &chunk_in, &mut arena);
        for (j, &t) in group.iter().enumerate() {
            settled.clear();
            settled.extend(tape.output_slots().iter().map(|&s| arena[s as usize][j]));
            unpack_lanes(&settled, &mut lane_outputs);
            schedule.scatter(t, &lane_outputs, safe_masks[t], &mut out);
        }
    }

    // Pass 2b — compact the unsafe cycles into dense waves. Per lane,
    // maximal runs of consecutive unsafe cycles; each run's predecessor
    // cycle is proven settled (or is the segment reset), so its start
    // state is exactly "previous operands, settled, nothing in flight".
    // A lane's positions are contiguous, so a run is its first stream
    // position and its length.
    struct RunTask {
        first: usize,
        len: usize,
        from_reset: bool,
    }
    let mut tasks: Vec<RunTask> = Vec::new();
    for lane in 0..LANES {
        let lane_len = schedule.lane_len(lane);
        let safe_at = |t: usize| safe_masks[t] >> lane & 1 == 1;
        let mut t = 0;
        while t < lane_len {
            if safe_at(t) {
                t += 1;
                continue;
            }
            let start = t;
            while t < lane_len && !safe_at(t) {
                t += 1;
            }
            tasks.push(RunTask {
                first: schedule
                    .position(lane, start)
                    .expect("a run lies in its lane"),
                len: t - start,
                from_reset: start == 0,
            });
        }
    }
    tasks.sort_by_key(|task| std::cmp::Reverse(task.len));

    // Waves run on the timed replay core; the flattened program is period
    // independent and shared by every wave.
    let program = (!tasks.is_empty()).then(|| TimedTape::new(netlist, tape, annotation));
    let mut wave_pairs = [(0u64, 0u64); LANES];
    let mut wave_planes = vec![0u64; 2 * w];
    for wave in tasks.chunks(LANES) {
        let program = program.as_ref().expect("built when tasks exist");
        stats.waves += 1;
        let wave_pairs = &mut wave_pairs[..wave.len()];
        for (pair, task) in wave_pairs.iter_mut().zip(wave) {
            // Segment reset: the all-zero settled state.
            *pair = if task.from_reset {
                (0, 0)
            } else {
                inputs[task.first - 1]
            };
        }
        // Seeding costs one functional pass, not an event cascade: the
        // settled predecessor state is a pure function of the seed pairs.
        pack_pairs(width, wave_pairs, &mut wave_planes);
        let mut core = TimedTapeCore::with_settled(program, tape, period_ps, &wave_planes);
        let longest = wave[0].len; // sorted longest-first
        let lane_outputs = &mut lane_outputs[..wave.len()];
        for j in 0..longest {
            for (pair, task) in wave_pairs.iter_mut().zip(wave) {
                if j < task.len {
                    *pair = inputs[task.first + j];
                }
                // else: hold the run's last operands (no activity).
            }
            pack_pairs(width, wave_pairs, &mut wave_planes);
            unpack_lanes(core.step_planes(program, &wave_planes), lane_outputs);
            for (&value, task) in lane_outputs.iter().zip(wave) {
                if j < task.len {
                    out[task.first + j] = value;
                }
            }
        }
    }

    record(&stats);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::scalar_segments;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::sta::StaReport;

    struct Fixture {
        adder: AdderNetlist,
        ann: DelayAnnotation,
        cls: LaneClassifier,
        tape: InstructionTape,
    }

    impl Fixture {
        fn new(topology: AdderTopology) -> Self {
            let adder = build_exact(16, topology);
            let lib = CellLibrary::industrial_65nm();
            let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
            let cls = LaneClassifier::build(&adder, &ann);
            let tape = InstructionTape::compile(adder.netlist());
            Self {
                adder,
                ann,
                cls,
                tape,
            }
        }

        fn crit(&self) -> f64 {
            StaReport::analyze(self.adder.netlist(), &self.ann).critical_ps()
        }

        fn run(&self, period: f64, inputs: &[(u64, u64)]) -> (Vec<u64>, FilterStats) {
            run_filtered_batch_with_stats_tape(
                &self.adder,
                &self.ann,
                &self.cls,
                &self.tape,
                period,
                inputs,
            )
        }

        fn oracle(&self, period: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
            scalar_segments(&self.adder, &self.ann, period, inputs)
        }
    }

    fn pairs(n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFFFF, (x >> 20) & 0xFFFF)
            })
            .collect()
    }

    #[test]
    fn tier0_safe_clock_matches_scalar() {
        let fx = Fixture::new(AdderTopology::Ripple);
        let period = fx.crit() + 1.0;
        let inputs = pairs(300, 0xF11);
        let (got, stats) = fx.run(period, &inputs);
        assert!(stats.tier0);
        assert_eq!(stats.fast_path, 300);
        assert_eq!(got, fx.oracle(period, &inputs));
    }

    #[test]
    fn mild_overclock_is_bit_identical_with_real_filtering() {
        let fx = Fixture::new(AdderTopology::Ripple);
        // Between bound[3] and critical: long runs violate, short ones not.
        let period = fx.crit() * 0.75;
        let inputs = pairs(2000, 0xBEE);
        let (got, stats) = fx.run(period, &inputs);
        let reference = fx.oracle(period, &inputs);
        assert_eq!(got, reference);
        assert!(!stats.tier0);
        assert!(!stats.fell_back, "yield should be high at mild overclock");
        assert!(stats.fast_path > 0 && stats.fast_path < 2000);
        assert!(stats.waves > 0, "some lanes must need timed replay");
        // The overclock must actually produce timing errors for the test
        // to mean anything.
        let errors = inputs
            .iter()
            .zip(&reference)
            .filter(|(&(a, b), &y)| y != a + b)
            .count();
        assert!(errors > 0, "no violations at period {period}");
    }

    #[test]
    fn prefix_adder_mixed_regime_is_bit_identical() {
        // A group-PG (Kogge-Stone) netlist driven through the *mixed*
        // fast/slow regime — no tier-0, no fallback, real compacted
        // waves — so the span-pinning bounds and the wave seeding are
        // exercised together on a prefix topology. Uniform random
        // operands would fall back (log-depth adders leave little slack);
        // propagate-sparse operands (isolated p bits, max run 1) keep
        // most lanes provably safe while periodic full-propagate pairs
        // force genuine timed replay.
        let fx = Fixture::new(AdderTopology::KoggeStone);
        assert!(
            fx.cls.bound_fs(2) < fx.cls.critical_fs(),
            "span pinning must tighten the prefix bound for this test to bite"
        );
        let period_fs = (fx.cls.bound_fs(2) + fx.cls.critical_fs()) / 2;
        let period = period_fs as f64 / 1000.0;
        let mut x = 0x1357_9BDFu64;
        let inputs: Vec<(u64, u64)> = (0..2000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 5 == 0 {
                    (0xFFFF, 1) // full propagate run: must go slow-path
                } else {
                    let a = x & 0xFFFF;
                    (a, a ^ (0x2492 >> (i % 3))) // p runs of length 1
                }
            })
            .collect();
        let (got, stats) = fx.run(period, &inputs);
        assert_eq!(got, fx.oracle(period, &inputs));
        assert!(!stats.tier0 && !stats.fell_back, "{stats:?}");
        assert!(stats.waves > 0, "violating pairs must be simulated");
        assert!(
            stats.fast_path > 500,
            "sparse pairs must take the fast path: {stats:?}"
        );
    }

    #[test]
    fn deep_overclock_falls_back_and_stays_identical() {
        let fx = Fixture::new(AdderTopology::Ripple);
        let period = fx.crit() * 0.25;
        let inputs = pairs(500, 0xD0E);
        let (got, stats) = fx.run(period, &inputs);
        assert!(stats.fell_back, "hardly anything is safe at 4x overclock");
        assert_eq!(stats.fast_path, 0);
        assert_eq!(got, fx.oracle(period, &inputs));
    }

    #[test]
    fn every_regime_and_ragged_tail_matches_timed_replay() {
        // Tier-0, mixed fast/slow, fallback, tiny and ragged streams: the
        // runner must equal plain timed replay of the whole stream, which
        // `timedtape`'s tests pin to the scalar oracle.
        let fx = Fixture::new(AdderTopology::Ripple);
        let crit = fx.crit();
        let program = TimedTape::new(fx.adder.netlist(), &fx.tape, &fx.ann);
        for n in [1usize, 3, 63, 64, 65, 333, 2000] {
            let inputs = pairs(n, 0x7A9E + n as u64);
            for period in [crit * 0.25, crit * 0.75, crit * 0.9, crit + 1.0] {
                let (got, _) = fx.run(period, &inputs);
                assert_eq!(
                    got,
                    run_clocked_batch_timed(&fx.adder, &program, &fx.tape, period, &inputs),
                    "n={n} period={period}"
                );
            }
        }
        assert!(fx.run(crit, &[]).0.is_empty());
    }

    #[test]
    fn registry_counters_accumulate_across_runs() {
        let fx = Fixture::new(AdderTopology::Ripple);
        let counter = |name: &str| isa_obs::global().snapshot().counter(name).unwrap_or(0);
        let (cycles0, fast0) = (
            counter("sim.filtered.cycles"),
            counter("sim.filtered.fast_path_cycles"),
        );
        let _ = fx.run(fx.crit() + 1.0, &pairs(128, 0xC0));
        // Other tests share the global registry, so only growth by at
        // least this run's share is pinned.
        assert!(counter("sim.filtered.cycles") - cycles0 >= 128);
        assert!(counter("sim.filtered.fast_path_cycles") - fast0 >= 128);
    }
}
