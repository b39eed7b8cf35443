//! The error-combination flow of Fig. 6.
//!
//! For every ISA architecture and every input vector the flow computes
//! `ydiamond`, `ygold` and `E_struct`; then for every clock period it obtains
//! `ysilver` from the overclocked circuit, computes `E_timing` and combines
//! both into `E_joint`. This module implements that loop over stream-ordered
//! slices: the gold stream comes from the behavioural model and the silver
//! stream from any [`Substrate`](crate::Substrate)'s `run_batch` (or, in
//! tests, a synthetic fault injector).

use crate::adder::{Adder, ExactAdder};
use crate::batch::LANES;
use crate::error::OutputTriple;
use crate::stats::ErrorStats;

/// Aggregated error statistics of one (design, clock) run of Fig. 6.
///
/// Arithmetic (`E`) and relative (`RE`) statistics are kept for each of the
/// three error contributions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CombinedErrorStats {
    /// Statistics of the signed structural arithmetic error `E_struct`.
    pub e_struct: ErrorStats,
    /// Statistics of the signed timing arithmetic error `E_timing`.
    pub e_timing: ErrorStats,
    /// Statistics of the signed joint arithmetic error `E_joint`.
    pub e_joint: ErrorStats,
    /// Statistics of the relative structural error `RE_struct`.
    pub re_struct: ErrorStats,
    /// Statistics of the relative timing error `RE_timing`.
    pub re_timing: ErrorStats,
    /// Statistics of the relative joint error `RE_joint`.
    pub re_joint: ErrorStats,
}

impl CombinedErrorStats {
    /// Creates an empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one output triple.
    pub fn push(&mut self, triple: &OutputTriple) {
        self.e_struct.push(triple.e_struct() as f64);
        self.e_timing.push(triple.e_timing() as f64);
        self.e_joint.push(triple.e_joint() as f64);
        self.re_struct.push(triple.re_struct());
        self.re_timing.push(triple.re_timing());
        self.re_joint.push(triple.re_joint());
    }

    /// Number of recorded cycles.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.e_joint.len()
    }

    /// True if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The paper's Fig. 9 y-values for this run, in percent:
    /// `(RMS RE_struct, RMS RE_timing, RMS RE_joint)`.
    #[must_use]
    pub fn rms_re_percent(&self) -> (f64, f64, f64) {
        (
            self.re_struct.rms() * 100.0,
            self.re_timing.rms() * 100.0,
            self.re_joint.rms() * 100.0,
        )
    }
}

/// Runs the Fig. 6 inner loop for one design at one clock period.
///
/// `inputs` is the cycle-ordered operand stream, `golds` the implemented
/// design's behavioural outputs and `silvers` the overclocked outputs, one
/// per cycle each. An [`ExactAdder`] of `width` bits provides `ydiamond`.
///
/// # Panics
///
/// Panics if the three slices differ in length.
#[must_use]
pub fn combine_errors(
    width: u32,
    inputs: &[(u64, u64)],
    golds: &[u64],
    silvers: &[u64],
) -> CombinedErrorStats {
    let mut stats = CombinedErrorStats::new();
    accumulate(&mut stats, &ExactAdder::new(width), inputs, golds, silvers);
    stats
}

/// Operand pairs per model evaluation in [`structural_errors`]: whole
/// 64-lane plane passes, buffered in a chunk whose size does not grow
/// with the stream.
const STRUCTURAL_CHUNK: usize = 64 * LANES;

/// Runs the structural-error-only part of Fig. 6 (no overclocking): the
/// silver output equals the gold output, so the model is evaluated once
/// per cycle, 64 cycles per plane pass ([`Adder::add_batch`]), over
/// fixed-size chunks of the stream.
pub fn structural_errors(
    gold: &dyn Adder,
    inputs: impl IntoIterator<Item = (u64, u64)>,
) -> CombinedErrorStats {
    let exact = ExactAdder::new(gold.width());
    let mut stats = CombinedErrorStats::new();
    let mut inputs = inputs.into_iter();
    let mut chunk = Vec::with_capacity(STRUCTURAL_CHUNK);
    loop {
        chunk.clear();
        chunk.extend(inputs.by_ref().take(STRUCTURAL_CHUNK));
        if chunk.is_empty() {
            return stats;
        }
        let golds = gold.add_batch(&chunk);
        accumulate(&mut stats, &exact, &chunk, &golds, &golds);
    }
}

/// The Fig. 6 loop: one output triple per cycle, pushed in stream order.
fn accumulate(
    stats: &mut CombinedErrorStats,
    exact: &ExactAdder,
    inputs: &[(u64, u64)],
    golds: &[u64],
    silvers: &[u64],
) {
    assert!(
        golds.len() == inputs.len() && silvers.len() == inputs.len(),
        "one gold and one silver output per input cycle"
    );
    for ((&(a, b), &gold), &silver) in inputs.iter().zip(golds).zip(silvers) {
        stats.push(&OutputTriple::new(exact.add(a, b), gold, silver));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IsaConfig;
    use crate::isa::SpeculativeAdder;

    fn inputs() -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        let mut seed = 0xfeed_beef_u64;
        for _ in 0..2000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push((seed >> 32, seed & 0xFFFF_FFFF));
        }
        v
    }

    #[test]
    fn structural_only_has_zero_timing_error() {
        let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let stats = structural_errors(&isa, inputs());
        assert_eq!(stats.len(), 2000);
        assert_eq!(stats.e_timing.rms(), 0.0);
        assert_eq!(stats.re_timing.rms(), 0.0);
        assert!(stats.re_struct.rms() > 0.0, "(8,0,0,4) must show faults");
        assert!((stats.re_joint.rms() - stats.re_struct.rms()).abs() < 1e-15);
    }

    #[test]
    fn exact_gold_has_zero_structural_error() {
        let exact = ExactAdder::new(32);
        let stats = structural_errors(&exact, inputs());
        assert_eq!(stats.e_struct.rms(), 0.0);
        assert_eq!(stats.re_joint.rms(), 0.0);
    }

    #[test]
    fn injected_timing_errors_appear_only_in_timing_component() {
        let exact = ExactAdder::new(32);
        let inputs = inputs();
        let golds = exact.add_batch(&inputs);
        // A silver stream that flips bit 20 every fourth cycle.
        let silvers: Vec<u64> = golds
            .iter()
            .enumerate()
            .map(|(i, &y)| if (i + 1) % 4 == 0 { y ^ (1 << 20) } else { y })
            .collect();
        let stats = combine_errors(32, &inputs, &golds, &silvers);
        assert_eq!(stats.e_struct.rms(), 0.0);
        assert!(stats.e_timing.rms() > 0.0);
        assert!((stats.e_timing.error_rate() - 0.25).abs() < 1e-9);
        // Joint == timing when structural is zero.
        assert!((stats.re_joint.rms() - stats.re_timing.rms()).abs() < 1e-15);
    }

    #[test]
    fn opposite_direction_errors_reduce_joint_rms() {
        // Gold is always 2 short of diamond; silver adds 1 back: the joint
        // error is smaller than the structural error (Fig. 5's effect).
        #[derive(Debug)]
        struct ShortByTwo;
        impl Adder for ShortByTwo {
            fn width(&self) -> u32 {
                32
            }
            fn add(&self, a: u64, b: u64) -> u64 {
                ((a & 0xFFFF_FFFF) + (b & 0xFFFF_FFFF)).saturating_sub(2)
            }
            fn label(&self) -> String {
                "short-by-two".into()
            }
        }
        let inputs = inputs();
        let golds = ShortByTwo.add_batch(&inputs);
        let silvers: Vec<u64> = golds.iter().map(|&y| y + 1).collect();
        let stats = combine_errors(32, &inputs, &golds, &silvers);
        assert!(stats.re_joint.rms() < stats.re_struct.rms());
        assert!(stats.re_timing.rms() > 0.0);
    }

    #[test]
    fn structural_errors_match_the_scalar_model_loop() {
        // Batched model evaluation over whole chunks and a ragged last
        // one, silver = gold: bit-identical to pushing scalar `add`
        // outputs cycle by cycle.
        let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, 0, 1, 4).unwrap());
        let inputs: Vec<(u64, u64)> = (0..5).flat_map(|_| inputs()).collect();
        assert!(
            inputs.len() > 2 * STRUCTURAL_CHUNK && !inputs.len().is_multiple_of(STRUCTURAL_CHUNK)
        );
        let exact = ExactAdder::new(32);
        let mut scalar = CombinedErrorStats::new();
        for &(a, b) in &inputs {
            let gold = isa.add(a, b);
            scalar.push(&OutputTriple::new(exact.add(a, b), gold, gold));
        }
        assert_eq!(structural_errors(&isa, inputs), scalar);
    }

    #[test]
    #[should_panic(expected = "one gold and one silver")]
    fn mismatched_streams_are_rejected() {
        let _ = combine_errors(32, &[(1, 2)], &[3], &[]);
    }

    #[test]
    fn rms_re_percent_scales_by_100() {
        let mut stats = CombinedErrorStats::new();
        stats.push(&OutputTriple::new(8, 6, 4));
        let (s, t, j) = stats.rms_re_percent();
        assert!((s - 25.0).abs() < 1e-9);
        assert!((t - 25.0).abs() < 1e-9);
        assert!((j - 50.0).abs() < 1e-9);
    }
}
