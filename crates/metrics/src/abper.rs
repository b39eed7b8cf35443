//! Average Bit-level Prediction Error Rate — Eq. (1) of the paper.
//!
//! For a clock period, ABPER averages, over all output bit positions, the
//! per-bit misprediction rate of the timing-class (timing-correct vs
//! timing-erroneous) classifier:
//!
//! ```text
//! ABPER[clk] = mean over bits n of ( mean over cycles t of
//!              |TC_pred[clk,n,t] - TC_real[clk,n,t]| )
//! ```

/// Streaming ABPER accumulator over (predicted, real) timing-class vectors.
///
/// Timing classes are encoded as bit masks: bit `n` set means position `n`
/// is **timing-erroneous** that cycle (class 0 in the paper's encoding —
/// only the mismatch count matters).
///
/// # Examples
///
/// ```
/// use isa_metrics::AbperAccumulator;
///
/// let mut acc = AbperAccumulator::new(4);
/// acc.record(0b0001, 0b0011); // bit 1 mispredicted
/// acc.record(0b0000, 0b0000); // perfect cycle
/// // 1 mismatch / (4 bits * 2 cycles)
/// assert!((acc.abper() - 1.0 / 8.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbperAccumulator {
    /// The output positions counted (bits `0..bits`).
    mask: u64,
    mismatches: u64,
    cycles: u64,
}

impl AbperAccumulator {
    /// Creates an accumulator over `bits` output positions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0 && bits <= 64, "bits must be in 1..=64");
        Self {
            mask: u64::MAX >> (64 - bits),
            mismatches: 0,
            cycles: 0,
        }
    }

    /// Records one cycle of predicted vs real timing-class masks
    /// (positions at or above `bits` are ignored).
    pub fn record(&mut self, predicted_errors: u64, real_errors: u64) {
        self.cycles += 1;
        self.mismatches += u64::from(((predicted_errors ^ real_errors) & self.mask).count_ones());
    }

    /// Number of recorded cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The ABPER value (0 when no cycle was recorded).
    #[must_use]
    pub fn abper(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.mismatches as f64 / (self.cycles as f64 * f64::from(self.mask.count_ones()))
    }
}

/// One-shot ABPER over parallel slices of timing-class masks.
///
/// # Panics
///
/// Panics if the slices differ in length or `bits` is out of range.
#[must_use]
pub fn abper(predicted: &[u64], real: &[u64], bits: u32) -> f64 {
    assert_eq!(
        predicted.len(),
        real.len(),
        "prediction/real length mismatch"
    );
    let mut acc = AbperAccumulator::new(bits);
    for (&p, &r) in predicted.iter().zip(real) {
        acc.record(p, r);
    }
    acc.abper()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_zero_abper() {
        let real = [0b0u64, 0b101, 0b11, 0];
        assert_eq!(abper(&real, &real, 33), 0.0);
    }

    #[test]
    fn all_wrong_single_bit() {
        // One bit position always mispredicted over 4 cycles, 2 bits total:
        // ABPER = 4 / (4 * 2) = 0.5.
        let predicted = [0b01u64, 0b01, 0b01, 0b01];
        let real = [0b00u64, 0b00, 0b00, 0b00];
        assert_eq!(abper(&predicted, &real, 2), 0.5);
    }

    #[test]
    fn symmetric_in_false_positive_and_negative() {
        // Missing an error and inventing one weigh the same.
        let fp = abper(&[0b1], &[0b0], 8);
        let fn_ = abper(&[0b0], &[0b1], 8);
        assert_eq!(fp, fn_);
    }

    #[test]
    fn empty_accumulator_reports_zero() {
        let acc = AbperAccumulator::new(8);
        assert_eq!(acc.abper(), 0.0);
    }

    #[test]
    fn out_of_range_positions_are_ignored() {
        let mut acc = AbperAccumulator::new(2);
        acc.record(1 << 40, 0);
        assert_eq!(acc.abper(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_slices_panic() {
        let _ = abper(&[0], &[0, 1], 4);
    }
}
