//! Average Value-level Predictive Error — Eq. (4) of the paper.
//!
//! Bit-level accuracy can hide large arithmetic impact: a single
//! mispredicted MSB "can cause a large deviation up to 2^32 from original
//! value". AVPE averages, over cycles, the relative deviation between the
//! *predicted* and *real* overclocked output values:
//!
//! ```text
//! AVPE[ISA, clk] = mean over cycles t of
//!                  | ysilver_pred[t] - ysilver_real[t] | / ysilver_real[t]
//! ```
//!
//! The model "does not directly generate arithmetic values, it only
//! generates timing-class vectors, which are arrays of bit-flip positions,
//! and deduces the corresponding ysilver compared to the expected output
//! ygold": the predicted `ysilver` is `ygold` XOR the predicted flip mask.

/// Streaming AVPE accumulator.
///
/// A real output value of 0 uses a denominator of 1 (the paper's formula
/// leaves this case undefined; unsigned random 32-bit operands make it
/// vanishingly rare).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvpeAccumulator {
    sum: f64,
    cycles: u64,
}

impl AvpeAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cycle of predicted vs real overclocked output.
    pub fn record(&mut self, predicted: u64, real: u64) {
        self.cycles += 1;
        if predicted == real {
            return;
        }
        let denom = if real == 0 { 1.0 } else { real as f64 };
        self.sum += (predicted.abs_diff(real)) as f64 / denom;
    }

    /// Number of recorded cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The AVPE value (0 when no cycle was recorded).
    #[must_use]
    pub fn avpe(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.sum / self.cycles as f64
        }
    }
}

/// One-shot AVPE over parallel slices of output values.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn avpe(predicted: &[u64], real: &[u64]) -> f64 {
    assert_eq!(
        predicted.len(),
        real.len(),
        "prediction/real length mismatch"
    );
    let mut acc = AvpeAccumulator::new();
    for (&p, &r) in predicted.iter().zip(real) {
        acc.record(p, r);
    }
    acc.avpe()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_zero() {
        let vals = [5u64, 100, 0, 1 << 32];
        assert_eq!(avpe(&vals, &vals), 0.0);
    }

    #[test]
    fn single_msb_misprediction_dominates() {
        // Mispredicting bit 31 on a value around 2^31: relative deviation
        // near 1 even though only one bit differs.
        let real = 0x8000_0001u64;
        let predicted = real ^ 0x8000_0000;
        let v = avpe(&[predicted], &[real]);
        assert!(v > 0.99 && v < 1.01, "{v}");
    }

    #[test]
    fn lsb_misprediction_is_negligible() {
        let real = 0x8000_0000u64;
        let predicted = real ^ 1;
        assert!(avpe(&[predicted], &[real]) < 1e-9);
    }

    #[test]
    fn averaging_over_cycles() {
        // One cycle off by 100%, three perfect: AVPE = 0.25.
        let real = [8u64, 8, 8, 8];
        let predicted = [16u64, 8, 8, 8];
        assert_eq!(avpe(&predicted, &real), 0.25);
    }

    #[test]
    fn zero_real_value_uses_unit_denominator() {
        assert_eq!(avpe(&[3], &[0]), 3.0);
        assert_eq!(avpe(&[0], &[0]), 0.0);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert_eq!(AvpeAccumulator::new().avpe(), 0.0);
    }
}
