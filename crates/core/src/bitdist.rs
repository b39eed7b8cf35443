//! Bit-level-equivalent error distributions (Fig. 10).
//!
//! Fig. 10 plots, per output bit position, the *internal error rate* of both
//! error types inside one overclocked ISA. Two translations of an error into
//! bit positions are provided:
//!
//! * [`BitErrorDistribution::record_flips`] marks the bits that actually
//!   differ between two outputs (natural for timing errors, which are
//!   physical bit flips);
//! * [`BitErrorDistribution::record_arithmetic`] translates a signed
//!   arithmetic error into its equivalent bit positions (the set bits of
//!   `|E|`), which is the paper's translation for structural errors — a
//!   missed-carry error compensated by `R`-bit reduction lands on positions
//!   just *below* the block boundary, producing the left-shifted peaks the
//!   paper describes.

/// Per-bit-position error-rate histogram over a stream of cycles.
///
/// # Examples
///
/// ```
/// use isa_core::BitErrorDistribution;
///
/// let mut dist = BitErrorDistribution::new(33);
/// dist.record_arithmetic(-16); // equivalent position 4
/// dist.record_arithmetic(0);   // error-free cycle
/// let rates = dist.rates();
/// assert_eq!(rates[4], 0.5);
/// assert_eq!(rates[5], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitErrorDistribution {
    counts: Vec<u64>,
    cycles: u64,
}

impl BitErrorDistribution {
    /// Creates a distribution over `positions` output bit positions
    /// (`width + 1` for an adder including its carry-out).
    ///
    /// # Panics
    ///
    /// Panics if `positions` is 0 or greater than 64.
    #[must_use]
    pub fn new(positions: u32) -> Self {
        assert!(
            positions > 0 && positions <= 64,
            "positions must be in 1..=64, got {positions}"
        );
        Self {
            counts: vec![0; positions as usize],
            cycles: 0,
        }
    }

    /// Number of tracked bit positions.
    #[must_use]
    pub fn positions(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Number of recorded cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Records one cycle whose outputs `y` and `reference` may differ;
    /// every differing bit position is counted as erroneous.
    pub fn record_flips(&mut self, y: u64, reference: u64) {
        self.cycles += 1;
        let mut diff = y ^ reference;
        while diff != 0 {
            let pos = diff.trailing_zeros() as usize;
            if pos < self.counts.len() {
                self.counts[pos] += 1;
            }
            diff &= diff - 1;
        }
    }

    /// Records one cycle with a signed arithmetic error, translated into its
    /// equivalent bit positions (the set bits of `|error|`).
    pub fn record_arithmetic(&mut self, error: i64) {
        self.cycles += 1;
        let mut magnitude = error.unsigned_abs();
        while magnitude != 0 {
            let pos = magnitude.trailing_zeros() as usize;
            if pos < self.counts.len() {
                self.counts[pos] += 1;
            }
            magnitude &= magnitude - 1;
        }
    }

    /// Raw per-position error counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-position internal error rate: `counts[i] / cycles` (all zeros
    /// when no cycle was recorded).
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        if self.cycles == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.cycles as f64)
            .collect()
    }

    /// The position with the highest error rate, or `None` when error-free.
    #[must_use]
    pub fn peak(&self) -> Option<(u32, f64)> {
        let (pos, &count) = self.counts.iter().enumerate().max_by_key(|&(_, &c)| c)?;
        if count == 0 || self.cycles == 0 {
            return None;
        }
        Some((pos as u32, count as f64 / self.cycles as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flips_count_every_differing_bit() {
        let mut d = BitErrorDistribution::new(8);
        d.record_flips(0b1010, 0b0110); // bits 2 and 3 differ
        assert_eq!(d.counts()[2], 1);
        assert_eq!(d.counts()[3], 1);
        assert_eq!(d.counts()[1], 0);
        assert_eq!(d.cycles(), 1);
    }

    #[test]
    fn arithmetic_uses_magnitude_bits() {
        let mut d = BitErrorDistribution::new(16);
        d.record_arithmetic(-96); // 96 = 64 + 32 -> bits 5, 6
        assert_eq!(d.counts()[5], 1);
        assert_eq!(d.counts()[6], 1);
        d.record_arithmetic(96);
        assert_eq!(d.counts()[5], 2);
    }

    #[test]
    fn rates_normalize_by_cycles() {
        let mut d = BitErrorDistribution::new(4);
        d.record_arithmetic(1);
        d.record_arithmetic(0);
        d.record_arithmetic(0);
        d.record_arithmetic(1);
        assert_eq!(d.rates()[0], 0.5);
    }

    #[test]
    fn out_of_range_bits_are_ignored() {
        let mut d = BitErrorDistribution::new(4);
        d.record_flips(1 << 40, 0);
        assert!(d.rates().iter().all(|&r| r == 0.0));
        assert_eq!(d.cycles(), 1);
    }

    #[test]
    fn peak_finds_hottest_position() {
        let mut d = BitErrorDistribution::new(8);
        assert_eq!(d.peak(), None);
        d.record_arithmetic(0b100);
        d.record_arithmetic(0b101);
        let (pos, rate) = d.peak().unwrap();
        assert_eq!(pos, 2);
        assert_eq!(rate, 1.0);
    }

    #[test]
    #[should_panic(expected = "positions must be in 1..=64")]
    fn zero_positions_rejected() {
        let _ = BitErrorDistribution::new(0);
    }
}
