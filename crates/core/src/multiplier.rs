//! Approximate multiplication built on Inexact Speculative Adders.
//!
//! The ISA architecture "has already been successfully verified and
//! integrated in multiplier circuits" (the paper's reference \[9\], a 32-bit
//! FPU with 53 % power-area-product reduction). This module reproduces that
//! integration behaviourally: a shift-and-add multiplier whose
//! partial-product accumulations run through any [`Adder`] — exact or
//! speculative — so the adder's structural errors compose across the
//! accumulation chain exactly as they would in an ISA-based MAC datapath.

use std::fmt;

use crate::adder::{mask, Adder};
use crate::config::{ConfigError, IsaConfig};
use crate::isa::SpeculativeAdder;

/// An unsigned combinational multiplier producing a `2 * width()`-bit
/// product.
pub trait Multiplier: fmt::Debug {
    /// Operand width in bits.
    fn width(&self) -> u32;

    /// Multiplies two `width()`-bit unsigned operands (masked).
    fn multiply(&self, a: u64, b: u64) -> u64;

    /// Human-readable label.
    fn label(&self) -> String;
}

/// The exact reference multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactMultiplier {
    width: u32,
}

impl ExactMultiplier {
    /// Creates an exact multiplier of the given operand width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 31 (products must fit a
    /// `u64` with headroom for the adder's carry bit).
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(
            width > 0 && width <= 31,
            "multiplier width must be in 1..=31, got {width}"
        );
        Self { width }
    }
}

impl Multiplier for ExactMultiplier {
    fn width(&self) -> u32 {
        self.width
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        (a & mask(self.width)) * (b & mask(self.width))
    }

    fn label(&self) -> String {
        "exact".to_owned()
    }
}

/// A shift-and-add multiplier accumulating partial products through an
/// Inexact Speculative Adder of width `2 * width`.
///
/// # Examples
///
/// ```
/// use isa_core::multiplier::{Multiplier, SpeculativeMultiplier};
/// use isa_core::IsaConfig;
///
/// # fn main() -> Result<(), isa_core::ConfigError> {
/// // 16x16 multiplier over a 32-bit ISA accumulator with compensation.
/// let cfg = IsaConfig::new(32, 8, 2, 1, 4)?;
/// let mul = SpeculativeMultiplier::new(16, cfg)?;
/// // Products are close to exact but may lose speculated carries:
/// let p = mul.multiply(40_000, 40_000);
/// assert!(p <= 1_600_000_000);
/// assert!(p > 1_590_000_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculativeMultiplier {
    width: u32,
    adder: SpeculativeAdder,
}

impl SpeculativeMultiplier {
    /// Creates a multiplier whose accumulations run on the given ISA
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::WidthTooLarge`] style validation failures if
    /// the accumulator config is narrower than `2 * width` (partial
    /// products must fit the adder).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 31.
    pub fn new(width: u32, accumulator: IsaConfig) -> Result<Self, ConfigError> {
        assert!(
            width > 0 && width <= 31,
            "multiplier width must be in 1..=31, got {width}"
        );
        if accumulator.width() < 2 * width {
            return Err(ConfigError::WidthTooLarge { width: 2 * width });
        }
        Ok(Self {
            width,
            adder: SpeculativeAdder::new(accumulator),
        })
    }

    /// The accumulator's ISA configuration.
    #[must_use]
    pub fn accumulator(&self) -> &IsaConfig {
        self.adder.config()
    }
}

impl Multiplier for SpeculativeMultiplier {
    fn width(&self) -> u32 {
        self.width
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let a = a & mask(self.width);
        let b = b & mask(self.width);
        let value_mask = mask(self.adder.config().width());
        let mut acc = 0u64;
        for i in 0..self.width {
            if (b >> i) & 1 == 1 {
                // The adder result includes a carry-out bit; the datapath
                // keeps the accumulator register width.
                acc = self.adder.add(acc, a << i) & value_mask;
            }
        }
        acc
    }

    fn label(&self) -> String {
        format!("mul{}x{}@{}", self.width, self.width, self.adder.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiplier_small_values() {
        let m = ExactMultiplier::new(8);
        assert_eq!(m.multiply(12, 10), 120);
        assert_eq!(m.multiply(255, 255), 65025);
        assert_eq!(m.multiply(0, 99), 0);
    }

    #[test]
    fn exact_accumulator_isa_is_exact_multiplier() {
        // A single-block ISA accumulator degenerates to exact
        // multiplication.
        let cfg = IsaConfig::new(32, 32, 0, 0, 0).unwrap();
        let mul = SpeculativeMultiplier::new(16, cfg).unwrap();
        let mut seed = 5u64;
        for _ in 0..300 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(11);
            let a = seed & 0xFFFF;
            let b = (seed >> 24) & 0xFFFF;
            assert_eq!(mul.multiply(a, b), a * b);
        }
    }

    #[test]
    fn speculative_product_never_exceeds_exact() {
        // add(x, y) <= x + y for speculate-at-0, so by induction over the
        // accumulation chain the product never overshoots.
        let cfg = IsaConfig::new(32, 8, 0, 0, 4).unwrap();
        let mul = SpeculativeMultiplier::new(16, cfg).unwrap();
        let mut seed = 7u64;
        for _ in 0..1000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(13);
            let a = seed & 0xFFFF;
            let b = (seed >> 17) & 0xFFFF;
            assert!(mul.multiply(a, b) <= a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn better_accumulators_give_better_products() {
        let weak = SpeculativeMultiplier::new(16, IsaConfig::new(32, 8, 0, 0, 0).unwrap()).unwrap();
        let strong =
            SpeculativeMultiplier::new(16, IsaConfig::new(32, 16, 7, 0, 8).unwrap()).unwrap();
        let mut weak_err = 0u64;
        let mut strong_err = 0u64;
        let mut seed = 11u64;
        for _ in 0..2000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(17);
            let a = seed & 0xFFFF;
            let b = (seed >> 31) & 0xFFFF;
            let exact = a * b;
            weak_err += exact - weak.multiply(a, b);
            strong_err += exact - strong.multiply(a, b);
        }
        assert!(
            strong_err * 10 < weak_err,
            "strong {strong_err} vs weak {weak_err}"
        );
    }

    #[test]
    fn narrow_accumulator_is_rejected() {
        let cfg = IsaConfig::new(16, 8, 0, 0, 0).unwrap();
        assert!(SpeculativeMultiplier::new(16, cfg).is_err());
        // Exactly 2*width is fine.
        let cfg = IsaConfig::new(32, 8, 0, 0, 0).unwrap();
        assert!(SpeculativeMultiplier::new(16, cfg).is_ok());
    }

    #[test]
    fn label_describes_the_datapath() {
        let cfg = IsaConfig::new(32, 8, 2, 1, 4).unwrap();
        let mul = SpeculativeMultiplier::new(16, cfg).unwrap();
        assert_eq!(mul.label(), "mul16x16@(8,2,1,4)");
        assert_eq!(ExactMultiplier::new(8).label(), "exact");
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=31")]
    fn oversized_width_panics() {
        let _ = ExactMultiplier::new(32);
    }
}
