//! The behavioural adder abstraction and the exact reference adder.

use std::fmt::Debug;

/// Largest supported operand width, in bits.
///
/// An adder produces a `width + 1`-bit result (sum plus carry-out) that must
/// fit a `u64`, so operands are capped at 63 bits even though `mask`
/// itself supports the full 64-bit *result* width.
pub const MAX_WIDTH: u32 = 63;

/// Masks `value` to the low `width` bits.
///
/// Supports widths up to 64 (one more than [`MAX_WIDTH`]) because result
/// values span `width + 1` bits including the carry-out.
///
/// # Panics
///
/// Panics in debug builds if `width > 64`.
#[must_use]
pub(crate) fn mask(width: u32) -> u64 {
    debug_assert!(width <= MAX_WIDTH + 1, "mask width must be in 0..=64");
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A combinational unsigned adder producing a `width() + 1` bit result.
///
/// The result includes the carry-out as its most significant bit, matching
/// the paper's convention (Fig. 10's bit axis spans positions `0..=32` for
/// 32-bit adders).
///
/// Implementations must be pure functions of the operands: the same inputs
/// always produce the same output. This is what the paper calls the
/// *behavioural* (golden) level — structural errors are defined against it,
/// timing errors are defined on top of it.
///
/// `Send + Sync` are required so golden models can be shared across the
/// engine's worker threads (they are pure, so this costs implementations
/// nothing).
pub trait Adder: Debug + Send + Sync {
    /// Operand width in bits.
    fn width(&self) -> u32;

    /// Adds two `width()`-bit unsigned operands.
    ///
    /// Operands are masked to `width()` bits before use, so callers may pass
    /// wider values without affecting the result.
    fn add(&self, a: u64, b: u64) -> u64;

    /// Human-readable design label (e.g. `"exact"` or `"(8,0,1,4)"`).
    fn label(&self) -> String;

    /// Adds a whole stream of operand pairs, one result per pair in order.
    ///
    /// Bit-for-bit equal to mapping [`add`](Adder::add) over `pairs`; the
    /// default does exactly that. Models with a bit-sliced (64-lane)
    /// word-level evaluation override this to advance 64 independent
    /// additions per operation — [`SpeculativeAdder`](crate::isa) does, so
    /// behavioural Monte-Carlo inner loops batch the same way the
    /// gate-level backends do.
    fn add_batch(&self, pairs: &[(u64, u64)]) -> Vec<u64> {
        pairs.iter().map(|&(a, b)| self.add(a, b)).collect()
    }
}

/// The exact (conventional) adder: the paper's `ydiamond` reference.
///
/// # Examples
///
/// ```
/// use isa_core::{Adder, ExactAdder};
///
/// let adder = ExactAdder::new(32);
/// assert_eq!(adder.add(u32::MAX as u64, 1), 1 << 32); // carry-out is bit 32
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExactAdder {
    width: u32,
}

impl ExactAdder {
    /// Creates an exact adder of the given operand width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than [`MAX_WIDTH`] (63): the
    /// `width + 1`-bit result including the carry-out must fit a `u64`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH,
            "exact adder width must be in 1..={MAX_WIDTH}, got {width}"
        );
        Self { width }
    }
}

impl Adder for ExactAdder {
    fn width(&self) -> u32 {
        self.width
    }

    fn add(&self, a: u64, b: u64) -> u64 {
        let m = mask(self.width);
        (a & m) + (b & m)
    }

    fn label(&self) -> String {
        "exact".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_adder_small_values() {
        let adder = ExactAdder::new(8);
        assert_eq!(adder.add(3, 4), 7);
        assert_eq!(adder.add(0, 0), 0);
    }

    #[test]
    fn exact_adder_carry_out_is_top_bit() {
        let adder = ExactAdder::new(8);
        assert_eq!(adder.add(255, 255), 510);
        assert_eq!(adder.add(255, 1), 256);
    }

    #[test]
    fn exact_adder_masks_wide_operands() {
        let adder = ExactAdder::new(8);
        assert_eq!(adder.add(0x1_00, 0x2_03), 3);
    }

    #[test]
    fn exact_adder_max_width() {
        let adder = ExactAdder::new(63);
        let m = (1u64 << 63) - 1;
        assert_eq!(adder.add(m, 1), 1u64 << 63);
    }

    #[test]
    fn max_width_boundary_is_63_for_adders_64_for_results() {
        // Regression for the documented bound: operands cap at MAX_WIDTH
        // (63) because results span width + 1 bits; mask() therefore must
        // support exactly one more bit than the widest adder.
        assert_eq!(MAX_WIDTH, 63);
        let adder = ExactAdder::new(MAX_WIDTH);
        let m = mask(MAX_WIDTH);
        // The carry-out of the widest adder lands in bit 63 — the result
        // still fits a u64, exercised by mask(64).
        assert_eq!(adder.add(m, m), m << 1);
        assert_eq!(adder.add(m, m) & mask(MAX_WIDTH + 1), m << 1);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=63")]
    fn exact_adder_rejects_width_above_max() {
        let _ = ExactAdder::new(MAX_WIDTH + 1);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=63")]
    fn exact_adder_rejects_zero_width() {
        let _ = ExactAdder::new(0);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=63")]
    fn exact_adder_rejects_width_64() {
        let _ = ExactAdder::new(64);
    }

    #[test]
    fn mask_widths() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn label_is_exact() {
        assert_eq!(ExactAdder::new(32).label(), "exact");
    }
}
