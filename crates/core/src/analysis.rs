//! Exact structural error moments of a design, by a per-bit dynamic
//! program.
//!
//! Over all `2^(2W)` equiprobable operand pairs of a `W`-bit design,
//! [`DesignAnalysis::analyze`] counts the pairs with a zero structural
//! error `e = ygold - ydiamond`, the sum `Σe` and the sum of squares
//! `Σe²`, as exact integers and without enumerating the pairs. The error
//! rate, mean and RMS follow from those three integers. Every design is
//! covered: any SPEC window, overlapping compensation (`C + R > B`) and
//! the exact adder.
//!
//! # The program
//!
//! The outputs depend on a bit's operands only through its
//! generate/propagate pair, so each bit has three operand classes: kill
//! (one pair), propagate (two pairs) and generate (one pair). The program
//! scans bits LSB first. Its state holds what the outputs above the
//! current bit still depend on:
//!
//! * the exact carry and the carry of the current block's ADD;
//! * the generate of the SPEC window over the top `S` bits of each block
//!   below the last;
//! * over a block's low `C` bits, whether its correction group is
//!   absorbing a fault and whether the increment still ripples;
//! * over the top `R` bits of each block below the last, whether the
//!   next boundary's reduction forces them to ones;
//! * whether every output bit so far equals the exact sum's: both are
//!   binary numbers, so `e = 0` exactly when all bits agree.
//!
//! Speculation is at 0, so the SPEC carry is the window generate and
//! never exceeds the ADD carry-out it is compared with: a fault is a
//! missed carry, which correction increments away and reduction answers
//! by forcing ones. Two outcomes resolve above the bits they act on:
//! whether a fault is corrected (known after the group's last bit) and
//! whether the reduction fires (known at the next boundary). The program
//! guesses each when it is first needed and checks the guess when it
//! resolves; a wrong guess drops its branch, so every operand pair is
//! counted in exactly one branch. Each state carries the count, `Σe` and
//! `Σe²` of the pairs that reach it. With `e = Σ 2^i (f_i - x_i)` over
//! output bits `f` and exact bits `x`, adding bit `i`'s difference
//! `d = ±2^i` updates `Σe² += 2d·Σe + d²·count`, then `Σe += d·count`.
//!
//! This is the block recursion of arXiv:1703.03522, widened to speculation
//! windows and to correction/reduction as in the general inaccurate-adder
//! model of arXiv:1606.01753. The BDD model counting of `isa-prove` is the
//! oracle it is pinned to.

use std::mem;

use crate::designs::Design;

/// A 256-bit two's-complement integer with wrapping arithmetic: wide
/// enough for `Σe²` of any design up to 32 bits (at most `2^64` pairs of
/// `|e| < 2^33`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct I256 {
    hi: u128,
    lo: u128,
}

impl I256 {
    /// Zero.
    pub const ZERO: Self = Self { hi: 0, lo: 0 };

    /// `self + rhs`, wrapping at `2^256`.
    #[must_use]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        let (lo, carry) = self.lo.overflowing_add(rhs.lo);
        let hi = self.hi.wrapping_add(rhs.hi).wrapping_add(u128::from(carry));
        Self { hi, lo }
    }

    /// `self * 2^shift`, wrapping at `2^256`; `shift < 128`.
    #[must_use]
    pub fn mul_pow2(self, shift: u32) -> Self {
        debug_assert!(shift < 128);
        if shift == 0 {
            self
        } else {
            Self {
                hi: (self.hi << shift) | (self.lo >> (128 - shift)),
                lo: self.lo << shift,
            }
        }
    }

    /// The value as `(hi, lo)` words: `hi * 2^128 + lo` for a
    /// non-negative value.
    #[must_use]
    pub fn words(self) -> (u128, u128) {
        (self.hi, self.lo)
    }

    /// The nearest `f64` of a non-negative value, rounding each word once.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        (self.hi as f64) * 2f64.powi(128) + (self.lo as f64)
    }
}

impl From<i128> for I256 {
    fn from(x: i128) -> Self {
        Self {
            hi: (x >> 127) as u128,
            lo: x as u128,
        }
    }
}

impl From<u128> for I256 {
    fn from(x: u128) -> Self {
        Self { hi: 0, lo: x }
    }
}

/// Exact structural error moments of one design over all operand pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignAnalysis {
    width: u32,
    zero_count: u128,
    sum_e: i128,
    sum_e2: I256,
}

impl DesignAnalysis {
    /// The widest design [`Self::analyze`] counts: `Σe²` over its
    /// `2^(2W)` pairs must fit an [`I256`], and the pair count a `u128`.
    pub const MAX_WIDTH: u32 = 32;

    /// Counts the design's zero errors, `Σe` and `Σe²` over all
    /// `2^(2W)` operand pairs with the per-bit program of the module docs.
    ///
    /// # Panics
    ///
    /// Panics if the design is wider than [`Self::MAX_WIDTH`].
    #[must_use]
    pub fn analyze(design: &Design) -> Self {
        let width = design.width();
        assert!(
            width <= Self::MAX_WIDTH,
            "exact moments are limited to {}-bit designs",
            Self::MAX_WIDTH
        );
        let Some(cfg) = design.isa_config() else {
            return Self::from_counts(width, 1u128 << (2 * width), 0, I256::ZERO);
        };
        let (b, s, c, r) = cfg.quadruple();
        let paths = cfg.num_paths();

        let mut cur = Layer::new();
        let mut next = Layer::new();
        cur.push(State::START, Moments::ONE);
        for i in 0..width {
            let (k, j) = (i / b, i % b);
            // Only blocks below the last feed a SPEC window and take a
            // reduction from the boundary above them.
            let inner = k + 1 < paths;
            if k > 0 && j == 0 {
                for &(st, m) in &cur.states {
                    st.cross_boundary(c, r, |n| next.push(n, m));
                }
                cur.swap_clear(&mut next);
            }
            if inner && r > 0 && j == b - r {
                // Guess whether the boundary above forces ones here.
                for &(st, m) in &cur.states {
                    for reduce in [false, true] {
                        next.push(State { reduce, ..st }, m);
                    }
                }
                cur.swap_clear(&mut next);
            }
            let role = BitRole {
                window: inner && j + s >= b,
                group: k > 0 && j < c,
                group_end: j + 1 == c,
                reduce: inner && j + r >= b,
            };
            for &(st, m) in &cur.states {
                for (g, p) in CLASSES {
                    if let Some((n, delta)) = st.add_bit(g, p, role) {
                        let m = if p { m.doubled() } else { m };
                        next.push(n, m.shifted(delta, i));
                    }
                }
            }
            cur.swap_clear(&mut next);
        }

        // Output bit W is the last ADD's raw carry-out against the exact
        // carry-out.
        let mut total = Moments::default();
        let mut zero_count = 0u128;
        for &(st, m) in &cur.states {
            let delta = i8::from(st.local_carry) - i8::from(st.exact_carry);
            if st.clean && delta == 0 {
                zero_count += m.count;
            }
            total.add(m.shifted(delta, width));
        }
        assert_eq!(
            total.count,
            1u128 << (2 * width),
            "{design}: every operand pair must be counted exactly once"
        );
        Self::from_counts(width, zero_count, total.sum, total.sum2)
    }

    /// Moments counted by another exact method (the BDD oracle in
    /// `isa-prove`), so that both report through the same conversions.
    #[must_use]
    pub fn from_counts(width: u32, zero_count: u128, sum_e: i128, sum_e2: I256) -> Self {
        Self {
            width,
            zero_count,
            sum_e,
            sum_e2,
        }
    }

    /// Number of operand pairs covered: `2^(2 * width)`.
    #[must_use]
    pub fn total_pairs(&self) -> u128 {
        1u128 << (2 * self.width)
    }

    /// Exact number of pairs with `e = 0`.
    #[must_use]
    pub fn zero_count(&self) -> u128 {
        self.zero_count
    }

    /// Exact signed error sum over all pairs.
    #[must_use]
    pub fn sum_error(&self) -> i128 {
        self.sum_e
    }

    /// Exact `Σe²` as a 256-bit `(hi, lo)` pair.
    #[must_use]
    pub fn sum_squared_error(&self) -> (u128, u128) {
        self.sum_e2.words()
    }

    /// Fraction of pairs with a non-zero error.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        1.0 - (self.zero_count as f64) / (self.total_pairs() as f64)
    }

    /// Mean signed error.
    #[must_use]
    pub fn mean_error(&self) -> f64 {
        (self.sum_e as f64) / (self.total_pairs() as f64)
    }

    /// Root-mean-square error in absolute (LSB) units.
    #[must_use]
    pub fn rms_error(&self) -> f64 {
        (self.sum_e2.to_f64() / (self.total_pairs() as f64)).sqrt()
    }
}

/// The operand classes of one bit as (generate, propagate); propagate
/// stands for two operand pairs.
const CLASSES: [(bool, bool); 3] = [(false, false), (false, true), (true, false)];

/// What bit `i` is part of besides its block's ADD.
#[derive(Clone, Copy)]
struct BitRole {
    /// The SPEC window of the next block.
    window: bool,
    /// This block's correction group.
    group: bool,
    /// The group's last bit.
    group_end: bool,
    /// The bits the next boundary's reduction forces.
    reduce: bool,
}

/// Everything the outputs above the current bit still depend on.
#[derive(Clone, Copy)]
struct State {
    exact_carry: bool,
    local_carry: bool,
    window_g: bool,
    /// The correction group in progress is absorbing (or, uncorrected,
    /// cannot absorb) a missed carry.
    fault: bool,
    /// Guess: the group absorbs the fault.
    corrected: bool,
    /// The group bits so far are all ones, so the increment still
    /// ripples.
    ripple: bool,
    /// Guess: the next boundary forces this block's top `R` bits to ones.
    reduce: bool,
    /// Every output bit so far equals the exact sum's.
    clean: bool,
}

impl State {
    const START: Self = Self {
        exact_carry: false,
        local_carry: false,
        window_g: false,
        fault: false,
        corrected: false,
        ripple: true,
        reduce: false,
        clean: true,
    };

    /// The state's slot in a [`Layer`]'s dense table.
    fn slot(self) -> usize {
        usize::from(self.exact_carry)
            | usize::from(self.local_carry) << 1
            | usize::from(self.window_g) << 2
            | usize::from(self.fault) << 3
            | usize::from(self.corrected) << 4
            | usize::from(self.ripple) << 5
            | usize::from(self.reduce) << 6
            | usize::from(self.clean) << 7
    }

    /// Enters the next block: its SPEC carry (the window generate)
    /// replaces the local carry, the fault (an ADD carry-out the SPEC
    /// carry missed) is detected, and the reduction guess made below is
    /// checked against what the fault leaves after correction. Emits one
    /// state per surviving correction guess.
    fn cross_boundary(self, c: u32, r: u32, mut emit: impl FnMut(Self)) {
        let spec = self.window_g;
        let fault = self.local_carry && !spec;
        for corrected in [false, true] {
            if corrected && (!fault || c == 0) {
                continue;
            }
            if r > 0 && self.reduce != (fault && !corrected) {
                continue;
            }
            emit(Self {
                local_carry: spec,
                window_g: false,
                fault: c > 0 && fault,
                corrected,
                ripple: true,
                reduce: false,
                ..self
            });
        }
    }

    /// Adds one bit of class `(g, p)`: returns the next state and the
    /// bit's output-minus-exact difference, or `None` when the bit
    /// contradicts the correction guess.
    fn add_bit(self, g: bool, p: bool, role: BitRole) -> Option<(Self, i8)> {
        let exact = p ^ self.exact_carry;
        let raw = p ^ self.local_carry;
        let mut n = self;
        n.exact_carry = g || (p && self.exact_carry);
        n.local_carry = g || (p && self.local_carry);
        if role.window {
            n.window_g = g || (p && self.window_g);
        }
        let mut out = raw;
        if role.group && self.fault {
            if self.corrected {
                out ^= self.ripple;
            }
            n.ripple = self.ripple && raw;
            if role.group_end {
                // Fig. 2: the group absorbs the fault iff the increment
                // does not ripple out of it.
                if self.corrected == n.ripple {
                    return None;
                }
                n.fault = false;
                n.corrected = false;
                n.ripple = true;
            } else if !self.corrected && !n.ripple {
                return None;
            }
        }
        if role.reduce && self.reduce {
            out = true;
        }
        n.clean = self.clean && out == exact;
        Some((n, i8::from(out) - i8::from(exact)))
    }
}

/// Count, `Σe` and `Σe²` of the operand pairs reaching one state.
#[derive(Clone, Copy, Default)]
struct Moments {
    count: u128,
    sum: i128,
    sum2: I256,
}

impl Moments {
    const ONE: Self = Self {
        count: 1,
        sum: 0,
        sum2: I256::ZERO,
    };

    fn add(&mut self, m: Self) {
        self.count += m.count;
        self.sum += m.sum;
        self.sum2 = self.sum2.wrapping_add(m.sum2);
    }

    fn doubled(self) -> Self {
        Self {
            count: self.count << 1,
            sum: self.sum << 1,
            sum2: self.sum2.mul_pow2(1),
        }
    }

    /// Every pair's error plus `delta * 2^bit`.
    fn shifted(self, delta: i8, bit: u32) -> Self {
        if delta == 0 {
            return self;
        }
        let delta = i128::from(delta);
        Self {
            count: self.count,
            sum: self.sum + delta * ((self.count as i128) << bit),
            sum2: self
                .sum2
                .wrapping_add(I256::from(delta * self.sum).mul_pow2(bit + 1))
                .wrapping_add(I256::from(self.count).mul_pow2(2 * bit)),
        }
    }
}

/// One bit position's live states, merged through a dense slot table.
struct Layer {
    states: Vec<(State, Moments)>,
    /// `slots[state.slot()]` is the state's index in `states` plus one
    /// (0: absent).
    slots: Vec<u16>,
}

impl Layer {
    fn new() -> Self {
        Self {
            states: Vec::new(),
            slots: vec![0; 1 << 8],
        }
    }

    fn push(&mut self, state: State, m: Moments) {
        let slot = &mut self.slots[state.slot()];
        if *slot == 0 {
            self.states.push((state, m));
            *slot = self.states.len() as u16;
        } else {
            self.states[usize::from(*slot) - 1].1.add(m);
        }
    }

    /// Makes `next` the current layer and empties the old one into
    /// `next`.
    fn swap_clear(&mut self, next: &mut Self) {
        mem::swap(self, next);
        for (st, _) in next.states.drain(..) {
            next.slots[st.slot()] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::{Adder, ExactAdder};
    use crate::config::IsaConfig;
    use crate::designs::paper_isa_configs;
    use crate::isa::SpeculativeAdder;

    fn isa(width: u32, b: u32, s: u32, c: u32, r: u32) -> Design {
        Design::Isa(IsaConfig::new(width, b, s, c, r).unwrap())
    }

    /// Monte-Carlo reference `(rate, mean e, mean e², standard error of
    /// mean e²)`.
    fn monte_carlo(cfg: &IsaConfig, n: usize) -> (f64, f64, f64, f64) {
        let isa = SpeculativeAdder::new(*cfg);
        let exact = ExactAdder::new(cfg.width());
        let mut seed = 0x5EED_0001u64;
        let mut errors = 0usize;
        let (mut sum_e, mut sum_e2, mut sum_e4) = (0.0f64, 0.0f64, 0.0f64);
        let mask = (1u64 << cfg.width()) - 1;
        for _ in 0..n {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let a = seed & mask;
            let b = (seed >> 27).wrapping_mul(seed) & mask;
            let e = (isa.add(a, b) as i64 - exact.add(a, b) as i64) as f64;
            errors += usize::from(e != 0.0);
            sum_e += e;
            sum_e2 += e * e;
            sum_e4 += e * e * e * e;
        }
        let n = n as f64;
        let mean_e2 = sum_e2 / n;
        let se_e2 = ((sum_e4 / n - mean_e2 * mean_e2).max(0.0) / n).sqrt();
        (errors as f64 / n, sum_e / n, mean_e2, se_e2)
    }

    #[test]
    fn two_path_truncation_matches_its_closed_form() {
        // (8,0,0,0) at 16 bits loses block 0's carry-out and nothing else:
        // e = -2^8 on the 32,640 low-byte pairs that carry out, times the
        // 2^16 high-byte pairs.
        let analysis = DesignAnalysis::analyze(&isa(16, 8, 0, 0, 0));
        let faulty = 32_640u128 << 16;
        assert_eq!(analysis.zero_count(), (1 << 32) - faulty);
        assert_eq!(analysis.sum_error(), -256 * faulty as i128);
        assert_eq!(analysis.sum_squared_error(), (0, 65_536 * faulty));
    }

    #[test]
    fn moments_match_monte_carlo_on_paper_designs() {
        // The 32-bit designs, where enumeration cannot reach: rate, mean
        // and mean square within 5 standard errors of a 200,000-sample
        // estimate.
        let n = 200_000usize;
        for cfg in paper_isa_configs() {
            let analysis = DesignAnalysis::analyze(&Design::Isa(cfg));
            let (rate, mean, mean_e2, se_e2) = monte_carlo(&cfg, n);
            let se_rate = (rate * (1.0 - rate) / n as f64).sqrt().max(1e-6);
            assert!(
                (analysis.error_rate() - rate).abs() < 5.0 * se_rate + 1e-4,
                "{cfg}: rate {} vs MC {rate}",
                analysis.error_rate()
            );
            let se_mean = (mean_e2 - mean * mean).max(0.0).sqrt() / (n as f64).sqrt();
            assert!(
                (analysis.mean_error() - mean).abs() < 5.0 * se_mean + 1e-9,
                "{cfg}: mean {} vs MC {mean} (se {se_mean})",
                analysis.mean_error()
            );
            let exact_e2 = analysis.rms_error().powi(2);
            assert!(
                (exact_e2 - mean_e2).abs() < 5.0 * se_e2 + 1e-9,
                "{cfg}: mean square {exact_e2} vs MC {mean_e2} (se {se_e2})"
            );
        }
    }

    #[test]
    fn exact_designs_have_zero_everything() {
        for design in [Design::Exact { width: 32 }, isa(32, 32, 0, 0, 0)] {
            let analysis = DesignAnalysis::analyze(&design);
            assert_eq!(analysis.zero_count(), 1 << 64, "{design}");
            assert_eq!(analysis.sum_error(), 0);
            assert_eq!(analysis.sum_squared_error(), (0, 0));
            assert_eq!(analysis.error_rate(), 0.0);
            assert_eq!(analysis.rms_error(), 0.0);
        }
    }

    #[test]
    fn speculation_lowers_error_rate_and_rms_monotonically() {
        let (mut rate, mut rms) = (f64::INFINITY, f64::INFINITY);
        for s in [0u32, 1, 2, 4, 7] {
            let analysis = DesignAnalysis::analyze(&isa(32, 8, s, 0, 0));
            assert!(analysis.error_rate() < rate, "S={s}");
            assert!(analysis.rms_error() < rms, "S={s}");
            (rate, rms) = (analysis.error_rate(), analysis.rms_error());
        }
    }

    #[test]
    fn i256_wraps_through_negative_intermediates() {
        let x = I256::from(-5i128)
            .mul_pow2(100)
            .wrapping_add(I256::from(7u128).mul_pow2(100));
        assert_eq!(x, I256::from(2u128).mul_pow2(100));
        assert_eq!(I256::from(1u128).mul_pow2(127).mul_pow2(1).words(), (1, 0));
        assert_eq!(
            I256::from(3u128).mul_pow2(127).to_f64(),
            3.0 * 2f64.powi(127)
        );
    }
}
