//! Exact structural error distributions by model counting.
//!
//! The signed structural error `e = ygold - ydiamond` of a design is built
//! symbolically: spec and exact-reference output functions share one store
//! (see [`crate::spec`]), a two's-complement subtractor over BDD planes
//! yields the difference bits, and model counting turns them into **exact**
//! statistics over all `2^(2W)` equiprobable operand pairs — error rate,
//! signed mean, RMS, extreme values, and (support permitting) the full
//! PMF/CDF. No sampling: this is the oracle that pins
//! [`isa_core::DesignAnalysis`]'s per-bit moment program, at any width up
//! to 32.
//!
//! Overflow discipline: squared-error terms `2^(i+j) * count` can exceed
//! `u128` in principle (`count <= 2^64`, `i + j <= 66`), so the
//! sum-of-squares accumulates in 256 bits ([`isa_core::I256`]). The
//! moments report through [`isa_core::DesignAnalysis`], so both exact
//! methods convert the same integers to `f64` the same way.

use isa_core::{Design, DesignAnalysis, I256};
use std::collections::HashMap;
use std::rc::Rc;

use crate::bdd::{Bdd, Op, Ref};
use crate::spec::{spec_outputs, OperandVars};

/// Default cap on the number of distinct error values materialised for the
/// PMF; moments are exact regardless.
pub const DEFAULT_PMF_CAP: usize = 1 << 16;

/// Exact distribution of a design's structural error over all operand
/// pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorDistribution {
    moments: DesignAnalysis,
    max_error: i64,
    min_error: i64,
    pmf: Option<Vec<(i64, u128)>>,
}

impl ErrorDistribution {
    /// Analyzes a design with the default PMF support cap
    /// ([`DEFAULT_PMF_CAP`]).
    ///
    /// # Panics
    ///
    /// Panics if the design is wider than 32 bits.
    #[must_use]
    pub fn analyze(design: &Design) -> Self {
        Self::analyze_with_pmf_cap(design, DEFAULT_PMF_CAP)
    }

    /// Analyzes a design; `pmf_cap` bounds the distinct error values
    /// materialised for the PMF (`0` skips the PMF entirely, and a support
    /// larger than the cap leaves [`Self::pmf`] as `None`). All scalar
    /// statistics are exact either way.
    ///
    /// # Panics
    ///
    /// Panics if the design is wider than 32 bits.
    #[must_use]
    pub fn analyze_with_pmf_cap(design: &Design, pmf_cap: usize) -> Self {
        let w = design.width();
        assert!(w <= 32, "error distributions are limited to 32-bit designs");
        let mut bdd = Bdd::new(2 * w);
        let vars = OperandVars::interleaved(&mut bdd, w);
        let approx = spec_outputs(&mut bdd, design, &vars);
        let exact = spec_outputs(&mut bdd, &Design::Exact { width: w }, &vars);

        // d = approx - exact in (w + 2)-bit two's complement, via
        // approx + !exact + 1. Both operands are w + 1 bits zero-extended
        // by one; |e| < 2^(w+1), so the encoding never wraps.
        let n = w as usize + 2;
        let zero = bdd.zero();
        let ext = |v: &Vec<Ref>, i: usize| if i < v.len() { v[i] } else { zero };
        let mut d = Vec::with_capacity(n);
        let mut carry = bdd.one();
        for i in 0..n {
            let ai = ext(&approx, i);
            let bi = bdd.not(ext(&exact, i));
            let axb = bdd.apply(Op::Xor, ai, bi);
            d.push(bdd.apply(Op::Xor, axb, carry));
            // carry' = maj(ai, bi, carry) = (ai & bi) | (carry & (ai ^ bi)).
            let g = bdd.apply(Op::And, ai, bi);
            let t = bdd.apply(Op::And, carry, axb);
            carry = bdd.apply(Op::Or, g, t);
        }
        let sign = d[n - 1];

        // Magnitude |e| by conditional negation: (d XOR sign) + sign.
        let mut mag = Vec::with_capacity(n);
        let mut carry = sign;
        for &di in &d {
            let x = bdd.apply(Op::Xor, di, sign);
            mag.push(bdd.apply(Op::Xor, x, carry));
            carry = bdd.apply(Op::And, x, carry);
        }
        debug_assert_eq!(mag[n - 1], zero, "|e| must fit in w + 1 bits");

        // P[e = 0] and the signed first moment from per-bit counts.
        let mut all_zero = bdd.one();
        for &di in &d {
            let nd = bdd.not(di);
            all_zero = bdd.apply(Op::And, all_zero, nd);
        }
        let zero_count = bdd.satcount(all_zero);

        let not_sign = bdd.not(sign);
        let mut sum_e = 0i128;
        for (i, &mi) in mag.iter().enumerate() {
            let pos = bdd.apply(Op::And, mi, not_sign);
            let neg = bdd.apply(Op::And, mi, sign);
            let diff = bdd.satcount(pos) as i128 - bdd.satcount(neg) as i128;
            sum_e += diff << i;
        }

        // Second moment: sum(e^2) = sum_{i,j} 2^(i+j) #(m_i & m_j), every
        // term non-negative by the sign/magnitude split.
        let mut sum_e2 = I256::ZERO;
        for i in 0..n {
            for j in i..n {
                let both = bdd.apply(Op::And, mag[i], mag[j]);
                let count = bdd.satcount(both);
                if count == 0 {
                    continue;
                }
                // Off-diagonal pairs occur twice in the double sum.
                let shift = (i + j + usize::from(i != j)) as u32;
                sum_e2 = sum_e2.wrapping_add(I256::from(count).mul_pow2(shift));
            }
        }

        // Signed extremes by greedy maximisation of the magnitude vector
        // restricted to each sign.
        let max_error = bdd
            .max_value(&mag, not_sign)
            .map_or(0, |v| i64::try_from(v).expect("|e| fits in i64"));
        let min_error = bdd
            .max_value(&mag, sign)
            .map_or(0, |v| -i64::try_from(v).expect("|e| fits in i64"));

        let pmf = if pmf_cap == 0 {
            None
        } else {
            enumerate_pmf(&bdd, &d, pmf_cap)
        };

        Self {
            moments: DesignAnalysis::from_counts(w, zero_count, sum_e, sum_e2),
            max_error,
            min_error,
            pmf,
        }
    }

    /// The exact moments: zero count, `Σe` and `Σe²`, with the error
    /// rate, mean and RMS derived from them.
    #[must_use]
    pub fn moments(&self) -> &DesignAnalysis {
        &self.moments
    }

    /// Root-mean-square error in absolute (LSB) units: `moments().rms_error()`.
    #[must_use]
    pub fn rms_error(&self) -> f64 {
        self.moments.rms_error()
    }

    /// Largest (most positive) error value attained.
    #[must_use]
    pub fn max_error(&self) -> i64 {
        self.max_error
    }

    /// Smallest (most negative) error value attained.
    #[must_use]
    pub fn min_error(&self) -> i64 {
        self.min_error
    }

    /// Largest `|e|` attained.
    #[must_use]
    pub fn max_abs_error(&self) -> u64 {
        self.max_error
            .unsigned_abs()
            .max(self.min_error.unsigned_abs())
    }

    /// The exact PMF as `(value, count)` pairs sorted by value, if its
    /// support fit under the analysis cap.
    #[must_use]
    pub fn pmf(&self) -> Option<&[(i64, u128)]> {
        self.pmf.as_deref()
    }

    /// The exact CDF as `(value, cumulative count)` pairs sorted by value,
    /// if the PMF was materialised.
    #[must_use]
    pub fn cdf(&self) -> Option<Vec<(i64, u128)>> {
        let pmf = self.pmf.as_ref()?;
        let mut acc = 0u128;
        Some(
            pmf.iter()
                .map(|&(v, c)| {
                    acc += c;
                    (v, acc)
                })
                .collect(),
        )
    }
}

/// Enumerates the image of the two's-complement bit vector `bits` with
/// multiplicities by cofactor recursion over the variable order, memoised
/// on `(level, node tuple)`. Returns `None` if the support exceeds `cap`.
fn enumerate_pmf(bdd: &Bdd, bits: &[Ref], cap: usize) -> Option<Vec<(i64, u128)>> {
    type Memo = HashMap<(u32, Vec<Ref>), Rc<HashMap<i64, u128>>>;
    // The memo key includes the level so residual-variable scaling (the
    // `2^(num_vars - level)` factor on constant tails) stays correct.
    fn rec(
        bdd: &Bdd,
        bits: &[Ref],
        level: u32,
        cap: usize,
        memo: &mut Memo,
    ) -> Option<Rc<HashMap<i64, u128>>> {
        let num_vars = bdd.num_vars();
        if bits.iter().all(|&b| bdd.root_var(b).is_none()) {
            let mut value = 0i64;
            for (i, &b) in bits.iter().enumerate() {
                if b == bdd.one() {
                    value |= 1 << i;
                }
            }
            if bits.last() == Some(&bdd.one()) {
                value -= 1 << bits.len(); // two's-complement sign
            }
            let count = 1u128 << (num_vars - level);
            return Some(Rc::new(HashMap::from([(value, count)])));
        }
        let key = (level, bits.to_vec());
        if let Some(hit) = memo.get(&key) {
            return Some(Rc::clone(hit));
        }
        let mut lo_bits = Vec::with_capacity(bits.len());
        let mut hi_bits = Vec::with_capacity(bits.len());
        for &b in bits {
            let (lo, hi) = bdd.cofactors_at(b, level);
            lo_bits.push(lo);
            hi_bits.push(hi);
        }
        let lo_map = rec(bdd, &lo_bits, level + 1, cap, memo)?;
        let hi_map = rec(bdd, &hi_bits, level + 1, cap, memo)?;
        let mut merged: HashMap<i64, u128> = (*lo_map).clone();
        for (&v, &c) in hi_map.iter() {
            *merged.entry(v).or_insert(0) += c;
        }
        if merged.len() > cap {
            return None;
        }
        let rc = Rc::new(merged);
        memo.insert(key, Rc::clone(&rc));
        Some(rc)
    }
    let mut memo = Memo::new();
    let map = rec(bdd, bits, 0, cap, &mut memo)?;
    let mut pmf: Vec<(i64, u128)> = map.iter().map(|(&v, &c)| (v, c)).collect();
    pmf.sort_unstable();
    Some(pmf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    fn exhaustive(design: &Design) -> (u128, i128, u128, i64, i64) {
        let w = design.width();
        let model = design.behavioural();
        let (mut zeros, mut sum, mut sum2) = (0u128, 0i128, 0u128);
        let (mut max_e, mut min_e) = (i64::MIN, i64::MAX);
        for a in 0..1u64 << w {
            for b in 0..1u64 << w {
                let e = model.add(a, b) as i64 - (a + b) as i64;
                zeros += u128::from(e == 0);
                sum += i128::from(e);
                sum2 += u128::from(e.unsigned_abs()) * u128::from(e.unsigned_abs());
                max_e = max_e.max(e);
                min_e = min_e.min(e);
            }
        }
        (zeros, sum, sum2, max_e, min_e)
    }

    #[test]
    fn matches_exhaustive_enumeration_exactly() {
        for (b, s, c, r) in [(4, 0, 0, 0), (4, 2, 1, 2), (2, 1, 1, 1), (4, 4, 0, 2)] {
            let cfg = IsaConfig::new(8, b, s, c, r).unwrap();
            let design = Design::Isa(cfg);
            let dist = ErrorDistribution::analyze(&design);
            let (zeros, sum, sum2, max_e, min_e) = exhaustive(&design);
            let moments = dist.moments();
            assert_eq!(moments.zero_count(), zeros, "{cfg}");
            assert_eq!(moments.sum_error(), sum, "{cfg}");
            assert_eq!(moments.sum_squared_error(), (0, sum2), "{cfg}");
            assert_eq!(dist.max_error(), max_e, "{cfg}");
            assert_eq!(dist.min_error(), min_e, "{cfg}");
            // The PMF must re-aggregate to the same totals.
            let pmf = dist.pmf().expect("8-bit support is small");
            assert_eq!(pmf.iter().map(|&(_, c)| c).sum::<u128>(), 1u128 << 16);
            assert_eq!(
                pmf.iter()
                    .map(|&(v, c)| i128::from(v) * c as i128)
                    .sum::<i128>(),
                sum
            );
        }
    }

    #[test]
    fn exact_design_has_no_error() {
        let dist = ErrorDistribution::analyze(&Design::Exact { width: 16 });
        assert_eq!(dist.moments().zero_count(), 1 << 32);
        assert_eq!(dist.moments().error_rate(), 0.0);
        assert_eq!(dist.rms_error(), 0.0);
        assert_eq!(dist.max_abs_error(), 0);
        assert_eq!(dist.pmf(), Some([(0i64, 1u128 << 32)].as_slice()));
    }

    #[test]
    fn matches_the_moment_program_exactly() {
        // The per-bit program in isa-core counts the same integers at 16
        // bits, with and without overlapping compensation.
        for (c, r) in [(1, 2), (3, 2)] {
            let design = Design::Isa(IsaConfig::new(16, 4, 2, c, r).unwrap());
            let dist = ErrorDistribution::analyze(&design);
            assert_eq!(
                *dist.moments(),
                DesignAnalysis::analyze(&design),
                "{design}"
            );
        }
    }

    #[test]
    fn pmf_cap_zero_skips_pmf_but_keeps_moments() {
        let cfg = IsaConfig::new(8, 4, 0, 0, 0).unwrap();
        let design = Design::Isa(cfg);
        let with = ErrorDistribution::analyze(&design);
        let without = ErrorDistribution::analyze_with_pmf_cap(&design, 0);
        assert!(without.pmf().is_none());
        assert_eq!(with.moments(), without.moments());
    }
}
