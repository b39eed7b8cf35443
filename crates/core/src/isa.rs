//! Behavioural (bit-accurate) model of the Inexact Speculative Adder.
//!
//! The ISA splits the carry chain of an `N`-bit addition into `P = N/B`
//! concurrent speculative paths (Fig. 1 of the paper). Each path consists of:
//!
//! * **SPEC** — a carry speculator computing a partial carry from the `S`
//!   operand bits immediately below the path, using carry look-ahead: the
//!   window's carry-out with carry-in 0. A window that only propagates
//!   cannot determine the carry and speculates 0, as in all the paper's
//!   designs (Fig. 2).
//! * **ADD** — a regular sub-adder computing the local sum from the
//!   speculated carry.
//! * **COMP** — an error compensation block that detects speculation faults
//!   by comparing the SPEC carry against the carry-out of the previous ADD,
//!   then either *corrects* the `C` LSBs of the local sum by incrementing
//!   them (impossible when the group would internally overflow) or
//!   *reduces/balances* the error by forcing the `R` MSBs of the preceding
//!   sum to ones (Fig. 2).
//!
//! The SPEC window is the top `S <= B` bits of the previous block, and the
//! carry recurrence is monotone in its carry-in, so the SPEC carry never
//! exceeds the previous ADD's carry-out: every fault is a missed carry
//! (`+1` at the boundary), never a spurious one.
//!
//! This model is the paper's "golden" (`ygold`) level: it contains the
//! deterministic structural errors and no timing errors.

use crate::adder::{mask, Adder};
use crate::batch::{pack_pairs, unpack_lanes, LANES};
use crate::config::IsaConfig;
use crate::plane::{PlaneAlgebra, WordPlanes};

/// Compensation outcome for one speculative path (Fig. 2's arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compensation {
    /// No fault was detected at this path's boundary.
    NotNeeded,
    /// The fault was fully absorbed by incrementing the `C`-bit LSB group of
    /// the local sum.
    Corrected,
    /// Correction was impossible (or `C = 0`); the `R` MSBs of the preceding
    /// block's sum were forced to ones to bound the relative error.
    Reduced,
    /// Neither correction nor reduction was available (`C = R = 0`); the
    /// speculation error stands.
    Unresolved,
}

/// Per-path diagnostic information from a traced ISA addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathOutcome {
    /// Carry fed into this path's ADD (true carry-in 0 for path 0, SPEC
    /// output otherwise).
    pub carry_in: u64,
    /// Raw local sum of the path's ADD before any compensation.
    pub raw_sum: u64,
    /// Carry-out of the path's ADD (raw, as used for fault detection by the
    /// next path's COMP).
    pub carry_out: u64,
    /// Whether this path's COMP detected a speculation fault: a missed
    /// carry, the SPEC carry 0 where the previous ADD carried out.
    pub fault: bool,
    /// How the fault (if any) was compensated.
    pub compensation: Compensation,
    /// The path's sum after local correction (but before any reduction
    /// applied by the *next* path's COMP).
    pub corrected_sum: u64,
    /// The path's final sum contributing to the ISA output.
    pub final_sum: u64,
}

/// Full trace of one ISA addition, used by tests and error-distribution
/// analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaAddition {
    /// The (possibly erroneous) ISA result, `width + 1` bits.
    pub sum: u64,
    /// Per-path diagnostics, LSB path first.
    pub paths: Vec<PathOutcome>,
}

impl IsaAddition {
    /// Number of paths that detected a speculation fault.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.paths.iter().filter(|p| p.fault).count()
    }
}

/// Behavioural Inexact Speculative Adder (the paper's `ygold` function).
///
/// # Examples
///
/// ```
/// use isa_core::{Adder, IsaConfig, SpeculativeAdder};
///
/// # fn main() -> Result<(), isa_core::ConfigError> {
/// let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, 0, 0, 4)?);
/// // Speculative result may differ from the exact sum when carries cross
/// // block boundaries:
/// let (a, b) = (0x0000_00FF, 0x0000_0001);
/// assert_ne!(isa.add(a, b), a + b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculativeAdder {
    config: IsaConfig,
}

impl SpeculativeAdder {
    /// Creates the behavioural model for a validated configuration.
    #[must_use]
    pub fn new(config: IsaConfig) -> Self {
        Self { config }
    }

    /// The design configuration.
    #[must_use]
    pub fn config(&self) -> &IsaConfig {
        &self.config
    }

    /// The SPEC block for the path starting at bit `lo`: the speculated
    /// carry into that path, the group generate of the `S` operand bits
    /// below it (their carry-out with carry-in 0).
    fn speculate(&self, a: u64, b: u64, lo: u32) -> u64 {
        let mut generate = 0;
        for i in lo - self.config.spec_size()..lo {
            let (ai, bi) = ((a >> i) & 1, (b >> i) & 1);
            // Carry look-ahead recurrence over the window, LSB first.
            generate = (ai & bi) | ((ai ^ bi) & generate);
        }
        generate
    }

    /// Performs the addition and returns per-path diagnostics.
    #[must_use]
    pub fn add_traced(&self, a: u64, b: u64) -> IsaAddition {
        let cfg = &self.config;
        let n = cfg.width();
        let bsz = cfg.block_size();
        let paths = cfg.num_paths() as usize;
        let a = a & mask(n);
        let b = b & mask(n);
        let bm = mask(bsz);

        // Phase 1: SPEC + ADD for every path (these run concurrently in
        // hardware; each uses only operand bits).
        let mut outcomes = Vec::with_capacity(paths);
        for k in 0..paths {
            let lo = k as u32 * bsz;
            let a_blk = (a >> lo) & bm;
            let b_blk = (b >> lo) & bm;
            let carry_in = if k == 0 { 0 } else { self.speculate(a, b, lo) };
            let raw = a_blk + b_blk + carry_in;
            outcomes.push(PathOutcome {
                carry_in,
                raw_sum: raw & bm,
                carry_out: raw >> bsz,
                fault: false,
                compensation: Compensation::NotNeeded,
                corrected_sum: raw & bm,
                final_sum: raw & bm,
            });
        }

        // Phase 2: COMP for every boundary k (between path k-1 and path k).
        // Fault detection compares this path's SPEC carry with the raw
        // carry-out of the previous path's ADD; the SPEC carry never
        // exceeds it, so a fault is a missed carry.
        let c = cfg.correction();
        let r = cfg.reduction();
        for k in 1..paths {
            let prev_cout = outcomes[k - 1].carry_out;
            let spec = outcomes[k].carry_in;
            debug_assert!(spec <= prev_cout, "SPEC at 0 cannot invent a carry");
            if spec == prev_cout {
                continue;
            }
            outcomes[k].fault = true;

            let local = outcomes[k].corrected_sum;
            // Incrementing the C-bit LSB group stays inside the group iff
            // the group is not all ones (otherwise the carry would overflow
            // internally; Fig. 2's uncorrectable case).
            if c > 0 && local & mask(c) != mask(c) {
                let fixed = local + 1;
                debug_assert_eq!(fixed & !bm, 0, "correction must stay in block");
                outcomes[k].corrected_sum = fixed;
                outcomes[k].compensation = Compensation::Corrected;
            } else if r > 0 {
                outcomes[k].compensation = Compensation::Reduced;
            } else {
                outcomes[k].compensation = Compensation::Unresolved;
            }
        }

        // Phase 3: apply final sums. Reduction triggered by path k's COMP
        // forces the R MSBs of the *preceding* block's sum to ones, bounding
        // the relative error of the uncorrected missed carry.
        for outcome in &mut outcomes {
            outcome.final_sum = outcome.corrected_sum;
        }
        for k in 1..paths {
            if outcomes[k].compensation == Compensation::Reduced {
                outcomes[k - 1].final_sum |= mask(r) << (bsz - r);
            }
        }

        let mut sum = 0u64;
        for (k, outcome) in outcomes.iter().enumerate() {
            sum |= outcome.final_sum << (k as u32 * bsz);
        }
        sum |= outcomes[paths - 1].carry_out << n;

        IsaAddition {
            sum,
            paths: outcomes,
        }
    }
}

impl SpeculativeAdder {
    /// Evaluates 64 independent ISA additions at once on bit planes: bit
    /// `l` of `a_planes[i]` / `b_planes[i]` is lane `l`'s operand bit `i`,
    /// and bit `l` of result plane `i` is lane `l`'s sum bit `i` (`width +
    /// 1` planes, carry-out last). Lane `l` of the result is bit-for-bit
    /// [`Adder::add`] of lane `l`'s operands — the word-level
    /// (SIMD-within-a-register) form of the behavioural model, mirroring
    /// the gate-level backend's plane evaluation: SPEC carry look-ahead,
    /// sub-ADD ripple, and COMP correction/reduction all become bitwise
    /// recurrences over planes.
    ///
    /// # Panics
    ///
    /// Panics if the plane counts differ from the operand width.
    #[must_use]
    pub fn add_planes(&self, a_planes: &[u64], b_planes: &[u64]) -> Vec<u64> {
        self.add_planes_in(&mut WordPlanes, a_planes, b_planes)
    }

    /// [`SpeculativeAdder::add_planes`] generalised over any
    /// [`PlaneAlgebra`]: the same SPEC/ADD/COMP recurrences, evaluated in
    /// whatever plane representation the algebra provides. With
    /// [`WordPlanes`] this *is* the bit-sliced hot path (and monomorphises
    /// to identical code); with a symbolic algebra (see `isa-prove`) each
    /// returned plane is a Boolean function of the operand-bit planes passed
    /// in, covering every input pair at once.
    ///
    /// # Panics
    ///
    /// Panics if the plane counts differ from the operand width.
    pub fn add_planes_in<A: PlaneAlgebra>(
        &self,
        alg: &mut A,
        a_planes: &[A::Plane],
        b_planes: &[A::Plane],
    ) -> Vec<A::Plane> {
        let cfg = &self.config;
        let n = cfg.width() as usize;
        assert_eq!(a_planes.len(), n, "expected {n} a-planes");
        assert_eq!(b_planes.len(), n, "expected {n} b-planes");
        let bsz = cfg.block_size() as usize;
        let paths = cfg.num_paths() as usize;
        let s = cfg.spec_size() as usize;
        let c = cfg.correction() as usize;
        let r = cfg.reduction() as usize;

        let g: Vec<A::Plane> = (0..n)
            .map(|i| alg.and(&a_planes[i], &b_planes[i]))
            .collect();
        let p: Vec<A::Plane> = (0..n)
            .map(|i| alg.xor(&a_planes[i], &b_planes[i]))
            .collect();

        // Phase 1: SPEC + ADD per path (plane ripple per block; the carry
        // recurrence c' = g | (p & c) is the plane form of MAJ3).
        let mut sum = vec![alg.zero(); n + 1];
        let mut spec_in = Vec::with_capacity(paths);
        let mut cout = Vec::with_capacity(paths);
        for k in 0..paths {
            let lo = k * bsz;
            // SPEC: the window's group generate (0 for path 0 and S = 0).
            let mut cin = alg.zero();
            if k > 0 {
                for i in lo - s..lo {
                    let t = alg.and(&p[i], &cin);
                    cin = alg.or(&g[i], &t);
                }
            }
            let mut carry = cin.clone();
            for i in lo..lo + bsz {
                sum[i] = alg.xor(&p[i], &carry);
                let t = alg.and(&p[i], &carry);
                carry = alg.or(&g[i], &t);
            }
            spec_in.push(cin);
            cout.push(carry);
        }

        // Phase 2: COMP per boundary k. The SPEC carry never exceeds the
        // previous carry-out, so a fault is a missed carry (+1): the C-bit
        // LSB correction increments block k, and where the fault stands
        // the reduction forces ones onto the R MSBs of block k-1, which
        // boundary k-1 has already corrected.
        for k in 1..paths {
            let lo = k * bsz;
            let missed = alg.andn(&cout[k - 1], &spec_in[k]);
            let residual = if c > 0 {
                let mut group_and = alg.one();
                for slot in &sum[lo..lo + c] {
                    group_and = alg.and(&group_and, slot);
                }
                // The increment absorbs the fault iff the group is not all
                // ones (Fig. 2's internal-overflow rule).
                let corrected = alg.andn(&missed, &group_and);
                let mut inc = corrected.clone();
                for slot in &mut sum[lo..lo + c] {
                    let bit = slot.clone();
                    *slot = alg.xor(&bit, &inc);
                    inc = alg.and(&inc, &bit);
                }
                alg.debug_assert_false(&inc);
                alg.andn(&missed, &corrected)
            } else {
                missed
            };
            for slot in &mut sum[lo - r..lo] {
                *slot = alg.or(slot, &residual);
            }
        }

        sum[n] = cout[paths - 1].clone();
        sum
    }
}

impl Adder for SpeculativeAdder {
    fn width(&self) -> u32 {
        self.config.width()
    }

    fn add(&self, a: u64, b: u64) -> u64 {
        self.add_traced(a, b).sum
    }

    fn label(&self) -> String {
        self.config.to_string()
    }

    /// Bit-sliced stream evaluation: 64 additions per plane pass through
    /// [`SpeculativeAdder::add_planes`], reading the packed planes' `a` and
    /// `b` halves, with the plane buffer reused across chunks.
    fn add_batch(&self, pairs: &[(u64, u64)]) -> Vec<u64> {
        let width = self.config.width();
        let mut out = vec![0u64; pairs.len()];
        let mut planes = vec![0u64; 2 * width as usize];
        for (chunk, sums) in pairs.chunks(LANES).zip(out.chunks_mut(LANES)) {
            pack_pairs(width, chunk, &mut planes);
            let (a_planes, b_planes) = planes.split_at(width as usize);
            unpack_lanes(&self.add_planes(a_planes, b_planes), sums);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::ExactAdder;

    fn isa(width: u32, b: u32, s: u32, c: u32, r: u32) -> SpeculativeAdder {
        SpeculativeAdder::new(IsaConfig::new(width, b, s, c, r).unwrap())
    }

    #[test]
    fn no_cross_boundary_carry_is_exact() {
        let adder = isa(32, 8, 0, 0, 0);
        // Operands whose block sums never carry out: every block < 0x80.
        let a = 0x11_22_33_44;
        let b = 0x22_11_40_33;
        assert_eq!(adder.add(a, b), a + b);
    }

    #[test]
    fn missed_carry_without_compensation_loses_the_carry() {
        let adder = isa(32, 8, 0, 0, 0);
        // Block 0 carries out, SPEC guesses 0 for block 1: sum is short by
        // 2^8 unless block 1 would have propagated it further.
        let a = 0x0000_00FF;
        let b = 0x0000_0001;
        let exact = a + b; // 0x100
        let got = adder.add(a, b);
        assert_eq!(got, exact - 0x100);
        assert_eq!(got, 0);
    }

    #[test]
    fn trace_reports_fault_and_direction() {
        let adder = isa(32, 8, 0, 0, 0);
        let trace = adder.add_traced(0x0000_00FF, 0x0000_0001);
        assert_eq!(trace.fault_count(), 1);
        assert!(trace.paths[1].fault);
        // A missed carry: block 0 carried out, SPEC speculated 0.
        assert_eq!((trace.paths[0].carry_out, trace.paths[1].carry_in), (1, 0));
        assert_eq!(trace.paths[1].compensation, Compensation::Unresolved);
        assert!(!trace.paths[0].fault);
    }

    #[test]
    fn spec_window_catches_generated_carry() {
        // With S=2, a carry generated within the 2-bit window below the
        // boundary is speculated correctly.
        let adder = isa(32, 8, 2, 0, 0);
        // Bits 6..8 of both operands set: window (bits 6,7) generates.
        let a = 0x0000_00C0;
        let b = 0x0000_00C0;
        assert_eq!(adder.add(a, b), a + b);
    }

    #[test]
    fn spec_window_cannot_see_carry_from_below_window() {
        // Carry generated at bit 0 propagating through bits 1..8: the 2-bit
        // window is all-propagate, so the carry is guessed 0 and missed.
        let adder = isa(32, 8, 2, 0, 0);
        let a = 0x0000_00FF;
        let b = 0x0000_0001;
        let exact = a + b;
        assert_eq!(adder.add(a, b), exact - 0x100);
    }

    #[test]
    fn full_spec_window_only_misses_full_propagate_blocks() {
        let adder = isa(32, 8, 8, 0, 0);
        // Carry generated in block 0 itself: full window sees it.
        assert_eq!(adder.add(0x0000_00C0, 0x0000_00C0), 0x180);
        // Carry entering block 1 from block 0 while block 1's *window*
        // (block 0) generates it — always caught with S == B.
        let a = 0x0000_80FF;
        let b = 0x0000_0001;
        assert_eq!(adder.add(a, b), a + b);
    }

    #[test]
    fn correction_fixes_single_missed_carry() {
        let adder = isa(32, 8, 0, 1, 0);
        // Block 1 local sum has LSB 0 => increment is absorbed by the 1-bit
        // correction group.
        let a = 0x0000_02FF; // block1 = 0x02
        let b = 0x0000_0001;
        assert_eq!(adder.add(a, b), a + b);
        let trace = adder.add_traced(a, b);
        assert_eq!(trace.paths[1].compensation, Compensation::Corrected);
    }

    #[test]
    fn correction_impossible_when_group_all_ones() {
        let adder = isa(32, 8, 0, 1, 0);
        // Block 1 local sum LSB is 1 => incrementing the 1-bit group would
        // overflow it: correction impossible, no reduction configured.
        let a = 0x0000_01FF; // block1 = 0x01
        let b = 0x0000_0001;
        let trace = adder.add_traced(a, b);
        assert_eq!(trace.paths[1].compensation, Compensation::Unresolved);
        assert_eq!(adder.add(a, b), (a + b) - 0x100);
    }

    #[test]
    fn reduction_forces_preceding_msbs() {
        let adder = isa(32, 8, 0, 0, 4);
        // Missed carry at boundary 8; block 0 sum is 0x00 after the carry
        // out (0xFF + 0x01 = 0x100): reduction forces bits 4..8 to ones.
        let a = 0x0000_00FF;
        let b = 0x0000_0001;
        let exact = a + b; // 0x100
        let got = adder.add(a, b);
        assert_eq!(got, 0x0F0);
        let e = got as i64 - exact as i64;
        assert_eq!(e, -16);
        let trace = adder.add_traced(a, b);
        assert_eq!(trace.paths[1].compensation, Compensation::Reduced);
    }

    #[test]
    fn reduction_bounds_error_better_than_nothing() {
        let plain = isa(32, 8, 0, 0, 0);
        let reduced = isa(32, 8, 0, 0, 4);
        let exact = ExactAdder::new(32);
        let mut cases = 0u32;
        let mut seed = 0x1234_5678_9abc_def0u64;
        for _ in 0..1000 {
            // Cheap xorshift: deterministic and dependency-free.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let a = seed & 0xFFFF_FFFF;
            let b = (seed >> 32) & 0xFFFF_FFFF;
            let d = exact.add(a, b) as i64;
            let e_plain = (plain.add(a, b) as i64 - d).unsigned_abs();
            let e_red = (reduced.add(a, b) as i64 - d).unsigned_abs();
            assert!(
                e_red <= e_plain,
                "reduction must never increase |E|: a={a:#x} b={b:#x}"
            );
            if e_plain > 0 {
                cases += 1;
            }
        }
        assert!(cases > 100, "expected plenty of faulting samples");
    }

    #[test]
    fn correction_preferred_over_reduction() {
        let adder = isa(32, 8, 0, 1, 4);
        let a = 0x0000_02FF;
        let b = 0x0000_0001;
        let trace = adder.add_traced(a, b);
        assert_eq!(trace.paths[1].compensation, Compensation::Corrected);
        assert_eq!(adder.add(a, b), a + b);
    }

    #[test]
    fn fig2_style_mixed_compensation() {
        // (8,0,1,4): one boundary correctable, another not.
        let adder = isa(32, 8, 0, 1, 4);
        // Block 0 carries out; block 1 local sum odd => uncorrectable =>
        // reduction on block 0. Block 1 also carries out; block 2 local sum
        // even => corrected.
        let a = 0x0002_FFFF;
        let b = 0x0000_0201;
        let trace = adder.add_traced(a, b);
        assert_eq!(trace.paths[1].compensation, Compensation::Reduced);
        assert_eq!(trace.paths[2].compensation, Compensation::Corrected);
    }

    #[test]
    fn carry_out_bit_present() {
        let adder = isa(32, 16, 0, 0, 0);
        let a = 0xFFFF_FFFF;
        let b = 0xFFFF_0000;
        // Top block generates a carry out regardless of speculation.
        let got = adder.add(a, b);
        assert_eq!(got >> 32, 1, "bit 32 must carry the top block's cout");
    }

    #[test]
    fn single_path_design_is_exact() {
        let adder = isa(32, 32, 0, 0, 0);
        let exact = ExactAdder::new(32);
        for (a, b) in [
            (0u64, 0u64),
            (1, 2),
            (0xFFFF_FFFF, 1),
            (0xDEAD_BEEF, 0xCAFE_F00D),
        ] {
            assert_eq!(adder.add(a, b), exact.add(a, b));
        }
    }

    #[test]
    fn path0_is_always_exact() {
        let adder = isa(32, 8, 0, 0, 0);
        for (a, b) in [(0xFFu64, 0xFFu64), (0x7F, 0x80), (0, 0)] {
            let trace = adder.add_traced(a, b);
            assert_eq!(trace.paths[0].final_sum, (a + b) & 0xFF);
            assert!(!trace.paths[0].fault);
        }
    }

    #[test]
    fn wide_operands_are_masked() {
        let adder = isa(16, 8, 0, 0, 0);
        assert_eq!(adder.add(0xF_0003, 0xA_0004), 7);
    }

    #[test]
    fn label_is_quadruple() {
        assert_eq!(isa(32, 16, 7, 0, 8).label(), "(16,7,0,8)");
    }

    #[test]
    fn add_planes_exhaustive_8bit() {
        // Every (block, spec, corr, red) shape class over all 65536 operand
        // pairs: plane evaluation must be bit-for-bit the scalar model.
        let shapes = [(4, 0, 0, 0), (4, 2, 1, 2), (4, 4, 0, 2), (2, 1, 1, 1)];
        let pairs: Vec<(u64, u64)> = (0..1u64 << 16).map(|v| (v & 0xFF, v >> 8)).collect();
        for &(b, s, c, r) in &shapes {
            let adder = isa(8, b, s, c, r);
            let batched = adder.add_batch(&pairs);
            for (&(a, x), &got) in pairs.iter().zip(&batched) {
                assert_eq!(got, adder.add(a, x), "({b},{s},{c},{r}) a={a:#x} b={x:#x}");
            }
        }
    }

    #[test]
    fn every_fault_is_a_missed_carry() {
        // The invariant the single +1 compensation rests on: the SPEC
        // carry never exceeds the previous ADD's carry-out, at every
        // boundary of every (B, S) shape over all 65536 8-bit operand
        // pairs. Compensation touches neither carry, so C = R = 0.
        for b in [1u32, 2, 4, 8] {
            for s in 0..=b {
                let adder = isa(8, b, s, 0, 0);
                for v in 0..1u64 << 16 {
                    let (a, x) = (v & 0xFF, v >> 8);
                    let paths = adder.add_traced(a, x).paths;
                    for k in 1..paths.len() {
                        assert!(
                            paths[k].carry_in <= paths[k - 1].carry_out,
                            "({b},{s},0,0) boundary {k} a={a:#x} b={x:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn add_batch_matches_scalar_for_paper_designs() {
        let mut seed = 0xDA7E_2017u64;
        let mut pairs = Vec::with_capacity(500);
        for _ in 0..500 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            pairs.push((seed & 0xFFFF_FFFF, seed >> 32));
        }
        // Directed carry-chain corners on top of the random sweep.
        pairs.extend([
            (0, 0),
            (u64::MAX, 1),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
            (0x7FFF_FFFF, 1),
            (0x5555_5555, 0xAAAA_AAAA),
        ]);
        for cfg in crate::designs::paper_isa_configs() {
            let adder = SpeculativeAdder::new(cfg);
            let batched = adder.add_batch(&pairs);
            for (&(a, b), &got) in pairs.iter().zip(&batched) {
                assert_eq!(got, adder.add(a, b), "{cfg} a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn add_batch_handles_ragged_tail_and_empty() {
        let adder = isa(32, 8, 2, 1, 4);
        assert!(adder.add_batch(&[]).is_empty());
        let pairs: Vec<(u64, u64)> = (0..67u64).map(|i| (i * 0xFFFF, i)).collect();
        let batched = adder.add_batch(&pairs);
        assert_eq!(batched.len(), 67);
        assert_eq!(batched[66], adder.add(66 * 0xFFFF, 66));
    }

    #[test]
    fn trace_sum_matches_add() {
        let adder = isa(32, 8, 2, 1, 4);
        let mut seed = 42u64;
        for _ in 0..500 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = seed >> 32;
            let b = seed & 0xFFFF_FFFF;
            assert_eq!(adder.add(a, b), adder.add_traced(a, b).sum);
        }
    }
}
