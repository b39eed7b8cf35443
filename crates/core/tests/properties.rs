//! Property-based tests of the ISA behavioural model's invariants.

use isa_core::{
    combine, Adder, BitErrorDistribution, ErrorStats, ExactAdder, IsaConfig, OutputTriple,
    SpeculativeAdder,
};
use proptest::prelude::*;

/// Strategy over valid paper-shaped configurations (32-bit, 8/16-bit blocks).
fn config_strategy() -> impl Strategy<Value = IsaConfig> {
    (
        prop_oneof![Just(8u32), Just(16u32)],
        0u32..=7,
        0u32..=2,
        0u32..=8,
    )
        .prop_filter_map("valid config", |(b, s, c, r)| {
            IsaConfig::new(32, b, s.min(b), c.min(b), r.min(b)).ok()
        })
}

fn operand() -> impl Strategy<Value = u64> {
    0u64..=u32::MAX as u64
}

proptest! {
    /// A single-block ISA degenerates into the exact adder.
    #[test]
    fn single_block_is_exact(a in operand(), b in operand()) {
        let isa = SpeculativeAdder::new(IsaConfig::new(32, 32, 0, 0, 0).unwrap());
        let exact = ExactAdder::new(32);
        prop_assert_eq!(isa.add(a, b), exact.add(a, b));
    }

    /// With speculation at 0 the gold result can never exceed the exact sum:
    /// every fault is a missed carry, and compensation never overshoots.
    #[test]
    fn result_never_overshoots(cfg in config_strategy(), a in operand(), b in operand()) {
        let isa = SpeculativeAdder::new(cfg);
        let exact = ExactAdder::new(32);
        prop_assert!(isa.add(a, b) <= exact.add(a, b));
    }

    /// The absolute structural error is bounded by the sum of the possible
    /// per-boundary losses (one missed carry per non-LSB block).
    #[test]
    fn error_magnitude_is_bounded(cfg in config_strategy(), a in operand(), b in operand()) {
        let isa = SpeculativeAdder::new(cfg);
        let exact = ExactAdder::new(32);
        let e = isa.add(a, b) as i64 - exact.add(a, b) as i64;
        let bound: i64 = (1..cfg.num_paths())
            .map(|k| 1i64 << (k * cfg.block_size()))
            .sum();
        prop_assert!(e.abs() <= bound, "error {e} exceeds bound {bound} for {cfg}");
    }

    /// A fault-free trace implies an exact result.
    #[test]
    fn fault_free_implies_exact(cfg in config_strategy(), a in operand(), b in operand()) {
        let isa = SpeculativeAdder::new(cfg);
        let exact = ExactAdder::new(32);
        let trace = isa.add_traced(a, b);
        if trace.fault_count() == 0 {
            prop_assert_eq!(trace.sum, exact.add(a, b));
        }
    }

    /// Widening the reduction group never increases the error magnitude
    /// (pointwise, per input pair).
    #[test]
    fn wider_reduction_never_hurts(
        (b, s) in prop_oneof![Just((8u32, 0u32)), Just((8, 2)), Just((16, 1))],
        r1 in 0u32..=4,
        extra in 0u32..=4,
        a in operand(),
        x in operand(),
    ) {
        let r2 = r1 + extra;
        let exact = ExactAdder::new(32);
        let narrow = SpeculativeAdder::new(IsaConfig::new(32, b, s, 0, r1).unwrap());
        let wide = SpeculativeAdder::new(IsaConfig::new(32, b, s, 0, r2).unwrap());
        let d = exact.add(a, x) as i64;
        let e_narrow = (narrow.add(a, x) as i64 - d).abs();
        let e_wide = (wide.add(a, x) as i64 - d).abs();
        prop_assert!(e_wide <= e_narrow);
    }

    /// On a single-boundary design (two paths), widening the speculation
    /// window never increases the error magnitude: with no upstream
    /// boundary to interfere, the fault events of a wider window are a
    /// strict subset of a narrower one's.
    ///
    /// NOTE: this is deliberately NOT asserted for multi-boundary designs —
    /// fixing a carry at one boundary can push it into the next block where
    /// it is lost at *higher* significance (e.g. (32,8,S,0,0) with
    /// a=0xD06E3800, b=0x7991C800: S=3 loses 2^16, S=5 loses 2^24). The
    /// improvement from wider speculation is statistical, as
    /// `wider_spec_helps_on_average` checks.
    #[test]
    fn wider_spec_never_hurts_single_boundary(
        s1 in 0u32..=7,
        extra in 0u32..=3,
        a in 0u64..(1 << 16),
        b in 0u64..(1 << 16),
    ) {
        let s2 = (s1 + extra).min(8);
        let exact = ExactAdder::new(16);
        let narrow = SpeculativeAdder::new(IsaConfig::new(16, 8, s1, 0, 0).unwrap());
        let wide = SpeculativeAdder::new(IsaConfig::new(16, 8, s2, 0, 0).unwrap());
        let d = exact.add(a, b) as i64;
        prop_assert!((wide.add(a, b) as i64 - d).abs() <= (narrow.add(a, b) as i64 - d).abs());
    }

    /// On multi-boundary designs wider speculation helps in expectation:
    /// the mean absolute error over a fixed sample never increases with S.
    #[test]
    fn wider_spec_helps_on_average(seed in any::<u64>()) {
        let exact = ExactAdder::new(32);
        let sample: Vec<(u64, u64)> = (0..400u64)
            .map(|i| {
                let x = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (x >> 32, x & 0xFFFF_FFFF)
            })
            .collect();
        let mut last = f64::INFINITY;
        for s in [0u32, 2, 4, 8] {
            let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, s, 0, 0).unwrap());
            let mean: f64 = sample
                .iter()
                .map(|&(a, b)| (isa.add(a, b) as i64 - exact.add(a, b) as i64).abs() as f64)
                .sum::<f64>()
                / sample.len() as f64;
            prop_assert!(mean <= last + 1e-9, "S={s}: {mean} above {last}");
            last = mean;
        }
    }

    /// Correction, when it fires, fully absorbs the fault at its boundary:
    /// a trace whose every fault is corrected yields the exact sum.
    #[test]
    fn all_corrected_implies_exact(a in operand(), b in operand()) {
        let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, 0, 8, 0).unwrap());
        let exact = ExactAdder::new(32);
        let trace = isa.add_traced(a, b);
        let all_corrected = trace
            .paths
            .iter()
            .all(|p| !p.fault || p.compensation == isa_core::Compensation::Corrected);
        if all_corrected {
            prop_assert_eq!(trace.sum, exact.add(a, b));
        }
    }

    /// The low `B - R` bits of the result always match the exact sum: path 0
    /// is exact and only its top `R` bits can be touched by reduction.
    #[test]
    fn low_bits_of_path0_are_exact(cfg in config_strategy(), a in operand(), b in operand()) {
        let isa = SpeculativeAdder::new(cfg);
        let exact = ExactAdder::new(32);
        let keep = cfg.block_size() - cfg.reduction();
        let m = (1u64 << keep) - 1;
        prop_assert_eq!(isa.add(a, b) & m, exact.add(a, b) & m);
    }

    /// The joint error identity of Fig. 6 holds exactly in integers.
    #[test]
    fn joint_error_identity(d in operand(), g in operand(), s in operand()) {
        let t = OutputTriple::new(d, g, s);
        prop_assert_eq!(t.e_joint(), t.e_struct() + t.e_timing());
        prop_assert_eq!(t.e_joint(), s as i64 - d as i64);
    }

    /// Relative errors sum to the joint relative error (same denominator).
    #[test]
    fn relative_errors_are_additive(d in 1u64..=u32::MAX as u64, g in operand(), s in operand()) {
        let t = OutputTriple::new(d, g, s);
        prop_assert!((t.re_joint() - (t.re_struct() + t.re_timing())).abs() < 1e-9);
    }

    /// RMS dominates the mean absolute value; max dominates RMS.
    #[test]
    fn stats_ordering(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let s: ErrorStats = values.iter().copied().collect();
        prop_assert!(s.rms() * (1.0 + 1e-12) + 1e-9 >= s.mean_abs());
        prop_assert!(s.max_abs() + 1e-9 >= s.rms() * (1.0 - 1e-12));
    }

    /// Recording flips counts exactly the popcount of the XOR difference.
    #[test]
    fn bitdist_flip_counts(y in any::<u64>(), r in any::<u64>()) {
        let mut d = BitErrorDistribution::new(64);
        d.record_flips(y, r);
        let total: u64 = d.counts().iter().sum();
        prop_assert_eq!(total, (y ^ r).count_ones() as u64);
    }

    /// The structural component of the combination flow is independent of
    /// the silver stream.
    #[test]
    fn structural_component_independent_of_silver(seed in any::<u64>()) {
        let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, 0, 1, 4).unwrap());
        let inputs: Vec<(u64, u64)> = (0..100u64)
            .map(|i| {
                let x = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (x >> 32, x & 0xFFFF_FFFF)
            })
            .collect();
        let honest = combine::structural_errors(&isa, inputs.clone());
        let golds = isa.add_batch(&inputs);
        let chaotic: Vec<u64> = inputs.iter().map(|&(a, b)| (a ^ b) & 0xFFFF_FFFF).collect();
        let with_noise = combine::combine_errors(32, &inputs, &golds, &chaotic);
        prop_assert_eq!(honest.re_struct.rms(), with_noise.re_struct.rms());
    }
}

mod lane_batch {
    use isa_core::batch::{pack_pairs, unpack_lanes, LANES};
    use isa_core::{Adder, ExactAdder, MAX_WIDTH};
    use proptest::prelude::*;

    proptest! {
        /// The 63/64 boundary: a full-width (63-bit) batch still packs, and
        /// the width+1-bit exact sum of each lane fits a u64 — the same
        /// `ExactAdder`/`mask` boundary documented on `MAX_WIDTH`.
        #[test]
        fn width_63_boundary_sums_fit(seed in any::<u64>()) {
            let exact = ExactAdder::new(MAX_WIDTH);
            let mask = (1u64 << MAX_WIDTH) - 1;
            let pairs: Vec<(u64, u64)> = (0..LANES as u64)
                .map(|i| {
                    let x = seed.wrapping_mul(6364136223846793005).wrapping_add(i);
                    (x & mask, x.rotate_left(31) & mask)
                })
                .collect();
            let w = MAX_WIDTH as usize;
            let mut planes = vec![0u64; 2 * w];
            pack_pairs(MAX_WIDTH, &pairs, &mut planes);
            let (mut a, mut b) = ([0u64; LANES], [0u64; LANES]);
            unpack_lanes(&planes[..w], &mut a);
            unpack_lanes(&planes[w..], &mut b);
            for l in 0..LANES {
                prop_assert_eq!(exact.add(a[l], b[l]), a[l] + b[l]);
            }
        }
    }
}
