//! The segment-seam contract of batched feature extraction.
//!
//! On the gate-level production path a run's input stream is dealt to 64
//! lanes in contiguous segments, and the simulated circuit restarts from
//! reset at every segment seam. The predictor's `x[t-1]` features must follow the
//! *physical* predecessor, so the batched extraction
//! ([`cycles_with_segment_resets`]) has to equal the scalar path —
//! [`CyclePair::from_stream`] applied to each segment independently — for
//! every stream length, especially the non-multiple-of-64 ones whose last
//! segment is ragged. The extraction cuts the stream at the
//! `isa_core::LaneSchedule` seams (`i % segment_len(n) == 0`), and the
//! prediction and guardband pipelines call it; this test pins that
//! contract.

use isa_core::segment_len;
use isa_engine::cycles_with_segment_resets;
use isa_learn::CyclePair;
use proptest::prelude::*;

/// Deterministic pseudo-random per-cycle records (SplitMix64-style).
fn raw_stream(n: usize, seed: u64) -> Vec<(u64, u64, u64, u64)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| (next(), next(), next(), next() & 0xFF))
        .collect()
}

proptest! {
    /// Batched extraction == per-segment scalar extraction, for ragged and
    /// exact lengths alike.
    #[test]
    fn batched_features_equal_per_segment_scalar(n in 1usize..500, seed in any::<u64>()) {
        let raw = raw_stream(n, seed);
        let batched = cycles_with_segment_resets(&raw);
        let seg = segment_len(n);
        let mut expected: Vec<CyclePair> = Vec::with_capacity(n);
        for chunk in raw.chunks(seg) {
            expected.extend(CyclePair::from_stream(chunk));
        }
        prop_assert_eq!(batched, expected);
    }

    /// Every seam position starts from the all-zero reset predecessor, and
    /// every non-seam position chains the true predecessor.
    #[test]
    fn seams_reset_and_interiors_chain(n in 65usize..400, seed in any::<u64>()) {
        // Lengths above 64 guarantee at least one interior seam; skip the
        // exact multiples so the ragged tail is always exercised.
        prop_assume!(n % 64 != 0);
        let raw = raw_stream(n, seed);
        let seg = segment_len(n);
        let cycles = cycles_with_segment_resets(&raw);
        prop_assert_eq!(cycles.len(), n);
        for (i, cycle) in cycles.iter().enumerate() {
            if i % seg == 0 {
                prop_assert_eq!((cycle.a_prev, cycle.b_prev, cycle.gold_prev), (0, 0, 0));
            } else {
                let (pa, pb, pg, _) = raw[i - 1];
                prop_assert_eq!((cycle.a_prev, cycle.b_prev, cycle.gold_prev), (pa, pb, pg));
            }
            let (a, b, gold, flips) = raw[i];
            prop_assert_eq!((cycle.a, cycle.b, cycle.gold, cycle.flips), (a, b, gold, flips));
        }
    }
}
