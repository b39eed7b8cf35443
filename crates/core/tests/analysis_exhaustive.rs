//! Exhaustive validation of the exact moment program ([`DesignAnalysis`])
//! against complete behavioural enumeration.
//!
//! A 32-bit operand space cannot be enumerated, so each of the paper's
//! twelve seed designs is mapped to an **8-bit miniature** that preserves
//! its path structure (same number of speculative paths: blocks shrink
//! 4×; SPEC/correction/reduction widths clamp into the shrunk block, with
//! `C + R <= B` kept as in the paper's designs). A guess-1 design and an
//! overlapping (`C + R > B`) one join them, and a property test draws
//! random 8-bit designs of either guess with any `C, R <= B`. Every design
//! is compared against *all 65 536 operand pairs*: the zero count, `Σe`
//! and `Σe²` must equal the enumerated integers, and the RMS must equal
//! the enumerated one to the last bit of its `f64`.
//!
//! `crates/prove/tests/exhaustive8.rs` pins the same program to the BDD
//! model counts on every valid 8-bit design and on the paper's 32-bit
//! designs.

use isa_core::{
    Adder, Design, DesignAnalysis, ExactAdder, IsaConfig, SpecGuess, SpeculativeAdder,
    PAPER_QUADRUPLES,
};
use proptest::prelude::*;

/// The 8-bit miniature of a 32-bit paper quadruple: blocks shrink 4×,
/// window/compensation widths clamp into the shrunk block without
/// overlapping.
fn miniature(quad: (u32, u32, u32, u32)) -> IsaConfig {
    let (b, s, c, r) = quad;
    let b8 = (b / 4).max(1);
    let c8 = c.min(b8);
    let r8 = r.min(b8 - c8);
    let s8 = s.min(b8);
    IsaConfig::new(8, b8, s8, c8, r8).expect("miniatures are valid by construction")
}

/// Exhaustive integer statistics over all 65 536 8-bit operand pairs:
/// `(zero count, Σe, Σe²)`.
fn exhaustive_counts(cfg: &IsaConfig) -> (u128, i128, u128) {
    assert_eq!(cfg.width(), 8, "exhaustive enumeration is 8-bit only");
    let isa = SpeculativeAdder::new(*cfg);
    let exact = ExactAdder::new(8);
    let (mut zeros, mut sum, mut sum2) = (0u128, 0i128, 0u128);
    for a in 0..256u64 {
        for b in 0..256u64 {
            let e = isa.add(a, b) as i64 - exact.add(a, b) as i64;
            zeros += u128::from(e == 0);
            sum += i128::from(e);
            sum2 += u128::from(e.unsigned_abs()).pow(2);
        }
    }
    (zeros, sum, sum2)
}

/// Asserts the program's moments equal enumeration, RMS to the bit.
fn assert_matches_enumeration(cfg: &IsaConfig) {
    let analysis = DesignAnalysis::analyze(&Design::Isa(*cfg));
    let (zeros, sum, sum2) = exhaustive_counts(cfg);
    let label = format!("{cfg} guess {:?}", cfg.guess());
    assert_eq!(analysis.zero_count(), zeros, "{label}");
    assert_eq!(analysis.sum_error(), sum, "{label}");
    assert_eq!(analysis.sum_squared_error(), (0, sum2), "{label}");
    let rms = (sum2 as f64 / 65536.0).sqrt();
    assert_eq!(
        analysis.rms_error().to_bits(),
        rms.to_bits(),
        "{label}: RMS {} vs enumerated {rms}",
        analysis.rms_error()
    );
}

#[test]
fn seed_miniatures_guess_one_and_overlap_match_enumeration_exactly() {
    // Eleven ISA miniatures plus the exact baseline modelled as the
    // degenerate single-path ISA (8,0,0,0) at width 8.
    let mut configs: Vec<IsaConfig> = PAPER_QUADRUPLES.iter().map(|&q| miniature(q)).collect();
    configs.push(IsaConfig::new(8, 8, 0, 0, 0).unwrap());
    assert_eq!(configs.len(), 12);
    // Guess 1 with correction and reduction, and a correction group that
    // overlaps the reduced bits.
    configs.push(IsaConfig::with_guess(8, 4, 1, 1, 2, SpecGuess::One).unwrap());
    configs.push(IsaConfig::new(8, 4, 1, 3, 2).unwrap());
    for cfg in &configs {
        assert_matches_enumeration(cfg);
    }
}

#[test]
fn error_free_miniatures_are_detected_as_such() {
    let cfg = IsaConfig::new(8, 8, 0, 0, 0).unwrap();
    let analysis = DesignAnalysis::analyze(&Design::Isa(cfg));
    assert_eq!(exhaustive_counts(&cfg), (65536, 0, 0));
    assert_eq!(analysis.error_rate(), 0.0);
    assert_eq!(analysis.mean_error(), 0.0);
    assert_eq!(analysis.rms_error(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random valid 8-bit designs of either guess, overlapping
    /// compensation included, match enumeration exactly.
    #[test]
    fn random_configs_match_enumeration_exactly(
        block_sel in 0u32..4,
        spec in 0u32..9,
        corr in 0u32..9,
        red in 0u32..9,
        one in any::<bool>(),
    ) {
        let b = [1u32, 2, 4, 8][block_sel as usize];
        let guess = if one { SpecGuess::One } else { SpecGuess::Zero };
        let cfg = IsaConfig::with_guess(8, b, spec.min(b), corr.min(b), red.min(b), guess)
            .expect("clamped parameters are valid");
        assert_matches_enumeration(&cfg);
    }
}
