//! Bit-exact cross-validation of the symbolic [`ErrorDistribution`]
//! against complete behavioural enumeration, and of the per-bit moment
//! program [`DesignAnalysis`] against the symbolic counts.
//!
//! On the twelve 8-bit seed miniatures of
//! `crates/core/tests/analysis_exhaustive.rs`, every count is
//! integer-equal to exhaustive enumeration and the RMS is
//! **bitwise**-equal to the float computed from the enumerated sum of
//! squares. The moment program must then equal the model counts on every
//! valid 8-bit design under both guesses and on the paper's 32-bit
//! designs, where enumeration cannot reach.

use isa_core::{
    paper_isa_configs, Adder, Design, DesignAnalysis, ExactAdder, IsaConfig, SpecGuess,
    SpeculativeAdder, PAPER_QUADRUPLES,
};
use isa_prove::ErrorDistribution;

/// The 8-bit miniature of a 32-bit paper quadruple — the same shrink rule
/// as `crates/core/tests/analysis_exhaustive.rs` (blocks 4x smaller,
/// window/compensation widths clamped without overlap).
fn miniature(quad: (u32, u32, u32, u32)) -> IsaConfig {
    let (b, s, c, r) = quad;
    let b8 = (b / 4).max(1);
    let c8 = c.min(b8);
    let r8 = r.min(b8 - c8);
    let s8 = s.min(b8);
    IsaConfig::new(8, b8, s8, c8, r8).expect("miniatures are valid by construction")
}

/// Exhaustive integer statistics over all 65 536 operand pairs:
/// `(zero_count, sum_e, sum_e2, max_e, min_e, pmf)`.
#[allow(clippy::type_complexity)]
fn exhaustive(cfg: &IsaConfig) -> (u128, i128, u128, i64, i64, Vec<(i64, u128)>) {
    let isa = SpeculativeAdder::new(*cfg);
    let exact = ExactAdder::new(8);
    let (mut zeros, mut sum, mut sum2) = (0u128, 0i128, 0u128);
    let (mut max_e, mut min_e) = (i64::MIN, i64::MAX);
    let mut pmf = std::collections::BTreeMap::<i64, u128>::new();
    for a in 0..256u64 {
        for b in 0..256u64 {
            let e = isa.add(a, b) as i64 - exact.add(a, b) as i64;
            zeros += u128::from(e == 0);
            sum += i128::from(e);
            sum2 += u128::from(e.unsigned_abs()) * u128::from(e.unsigned_abs());
            max_e = max_e.max(e);
            min_e = min_e.min(e);
            *pmf.entry(e).or_insert(0) += 1;
        }
    }
    (zeros, sum, sum2, max_e, min_e, pmf.into_iter().collect())
}

#[test]
fn twelve_seed_miniatures_match_enumeration_bit_exactly() {
    let mut configs: Vec<IsaConfig> = PAPER_QUADRUPLES.iter().map(|&q| miniature(q)).collect();
    configs.push(IsaConfig::new(8, 8, 0, 0, 0).unwrap());
    assert_eq!(configs.len(), 12);

    for cfg in &configs {
        let dist = ErrorDistribution::analyze(&Design::Isa(*cfg));
        let (zeros, sum, sum2, max_e, min_e, pmf) = exhaustive(cfg);

        // Integer-exact counts — no tolerance at all.
        let moments = dist.moments();
        assert_eq!(moments.zero_count(), zeros, "{cfg}");
        assert_eq!(moments.sum_error(), sum, "{cfg}");
        assert_eq!(moments.sum_squared_error(), (0, sum2), "{cfg}");
        assert_eq!(dist.max_error(), max_e, "{cfg}");
        assert_eq!(dist.min_error(), min_e, "{cfg}");
        assert_eq!(
            dist.pmf().expect("8-bit support fits the default cap"),
            pmf.as_slice(),
            "{cfg}"
        );

        // RMS is derived from the same integers through the same float
        // expression, so even the f64 bits must agree.
        let reference_rms = (sum2 as f64 / 65536.0).sqrt();
        assert_eq!(
            dist.rms_error().to_bits(),
            reference_rms.to_bits(),
            "{cfg}: symbolic RMS {} vs enumerated {}",
            dist.rms_error(),
            reference_rms
        );
    }
}

#[test]
fn miniature_rule_matches_the_core_harness() {
    // Guards against the shrink rule silently drifting from the one in
    // crates/core/tests/analysis_exhaustive.rs: spot-check the table.
    assert_eq!(miniature((8, 0, 1, 4)).to_string(), "(2,0,1,1)");
    assert_eq!(miniature((16, 7, 0, 8)).to_string(), "(4,4,0,4)");
}

/// Asserts the moment program counts what the BDD counts.
fn assert_program_matches_bdd(design: &Design) {
    let bdd = *ErrorDistribution::analyze_with_pmf_cap(design, 0).moments();
    let program = DesignAnalysis::analyze(design);
    assert_eq!(
        program,
        bdd,
        "{design} guess {:?}",
        design.isa_config().map(IsaConfig::guess)
    );
    assert_eq!(program.rms_error().to_bits(), bdd.rms_error().to_bits());
}

#[test]
fn moment_program_matches_bdd_on_every_8bit_design() {
    // Every block size, window, correction and reduction, overlapping
    // compensation included, under both guesses.
    let mut checked = 0;
    for b in [1u32, 2, 4, 8] {
        for s in 0..=b {
            for c in 0..=b {
                for r in 0..=b {
                    for guess in [SpecGuess::Zero, SpecGuess::One] {
                        let cfg = IsaConfig::with_guess(8, b, s, c, r, guess).unwrap();
                        assert_program_matches_bdd(&Design::Isa(cfg));
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 1778);
}

#[test]
fn moment_program_matches_bdd_on_the_paper_designs() {
    for cfg in paper_isa_configs() {
        assert_program_matches_bdd(&Design::Isa(cfg));
    }
    assert_program_matches_bdd(&Design::Exact { width: 32 });
}
