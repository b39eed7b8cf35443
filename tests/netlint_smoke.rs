//! Tier-1 netlint battery: every seed design must lint clean, the
//! instruction tape its context keeps must be the netlist's compiled tape
//! and replay bit-identically against `evaluate_words`, every seeded
//! netlist mutation must be caught by the matching rule at Error severity
//! on every seed design, and randomly sampled valid quadruple-grid designs
//! must lint clean end to end.
//!
//! This is the integration-level proof behind the `DesignContext` gate:
//! `try_build` rejects designs with Error findings, so these tests are
//! what keeps that gate from ever rejecting a legitimate design (false
//! positive) or passing a corrupted one (false negative).

use isa_core::{enumerate_quadruples, paper_designs, Design};
use isa_engine::{BuildError, DesignContext, ExperimentConfig};
use isa_netlint::{apply_mutation, lint_adder, verify_tape, LintOptions, Severity, ALL_MUTATIONS};
use isa_netlist::InstructionTape;
use proptest::prelude::*;

fn build(design: Design) -> DesignContext {
    DesignContext::try_build(design, &ExperimentConfig::default())
        .unwrap_or_else(|e| panic!("{design} must build: {e}"))
}

#[test]
fn all_twelve_seed_designs_lint_clean() {
    let designs = paper_designs();
    assert_eq!(designs.len(), 12);
    for design in designs {
        let ctx = build(design);
        assert!(
            !ctx.lint.has_errors(),
            "{design} has lint errors:\n{}",
            ctx.lint.render()
        );
        assert!(
            ctx.lint.levelization.is_some(),
            "{design} must carry its level schedule"
        );
    }
}

#[test]
fn verified_tape_replays_bit_identically_on_every_seed() {
    for design in paper_designs() {
        let ctx = build(design);
        let netlist = ctx.synthesized.adder.netlist();
        // Deeper than the try_build default: four batteries per design,
        // every net compared against the list-order sweep.
        let findings = verify_tape(netlist, ctx.tape(), 4);
        assert!(findings.is_empty(), "{design}: {findings:?}");
        assert_eq!(
            *ctx.tape(),
            InstructionTape::compile(netlist),
            "{design}: the context keeps the netlist's compiled tape"
        );
    }
}

#[test]
fn every_mutation_is_caught_on_every_seed_design() {
    for (d, design) in paper_designs().into_iter().enumerate() {
        let ctx = build(design);
        for (m, &mutation) in ALL_MUTATIONS.iter().enumerate() {
            let mutated = apply_mutation(
                &ctx.synthesized.adder,
                &ctx.annotation,
                mutation,
                0x5EED ^ ((d as u64) << 8) ^ m as u64,
            )
            .unwrap_or_else(|| panic!("{design}: no {mutation:?} site"));
            let report = lint_adder(
                &mutated.adder,
                &mutated.annotation,
                Some(ctx.gold.as_ref()),
                &LintOptions::default(),
            );
            assert!(
                report.has_rule(mutated.expected),
                "{design} + {mutation:?} ({}) must trigger {}, got:\n{}",
                mutated.description,
                mutated.expected.id(),
                report.render()
            );
            assert_eq!(
                mutated.expected.severity(),
                Severity::Error,
                "{mutation:?} must map to an Error-severity rule"
            );
            assert!(
                report.has_errors(),
                "{design} + {mutation:?} must be rejected"
            );
        }
    }
}

proptest! {
    /// Every *valid* quadruple-grid design lints clean: sampling the
    /// width-16 grid, `try_build` either fails in synthesis (infeasible
    /// quadruple — fine) or yields a context whose lint has no errors.
    /// A `BuildError::Lint` here would mean the analyzer rejects a
    /// legitimate design.
    #[test]
    fn sampled_grid_designs_lint_clean(pick in any::<u64>()) {
        let grid = enumerate_quadruples(16);
        let config = grid[(pick % grid.len() as u64) as usize];
        match DesignContext::try_build(Design::Isa(config), &ExperimentConfig::default()) {
            Ok(ctx) => prop_assert!(
                !ctx.lint.has_errors(),
                "{config:?} carries lint errors:\n{}",
                ctx.lint.render()
            ),
            Err(BuildError::Synthesis(_)) => {} // infeasible quadruple
            Err(BuildError::Lint(report)) => prop_assert!(
                false,
                "valid design {config:?} rejected by lint:\n{}",
                report.render()
            ),
        }
    }
}
