//! The lint pipeline: pass orchestration, gating and the public entry
//! points.
//!
//! Passes run cheapest-and-most-fundamental first, and later passes are
//! *gated* on the earlier ones: replay and timing analysis of a graph
//! with structural errors would only drown the root cause in follow-on
//! noise (and the classifier audit could not even build its tables), so
//! each stage runs only when every prior stage reported no
//! Error-severity finding. The returned [`LintReport`] always contains
//! the findings of every stage that ran.

use std::time::Instant;

use isa_core::Adder;
use isa_netlist::classify::LaneClassifier;
use isa_netlist::tape::InstructionTape;
use isa_netlist::timing::DelayAnnotation;
use isa_netlist::{AdderNetlist, Netlist};

use crate::diag::{Diagnostic, LintReport, Locus, Rule, Severity};
use crate::level::Levelization;
use crate::{audit, structural, tapecheck, timing, Splitmix};

/// Battery sizes for one lint run.
///
/// The defaults are what `DesignContext::try_build` uses: small enough
/// that linting stays a low single-digit percentage of synthesis time,
/// large enough that every battery covers hundreds of 64-lane vectors.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// 64-lane input batteries for the levelization replay proof.
    pub replay_batteries: usize,
    /// 64-lane batteries for the instruction-tape replay proof (each
    /// battery covers the scalar executor plus one full vector chunk).
    pub tape_batteries: usize,
    /// 64-lane batteries for the group-P/G semantic re-proof.
    pub audit_batteries: usize,
    /// 64-lane random batteries (plus fixed corners) for the functional
    /// comparison against the golden model.
    pub functional_batteries: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        Self {
            replay_batteries: 1,
            tape_batteries: 1,
            audit_batteries: 1,
            functional_batteries: 1,
        }
    }
}

fn no_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().all(|d| d.severity != Severity::Error)
}

/// Lints an adder design end to end, building the lane classifier itself
/// when the audit stage is reached.
///
/// `gold` is the behavioural golden model the netlist must agree with
/// (pass `None` to skip the functional stage — e.g. when no behavioural
/// reference exists for a foreign netlist).
#[must_use]
pub fn lint_adder(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    gold: Option<&dyn Adder>,
    options: &LintOptions,
) -> LintReport {
    lint_adder_inner(adder, annotation, None, gold, options)
}

/// Like [`lint_adder`], but audits a classifier the caller already built
/// (the engine passes its memoized one, keeping the classifier's own
/// construction time out of the lint budget).
#[must_use]
pub fn lint_adder_with_classifier(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    classifier: &LaneClassifier,
    gold: Option<&dyn Adder>,
    options: &LintOptions,
) -> LintReport {
    lint_adder_inner(adder, annotation, Some(classifier), gold, options)
}

fn lint_adder_inner(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    classifier: Option<&LaneClassifier>,
    gold: Option<&dyn Adder>,
    options: &LintOptions,
) -> LintReport {
    let start = Instant::now();
    let netlist = adder.netlist();

    // Stage 1: structure (including the adder I/O convention).
    let mut diagnostics = structural::check_sans_loops(netlist);
    diagnostics.extend(structural::check_adder_io(netlist, adder.width()));
    let levelization = run_levelization(netlist, options, &mut diagnostics);
    let structurally_sound = no_errors(&diagnostics);

    // Stage 2: timing — only on a sound graph (STA on a cyclic or
    // misdriven netlist is meaningless).
    let mut annotation_clean = false;
    if structurally_sound {
        let found = timing::check_annotation(netlist, annotation);
        annotation_clean = found.is_empty();
        diagnostics.extend(found);
        if annotation_clean {
            diagnostics.extend(timing::check_timing_graph(netlist, annotation));
        }
    }

    // Stage 3: function — needs only a sound graph.
    if structurally_sound {
        if let Some(gold) = gold {
            check_functional(adder, gold, options.functional_batteries, &mut diagnostics);
        }
    }

    // Stage 4: classifier conservatism audit — needs everything above
    // (the settle-table recomputation trusts the delays and the graph).
    if annotation_clean && no_errors(&diagnostics) {
        let built;
        let classifier = match classifier {
            Some(c) => c,
            None => {
                built = LaneClassifier::build(adder, annotation);
                &built
            }
        };
        diagnostics.extend(audit::check_classifier(
            adder,
            annotation,
            classifier,
            options.audit_batteries,
        ));
    }

    LintReport {
        design: netlist.name().to_string(),
        diagnostics,
        levelization,
        elapsed: start.elapsed(),
    }
}

/// Builds and (on a sound graph) replay-verifies the levelization,
/// folding any findings into `diagnostics`.
///
/// A successful Kahn schedule is itself a proof of acyclicity, so the
/// Tarjan SCC pass runs only on failure, to name the cycle's members
/// rather than merely reporting that some cells are stuck.
fn run_levelization(
    netlist: &Netlist,
    options: &LintOptions,
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<Levelization> {
    match Levelization::build(netlist) {
        Ok(lv) => {
            if no_errors(diagnostics) {
                diagnostics.extend(lv.verify(netlist, options.replay_batteries));
                // The tape compiler consumes this exact schedule; compile
                // it the way the engine does and re-prove the lowering
                // bit-identical to `evaluate_words` (rules tape.shape /
                // tape.replay).
                if no_errors(diagnostics) {
                    let tape = InstructionTape::compile_from_levels(netlist, lv.levels());
                    diagnostics.extend(tapecheck::verify_tape(
                        netlist,
                        &tape,
                        options.tape_batteries,
                    ));
                }
            }
            Some(lv)
        }
        Err(d) => {
            structural::check_loops(netlist, diagnostics);
            // Tarjan names the cycle with its member list; keep the bare
            // levelization failure only when it is the sole witness.
            if !diagnostics.iter().any(|x| x.rule == Rule::CombLoop) {
                diagnostics.push(d);
            }
            None
        }
    }
}

/// Compares the netlist against the behavioural golden model on fixed
/// corner vectors plus seeded random batteries (64 pairs per battery via
/// the bit-sliced path, which also exercises `add_batch` itself).
fn check_functional(
    adder: &AdderNetlist,
    gold: &dyn Adder,
    batteries: usize,
    diagnostics: &mut Vec<Diagnostic>,
) {
    if gold.width() != adder.width() {
        diagnostics.push(Diagnostic::new(
            Rule::FunctionalMismatch,
            Locus::Design,
            format!(
                "golden model is {} bits wide, netlist is {}",
                gold.width(),
                adder.width()
            ),
        ));
        return;
    }
    let mask = if adder.width() == 63 {
        u64::MAX >> 1
    } else {
        (1u64 << adder.width()) - 1
    };
    let mut pairs: Vec<(u64, u64)> = vec![
        (0, 0),
        (mask, mask),
        (mask, 1),
        (1, mask),
        (0, mask),
        (mask >> 1, (mask >> 1) + 1),
    ];
    let mut rng = Splitmix::new(0x46_554E_4354_494F ^ u64::from(adder.width()) << 48);
    for _ in 0..batteries {
        for _ in 0..64 {
            pairs.push((rng.next_u64() & mask, rng.next_u64() & mask));
        }
    }
    let got = adder.add_batch(&pairs);
    // The golden model side also goes through add_batch: behavioural
    // models with a bit-sliced evaluation (SpeculativeAdder) advance 64
    // pairs per pass there, which keeps this stage off the synthesis
    // critical path.
    let want_all = gold.add_batch(&pairs);
    let mut reported = 0usize;
    for ((&(a, b), &sum), &want) in pairs.iter().zip(&got).zip(&want_all) {
        if sum != want {
            diagnostics.push(Diagnostic::new(
                Rule::FunctionalMismatch,
                Locus::Design,
                format!("add({a:#x}, {b:#x}) = {sum:#x}, golden model says {want:#x}"),
            ));
            reported += 1;
            if reported >= 3 {
                break; // three witnesses are enough to act on
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::{apply_mutation, ALL_MUTATIONS};
    use isa_core::ExactAdder;
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::{build_exact, AdderTopology};

    fn nominal(adder: &AdderNetlist) -> DelayAnnotation {
        DelayAnnotation::nominal(adder.netlist(), &CellLibrary::industrial_65nm())
    }

    #[test]
    fn exact_designs_lint_clean() {
        for topology in [
            AdderTopology::Ripple,
            AdderTopology::KoggeStone,
            AdderTopology::Sklansky,
        ] {
            let adder = build_exact(16, topology);
            let ann = nominal(&adder);
            let gold = ExactAdder::new(16);
            let report = lint_adder(&adder, &ann, Some(&gold), &LintOptions::default());
            assert!(!report.has_errors(), "{topology:?}:\n{}", report.render());
            assert!(report.levelization.is_some());
        }
    }

    #[test]
    fn every_mutation_is_caught_with_its_rule() {
        let adder = build_exact(16, AdderTopology::KoggeStone);
        let ann = nominal(&adder);
        let gold = ExactAdder::new(16);
        for (i, &m) in ALL_MUTATIONS.iter().enumerate() {
            let mutated = apply_mutation(&adder, &ann, m, 41 + i as u64).unwrap();
            let report = lint_adder(
                &mutated.adder,
                &mutated.annotation,
                Some(&gold),
                &LintOptions::default(),
            );
            assert!(
                report.has_rule(mutated.expected),
                "{m:?} ({}) expected {} among:\n{}",
                mutated.description,
                mutated.expected.id(),
                report.render()
            );
            assert!(report.has_errors(), "{m:?} must be Error severity");
        }
    }

    #[test]
    fn memoized_classifier_path_matches_self_built() {
        let adder = build_exact(12, AdderTopology::Ripple);
        let ann = nominal(&adder);
        let cls = LaneClassifier::build(&adder, &ann);
        let gold = ExactAdder::new(12);
        let own = lint_adder(&adder, &ann, Some(&gold), &LintOptions::default());
        let given =
            lint_adder_with_classifier(&adder, &ann, &cls, Some(&gold), &LintOptions::default());
        assert_eq!(own.diagnostics, given.diagnostics);
        assert!(!given.has_errors());
    }

    #[test]
    fn wrong_gold_width_is_a_functional_error() {
        let adder = build_exact(8, AdderTopology::Ripple);
        let ann = nominal(&adder);
        let gold = ExactAdder::new(16);
        let report = lint_adder(&adder, &ann, Some(&gold), &LintOptions::default());
        assert!(report.has_rule(Rule::FunctionalMismatch));
    }
}
