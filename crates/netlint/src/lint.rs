//! The lint pipeline: pass orchestration, gating and the public entry
//! points.
//!
//! Passes run cheapest-and-most-fundamental first, and later passes are
//! *gated* on the earlier ones: tape replay and timing analysis of a graph
//! with structural errors would only drown the root cause in follow-on
//! noise (and the classifier audit could not even build its tables), so
//! each stage runs only when every prior stage reported no
//! Error-severity finding. The returned [`LintReport`] always contains
//! the findings of every stage that ran.
//!
//! Stage 1 compiles the instruction tape and replay-proves it against
//! `evaluate_words`; the functional stage then checks the golden model
//! against that same tape's sums, so a clean report vouches for the very
//! tape it hands to the engine.

use std::time::Instant;

use isa_core::Adder;
use isa_netlist::classify::LaneClassifier;
use isa_netlist::tape::{InstructionTape, Levelization};
use isa_netlist::timing::DelayAnnotation;
use isa_netlist::AdderNetlist;

use crate::diag::{Diagnostic, LintReport, Locus, Rule, Severity};
use crate::{audit, structural, tapecheck, timing, Splitmix};

/// 64-lane batteries per sampled proof: the tape replay (scalar executor
/// plus one vector chunk), the group-P/G re-proof and the functional
/// comparison (plus its fixed corners). One keeps linting a small share
/// of synthesis time on every `DesignContext::try_build`.
const BATTERIES: usize = 1;

/// Options for one lint run. It has no settings: every sampled proof runs
/// one 64-lane battery (tests that want deeper batteries call
/// [`tapecheck::verify_tape`] or [`audit::check_classifier`] directly).
#[derive(Debug, Clone, Default)]
pub struct LintOptions {}

fn no_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().all(|d| d.severity != Severity::Error)
}

/// Lints an adder design end to end, building the lane classifier itself
/// when the audit stage is reached.
///
/// `gold` is the behavioural golden model the netlist must agree with
/// (pass `None` to skip the functional stage — e.g. when no behavioural
/// reference exists for a foreign netlist). [`LintOptions`] has no
/// settings.
#[must_use]
pub fn lint_adder(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    gold: Option<&dyn Adder>,
    _options: &LintOptions,
) -> LintReport {
    lint_adder_inner(adder, annotation, None, gold)
}

/// Like [`lint_adder`], but audits a classifier the caller already built
/// (the engine passes the one its context keeps, leaving the classifier's
/// own construction time out of the lint budget).
#[must_use]
pub fn lint_adder_with_classifier(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    classifier: &LaneClassifier,
    gold: Option<&dyn Adder>,
    _options: &LintOptions,
) -> LintReport {
    lint_adder_inner(adder, annotation, Some(classifier), gold)
}

fn lint_adder_inner(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    classifier: Option<&LaneClassifier>,
    gold: Option<&dyn Adder>,
) -> LintReport {
    let start = Instant::now();
    let netlist = adder.netlist();

    // Stage 1: structure (including the adder I/O convention), then the
    // tape compiled from the netlist's level schedule, re-proven
    // bit-identical to `evaluate_words` (rules tape.shape / tape.replay).
    // The list-order rule gates the schedule, which needs that order.
    let mut diagnostics = structural::check(netlist);
    diagnostics.extend(structural::check_adder_io(adder));
    let (levelization, tape) = if no_errors(&diagnostics) {
        let levelization = Levelization::build(netlist);
        let tape = InstructionTape::compile_from_levels(netlist, levelization.levels());
        diagnostics.extend(tapecheck::verify_tape(netlist, &tape, BATTERIES));
        (Some(levelization), Some(tape))
    } else {
        (None, None)
    };
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

    // Stage 3: function — needs only a sound graph, whose tape stage 1
    // compiled and replay-proved; the sums come from that tape.
    if structurally_sound {
        if let (Some(tape), Some(gold)) = (&tape, gold) {
            check_functional(adder, tape, gold, BATTERIES, &mut diagnostics);
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
            adder, annotation, classifier, BATTERIES,
        ));
    }

    LintReport {
        design: netlist.name().to_string(),
        diagnostics,
        levelization,
        tape,
        elapsed: start.elapsed(),
    }
}

/// Compares the netlist against the behavioural golden model on fixed
/// corner vectors plus seeded random batteries (64 pairs per battery),
/// summed by [`AdderNetlist::add_batch_with_tape`] on the verified tape:
/// the evaluator the engine runs.
fn check_functional(
    adder: &AdderNetlist,
    tape: &InstructionTape,
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
    let got = adder.add_batch_with_tape(tape, &pairs);
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
    use isa_netlist::{build_exact, AdderTopology, CellId, NetDriver, Netlist, NetlistBuilder};

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
            assert_eq!(
                report.tape,
                Some(InstructionTape::compile(adder.netlist())),
                "{topology:?}: the report carries the verified tape"
            );
        }
    }

    #[test]
    fn reordered_list_is_a_topo_order_error_not_a_panic() {
        // `a -> inv -> inv -> y` with the two cells swapped: net ids still
        // ascend along both edges, but the first-listed cell reads a net
        // only the second drives, so every list-order sweep reads a stale
        // value (and the tape compiler would panic on it). An AND supplies
        // the width-1 adder's second input and output.
        let mut b = NetlistBuilder::new("inv_pair");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.inv(a);
        let y = b.inv(x);
        let carry = b.and2(a, c);
        b.mark_output(y, "sum[0]");
        b.mark_output(carry, "sum[1]");
        let (name, mut drivers, names, mut cells, inputs, outputs, onames) =
            b.finish().unwrap().into_raw_parts();
        cells.swap(0, 1);
        for (i, cell) in cells.iter().enumerate() {
            drivers[cell.output.index()] = NetDriver::Cell(CellId::from_index(i));
        }
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        let ann = DelayAnnotation::nominal(&nl, &CellLibrary::industrial_65nm());
        let adder = AdderNetlist::from_netlist(nl, 1);
        let report = lint_adder(&adder, &ann, None, &LintOptions::default());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::TopoOrder && d.severity == Severity::Error),
            "{}",
            report.render()
        );
        // No loop: Tarjan runs because list order broke, and finds none.
        assert!(!report.has_rule(Rule::AdderIo) && !report.has_rule(Rule::CombLoop));
        assert!(report.levelization.is_none() && report.tape.is_none());
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
