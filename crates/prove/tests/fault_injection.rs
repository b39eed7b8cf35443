//! Fault injection against the equivalence proof: netlint's `SwapPgKind`
//! mutation keeps the gate graph well-formed and corrupts only the
//! computed function — exactly what a proof over all operand pairs,
//! unlike sampling, is guaranteed to catch.

use isa_core::{paper_isa_configs, Design};
use isa_netlint::{apply_mutation, Mutation};
use isa_netlist::cell::CellLibrary;
use isa_netlist::timing::DelayAnnotation;
use isa_netlist::{build_exact, builders, AdderNetlist, AdderTopology};
use isa_prove::check_equivalence;

#[test]
fn equiv_fault_injection_is_caught_on_all_twelve_seed_designs() {
    let mut designs: Vec<(Design, AdderNetlist)> = paper_isa_configs()
        .into_iter()
        .map(|cfg| {
            let adder = builders::isa::build(&cfg, AdderTopology::Ripple).unwrap();
            (Design::Isa(cfg), adder)
        })
        .collect();
    designs.push((
        Design::Exact { width: 32 },
        build_exact(32, AdderTopology::Ripple),
    ));
    assert_eq!(designs.len(), 12);

    for (i, (design, adder)) in designs.iter().enumerate() {
        let ann = DelayAnnotation::nominal(adder.netlist(), &CellLibrary::industrial_65nm());
        let mutated = apply_mutation(adder, &ann, Mutation::SwapPgKind, 1000 + i as u64)
            .expect("every seed design has a propagate XOR to corrupt");
        let report = check_equivalence(design, &mutated.adder);
        assert!(
            !report.equivalent,
            "{design:?}: mutant not caught by the equivalence proof"
        );
        // The refutation must be a real witness, not just a verdict.
        let (a, b) = report
            .counterexample
            .expect("a refuted proof carries a counterexample");
        assert_ne!(
            mutated.adder.add(a, b),
            design.behavioural().add(a, b),
            "{design:?}: counterexample a={a:#x}, b={b:#x} is not a witness"
        );
    }
}
