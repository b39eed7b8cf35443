//! Symbolic forward evaluation of gate-level netlists.
//!
//! [`Bdd`] is a [`PlaneAlgebra`](isa_core::PlaneAlgebra), so the netlist's
//! own interpreter, [`Netlist::evaluate_in`], turns every net into a
//! canonical BDD over the primary-input functions the caller supplies. Its
//! cell semantics are [`CellKind::eval_in`](isa_netlist::CellKind::eval_in),
//! the one cell truth table the tape and the simulators evaluate too; the
//! BDD's only own choice is [`Bdd::ite`] for the multiplexer.

use isa_netlist::Netlist;

use crate::bdd::{Bdd, Ref};

/// Symbolic values of the primary outputs (in declaration order) after one
/// sweep of the cell list. `input_fns[i]` is the function driven onto the
/// `i`-th primary input (typically a projection variable from
/// [`crate::spec::OperandVars`]).
///
/// # Panics
///
/// Panics if `input_fns` does not match the primary-input count.
pub fn output_functions(bdd: &mut Bdd, netlist: &Netlist, input_fns: &[Ref]) -> Vec<Ref> {
    let values = netlist.evaluate_in(bdd, input_fns);
    netlist
        .outputs()
        .iter()
        .map(|n| values[n.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::cell::ALL_CELL_KINDS;
    use isa_netlist::{build_exact, AdderTopology};

    #[test]
    fn all_cell_kinds_match_concrete_eval() {
        // The cell truth table over the BDD algebra (its `ite` multiplexer
        // included) against its word instance, on every pin assignment.
        for kind in ALL_CELL_KINDS {
            let arity = kind.arity();
            let mut bdd = Bdd::new(3);
            let vars: [Ref; 3] = std::array::from_fn(|v| bdd.var(v as u32));
            let f = kind.eval_in(&mut bdd, &vars[0], &vars[1], &vars[2]);
            for bits in 0..1u32 << arity {
                let ins: Vec<u64> = (0..arity).map(|i| u64::from(bits >> i & 1)).collect();
                assert_eq!(
                    bdd.eval(f, |v| bits >> v & 1 == 1),
                    kind.eval_word(&ins) & 1 == 1,
                    "{kind:?} ins={ins:?}"
                );
            }
        }
    }

    #[test]
    fn netlist_outputs_match_word_eval() {
        let adder = build_exact(6, AdderTopology::Sklansky);
        let nl = adder.netlist();
        let mut bdd = Bdd::new(12);
        let input_fns: Vec<Ref> = (0..12).map(|v| bdd.var(v)).collect();
        let outs = output_functions(&mut bdd, nl, &input_fns);
        for a in 0..64u64 {
            for b in 0..64u64 {
                let mut got = 0u64;
                for (i, &o) in outs.iter().enumerate() {
                    // Input order is a[0..6] then b[0..6]; var v maps to
                    // input pin v here (identity order for this test).
                    let bit = bdd.eval(o, |v| {
                        if v < 6 {
                            (a >> v) & 1 == 1
                        } else {
                            (b >> (v - 6)) & 1 == 1
                        }
                    });
                    got |= u64::from(bit) << i;
                }
                assert_eq!(got, a + b, "a={a} b={b}");
            }
        }
    }
}
