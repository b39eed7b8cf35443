//! Symbolic forward evaluation of gate-level netlists.
//!
//! One topological sweep turns every net of a [`Netlist`] into a canonical
//! BDD over the primary-input functions supplied by the caller — the
//! symbolic counterpart of [`Netlist::evaluate_words`]. The per-kind
//! formulas mirror [`CellKind::eval_word`] exactly; the `match` is
//! exhaustive, so adding a cell kind without a symbolic semantics fails
//! to compile.

use isa_netlist::{CellKind, NetDriver, Netlist};

use crate::bdd::{Bdd, Op, Ref};

/// Symbolic value of one cell output from its symbolic inputs.
///
/// # Panics
///
/// Panics if `ins` does not match the kind's arity.
pub fn eval_cell(bdd: &mut Bdd, kind: CellKind, ins: &[Ref]) -> Ref {
    assert_eq!(ins.len(), kind.arity(), "arity mismatch for {kind:?}");
    match kind {
        CellKind::Const0 => bdd.zero(),
        CellKind::Const1 => bdd.one(),
        CellKind::Buf => ins[0],
        CellKind::Inv => bdd.not(ins[0]),
        CellKind::And2 => bdd.apply(Op::And, ins[0], ins[1]),
        CellKind::Or2 => bdd.apply(Op::Or, ins[0], ins[1]),
        CellKind::Xor2 => bdd.apply(Op::Xor, ins[0], ins[1]),
        CellKind::Nand2 => {
            let t = bdd.apply(Op::And, ins[0], ins[1]);
            bdd.not(t)
        }
        CellKind::Nor2 => {
            let t = bdd.apply(Op::Or, ins[0], ins[1]);
            bdd.not(t)
        }
        CellKind::Xnor2 => {
            let t = bdd.apply(Op::Xor, ins[0], ins[1]);
            bdd.not(t)
        }
        // Mux2 input order is [d0, d1, sel]: Y = sel ? d1 : d0.
        CellKind::Mux2 => bdd.ite(ins[2], ins[1], ins[0]),
        CellKind::Ao21 => {
            let t = bdd.apply(Op::And, ins[0], ins[1]);
            bdd.apply(Op::Or, t, ins[2])
        }
        CellKind::Oa21 => {
            let t = bdd.apply(Op::Or, ins[0], ins[1]);
            bdd.apply(Op::And, t, ins[2])
        }
        CellKind::Aoi21 => {
            let t = bdd.apply(Op::And, ins[0], ins[1]);
            let u = bdd.apply(Op::Or, t, ins[2]);
            bdd.not(u)
        }
        CellKind::Oai21 => {
            let t = bdd.apply(Op::Or, ins[0], ins[1]);
            let u = bdd.apply(Op::And, t, ins[2]);
            bdd.not(u)
        }
        CellKind::Maj3 => {
            let ab = bdd.apply(Op::And, ins[0], ins[1]);
            let ac = bdd.apply(Op::And, ins[0], ins[2]);
            let bc = bdd.apply(Op::And, ins[1], ins[2]);
            let t = bdd.apply(Op::Or, ab, ac);
            bdd.apply(Op::Or, t, bc)
        }
        CellKind::And3 => {
            let t = bdd.apply(Op::And, ins[0], ins[1]);
            bdd.apply(Op::And, t, ins[2])
        }
        CellKind::Or3 => {
            let t = bdd.apply(Op::Or, ins[0], ins[1]);
            bdd.apply(Op::Or, t, ins[2])
        }
        CellKind::Xor3 => {
            let t = bdd.apply(Op::Xor, ins[0], ins[1]);
            bdd.apply(Op::Xor, t, ins[2])
        }
    }
}

/// Symbolic values of **all** nets after one topological sweep, indexed by
/// net id. `input_fns[i]` is the function driven onto the `i`-th primary
/// input (typically a projection variable from
/// [`crate::spec::OperandVars`]).
///
/// # Panics
///
/// Panics if `input_fns` does not match the primary-input count.
pub fn net_functions(bdd: &mut Bdd, netlist: &Netlist, input_fns: &[Ref]) -> Vec<Ref> {
    assert_eq!(
        input_fns.len(),
        netlist.inputs().len(),
        "primary input count mismatch"
    );
    // Nets not driven yet default to zero; creation order is topological,
    // so every cell's inputs are final before the cell is visited.
    let mut values = vec![bdd.zero(); netlist.net_count()];
    for (&net, &f) in netlist.inputs().iter().zip(input_fns) {
        values[net.index()] = f;
    }
    let mut ins: Vec<Ref> = Vec::with_capacity(3);
    for cell in netlist.cells() {
        ins.clear();
        ins.extend(cell.inputs.iter().map(|n| values[n.index()]));
        values[cell.output.index()] = eval_cell(bdd, cell.kind, &ins);
    }
    values
}

/// Symbolic values of the primary outputs only (in declaration order).
///
/// # Panics
///
/// Panics if `input_fns` does not match the primary-input count.
pub fn output_functions(bdd: &mut Bdd, netlist: &Netlist, input_fns: &[Ref]) -> Vec<Ref> {
    let values = net_functions(bdd, netlist, input_fns);
    netlist
        .outputs()
        .iter()
        .map(|n| values[n.index()])
        .collect()
}

/// The nets in the transitive fanin of the primary outputs (the "live"
/// cone), as a bitmask by net index. Dead logic — cells whose output can
/// never reach an output — is excluded from settle-bound analyses because
/// its value never influences an observable signal.
#[must_use]
pub fn live_nets(netlist: &Netlist) -> Vec<bool> {
    let mut live = vec![false; netlist.net_count()];
    let mut stack: Vec<usize> = netlist.outputs().iter().map(|n| n.index()).collect();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut live[i], true) {
            continue;
        }
        if let NetDriver::Cell(c) = netlist.driver(isa_netlist::NetId::from_index(i)) {
            stack.extend(netlist.cell(c).inputs.iter().map(|n| n.index()));
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::{build_exact, AdderTopology};

    #[test]
    fn all_cell_kinds_match_concrete_eval() {
        use isa_netlist::cell::ALL_CELL_KINDS;
        for kind in ALL_CELL_KINDS {
            let arity = kind.arity();
            let mut bdd = Bdd::new(3);
            let vars: Vec<Ref> = (0..arity as u32).map(|v| bdd.var(v)).collect();
            let f = eval_cell(&mut bdd, kind, &vars);
            for bits in 0..1u32 << arity {
                let ins: Vec<u64> = (0..arity).map(|i| u64::from(bits >> i & 1)).collect();
                assert_eq!(
                    bdd.eval(f, |v| ins[v as usize] == 1),
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

    #[test]
    fn live_cone_covers_everything_in_a_pure_adder() {
        let adder = build_exact(8, AdderTopology::Ripple);
        let nl = adder.netlist();
        let live = live_nets(nl);
        // A ripple adder has no dead logic: every net feeds the outputs.
        assert!(nl
            .inputs()
            .iter()
            .chain(nl.outputs())
            .all(|n| live[n.index()]));
    }
}
