//! Instruction-tape verification: shape and replay rules.
//!
//! The tape compiler (`isa_netlist::tape`) lowers a netlist to the flat op
//! list the word hot path executes; a defect there corrupts *every*
//! backend result while the graph interpreter stays healthy. This pass
//! re-proves each compiled tape against the netlist it claims to
//! implement, and with it the level schedule the tape was compiled from
//! (the lint pipeline hands the proven tape to its caller):
//!
//! * **`tape.shape`** — the tape must have one op per cell, one arena slot
//!   per net, and primary I/O slot tables matching the netlist's input and
//!   output nets in declaration order.
//! * **`tape.replay`** — seeded random 64-lane batteries through the
//!   scalar (`u64`) executor *and* the `[u64; CHUNK]` vector-chunk
//!   executor must reproduce `Netlist::evaluate_words` on every net.
//!   Divergence is reported with the first offending net.

use isa_core::{ChunkPlanes, WordPlanes};
use isa_netlist::tape::{InstructionTape, CHUNK};
use isa_netlist::{NetId, Netlist};

use crate::diag::{Diagnostic, Locus, Rule};
use crate::Splitmix;

/// Checks a compiled tape against its netlist: shape first, then (only on
/// a well-shaped tape) `batteries` seeded replay batteries through both
/// executor widths.
#[must_use]
pub fn verify_tape(netlist: &Netlist, tape: &InstructionTape, batteries: usize) -> Vec<Diagnostic> {
    let mut diagnostics = check_shape(netlist, tape);
    if diagnostics.is_empty() {
        diagnostics.extend(check_replay(netlist, tape, batteries));
    }
    diagnostics
}

fn check_shape(netlist: &Netlist, tape: &InstructionTape) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let mut report = |message: String| {
        diagnostics.push(Diagnostic::new(Rule::TapeShape, Locus::Design, message));
    };
    if tape.op_count() != netlist.cell_count() {
        report(format!(
            "tape has {} ops for {} cells",
            tape.op_count(),
            netlist.cell_count()
        ));
    }
    if tape.slot_count() != netlist.net_count() {
        report(format!(
            "tape arena has {} slots for {} nets",
            tape.slot_count(),
            netlist.net_count()
        ));
    }
    let want_inputs: Vec<u32> = netlist.inputs().iter().map(|n| n.index() as u32).collect();
    if tape.input_slots() != want_inputs {
        report("tape input slots disagree with the netlist's input nets".into());
    }
    let want_outputs: Vec<u32> = netlist.outputs().iter().map(|n| n.index() as u32).collect();
    if tape.output_slots() != want_outputs {
        report("tape output slots disagree with the netlist's output nets".into());
    }
    diagnostics
}

fn check_replay(netlist: &Netlist, tape: &InstructionTape, batteries: usize) -> Vec<Diagnostic> {
    let pins = netlist.inputs().len();
    let mut rng = Splitmix::new(0x5441_5045_0000_0001 ^ ((pins as u64) << 32));
    let mut diagnostics = Vec::new();
    let mut arena = Vec::new();
    let mut chunk_arena: Vec<[u64; CHUNK]> = Vec::new();
    for battery in 0..batteries {
        // Scalar path: the arena must equal evaluate_words element for
        // element (both are net-indexed).
        let planes: Vec<u64> = (0..pins).map(|_| rng.next_u64()).collect();
        let expected = netlist.evaluate_words(&planes);
        tape.execute_into(&mut WordPlanes, &planes, &mut arena);
        if let Some(net) = (0..expected.len()).find(|&i| arena[i] != expected[i]) {
            diagnostics.push(Diagnostic::new(
                Rule::TapeReplay,
                Locus::Net(NetId::from_index(net)),
                format!(
                    "battery {battery}: scalar tape replay diverged \
                     (tape {:#018x}, evaluate_words {:#018x})",
                    arena[net], expected[net]
                ),
            ));
            return diagnostics;
        }

        // Vector path: CHUNK independent plane sets per sweep; element j
        // of every chunk must equal a scalar evaluation of set j.
        let sets: Vec<Vec<u64>> = (0..CHUNK)
            .map(|_| (0..pins).map(|_| rng.next_u64()).collect())
            .collect();
        let chunks: Vec<[u64; CHUNK]> = (0..pins)
            .map(|i| std::array::from_fn(|j| sets[j][i]))
            .collect();
        tape.execute_into(&mut ChunkPlanes::<CHUNK>, &chunks, &mut chunk_arena);
        for (j, set) in sets.iter().enumerate() {
            let expected = netlist.evaluate_words(set);
            if let Some(net) = (0..expected.len()).find(|&i| chunk_arena[i][j] != expected[i]) {
                diagnostics.push(Diagnostic::new(
                    Rule::TapeReplay,
                    Locus::Net(NetId::from_index(net)),
                    format!(
                        "battery {battery}: chunked tape replay diverged in chunk element {j} \
                         (tape {:#018x}, evaluate_words {:#018x})",
                        chunk_arena[net][j], expected[net]
                    ),
                ));
                return diagnostics;
            }
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::{build_exact, AdderTopology};

    fn tape16() -> (Netlist, InstructionTape) {
        let adder = build_exact(16, AdderTopology::KoggeStone);
        let netlist = adder.netlist().clone();
        let tape = InstructionTape::compile(&netlist);
        (netlist, tape)
    }

    #[test]
    fn clean_tape_verifies() {
        let (netlist, tape) = tape16();
        assert!(verify_tape(&netlist, &tape, 2).is_empty());
    }

    #[test]
    fn corrupted_op_operand_is_caught_by_replay() {
        // Fault injection: retarget one op's first operand to a different
        // (valid) arena slot. The tape still executes memory-safely and
        // keeps its shape, so only the replay rule can catch it.
        let (netlist, tape) = tape16();
        let (mut ops, runs, inputs, outputs, slots) = tape.into_raw_parts();
        let victim = ops.len() / 2;
        let original = ops[victim].a;
        ops[victim].a = (original + 1) % slots as u32;
        assert_ne!(ops[victim].a, original);
        let corrupted = InstructionTape::from_raw_parts(ops, runs, inputs, outputs, slots);
        let diagnostics = verify_tape(&netlist, &corrupted, 2);
        assert!(
            diagnostics.iter().any(|d| d.rule == Rule::TapeReplay),
            "corrupted operand must fail tape.replay: {diagnostics:?}"
        );
    }

    #[test]
    fn corrupted_output_slot_is_caught_by_replay() {
        // Redirect one op's *output* to another slot: later consumers read
        // a stale plane.
        let (netlist, tape) = tape16();
        let (mut ops, runs, inputs, outputs, slots) = tape.into_raw_parts();
        let victim = ops.len() / 3;
        ops[victim].out = (ops[victim].out + 1) % slots as u32;
        let corrupted = InstructionTape::from_raw_parts(ops, runs, inputs, outputs, slots);
        let diagnostics = verify_tape(&netlist, &corrupted, 2);
        assert!(diagnostics.iter().any(|d| d.rule == Rule::TapeReplay));
    }

    #[test]
    fn wrong_shape_is_caught_without_replay() {
        let (netlist, tape) = tape16();
        let (mut ops, mut runs, inputs, outputs, slots) = tape.into_raw_parts();
        // Drop the last op entirely: op count no longer matches the cell
        // count.
        ops.pop();
        if let Some(last) = runs.last_mut() {
            last.len -= 1;
        }
        let truncated = InstructionTape::from_raw_parts(ops, runs, inputs, outputs, slots);
        let diagnostics = verify_tape(&netlist, &truncated, 1);
        assert!(diagnostics.iter().any(|d| d.rule == Rule::TapeShape));
    }
}
