//! Structural well-formedness passes over the gate graph.
//!
//! Everything here works on the netlist alone (no timing): the
//! topological list-order contract `evaluate_words` and the level schedule
//! rely on, combinational loops via iterative Tarjan SCC, single-driver /
//! floating-net / driver bookkeeping, dead-cell cone-of-influence analysis
//! from the primary outputs, pin arities, output naming and the adder I/O
//! convention.
//!
//! Netlists built through [`NetlistBuilder`](isa_netlist::NetlistBuilder)
//! cannot violate these invariants (malformed graphs are unrepresentable);
//! the passes exist for foreign netlists ingested through
//! [`Netlist::from_raw_parts`](isa_netlist::Netlist::from_raw_parts) — and
//! for the fault-injection battery that proves each rule actually fires.

use std::collections::HashMap;

use isa_netlist::{AdderNetlist, CellId, NetDriver, NetId, Netlist};

use crate::diag::{Diagnostic, Locus, Rule};

/// Runs every structural pass and returns the findings in rule order.
///
/// Combinational-loop detection (Tarjan) runs only when the list-order
/// rule fired: a loop always breaks list order, so on an ordered list it
/// could find nothing, and on a broken one it names the loop's members.
#[must_use]
pub fn check(netlist: &Netlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_outputs(netlist, &mut out);
    check_arity(netlist, &mut out);
    check_drivers(netlist, &mut out);
    let ordered = check_topo_order(netlist, &mut out);
    check_cone_of_influence(netlist, &mut out);
    check_output_names(netlist, &mut out);
    if !ordered {
        check_loops(netlist, &mut out);
    }
    out
}

/// Adder I/O convention: the operand width must lie in the supported
/// `1..=63` range. The pin counts (`2 * width` primary inputs, `a` then
/// `b` LSB first, and `width + 1` primary outputs) need no check here:
/// [`AdderNetlist::from_netlist`] already asserts them.
#[must_use]
pub fn check_adder_io(adder: &AdderNetlist) -> Vec<Diagnostic> {
    let width = adder.width();
    if (1..=63).contains(&width) {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Rule::AdderIo,
        Locus::Design,
        format!("adder width {width} outside the supported 1..=63 range"),
    )]
}

fn check_outputs(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    if netlist.outputs().is_empty() {
        out.push(Diagnostic::new(
            Rule::NoOutputs,
            Locus::Design,
            "netlist declares no primary outputs",
        ));
    }
}

fn check_arity(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    for (i, cell) in netlist.cells().iter().enumerate() {
        let expected = cell.kind.arity();
        if cell.inputs.len() != expected {
            out.push(Diagnostic::new(
                Rule::BadArity,
                Locus::Cell(CellId::from_index(i)),
                format!(
                    "{} has {} input pins, its kind takes {expected}",
                    cell.kind,
                    cell.inputs.len()
                ),
            ));
        }
    }
}

/// Single-driver and floating-net checks, plus consistency between the
/// per-net driver table and the cell list (they are redundant storage, so
/// any disagreement means one of them lies).
fn check_drivers(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let net_count = netlist.net_count();
    let cell_count = netlist.cell_count();

    // Driver counts as witnessed by the cell list itself. Flat count
    // arrays, not per-net lists: this runs on every `try_build`, and the
    // member list is only needed for the (rare) violation message, where
    // it is recomputed by a second scan.
    let mut cell_driver_count = vec![0u32; net_count];
    for cell in netlist.cells() {
        cell_driver_count[cell.output.index()] += 1;
    }
    let declared_input: Vec<bool> = {
        let mut v = vec![false; net_count];
        for n in netlist.inputs() {
            v[n.index()] = true;
        }
        v
    };
    let mut is_output = vec![false; net_count];
    for n in netlist.outputs() {
        is_output[n.index()] = true;
    }

    for index in 0..net_count {
        let net = NetId::from_index(index);
        let declared = netlist.driver(net);
        let from_cells = cell_driver_count[index] as usize;
        let driver_total = from_cells + usize::from(declared_input[index]);

        if driver_total > 1 {
            let cells = netlist
                .cells()
                .iter()
                .enumerate()
                .filter(|(_, cell)| cell.output == net)
                .map(|(i, _)| CellId::from_index(i).to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let also_input = if declared_input[index] {
                " and the primary-input list"
            } else {
                ""
            };
            out.push(Diagnostic::new(
                Rule::MultiDriven,
                Locus::Net(net),
                format!("net driven by {cells}{also_input}"),
            ));
        }

        match declared {
            NetDriver::Input => {
                if !declared_input[index] {
                    out.push(Diagnostic::new(
                        Rule::DriverBookkeeping,
                        Locus::Net(net),
                        "driver table says primary input, but the net is not in the input list",
                    ));
                }
            }
            NetDriver::Cell(id) => {
                if id.index() >= cell_count {
                    out.push(Diagnostic::new(
                        Rule::FloatingNet,
                        Locus::Net(net),
                        format!(
                            "driver table points at cell {id}, which does not exist \
                             ({cell_count} cells) — the net has no driver"
                        ),
                    ));
                } else if netlist.cell(id).output != net {
                    out.push(Diagnostic::new(
                        Rule::DriverBookkeeping,
                        Locus::Net(net),
                        format!("driver table points at {id}, whose output is a different net"),
                    ));
                }
            }
        }

        // A net nothing drives: an error as soon as anything reads it
        // (cells or a primary output sample X), a mere observation
        // otherwise — an unread undriven net is dead, not wrong.
        let undriven = from_cells == 0 && !declared_input[index];
        let declared_dangling = matches!(declared, NetDriver::Cell(id) if id.index() >= cell_count);
        if undriven && !declared_dangling {
            let read = !netlist.fanout(net).is_empty() || is_output[index];
            if read {
                out.push(Diagnostic::new(
                    Rule::FloatingNet,
                    Locus::Net(net),
                    "net is read but has no driver",
                ));
            }
        }
    }
}

/// Combinational-loop detection: iterative Tarjan SCC over the cell graph
/// (edge `p -> c` when `c` reads `p`'s output). Every SCC of size two or
/// more — and every self-reading cell — is a combinational loop.
fn check_loops(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let n = netlist.cell_count();
    // Successor lists from the fanout index (derived from the cells, so
    // consistent even when the driver table lies).
    let successors = |cell: usize| -> &[CellId] { netlist.fanout(netlist.cells()[cell].output) };

    const UNVISITED: u32 = u32::MAX;
    let mut index_of = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    // Explicit DFS frames: (node, next successor position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index_of[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index_of[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = successors(v).get(*child) {
                *child += 1;
                let w = w.index();
                if index_of[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index_of[w]);
                }
                continue;
            }
            // v is exhausted: pop, propagate lowlink, emit its SCC root.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[v]);
            }
            if lowlink[v] == index_of[v] {
                let mut component = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                let self_loop = component.len() == 1
                    && successors(component[0]).contains(&CellId::from_index(component[0]));
                if component.len() > 1 || self_loop {
                    component.sort_unstable();
                    let members = component
                        .iter()
                        .map(|&c| CellId::from_index(c).to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.push(Diagnostic::new(
                        Rule::CombLoop,
                        Locus::Cell(CellId::from_index(component[0])),
                        format!(
                            "combinational loop through {} cell(s): {members}",
                            component.len()
                        ),
                    ));
                }
            }
        }
    }
}

/// The list-order contract: every cell input must be a primary input or
/// the output of an earlier-listed cell, so the single forward sweep of
/// `evaluate_words` (and the level schedule, built by the same sweep)
/// sees settled values. Net ids play no part: a reordered list with
/// ascending ids still reads stale values. Returns whether the list is in
/// order.
fn check_topo_order(netlist: &Netlist, out: &mut Vec<Diagnostic>) -> bool {
    let mut defined = vec![false; netlist.net_count()];
    for &input in netlist.inputs() {
        defined[input.index()] = true;
    }
    let mut ordered = true;
    for (i, cell) in netlist.cells().iter().enumerate() {
        // One finding per cell is enough.
        if let Some(input) = cell.inputs.iter().find(|n| !defined[n.index()]) {
            ordered = false;
            out.push(Diagnostic::new(
                Rule::TopoOrder,
                Locus::Cell(CellId::from_index(i)),
                format!(
                    "cell reads {input}, which neither a primary input nor an earlier-listed \
                     cell drives — a single forward sweep would see a stale value"
                ),
            ));
        }
        defined[cell.output.index()] = true;
    }
    ordered
}

/// Cone-of-influence from the primary outputs: cells (and primary inputs)
/// that cannot reach any output are dead — reported as warnings, since
/// dead logic is wasteful and usually unintended but computes nothing
/// wrong.
fn check_cone_of_influence(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    if netlist.outputs().is_empty() {
        return; // NoOutputs already fired; everything would be "dead".
    }
    let live_net = netlist.live_nets();
    // Dead cells are routine for speculative synthesis (truncated lanes
    // leave orphaned logic), so a design gets ONE aggregated warning per
    // rule rather than one per cell — cheaper to produce and far easier
    // to read than hundreds of near-identical lines. The locus is the
    // first affected cell/net so the finding still points into the graph.
    let mut dead = 0usize;
    let mut first_dead = 0usize;
    let mut members = String::new();
    for (i, cell) in netlist.cells().iter().enumerate() {
        if !live_net[cell.output.index()] {
            if dead == 0 {
                first_dead = i;
            }
            if dead < 8 {
                use std::fmt::Write as _;
                let _ = write!(
                    members,
                    "{}c{i}:{}",
                    if dead == 0 { "" } else { ", " },
                    cell.kind
                );
            }
            dead += 1;
        }
    }
    if dead > 0 {
        let more = dead.saturating_sub(8);
        let suffix = if more > 0 {
            format!(" (+{more} more)")
        } else {
            String::new()
        };
        out.push(Diagnostic::new(
            Rule::DeadCell,
            Locus::Cell(CellId::from_index(first_dead)),
            format!("{dead} cell(s) feed no primary output: {members}{suffix}"),
        ));
    }
    let mut unused = 0usize;
    let mut first_pin = 0usize;
    let mut pins = String::new();
    for (pin, &n) in netlist.inputs().iter().enumerate() {
        if !live_net[n.index()] {
            if unused == 0 {
                first_pin = pin;
            }
            if unused < 8 {
                use std::fmt::Write as _;
                let name = netlist.net_name(n).unwrap_or("?");
                let _ = write!(
                    pins,
                    "{}{pin} ({name})",
                    if unused == 0 { "" } else { ", " }
                );
            }
            unused += 1;
        }
    }
    if unused > 0 {
        let more = unused.saturating_sub(8);
        let suffix = if more > 0 {
            format!(" (+{more} more)")
        } else {
            String::new()
        };
        out.push(Diagnostic::new(
            Rule::UnusedInput,
            Locus::Net(netlist.inputs()[first_pin]),
            format!("{unused} primary input(s) reach no primary output: {pins}{suffix}"),
        ));
    }
}

fn check_output_names(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for i in 0..netlist.outputs().len() {
        let name = netlist.output_name(i);
        if let Some(&first) = seen.get(name) {
            out.push(Diagnostic::new(
                Rule::DuplicateOutputName,
                Locus::Output(i),
                format!("output name {name:?} already used by output {first}"),
            ));
        } else {
            seen.insert(name, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::NetlistBuilder;

    fn clean() -> Netlist {
        let mut b = NetlistBuilder::new("clean");
        let a = b.input("a");
        let x = b.input("b");
        let s = b.xor2(a, x);
        let c = b.and2(a, x);
        b.mark_output(s, "sum");
        b.mark_output(c, "carry");
        b.finish().unwrap()
    }

    #[test]
    fn builder_netlists_are_clean() {
        let findings = check(&clean());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn self_loop_is_detected() {
        let nl = clean();
        let (name, drivers, names, mut cells, inputs, outputs, onames) = nl.into_raw_parts();
        // Make the XOR read its own output.
        cells[0].inputs[0] = cells[0].output;
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        let findings = check(&nl);
        assert!(
            findings
                .iter()
                .any(|d| d.rule == Rule::CombLoop && d.severity == crate::Severity::Error),
            "{findings:?}"
        );
    }

    #[test]
    fn two_cell_cycle_is_one_loop_finding() {
        let nl = clean();
        let (name, drivers, names, mut cells, inputs, outputs, onames) = nl.into_raw_parts();
        // XOR reads AND's output; AND already reads... make them mutual.
        let xor_out = cells[0].output;
        let and_out = cells[1].output;
        cells[0].inputs[0] = and_out;
        cells[1].inputs[0] = xor_out;
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        let loops: Vec<_> = check(&nl)
            .into_iter()
            .filter(|d| d.rule == Rule::CombLoop)
            .collect();
        assert_eq!(loops.len(), 1, "one SCC, one finding: {loops:?}");
        assert!(loops[0].message.contains("2 cell(s)"));
    }

    #[test]
    fn dropped_driver_is_floating() {
        let nl = clean();
        let (name, drivers, names, mut cells, inputs, outputs, onames) = nl.into_raw_parts();
        cells.pop(); // drop the AND driving the carry output
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        let findings = check(&nl);
        assert!(
            findings.iter().any(|d| d.rule == Rule::FloatingNet),
            "{findings:?}"
        );
    }

    #[test]
    fn multi_driven_net_is_flagged() {
        let nl = clean();
        let (name, drivers, names, mut cells, inputs, outputs, onames) = nl.into_raw_parts();
        // Point the AND's output at the XOR's output net.
        cells[1].output = cells[0].output;
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        let findings = check(&nl);
        assert!(
            findings.iter().any(|d| d.rule == Rule::MultiDriven),
            "{findings:?}"
        );
    }

    #[test]
    fn dead_cell_and_unused_input_warn() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("a");
        let x = b.input("b");
        let _dead = b.and2(a, a); // never read
        let y = b.inv(a);
        b.mark_output(y, "y");
        let _ = x; // declared but unused input
        let nl = b.finish().unwrap();
        let findings = check(&nl);
        assert!(findings.iter().any(|d| d.rule == Rule::DeadCell));
        assert!(findings.iter().any(|d| d.rule == Rule::UnusedInput));
        assert!(
            findings
                .iter()
                .all(|d| d.severity != crate::Severity::Error),
            "dead logic must warn, not error: {findings:?}"
        );
    }

    #[test]
    fn duplicate_output_names_warn() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("a");
        let y = b.inv(a);
        b.mark_output(y, "y");
        b.mark_output(a, "y");
        let nl = b.finish().unwrap();
        let findings = check(&nl);
        assert!(findings.iter().any(|d| d.rule == Rule::DuplicateOutputName));
    }

    /// A netlist of the adder I/O shape for `width` (each output reads an
    /// input or a constant; only the shape matters here).
    fn adder_shaped(width: u32) -> AdderNetlist {
        let mut b = NetlistBuilder::new("shape");
        let mut nets = b.input_bus("a", width);
        nets.extend(b.input_bus("b", width));
        nets.push(b.const0());
        for (i, &net) in nets.iter().take(width as usize + 1).enumerate() {
            b.mark_output(net, format!("sum[{i}]"));
        }
        AdderNetlist::from_netlist(b.finish().unwrap(), width)
    }

    #[test]
    fn adder_io_checks_the_width_range() {
        // 2 inputs, 2 outputs: a width-1 adder.
        assert!(check_adder_io(&AdderNetlist::from_netlist(clean(), 1)).is_empty());
        assert!(check_adder_io(&adder_shaped(63)).is_empty());
        for width in [0, 64] {
            let findings = check_adder_io(&adder_shaped(width));
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].rule, Rule::AdderIo);
            assert!(findings[0].message.contains("1..=63"), "{findings:?}");
        }
    }
}
