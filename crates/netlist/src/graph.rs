//! Gate-level netlist representation.
//!
//! A [`Netlist`] is a DAG of standard cells over single-bit nets. The
//! [`NetlistBuilder`] can only reference nets that already exist, so built
//! netlists are combinational-loop-free *by construction* and the cell
//! creation order is a valid topological order; [`Netlist::validate`]
//! re-checks these invariants for netlists obtained by other means.
//!
//! [`Netlist::evaluate_in`] is the one zero-delay interpreter: one sweep
//! of the cell list in that order through [`CellKind::eval_in`], in any
//! plane algebra. Its 64-lane word instance [`Netlist::evaluate_words`] is
//! the oracle of the compiled
//! [`InstructionTape`](crate::tape::InstructionTape), which is what
//! production evaluates; scalar callers read its lane 0
//! ([`Netlist::evaluate_outputs_u64`]), and `isa-prove` runs it over BDD
//! nodes.

use std::error::Error;
use std::fmt;

use isa_core::{PlaneAlgebra, WordPlanes};

use crate::cell::{CellKind, CellLibrary};

/// Identifier of a single-bit net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(u32);

impl NetId {
    /// Index into per-net storage.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a storage index (for iteration over a
    /// [`Netlist`]'s nets).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(u32::try_from(index).expect("net index overflow"))
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u32);

impl CellId {
    /// Index into per-cell storage.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a storage index (for iteration over a
    /// [`Netlist`]'s cells).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(u32::try_from(index).expect("cell index overflow"))
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One cell instance: a kind, its input nets and its output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The cell's logic function.
    pub kind: CellKind,
    /// Input nets, in the pin order documented on [`CellKind`].
    pub inputs: Vec<NetId>,
    /// The net driven by this cell.
    pub output: NetId,
}

impl Cell {
    /// The three operand nets [`CellKind::eval_in`] reads, in pin order.
    /// Operands past the pin count alias the first pin (the output net
    /// for a constant), so each one names a valid net.
    pub(crate) fn operands(&self) -> [NetId; 3] {
        let first = self.inputs.first().copied().unwrap_or(self.output);
        std::array::from_fn(|i| self.inputs.get(i).copied().unwrap_or(first))
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// The net is a primary input.
    Input,
    /// The net is driven by a cell.
    Cell(CellId),
}

/// Structural validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A cell reads a net that is neither a primary input nor the output
    /// of an earlier-listed cell, so the one forward sweep of
    /// [`Netlist::evaluate_words`] would read a stale value — impossible
    /// via the builder, checked for foreign netlists.
    ForwardReference {
        /// The offending cell.
        cell: CellId,
    },
    /// The netlist declares no primary outputs.
    NoOutputs,
    /// A cell has the wrong number of input pins.
    BadArity {
        /// The offending cell.
        cell: CellId,
        /// Expected pin count.
        expected: usize,
        /// Actual pin count.
        actual: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ForwardReference { cell } => {
                write!(
                    f,
                    "cell {cell} reads a net no earlier cell or primary input drives"
                )
            }
            NetlistError::NoOutputs => write!(f, "netlist declares no primary outputs"),
            NetlistError::BadArity {
                cell,
                expected,
                actual,
            } => write!(f, "cell {cell} has {actual} inputs, expected {expected}"),
        }
    }
}

impl Error for NetlistError {}

/// An immutable, validated gate-level netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    drivers: Vec<NetDriver>,
    net_names: Vec<Option<String>>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    output_names: Vec<String>,
    fanouts: Vec<Vec<CellId>>,
}

impl Netlist {
    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.drivers.len()
    }

    /// Number of cell instances (excluding nothing; constants count).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cell instances in topological (creation) order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// A specific cell.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Primary input nets, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Name of the `i`-th primary output.
    #[must_use]
    pub fn output_name(&self, i: usize) -> &str {
        &self.output_names[i]
    }

    /// Driver of a net.
    #[must_use]
    pub fn driver(&self, net: NetId) -> NetDriver {
        self.drivers[net.index()]
    }

    /// Cells reading a net.
    #[must_use]
    pub fn fanout(&self, net: NetId) -> &[CellId] {
        &self.fanouts[net.index()]
    }

    /// Fanout count of a net, counting a primary-output connection as one
    /// extra load.
    #[must_use]
    pub fn load_count(&self, net: NetId) -> usize {
        let po = usize::from(self.outputs.contains(&net));
        self.fanouts[net.index()].len() + po
    }

    /// Net name, if one was assigned.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.net_names[net.index()].as_deref()
    }

    /// Total area in NAND2-equivalent units under a library.
    #[must_use]
    pub fn area(&self, lib: &CellLibrary) -> f64 {
        self.cells.iter().map(|c| lib.area(c.kind)).sum()
    }

    /// Assembles a netlist from raw parts **without structural
    /// validation**, recomputing only the fanout index (inputs of
    /// out-of-range cell references are skipped).
    ///
    /// This is the ingestion point for *foreign* netlists — anything not
    /// produced by [`NetlistBuilder`], whose construction rules make
    /// malformed graphs unrepresentable — and for the fault-injection
    /// mutations `isa-netlint`'s negative-path battery uses. The result
    /// may violate every invariant [`Self::validate`] checks (and more:
    /// combinational loops, multi-driven or floating nets, dead cones);
    /// run it through `isa-netlint` before evaluating or simulating it.
    /// [`Self::evaluate_words`] on an unvalidated netlist is well-defined
    /// memory-wise (any in-range indices) but may compute garbage: it
    /// sweeps the cells in list order, so a cell reading a net that a
    /// later-listed cell drives sees a stale value, whatever the net ids.
    ///
    /// # Panics
    ///
    /// Panics if `drivers` and `net_names` lengths disagree (per-net
    /// storage must stay parallel) or a cell references a net index out of
    /// range (such a netlist could not be stored, let alone linted).
    #[must_use]
    pub fn from_raw_parts(
        name: impl Into<String>,
        drivers: Vec<NetDriver>,
        net_names: Vec<Option<String>>,
        cells: Vec<Cell>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
        output_names: Vec<String>,
    ) -> Self {
        assert_eq!(
            drivers.len(),
            net_names.len(),
            "per-net storage must stay parallel"
        );
        let net_count = drivers.len();
        for cell in &cells {
            assert!(
                cell.output.index() < net_count
                    && cell.inputs.iter().all(|n| n.index() < net_count),
                "cell references a net outside per-net storage"
            );
        }
        let mut fanouts = vec![Vec::new(); net_count];
        for (i, cell) in cells.iter().enumerate() {
            for input in &cell.inputs {
                fanouts[input.index()].push(CellId(i as u32));
            }
        }
        Self {
            name: name.into(),
            drivers,
            net_names,
            cells,
            inputs,
            outputs,
            output_names,
            fanouts,
        }
    }

    /// Decomposes the netlist into the raw parts [`Self::from_raw_parts`]
    /// accepts (fanouts are derived, so they are not returned): `(name,
    /// drivers, net_names, cells, inputs, outputs, output_names)`. The
    /// mutation harness round-trips through this to inject faults.
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn into_raw_parts(
        self,
    ) -> (
        String,
        Vec<NetDriver>,
        Vec<Option<String>>,
        Vec<Cell>,
        Vec<NetId>,
        Vec<NetId>,
        Vec<String>,
    ) {
        (
            self.name,
            self.drivers,
            self.net_names,
            self.cells,
            self.inputs,
            self.outputs,
            self.output_names,
        )
    }

    /// Re-checks the structural invariants (outputs present, pin arities,
    /// and a topological cell list: every cell input is a primary input or
    /// the output of an earlier-listed cell, the order
    /// [`Self::evaluate_words`] sweeps).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut defined = vec![false; self.net_count()];
        for &input in &self.inputs {
            defined[input.index()] = true;
        }
        for (i, cell) in self.cells.iter().enumerate() {
            let id = CellId(i as u32);
            if cell.inputs.len() != cell.kind.arity() {
                return Err(NetlistError::BadArity {
                    cell: id,
                    expected: cell.kind.arity(),
                    actual: cell.inputs.len(),
                });
            }
            if cell.inputs.iter().any(|n| !defined[n.index()]) {
                return Err(NetlistError::ForwardReference { cell: id });
            }
            defined[cell.output.index()] = true;
        }
        Ok(())
    }

    /// Zero-delay evaluation of lane 0, packing the primary outputs
    /// LSB-first into a `u64`: each input value drives bit 0 of its
    /// [`Self::evaluate_words`] word.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::evaluate_words`]; additionally if there are more
    /// than 64 outputs.
    #[must_use]
    pub fn evaluate_outputs_u64(&self, input_values: &[bool]) -> u64 {
        assert!(self.outputs.len() <= 64, "too many outputs for u64 packing");
        let words: Vec<u64> = input_values.iter().map(|&v| u64::from(v)).collect();
        let values = self.evaluate_words(&words);
        self.outputs
            .iter()
            .enumerate()
            .fold(0, |out, (i, net)| out | ((values[net.index()] & 1) << i))
    }

    /// Bit-sliced zero-delay evaluation: returns every net's value word
    /// (bit `l` is lane `l`'s value) for 64 independent input lanes — the
    /// [`WordPlanes`] instance of [`Self::evaluate_in`], and the oracle of
    /// the instruction tape.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::evaluate_in`].
    #[must_use]
    pub fn evaluate_words(&self, input_words: &[u64]) -> Vec<u64> {
        self.evaluate_in(&mut WordPlanes, input_words)
    }

    /// Zero-delay evaluation in any [`PlaneAlgebra`]: returns every net's
    /// plane, indexed by net, after one sweep of the cell list in list
    /// order through [`CellKind::eval_in`]. Nets no input or earlier cell
    /// has driven read as [`PlaneAlgebra::zero`].
    ///
    /// # Panics
    ///
    /// Panics if `input_planes.len()` differs from the number of primary
    /// inputs, or a cell's pin count differs from its kind's arity.
    #[must_use]
    pub fn evaluate_in<A: PlaneAlgebra>(
        &self,
        alg: &mut A,
        input_planes: &[A::Plane],
    ) -> Vec<A::Plane> {
        assert_eq!(
            input_planes.len(),
            self.inputs.len(),
            "expected {} input planes, got {}",
            self.inputs.len(),
            input_planes.len()
        );
        let mut values = vec![alg.zero(); self.net_count()];
        for (net, plane) in self.inputs.iter().zip(input_planes) {
            values[net.index()] = plane.clone();
        }
        for cell in &self.cells {
            assert_eq!(
                cell.inputs.len(),
                cell.kind.arity(),
                "{} expects {} inputs, got {}",
                cell.kind,
                cell.kind.arity(),
                cell.inputs.len()
            );
            let [a, b, c] = cell.operands().map(NetId::index);
            let y = cell.kind.eval_in(alg, &values[a], &values[b], &values[c]);
            values[cell.output.index()] = y;
        }
        values
    }

    /// The nets in the transitive fanin of the primary outputs (the live
    /// cone), as a mask by net index. Logic outside it can never
    /// influence an output. A driver entry naming a cell past the end of
    /// the list (a malformed [`Self::from_raw_parts`] netlist) ends the
    /// walk at that net.
    #[must_use]
    pub fn live_nets(&self) -> Vec<bool> {
        let mut live = vec![false; self.net_count()];
        let mut stack = self.outputs.clone();
        while let Some(net) = stack.pop() {
            if std::mem::replace(&mut live[net.index()], true) {
                continue;
            }
            if let NetDriver::Cell(id) = self.drivers[net.index()] {
                if let Some(cell) = self.cells.get(id.index()) {
                    stack.extend(&cell.inputs);
                }
            }
        }
        live
    }
}

/// Incremental netlist constructor.
///
/// # Examples
///
/// ```
/// use isa_netlist::graph::NetlistBuilder;
///
/// # fn main() -> Result<(), isa_netlist::graph::NetlistError> {
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.input("a");
/// let x = b.input("b");
/// let sum = b.xor2(a, x);
/// let carry = b.and2(a, x);
/// b.mark_output(sum, "sum");
/// b.mark_output(carry, "carry");
/// let netlist = b.finish()?;
/// assert_eq!(netlist.evaluate_outputs_u64(&[true, true]), 0b10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    drivers: Vec<NetDriver>,
    net_names: Vec<Option<String>>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    output_names: Vec<String>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl NetlistBuilder {
    /// Starts a new design.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            drivers: Vec::new(),
            net_names: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
            const0: None,
            const1: None,
        }
    }

    fn new_net(&mut self, driver: NetDriver, name: Option<String>) -> NetId {
        let id = NetId(self.drivers.len() as u32);
        self.drivers.push(driver);
        self.net_names.push(name);
        id
    }

    /// Declares a named primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.new_net(NetDriver::Input, Some(name.into()));
        self.inputs.push(id);
        id
    }

    /// Declares a bus of primary inputs `name[0]..name[width-1]`, LSB first.
    pub fn input_bus(&mut self, name: &str, width: u32) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Instantiates a cell and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the cell arity or an
    /// input net does not exist.
    pub fn cell(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        assert_eq!(
            inputs.len(),
            kind.arity(),
            "{kind} expects {} inputs, got {}",
            kind.arity(),
            inputs.len()
        );
        for net in inputs {
            assert!(
                net.index() < self.drivers.len(),
                "input net {net} does not exist"
            );
        }
        let output = self.new_net(NetDriver::Cell(CellId(self.cells.len() as u32)), None);
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        output
    }

    /// The constant-0 net (shared tie cell).
    pub fn const0(&mut self) -> NetId {
        if let Some(n) = self.const0 {
            return n;
        }
        let n = self.cell(CellKind::Const0, &[]);
        self.const0 = Some(n);
        n
    }

    /// The constant-1 net (shared tie cell).
    pub fn const1(&mut self) -> NetId {
        if let Some(n) = self.const1 {
            return n;
        }
        let n = self.cell(CellKind::Const1, &[]);
        self.const1 = Some(n);
        n
    }

    /// `!a`
    pub fn inv(&mut self, a: NetId) -> NetId {
        self.cell(CellKind::Inv, &[a])
    }

    /// `a` (buffer)
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.cell(CellKind::Buf, &[a])
    }

    /// `a & b`
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(CellKind::And2, &[a, b])
    }

    /// `a | b`
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(CellKind::Or2, &[a, b])
    }

    /// `!(a & b)`
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(CellKind::Nand2, &[a, b])
    }

    /// `a ^ b`
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(CellKind::Xor2, &[a, b])
    }

    /// `sel ? d1 : d0`
    pub fn mux2(&mut self, d0: NetId, d1: NetId, sel: NetId) -> NetId {
        self.cell(CellKind::Mux2, &[d0, d1, sel])
    }

    /// `(a & b) | c`
    pub fn ao21(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.cell(CellKind::Ao21, &[a, b, c])
    }

    /// `majority(a, b, c)` — a full adder's carry.
    pub fn maj3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.cell(CellKind::Maj3, &[a, b, c])
    }

    /// `a | b | c`
    pub fn or3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.cell(CellKind::Or3, &[a, b, c])
    }

    /// `a ^ b ^ c` — a full adder's sum.
    pub fn xor3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.cell(CellKind::Xor3, &[a, b, c])
    }

    /// Reduces a slice of nets with a binary op, as a balanced tree (keeps
    /// logical depth logarithmic).
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty.
    pub fn reduce_tree(
        &mut self,
        nets: &[NetId],
        mut op: impl FnMut(&mut Self, NetId, NetId) -> NetId,
    ) -> NetId {
        assert!(!nets.is_empty(), "cannot reduce an empty net list");
        let mut level: Vec<NetId> = nets.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(op(self, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// Declares a named primary output.
    pub fn mark_output(&mut self, net: NetId, name: impl Into<String>) {
        assert!(
            net.index() < self.drivers.len(),
            "output net {net} does not exist"
        );
        self.outputs.push(net);
        self.output_names.push(name.into());
    }

    /// Declares a bus of primary outputs `name[0]..`, LSB first.
    pub fn mark_output_bus(&mut self, nets: &[NetId], name: &str) {
        for (i, &n) in nets.iter().enumerate() {
            self.mark_output(n, format!("{name}[{i}]"));
        }
    }

    /// Number of cells instantiated so far.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoOutputs`] if no output was marked. Other
    /// structural errors are impossible via this builder but are re-checked.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let mut fanouts = vec![Vec::new(); self.drivers.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            for input in &cell.inputs {
                fanouts[input.index()].push(CellId(i as u32));
            }
        }
        let netlist = Netlist {
            name: self.name,
            drivers: self.drivers,
            net_names: self.net_names,
            cells: self.cells,
            inputs: self.inputs,
            outputs: self.outputs,
            output_names: self.output_names,
            fanouts,
        };
        netlist.validate()?;
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("cin");
        let sum = b.xor3(a, x, c);
        let cout = b.maj3(a, x, c);
        b.mark_output(sum, "sum");
        b.mark_output(cout, "cout");
        b.finish().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder_netlist();
        for i in 0..8u32 {
            let a = i & 1 != 0;
            let x = i & 2 != 0;
            let c = i & 4 != 0;
            let expected = (a as u64 + x as u64 + c as u64) & 0b11;
            assert_eq!(nl.evaluate_outputs_u64(&[a, x, c]), expected);
        }
    }

    #[test]
    fn empty_outputs_rejected() {
        let mut b = NetlistBuilder::new("empty");
        let _ = b.input("a");
        assert_eq!(b.finish().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn constants_are_shared() {
        let mut b = NetlistBuilder::new("c");
        let z1 = b.const0();
        let z2 = b.const0();
        let o1 = b.const1();
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
        b.mark_output(z1, "z");
        b.mark_output(o1, "o");
        let nl = b.finish().unwrap();
        assert_eq!(nl.evaluate_outputs_u64(&[]), 0b10);
    }

    #[test]
    fn fanout_and_load_counting() {
        let mut b = NetlistBuilder::new("f");
        let a = b.input("a");
        let x = b.inv(a);
        let y = b.inv(a);
        let z = b.and2(x, y);
        b.mark_output(z, "z");
        b.mark_output(a, "a_passthrough");
        let nl = b.finish().unwrap();
        assert_eq!(nl.fanout(a).len(), 2);
        assert_eq!(nl.load_count(a), 3); // two INVs + primary output
        assert_eq!(nl.load_count(z), 1);
    }

    #[test]
    fn creation_order_is_topological() {
        let nl = full_adder_netlist();
        nl.validate().unwrap();
        for cell in nl.cells() {
            for input in &cell.inputs {
                assert!(input.index() < cell.output.index());
            }
        }
    }

    #[test]
    fn validate_checks_list_order_not_net_ids() {
        // `a -> inv -> inv -> y` with the two cells swapped in the list:
        // every input net id is still below its cell's output, but the
        // first-listed cell reads a net only the second drives.
        let mut b = NetlistBuilder::new("inv_pair");
        let a = b.input("a");
        let x = b.inv(a);
        let y = b.inv(x);
        b.mark_output(y, "y");
        let (name, mut drivers, names, mut cells, inputs, outputs, onames) =
            b.finish().unwrap().into_raw_parts();
        cells.swap(0, 1);
        for (i, cell) in cells.iter().enumerate() {
            drivers[cell.output.index()] = NetDriver::Cell(CellId(i as u32));
        }
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        assert!(nl
            .cells()
            .iter()
            .all(|c| c.inputs.iter().all(|n| n.index() < c.output.index())));
        assert_eq!(
            nl.validate(),
            Err(NetlistError::ForwardReference {
                cell: CellId::from_index(0)
            })
        );
        // The list-order sweep reads the stale (zero) plane: y = !0, not a.
        assert_eq!(
            nl.evaluate_words(&[0x0F])[nl.outputs()[0].index()],
            u64::MAX
        );
    }

    #[test]
    fn reduce_tree_matches_flat_reduction() {
        let mut b = NetlistBuilder::new("tree");
        let bits = b.input_bus("x", 7);
        let all = b.reduce_tree(&bits.clone(), |b, l, r| b.and2(l, r));
        b.mark_output(all, "and_all");
        let nl = b.finish().unwrap();
        for pattern in 0..(1u32 << 7) {
            let inputs: Vec<bool> = (0..7).map(|i| pattern & (1 << i) != 0).collect();
            let expected = u64::from(pattern == 0x7F);
            assert_eq!(
                nl.evaluate_outputs_u64(&inputs),
                expected,
                "pattern {pattern:#b}"
            );
        }
    }

    #[test]
    fn area_is_positive() {
        let nl = full_adder_netlist();
        let lib = CellLibrary::industrial_65nm();
        assert!(nl.area(&lib) > 0.0);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_panics_at_build_time() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let _ = b.cell(CellKind::And2, &[a]);
    }

    #[test]
    fn input_bus_names_bits() {
        let mut b = NetlistBuilder::new("bus");
        let bits = b.input_bus("a", 3);
        let y = b.or3(bits[0], bits[1], bits[2]);
        b.mark_output(y, "y");
        let nl = b.finish().unwrap();
        assert_eq!(nl.net_name(bits[1]), Some("a[1]"));
        assert_eq!(nl.output_name(0), "y");
    }

    #[test]
    fn live_cone_covers_everything_in_a_pure_adder() {
        use crate::builders::{build_exact, AdderTopology};
        let adder = build_exact(8, AdderTopology::Ripple);
        let nl = adder.netlist();
        let live = nl.live_nets();
        // A ripple adder has no dead logic: every net feeds the outputs.
        assert!(nl
            .inputs()
            .iter()
            .chain(nl.outputs())
            .all(|n| live[n.index()]));
    }

    #[test]
    fn live_cone_skips_dead_cells_and_dangling_drivers() {
        let mut b = NetlistBuilder::new("fa_dead");
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("cin");
        let dead = b.and2(a, x);
        let sum = b.xor3(a, x, c);
        let cout = b.maj3(a, x, c);
        b.mark_output(sum, "sum");
        b.mark_output(cout, "cout");
        let nl = b.finish().unwrap();
        let live = nl.live_nets();
        assert!(!live[dead.index()]);
        assert!([a, x, c, sum, cout].iter().all(|n| live[n.index()]));
        // Drop the last cell: the driver table still names it as cout's
        // driver, past the end of the list. The walk stops there.
        let (name, drivers, names, mut cells, inputs, outputs, onames) = nl.into_raw_parts();
        cells.pop();
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        let live = nl.live_nets();
        assert!(live[sum.index()] && live[cout.index()] && !live[dead.index()]);
    }

    #[test]
    fn evaluate_rejects_wrong_input_count() {
        let nl = full_adder_netlist();
        let result = std::panic::catch_unwind(|| nl.evaluate_words(&[1]));
        assert!(result.is_err());
    }
}
