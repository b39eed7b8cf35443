//! Levelized instruction-tape compiler for the word-parallel hot path.
//!
//! [`Netlist::evaluate_in`] interprets the graph cell-by-cell on every
//! plane pass: each cell gathers its pins through a per-cell `Vec<NetId>`,
//! dispatches on [`CellKind`] and writes one net — per evaluation, per cell.
//! This module compiles a netlist **once** into an [`InstructionTape`]: a
//! flat, topologically scheduled op list over a dense plane arena indexed by
//! net position. Execution is a straight-line sweep with
//!
//! - **no graph chasing** — operands are `u32` arena slots baked into
//!   fixed-width [`TapeOp`]s, not heap-allocated pin vectors;
//! - **no per-cell dispatch** — ops are reordered *kind-major within each
//!   level* (cells on one level are mutually independent, so this preserves
//!   the schedule) into [`OpRun`]s, hoisting the `CellKind` match out of the
//!   inner loop;
//! - **no per-eval allocation** — callers pass reusable arena buffers.
//!
//! The datapath is generic over [`PlaneAlgebra`] and computes each op with
//! [`CellKind::eval_in`], the one cell truth table. In
//! [`WordPlanes`](isa_core::WordPlanes) a plane is a `u64` of 64
//! simulation lanes; in [`ChunkPlanes`](isa_core::ChunkPlanes) it is a
//! `[u64; C]` chunk of `C` independent plane sets per sweep, which
//! compiles to 256/512-bit vector operations. [`CHUNK`] is the width
//! production sweeps use (4).
//!
//! The schedule is a [`Levelization`]: one forward pass over the cell list,
//! valid exactly when that list is in topological order (the order
//! [`Netlist::evaluate_words`] sweeps, which [`Netlist::validate`] checks).
//! It is the netlist's one level schedule; `isa-netlint` compiles the tape
//! from it on every `DesignContext` build, re-proves the tape
//! bit-identical to [`Netlist::evaluate_words`] (its `tape.replay` rule),
//! checks the golden model against the tape's own sums
//! ([`add_batch_with_tape`](crate::AdderNetlist::add_batch_with_tape)) and
//! hands that verified tape to the engine. The tape is the only zero-delay
//! evaluator production runs; [`Netlist::evaluate_words`] is its test
//! oracle.
//!
//! # Example
//!
//! Compile a ripple-carry adder and run one 64-lane addition batch through
//! the tape:
//!
//! ```
//! use isa_core::{pack_pairs, unpack_lanes, WordPlanes};
//! use isa_netlist::{build_exact, AdderTopology, InstructionTape};
//!
//! let adder = build_exact(8, AdderTopology::Ripple);
//! let tape = InstructionTape::compile(adder.netlist());
//!
//! // Lane 0 computes 11 + 7; the other 63 lanes are idle (0 + 0).
//! let mut inputs = [0u64; 16];
//! pack_pairs(8, &[(11, 7)], &mut inputs);
//! let mut arena = Vec::new();
//! tape.execute_into(&mut WordPlanes, &inputs, &mut arena);
//!
//! let sum_planes: Vec<u64> = tape.output_slots().iter().map(|&s| arena[s as usize]).collect();
//! let mut sums = [0u64; 1];
//! unpack_lanes(&sum_planes, &mut sums);
//! assert_eq!(sums, [18]);
//!
//! // The arena is net-indexed: it holds every net's settled plane, exactly
//! // like `Netlist::evaluate_words`.
//! assert_eq!(arena, adder.netlist().evaluate_words(&inputs));
//! ```

use isa_core::PlaneAlgebra;

use crate::cell::CellKind;
use crate::graph::{CellId, Netlist};

/// Production chunk width: how many independent 64-lane plane sets one
/// tape sweep evaluates. 4 chunks auto-vectorize to 256-bit ops on
/// AVX2-class hardware.
pub const CHUNK: usize = 4;

/// One compiled cell: up to three operand arena slots and one output slot.
///
/// Unused operand fields (for arity-0/1/2 cells) alias a defined slot so
/// every field is always a valid arena index. Arena slots equal net indices
/// ([`crate::graph::NetId::index`]); the arena after execution *is* the
/// dense net-value table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOp {
    /// First operand slot (`inputs[0]`).
    pub a: u32,
    /// Second operand slot (`inputs[1]`; aliases `a` below arity 2).
    pub b: u32,
    /// Third operand slot (`inputs[2]`; aliases `a` below arity 3).
    pub c: u32,
    /// Output slot (the cell's output net index).
    pub out: u32,
}

/// A maximal run of consecutive [`TapeOp`]s sharing one [`CellKind`].
///
/// Cells within a level are mutually independent, so the compiler sorts
/// each level kind-major and merges adjacent same-kind stretches; the
/// executor dispatches on `kind` once per run instead of once per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRun {
    /// The cell function every op in the run computes.
    pub kind: CellKind,
    /// Index of the run's first op in the tape.
    pub start: u32,
    /// Number of ops in the run.
    pub len: u32,
}

/// A netlist's level schedule: level 0 cells read only primary inputs (or
/// nothing — constants), level `k` cells read at least one level `k - 1`
/// output and nothing deeper. Cells within a level are mutually
/// independent, so a level is one tape stage; within a level, cells keep
/// ascending id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// Every cell once, level by level.
    schedule: Vec<CellId>,
    /// Level `k` is `schedule[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
}

impl Levelization {
    /// Levelizes a netlist in one forward pass over its cell list:
    /// `level(cell) = 1 + max(level of its input producers)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell list is not in topological order (a cell reading
    /// a net that is neither a primary input nor the output of an
    /// earlier-listed cell), as [`Netlist::validate`] reports with
    /// [`ForwardReference`](crate::graph::NetlistError::ForwardReference) —
    /// e.g. a reordered [`Netlist::from_raw_parts`] round-trip.
    #[must_use]
    pub fn build(netlist: &Netlist) -> Self {
        // Levels stored +1 so 0 can mean "not yet produced" for the
        // def-before-use check; primary inputs sit at 1.
        let mut net_level = vec![0u32; netlist.net_count()];
        for &input in netlist.inputs() {
            net_level[input.index()] = 1;
        }
        let mut level_of = Vec::with_capacity(netlist.cell_count());
        let mut depth = 0usize;
        for (index, cell) in netlist.cells().iter().enumerate() {
            let mut level = 1;
            for pin in &cell.inputs {
                let produced = net_level[pin.index()];
                assert!(
                    produced > 0,
                    "netlist is not topological: cell {index} reads undriven-so-far net {}",
                    pin.index()
                );
                level = level.max(produced);
            }
            level_of.push(level);
            net_level[cell.output.index()] = level + 1;
            depth = depth.max(level as usize);
        }
        // Counting sort by level; ascending cell id within each level.
        let mut starts = vec![0usize; depth + 1];
        for &level in &level_of {
            starts[level as usize] += 1;
        }
        for k in 0..depth {
            starts[k + 1] += starts[k];
        }
        let mut cursor = starts.clone();
        let mut schedule = vec![CellId::from_index(0); level_of.len()];
        for (index, &level) in level_of.iter().enumerate() {
            let slot = &mut cursor[level as usize - 1];
            schedule[*slot] = CellId::from_index(index);
            *slot += 1;
        }
        Self { schedule, starts }
    }

    /// Number of levels (the design's logic depth in cells).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.starts.len() - 1
    }

    /// Iterates the levels in order, each as a slice of independent cells.
    pub fn levels(&self) -> impl Iterator<Item = &[CellId]> + '_ {
        self.starts
            .windows(2)
            .map(move |w| &self.schedule[w[0]..w[1]])
    }
}

/// A netlist compiled to a flat, levelized instruction tape.
///
/// See the [module docs](self) for the compilation model and an example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionTape {
    ops: Vec<TapeOp>,
    runs: Vec<OpRun>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    slots: usize,
}

impl InstructionTape {
    /// Compiles a netlist from its [`Levelization`].
    ///
    /// # Panics
    ///
    /// Panics if the cell list is not in topological order (a cell reading
    /// a net defined by a later cell), as produced by e.g. a corrupted
    /// [`Netlist::from_raw_parts`] round-trip.
    #[must_use]
    pub fn compile(netlist: &Netlist) -> Self {
        Self::compile_from_levels(netlist, Levelization::build(netlist).levels())
    }

    /// Compiles a netlist from an explicit level schedule (e.g.
    /// [`Levelization::levels`]).
    ///
    /// Each level's cells are reordered kind-major (legal: cells on one
    /// level never feed each other) and adjacent same-kind stretches are
    /// merged into [`OpRun`]s.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is not a permutation of the netlist's cells
    /// or violates def-before-use (a cell reading a net whose producer is
    /// scheduled later).
    #[must_use]
    pub fn compile_from_levels<'a, I>(netlist: &Netlist, levels: I) -> Self
    where
        I: IntoIterator<Item = &'a [CellId]>,
    {
        let slots = netlist.net_count();
        let mut defined = vec![false; slots];
        for &input in netlist.inputs() {
            defined[input.index()] = true;
        }
        let mut ops = Vec::with_capacity(netlist.cell_count());
        let mut runs: Vec<OpRun> = Vec::new();
        let mut scheduled = vec![false; netlist.cell_count()];
        let mut level_buf: Vec<CellId> = Vec::new();
        for level in levels {
            level_buf.clear();
            level_buf.extend_from_slice(level);
            // Stable kind-major sort: dispatch batches, original order kept
            // within a kind.
            level_buf.sort_by_key(|&id| netlist.cell(id).kind);
            for &id in &level_buf {
                assert!(
                    !scheduled[id.index()],
                    "level schedule repeats cell {}",
                    id.index()
                );
                scheduled[id.index()] = true;
                let cell = netlist.cell(id);
                assert!(
                    cell.inputs.iter().all(|pin| defined[pin.index()]),
                    "level schedule violates def-before-use at cell {}",
                    id.index()
                );
                let [a, b, c] = cell.operands().map(|net| net.index() as u32);
                let op = TapeOp {
                    a,
                    b,
                    c,
                    out: cell.output.index() as u32,
                };
                match runs.last_mut() {
                    Some(run) if run.kind == cell.kind => run.len += 1,
                    _ => runs.push(OpRun {
                        kind: cell.kind,
                        start: ops.len() as u32,
                        len: 1,
                    }),
                }
                ops.push(op);
            }
            for &id in &level_buf {
                defined[netlist.cell(id).output.index()] = true;
            }
        }
        assert!(
            scheduled.iter().all(|&s| s),
            "level schedule misses {} cell(s)",
            scheduled.iter().filter(|&&s| !s).count()
        );
        Self {
            ops,
            runs,
            inputs: netlist.inputs().iter().map(|n| n.index() as u32).collect(),
            outputs: netlist.outputs().iter().map(|n| n.index() as u32).collect(),
            slots,
        }
    }

    /// Number of ops (equals the netlist's cell count).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The scheduled ops in execution order — for consumers that build
    /// derived programs over the same schedule (e.g. the timed replay
    /// core in `isa-timing-sim`).
    #[must_use]
    pub fn ops(&self) -> &[TapeOp] {
        &self.ops
    }

    /// The kind-major dispatch runs covering [`Self::ops`] in order.
    #[must_use]
    pub fn runs(&self) -> &[OpRun] {
        &self.runs
    }

    /// Arena size in plane slots (equals the netlist's net count).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Arena slots of the primary inputs, in declaration order.
    #[must_use]
    pub fn input_slots(&self) -> &[u32] {
        &self.inputs
    }

    /// Arena slots of the primary outputs, in declaration order.
    #[must_use]
    pub fn output_slots(&self) -> &[u32] {
        &self.outputs
    }

    /// Evaluates the tape in a [`PlaneAlgebra`]: scatters `input_planes`
    /// (one plane per primary input, declaration order) into a zeroed
    /// arena, then sweeps the op runs in schedule order.
    ///
    /// On return `arena[i]` holds net `i`'s settled plane: in
    /// [`WordPlanes`](isa_core::WordPlanes) the arena is element-for-element
    /// identical to [`Netlist::evaluate_words`]. The arena vector is
    /// recycled across calls without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `input_planes.len()` differs from the input count.
    pub fn execute_into<A: PlaneAlgebra>(
        &self,
        alg: &mut A,
        input_planes: &[A::Plane],
        arena: &mut Vec<A::Plane>,
    ) {
        use CellKind as K;

        assert_eq!(
            input_planes.len(),
            self.inputs.len(),
            "tape expects {} input planes, got {}",
            self.inputs.len(),
            input_planes.len()
        );
        arena.clear();
        arena.resize(self.slots, alg.zero());
        for (&slot, plane) in self.inputs.iter().zip(input_planes) {
            arena[slot as usize] = plane.clone();
        }
        for run in &self.runs {
            let ops = &self.ops[run.start as usize..(run.start + run.len) as usize];
            // One dispatch per run: each arm hands its constant kind to the
            // op loop, so the cell formula is resolved outside the loop.
            match run.kind {
                K::Const0 => sweep_run(K::Const0, alg, arena, ops),
                K::Const1 => sweep_run(K::Const1, alg, arena, ops),
                K::Buf => sweep_run(K::Buf, alg, arena, ops),
                K::Inv => sweep_run(K::Inv, alg, arena, ops),
                K::And2 => sweep_run(K::And2, alg, arena, ops),
                K::Or2 => sweep_run(K::Or2, alg, arena, ops),
                K::Nand2 => sweep_run(K::Nand2, alg, arena, ops),
                K::Nor2 => sweep_run(K::Nor2, alg, arena, ops),
                K::Xor2 => sweep_run(K::Xor2, alg, arena, ops),
                K::Xnor2 => sweep_run(K::Xnor2, alg, arena, ops),
                K::Mux2 => sweep_run(K::Mux2, alg, arena, ops),
                K::Ao21 => sweep_run(K::Ao21, alg, arena, ops),
                K::Oa21 => sweep_run(K::Oa21, alg, arena, ops),
                K::Aoi21 => sweep_run(K::Aoi21, alg, arena, ops),
                K::Oai21 => sweep_run(K::Oai21, alg, arena, ops),
                K::Maj3 => sweep_run(K::Maj3, alg, arena, ops),
                K::And3 => sweep_run(K::And3, alg, arena, ops),
                K::Or3 => sweep_run(K::Or3, alg, arena, ops),
                K::Xor3 => sweep_run(K::Xor3, alg, arena, ops),
            }
        }
    }

    /// Decomposes the tape for inspection or fault injection
    /// (`(ops, runs, inputs, outputs, slots)`), mirroring
    /// [`Netlist::into_raw_parts`].
    #[must_use]
    pub fn into_raw_parts(self) -> (Vec<TapeOp>, Vec<OpRun>, Vec<u32>, Vec<u32>, usize) {
        (self.ops, self.runs, self.inputs, self.outputs, self.slots)
    }

    /// Reassembles a tape from raw parts **without semantic validation** —
    /// the fault-injection ingestion point for netlint's `tape.replay`
    /// rule, mirroring [`Netlist::from_raw_parts`].
    ///
    /// Only memory safety is enforced; a tape with scrambled operands
    /// executes without panicking and produces wrong planes, which the
    /// replay rule must catch.
    ///
    /// # Panics
    ///
    /// Panics if any op slot or run extent is out of range (those would
    /// make execution itself unsound, not merely wrong).
    #[must_use]
    pub fn from_raw_parts(
        ops: Vec<TapeOp>,
        runs: Vec<OpRun>,
        inputs: Vec<u32>,
        outputs: Vec<u32>,
        slots: usize,
    ) -> Self {
        for op in &ops {
            for slot in [op.a, op.b, op.c, op.out] {
                assert!((slot as usize) < slots, "tape op slot {slot} out of range");
            }
        }
        for run in &runs {
            assert!(
                (run.start as usize) + (run.len as usize) <= ops.len(),
                "tape run extent out of range"
            );
        }
        for &slot in inputs.iter().chain(&outputs) {
            assert!((slot as usize) < slots, "tape io slot {slot} out of range");
        }
        Self {
            ops,
            runs,
            inputs,
            outputs,
            slots,
        }
    }
}

/// The straight-line op loop of one run: one load/combine/store per op
/// through [`CellKind::eval_in`]. Inlined into each dispatch arm with a
/// constant `kind`, so the formula and the arity are fixed for the whole
/// loop, and operands past the arity cost no load.
#[inline(always)]
fn sweep_run<A: PlaneAlgebra>(kind: CellKind, alg: &mut A, arena: &mut [A::Plane], ops: &[TapeOp]) {
    let arity = kind.arity();
    for op in ops {
        let a = &arena[op.a as usize];
        let b = if arity > 1 { &arena[op.b as usize] } else { a };
        let c = if arity > 2 { &arena[op.c as usize] } else { a };
        let y = kind.eval_in(alg, a, b, c);
        arena[op.out as usize] = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build_exact, AdderTopology};
    use crate::graph::{NetDriver, NetlistBuilder};
    use isa_core::{ChunkPlanes, WordPlanes};

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn levels_partition_the_cells_and_respect_dependencies() {
        let adder = build_exact(16, AdderTopology::KoggeStone);
        let nl = adder.netlist();
        let lv = Levelization::build(nl);
        let mut level_of = vec![usize::MAX; nl.cell_count()];
        for (k, level) in lv.levels().enumerate() {
            for &id in level {
                assert_eq!(
                    level_of[id.index()],
                    usize::MAX,
                    "cell {id} scheduled twice"
                );
                level_of[id.index()] = k;
            }
        }
        for (c, cell) in nl.cells().iter().enumerate() {
            // One deeper than the deepest producer; level 0 reads no cell.
            let deepest = cell
                .inputs
                .iter()
                .filter_map(|n| match nl.driver(*n) {
                    NetDriver::Cell(p) => Some(level_of[p.index()] + 1),
                    NetDriver::Input => None,
                })
                .max()
                .unwrap_or(0);
            assert_eq!(level_of[c], deepest, "cell {c}");
        }
        // A Kogge-Stone adder is shallow: depth far below the cell count.
        assert!(lv.depth() >= 3 && lv.depth() < nl.cell_count());
    }

    #[test]
    fn ripple_depth_is_linear_in_width() {
        let d8 = Levelization::build(build_exact(8, AdderTopology::Ripple).netlist()).depth();
        let d32 = Levelization::build(build_exact(32, AdderTopology::Ripple).netlist()).depth();
        assert!(d32 > d8 + 16, "ripple depth must grow with width");
    }

    #[test]
    fn constants_sit_at_level_zero() {
        let mut b = NetlistBuilder::new("const");
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.mark_output(y, "y");
        let nl = b.finish().unwrap();
        let lv = Levelization::build(&nl);
        assert_eq!(
            lv.levels().collect::<Vec<_>>(),
            [[CellId::from_index(0)], [CellId::from_index(1)]],
            "const cell, then the AND after it"
        );
    }

    #[test]
    #[should_panic(expected = "netlist is not topological")]
    fn cyclic_graph_fails_to_levelize() {
        let mut b = NetlistBuilder::new("loop");
        let a = b.input("a");
        let x = b.inv(a);
        let y = b.inv(x);
        b.mark_output(y, "y");
        let nl = b.finish().unwrap();
        let (name, drivers, names, mut cells, inputs, outputs, onames) = nl.into_raw_parts();
        // First INV now reads the second INV's output: a 2-cycle.
        cells[0].inputs[0] = cells[1].output;
        let nl = Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
        let _ = Levelization::build(&nl);
    }

    #[test]
    fn tape_arena_matches_evaluate_words_on_adders() {
        let mut seed = 0x7A50_0002u64;
        for topology in [AdderTopology::Ripple, AdderTopology::KoggeStone] {
            let adder = build_exact(16, topology);
            let netlist = adder.netlist();
            let tape = InstructionTape::compile(netlist);
            assert_eq!(tape.op_count(), netlist.cell_count());
            assert_eq!(tape.slot_count(), netlist.net_count());
            if topology == AdderTopology::KoggeStone {
                // Prefix levels are wide and kind-uniform: dispatch runs
                // must batch many cells each.
                assert!(
                    tape.runs().len() * 2 < tape.op_count(),
                    "kind-major merging should batch dispatches"
                );
            }
            for _ in 0..16 {
                let inputs: Vec<u64> = (0..32).map(|_| splitmix(&mut seed)).collect();
                let mut arena = Vec::new();
                tape.execute_into(&mut WordPlanes, &inputs, &mut arena);
                assert_eq!(arena, netlist.evaluate_words(&inputs));
            }
        }
    }

    #[test]
    fn chunked_execution_matches_scalar_planes() {
        let adder = build_exact(12, AdderTopology::Sklansky);
        let netlist = adder.netlist();
        let tape = InstructionTape::compile(netlist);
        let mut seed = 0x7A50_0003u64;
        // 4- and 8-wide chunks: element j of every chunk must equal an
        // independent scalar evaluation of plane set j.
        fn check<const C: usize>(tape: &InstructionTape, netlist: &Netlist, seed: &mut u64) {
            let scalar_sets: Vec<Vec<u64>> = (0..C)
                .map(|_| {
                    (0..netlist.inputs().len())
                        .map(|_| splitmix(seed))
                        .collect()
                })
                .collect();
            let chunks: Vec<[u64; C]> = (0..netlist.inputs().len())
                .map(|i| std::array::from_fn(|j| scalar_sets[j][i]))
                .collect();
            let mut arena = Vec::new();
            tape.execute_into(&mut ChunkPlanes::<C>, &chunks, &mut arena);
            for (j, set) in scalar_sets.iter().enumerate() {
                let expected = netlist.evaluate_words(set);
                for (slot, chunk) in arena.iter().enumerate() {
                    assert_eq!(chunk[j], expected[slot], "chunk width {C}, element {j}");
                }
            }
        }
        check::<4>(&tape, netlist, &mut seed);
        check::<8>(&tape, netlist, &mut seed);
    }

    #[test]
    fn raw_parts_round_trip() {
        let adder = build_exact(8, AdderTopology::Ripple);
        let tape = InstructionTape::compile(adder.netlist());
        let original = tape.clone();
        let (ops, runs, inputs, outputs, slots) = tape.into_raw_parts();
        let rebuilt = InstructionTape::from_raw_parts(ops, runs, inputs, outputs, slots);
        assert_eq!(rebuilt, original);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn raw_parts_reject_out_of_range_slots() {
        let adder = build_exact(8, AdderTopology::Ripple);
        let tape = InstructionTape::compile(adder.netlist());
        let (mut ops, runs, inputs, outputs, slots) = tape.into_raw_parts();
        ops[0].a = slots as u32;
        let _ = InstructionTape::from_raw_parts(ops, runs, inputs, outputs, slots);
    }
}
