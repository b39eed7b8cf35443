//! Levelized timed replay of a compiled instruction tape: the 64-lane
//! timed engine behind every gate-level `ysilver`, built as waveform
//! sweeps over the tape's topological schedule.
//!
//! Under the pure transport-delay discipline it shares with the scalar
//! event queue ([`GateLevelSim`](crate::GateLevelSim)), a cell's output
//! waveform is an exact function of its input waveforms:
//! `out(t) = f(in(t - d))` for every `t` past the window it was already
//! committed to. An event queue
//! computes that composition one heap-ordered commit at a time — paying a
//! heap push/pop, a pin chase and a re-evaluation *per input change per
//! cell*. This core computes the same composition directly:
//!
//! * [`TimedTape`] flattens `(tape, annotation)` once into fixed-width
//!   timed ops in tape (topological) order plus a CSR slot→consumers
//!   map; evaluation never touches the netlist graph.
//! * [`TimedTapeCore`] keeps, per arena slot, a **waveform**: the word
//!   value at the window start plus a change-only transition list
//!   covering everything still scheduled to happen. One clock step is a
//!   single sweep over the ops in tape order — no queue, no heap, no
//!   seq numbers. Each active op rebuilds its output waveform by keeping
//!   the slice of its old waveform earlier than `now + d` (transitions
//!   already committed to, which new input activity cannot reach yet)
//!   and re-deriving everything later from a 3-way merge of its fanin
//!   transition lists, evaluating the cell word-function at each
//!   distinct fanin transition time.
//! * Activity gating makes quiet logic free: an op is swept only if a
//!   fanin waveform gained transitions this step (propagated through
//!   the CSR) or its own list is non-empty; everything else is skipped
//!   with one generation-stamp compare.
//!
//! Sampling keeps the event queue's strictly-before semantics: the value
//! at edge `T` is the waveform value just below `T`, and transitions at
//! exactly `T` stay pending into the next step, exactly like events the
//! queue had not yet committed. Samples land in one buffer the core
//! reuses, so a clocked step allocates nothing.
//!
//! [`run_clocked_batch_timed`] deals a stream with the batch layer
//! (`isa_core::batch`): [`LaneSchedule`] gathers each step's pairs and
//! scatters its samples back to stream order, and [`pack_pairs`] /
//! [`unpack_lanes`] move them between pairs and planes in one reused
//! buffer per run.
//!
//! What this core deliberately does **not** provide are activity
//! counters: change-only waveforms erase the zero-width glitch commits
//! that energy bills for, so [`measure_clocked_batch`](crate::measure_clocked_batch)
//! counts activity with its own levelized sweep, which keeps every
//! commit in a per-net commit list instead. The filtered runner's
//! slow path only consumes sampled outputs; the batteries below and the
//! random-netlist proptest in `tests/bit_parity.rs` pin every lane to a
//! scalar [`ClockedSim`](crate::ClockedSim) run. Razor ([`crate::razor`])
//! also reads the waveforms between edges, for its shadow latch.

use isa_core::batch::{pack_pairs, unpack_lanes, LaneSchedule, LANES};
use isa_core::WordPlanes;
use isa_netlist::builders::AdderNetlist;
use isa_netlist::tape::InstructionTape;
use isa_netlist::timing::{ps_to_fs, DelayAnnotation};
use isa_netlist::{CellId, CellKind, Netlist};

/// One timed op: the tape op's operand/output slots plus the cell's
/// dispatch kind and transport delay, flattened for random access (the
/// tape's kind-major runs only help linear plane sweeps).
#[derive(Debug, Clone, Copy)]
struct TimedOp {
    kind: CellKind,
    a: u32,
    b: u32,
    c: u32,
    out: u32,
    delay_fs: u64,
}

/// A tape compiled against a delay annotation: the flat program the
/// timed replay core executes. Period independent — build once per
/// `(netlist, annotation)` and share across waves and periods.
#[derive(Debug, Clone)]
pub struct TimedTape {
    ops: Vec<TimedOp>,
    /// CSR: `fanout_ops[fanout_start[s] .. fanout_start[s + 1]]` are the
    /// ops reading arena slot `s` (each op listed once per slot).
    fanout_start: Vec<u32>,
    fanout_ops: Vec<u32>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
}

impl TimedTape {
    /// Flattens `tape` against `annotation` (one delay per cell of the
    /// netlist both were built from).
    ///
    /// # Panics
    ///
    /// Panics if the annotation does not cover the netlist, the tape's
    /// shape disagrees with the netlist, or any cell *with inputs* has a
    /// zero transport delay. Input-less tie cells (`Const0`/`Const1`)
    /// are allowed a zero delay: their output never transitions, so the
    /// transport-delay discipline has nothing to order for them — and
    /// the carry-select/bypass block topologies really do materialize
    /// them with the library's 0 ps tie-cell delay.
    #[must_use]
    pub fn new(netlist: &Netlist, tape: &InstructionTape, annotation: &DelayAnnotation) -> Self {
        assert_eq!(
            annotation.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            annotation.len(),
            netlist.cell_count()
        );
        assert_eq!(
            tape.op_count(),
            netlist.cell_count(),
            "tape has {} ops for {} cells",
            tape.op_count(),
            netlist.cell_count()
        );
        // The tape reordered cells, but each op's output slot still names
        // its (single) driving cell — recover the delay through it.
        let mut delay_of_slot = vec![0u64; netlist.net_count()];
        for (i, &delay_ps) in annotation.as_slice().iter().enumerate() {
            let cell = netlist.cell(CellId::from_index(i));
            let fs = ps_to_fs(delay_ps);
            assert!(
                fs > 0 || cell.kind.arity() == 0,
                "cell {i} ({:?}) has inputs but a zero transport delay",
                cell.kind
            );
            delay_of_slot[cell.output.index()] = fs;
        }
        let mut ops = Vec::with_capacity(tape.op_count());
        for run in tape.runs() {
            let span = &tape.ops()[run.start as usize..(run.start + run.len) as usize];
            for op in span {
                ops.push(TimedOp {
                    kind: run.kind,
                    a: op.a,
                    b: op.b,
                    c: op.c,
                    out: op.out,
                    delay_fs: delay_of_slot[op.out as usize],
                });
            }
        }
        // CSR over operand slots. Unused operands alias the first, so
        // deduplicating against earlier pins of the same op suffices to
        // list each (slot, op) edge once.
        let slots = tape.slot_count();
        let mut counts = vec![0u32; slots + 1];
        let each_edge = |f: &mut dyn FnMut(u32, u32)| {
            for (o, op) in ops.iter().enumerate() {
                let o = o as u32;
                f(op.a, o);
                if op.b != op.a {
                    f(op.b, o);
                }
                if op.c != op.a && op.c != op.b {
                    f(op.c, o);
                }
            }
        };
        each_edge(&mut |slot, _| counts[slot as usize + 1] += 1);
        for s in 0..slots {
            counts[s + 1] += counts[s];
        }
        let mut cursor = counts.clone();
        let mut fanout_ops = vec![0u32; counts[slots] as usize];
        each_edge(&mut |slot, o| {
            fanout_ops[cursor[slot as usize] as usize] = o;
            cursor[slot as usize] += 1;
        });
        Self {
            ops,
            fanout_start: counts,
            fanout_ops,
            inputs: tape.input_slots().to_vec(),
            outputs: tape.output_slots().to_vec(),
        }
    }

    /// The longest input-to-output path in femtoseconds, summed over the
    /// same rounded per-op delays the replay uses: no output transition
    /// can trail the input change that caused it by more.
    pub(crate) fn critical_fs(&self) -> u64 {
        self.output_arrivals_fs().into_iter().max().unwrap_or(0)
    }

    /// Each output's longest input-to-output path in femtoseconds, in
    /// output order, over the replay's rounded per-op delays.
    fn output_arrivals_fs(&self) -> Vec<u64> {
        let mut arrival = vec![0u64; self.fanout_start.len() - 1];
        for op in &self.ops {
            let latest = arrival[op.a as usize]
                .max(arrival[op.b as usize])
                .max(arrival[op.c as usize]);
            arrival[op.out as usize] = latest + op.delay_fs;
        }
        self.outputs.iter().map(|&s| arrival[s as usize]).collect()
    }
}

/// One slot's waveform: `base` is the word value before the first listed
/// transition; `trans` is change-only with strictly increasing times. A
/// transition at time `u` is visible to consumers evaluating at `u`
/// (inclusive) and to edge sampling strictly after `u`.
#[derive(Debug, Clone, Default)]
struct SlotWave {
    base: u64,
    trans: Vec<(u64, u64)>,
}

impl SlotWave {
    /// The value sampled at edge `t` under strictly-before semantics.
    fn sample_before(&self, t: u64) -> u64 {
        match self.trans.iter().rev().find(|&&(u, _)| u < t) {
            Some(&(_, v)) => v,
            None => self.base,
        }
    }
}

/// A read cursor over one fanin waveform during a merge sweep.
struct FaninCursor<'a> {
    trans: &'a [(u64, u64)],
    idx: usize,
    value: u64,
}

impl<'a> FaninCursor<'a> {
    fn new(wave: &'a SlotWave) -> Self {
        Self {
            trans: &wave.trans,
            idx: 0,
            value: wave.base,
        }
    }

    /// Advances through every transition at time `<= u`.
    #[inline]
    fn advance(&mut self, u: u64) {
        while let Some(&(t, v)) = self.trans.get(self.idx) {
            if t > u {
                break;
            }
            self.value = v;
            self.idx += 1;
        }
    }

    /// The next unconsumed transition time, if any.
    #[inline]
    fn next_time(&self) -> Option<u64> {
        self.trans.get(self.idx).map(|&(t, _)| t)
    }
}

/// 64-lane clocked state over a [`TimedTape`]: lane `l` is, bit for bit,
/// a scalar [`ClockedSim`](crate::ClockedSim) run of lane `l`'s input
/// sequence.
#[derive(Debug, Clone)]
pub struct TimedTapeCore {
    waves: Vec<SlotWave>,
    /// Sweep-activity stamp per op: swept when `== gen` or when its own
    /// transition list is non-empty.
    active_gen: Vec<u64>,
    gen: u64,
    now_fs: u64,
    period_fs: u64,
    /// Recycled transition buffer for waveform rebuilds.
    scratch: Vec<(u64, u64)>,
    /// The last sampled output planes.
    sampled: Vec<u64>,
}

impl TimedTapeCore {
    /// Creates clocked state already settled at `input_planes`: every
    /// slot holds its functional word (computed by one tape sweep) and
    /// nothing is in flight — the state an event-driven run reaches after
    /// driving those inputs to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive/finite or the plane count
    /// differs from the tape's input count.
    #[must_use]
    pub fn with_settled(
        program: &TimedTape,
        tape: &InstructionTape,
        period_ps: f64,
        input_planes: &[u64],
    ) -> Self {
        assert!(
            period_ps.is_finite() && period_ps > 0.0,
            "period must be positive"
        );
        let mut values = Vec::new();
        tape.execute_into(&mut WordPlanes, input_planes, &mut values);
        Self {
            waves: values
                .into_iter()
                .map(|v| SlotWave {
                    base: v,
                    trans: Vec::new(),
                })
                .collect(),
            active_gen: vec![0; program.ops.len()],
            gen: 0,
            now_fs: 0,
            period_fs: ps_to_fs(period_ps),
            scratch: Vec::new(),
            sampled: Vec::with_capacity(program.outputs.len()),
        }
    }

    #[inline]
    fn mark_fanout(&mut self, program: &TimedTape, slot: u32) {
        let (start, end) = (
            program.fanout_start[slot as usize] as usize,
            program.fanout_start[slot as usize + 1] as usize,
        );
        for &o in &program.fanout_ops[start..end] {
            self.active_gen[o as usize] = self.gen;
        }
    }

    /// Applies one input word vector at the current edge, runs one
    /// period, and returns the output planes sampled at the next edge —
    /// same strictly-before sampling semantics as
    /// [`ClockedSim::step`](crate::ClockedSim::step). The planes live in
    /// a buffer the core reuses on every sample.
    ///
    /// # Panics
    ///
    /// Panics if the plane count differs from the program's input count.
    pub fn step_planes(&mut self, program: &TimedTape, input_planes: &[u64]) -> &[u64] {
        assert_eq!(
            input_planes.len(),
            program.inputs.len(),
            "expected {} input planes",
            program.inputs.len()
        );
        let now = self.now_fs;
        self.gen += 1;
        // Drive the inputs: absorb the previous edge's transition into
        // the base (inputs only ever change at edges, all in the past by
        // now) and record one transition at `now` per changed word.
        for (i, &w) in input_planes.iter().enumerate() {
            let slot = program.inputs[i];
            let wave = &mut self.waves[slot as usize];
            if let Some(&(_, v)) = wave.trans.last() {
                wave.base = v;
                wave.trans.clear();
            }
            if wave.base != w {
                wave.trans.push((now, w));
                self.mark_fanout(program, slot);
            }
        }
        // One levelized sweep: every op with fanin activity or an
        // in-flight waveform of its own rebuilds; quiet logic costs one
        // stamp compare.
        for o in 0..program.ops.len() {
            let out = program.ops[o].out as usize;
            if self.active_gen[o] != self.gen && self.waves[out].trans.is_empty() {
                continue;
            }
            self.rebuild(program, o, now);
        }
        self.now_fs = now + self.period_fs;
        self.sample(program, self.now_fs)
    }

    /// The output planes sampled `offset_fs` after the edge at which the
    /// last [`Self::step_planes`] applied its inputs, with those inputs
    /// held — e.g. a shadow latch a margin past the main edge. Same
    /// strictly-before semantics as the edge sample; any offset is valid,
    /// since each waveform already holds everything the held inputs
    /// still cause. Before the first step this reads the settled state.
    #[must_use]
    pub(crate) fn sample_after_launch(&mut self, program: &TimedTape, offset_fs: u64) -> &[u64] {
        let t = self.now_fs.saturating_sub(self.period_fs) + offset_fs;
        self.sample(program, t)
    }

    /// The output planes at time `t` (strictly-before semantics), in the
    /// reused sample buffer.
    fn sample(&mut self, program: &TimedTape, t: u64) -> &[u64] {
        self.sampled.clear();
        let waves = &self.waves;
        self.sampled.extend(
            program
                .outputs
                .iter()
                .map(|&s| waves[s as usize].sample_before(t)),
        );
        &self.sampled
    }

    /// Recomputes op `o`'s output waveform for the window starting at
    /// `now`: keep the old waveform strictly below `now + d` (new fanin
    /// activity cannot reach the output before one transport delay),
    /// re-derive everything at or after `now + d` from the fanin
    /// waveforms, change-only.
    fn rebuild(&mut self, program: &TimedTape, o: usize, now: u64) {
        let op = program.ops[o];
        let out = op.out as usize;
        let mut old = std::mem::take(&mut self.waves[out].trans);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();

        // Absorb stale history (committed before `now`) into the base.
        let mut base = self.waves[out].base;
        let mut i = 0;
        while i < old.len() && old[i].0 < now {
            base = old[i].1;
            i += 1;
        }
        // Keep the committed near-future [now, now + d) as-is.
        let horizon = now + op.delay_fs;
        let mut last = base;
        while i < old.len() && old[i].0 < horizon {
            scratch.push(old[i]);
            last = old[i].1;
            i += 1;
        }
        // Re-derive [now + d, ∞) from the fanins: evaluate at `now` and
        // at every later fanin transition time, emitting on change.
        let arity = op.kind.arity();
        let mut ca = FaninCursor::new(&self.waves[op.a as usize]);
        let mut cb = FaninCursor::new(&self.waves[op.b as usize]);
        let mut cc = FaninCursor::new(&self.waves[op.c as usize]);
        let mut u = now;
        loop {
            ca.advance(u);
            if arity > 1 {
                cb.advance(u);
            }
            if arity > 2 {
                cc.advance(u);
            }
            let pins = [ca.value, cb.value, cc.value];
            let v = op.kind.eval_word(&pins[..arity]);
            if v != last {
                scratch.push((u + op.delay_fs, v));
                last = v;
            }
            let mut next = ca.next_time();
            if arity > 1 {
                next = match (next, cb.next_time()) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                };
            }
            if arity > 2 {
                next = match (next, cc.next_time()) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                };
            }
            match next {
                Some(t) => u = t,
                None => break,
            }
        }

        let wave = &mut self.waves[out];
        wave.base = base;
        wave.trans = scratch;
        old.clear();
        self.scratch = old;
        if !self.waves[out].trans.is_empty() {
            self.mark_fanout(program, op.out);
        }
    }
}

/// Runs an adder's full operand stream on the timed tape core and returns
/// the sampled (`ysilver`) outputs in stream order.
///
/// The stream is dealt to lanes by the [`LaneSchedule`], in **contiguous
/// segments**, so each lane equals a scalar
/// [`ClockedSim`](crate::ClockedSim) run of its segment: consecutive
/// stream cycles stay consecutive everywhere except the at-most-63
/// segment seams, where a lane starts from the reset state exactly like
/// the scalar run's first cycle. Lanes that exhaust their segment hold
/// their last operands.
///
/// # Panics
///
/// Panics if the period is not positive/finite.
#[must_use]
pub fn run_clocked_batch_timed(
    adder: &AdderNetlist,
    program: &TimedTape,
    tape: &InstructionTape,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> Vec<u64> {
    if inputs.is_empty() {
        return Vec::new();
    }
    // The uniform reset state: all lanes settled at zero operands.
    let mut planes = vec![0u64; program.inputs.len()];
    let mut core = TimedTapeCore::with_settled(program, tape, period_ps, &planes);
    let schedule = LaneSchedule::new(inputs.len());
    let mut lane_pairs = [(0u64, 0u64); LANES];
    let mut lane_outputs = [0u64; LANES];
    let mut out = vec![0u64; inputs.len()];
    for t in 0..schedule.steps() {
        schedule.gather(inputs, t, &mut lane_pairs);
        pack_pairs(adder.width(), &lane_pairs, &mut planes);
        unpack_lanes(core.step_planes(program, &planes), &mut lane_outputs);
        schedule.scatter(t, &lane_outputs, u64::MAX, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::scalar_segments;
    use crate::sim::GateLevelSim;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::sta::StaReport;

    fn fixture(topology: AdderTopology) -> (AdderNetlist, DelayAnnotation, InstructionTape, f64) {
        let adder = build_exact(16, topology);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let tape = InstructionTape::compile(adder.netlist());
        let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        (adder, ann, tape, crit)
    }

    fn pairs(n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFFFF, (x >> 20) & 0xFFFF)
            })
            .collect()
    }

    #[test]
    fn timed_replay_matches_scalar_segments_across_periods() {
        // The contract in one battery: sampled outputs equal a scalar
        // clocked run of every lane segment on every cycle, from deep
        // overclock (transitions pending across many edges) to a safe
        // clock (no violations), on both a ripple and a prefix topology.
        for (salt, topology) in [AdderTopology::Ripple, AdderTopology::KoggeStone]
            .into_iter()
            .enumerate()
        {
            let (adder, ann, tape, crit) = fixture(topology);
            let program = TimedTape::new(adder.netlist(), &tape, &ann);
            let inputs = pairs(500, 0x71AE + salt as u64);
            for factor in [0.25, 0.5, 0.75, 0.9, 1.1] {
                let period = crit * factor;
                assert_eq!(
                    run_clocked_batch_timed(&adder, &program, &tape, period, &inputs),
                    scalar_segments(&adder, &ann, period, &inputs),
                    "{topology:?} at {factor} x critical"
                );
            }
        }
    }

    #[test]
    fn transitions_landing_exactly_on_the_edge_stay_pending() {
        // Periods equal to an output's exact arrival time put a
        // transition precisely on the sampling edge, where the scalar
        // queue's strictly-before rule samples the old value. Random
        // periods almost never hit this tie, so pin it directly.
        let (adder, ann, tape, _) = fixture(AdderTopology::Ripple);
        let program = TimedTape::new(adder.netlist(), &tape, &ann);
        let mut edges = program.output_arrivals_fs();
        edges.sort_unstable();
        edges.dedup();
        // Full-carry-chain pairs between random ones sensitize the long
        // paths the arrival times above belong to.
        let inputs: Vec<(u64, u64)> = pairs(256, 0xED6E)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 3 == 0 {
                    (0xFFFF, (i as u64 / 3) & 1)
                } else {
                    p
                }
            })
            .collect();
        for edge_fs in edges {
            let period = edge_fs as f64 / 1000.0;
            assert_eq!(ps_to_fs(period), edge_fs);
            assert_eq!(
                run_clocked_batch_timed(&adder, &program, &tape, period, &inputs),
                scalar_segments(&adder, &ann, period, &inputs),
                "period {edge_fs} fs"
            );
        }
    }

    #[test]
    fn zero_delay_tie_cells_are_accepted_and_replay_exactly() {
        // Carry-select (and skip) blocks materialize Const0/Const1 tie
        // cells, which the library annotates at 0 ps. The timed tape
        // must accept them (they never transition, so transport-delay
        // ordering is moot) and still match the scalar oracle — this
        // design class is reachable from full-space exploration.
        let (adder, ann, tape, crit) = fixture(AdderTopology::CarrySelect(4));
        assert!(
            adder
                .netlist()
                .cells()
                .iter()
                .any(|c| matches!(c.kind, CellKind::Const0 | CellKind::Const1)),
            "fixture must actually contain tie cells"
        );
        let program = TimedTape::new(adder.netlist(), &tape, &ann);
        let inputs = pairs(300, 0xC0DE);
        for factor in [0.5, 0.8, 1.1] {
            let period = crit * factor;
            assert_eq!(
                run_clocked_batch_timed(&adder, &program, &tape, period, &inputs),
                scalar_segments(&adder, &ann, period, &inputs),
                "carry-select at {factor} x critical"
            );
        }
    }

    #[test]
    fn settled_seed_then_steps_match_scalar_lanes() {
        // Mid-stream seeding parity: a core settled at seed operands must
        // sample, lane by lane, like a scalar run driven to quiescence at
        // the same operands and then clocked through violating steps.
        let (adder, ann, tape, crit) = fixture(AdderTopology::Ripple);
        let program = TimedTape::new(adder.netlist(), &tape, &ann);
        let period = crit * 0.6;
        let period_fs = ps_to_fs(period);
        let seed_input = pairs(LANES, 0x5EED);
        let mut planes = [0u64; 32];
        pack_pairs(16, &seed_input, &mut planes);
        let mut timed = TimedTapeCore::with_settled(&program, &tape, period, &planes);
        let mut scalars: Vec<GateLevelSim<'_>> = seed_input
            .iter()
            .map(|&(a, b)| {
                let mut sim = GateLevelSim::new(adder.netlist(), &ann);
                sim.set_inputs(&adder.input_values(a, b));
                sim.run_to_quiescence(1_000_000).unwrap();
                sim
            })
            .collect();
        for step in 0..32 {
            let step_input = pairs(LANES, 0xAB + step);
            pack_pairs(16, &step_input, &mut planes);
            let mut lanes = [0u64; LANES];
            unpack_lanes(timed.step_planes(&program, &planes), &mut lanes);
            for (l, (sim, &(a, b))) in scalars.iter_mut().zip(&step_input).enumerate() {
                let edge = sim.now_fs() + period_fs;
                sim.set_inputs(&adder.input_values(a, b));
                sim.run_until(edge);
                assert_eq!(lanes[l], sim.outputs_u64(), "step {step} lane {l}");
            }
        }
    }
}
