//! Activity-based energy estimation.
//!
//! The paper's context is power efficiency ("circuit-level speculation ...
//! reducing delay, area and power consumption"); this module closes the
//! loop by estimating dynamic energy from simulated switching activity:
//! every committed output transition of a cell costs that cell's library
//! energy, and leakage accrues with area and time. The same activity counts
//! also drive the energy-efficiency comparison of the `energy_table`
//! experiment.
//!
//! Batched runs ([`measure_clocked_batch`]) count activity with a
//! levelized sweep over the netlist's cell list, which is topological,
//! 64 lanes to a word, the way [`TimedTapeCore`](crate::TimedTapeCore)
//! replays the tape. The stream is dealt by the batch layer's
//! [`LaneSchedule`] and packed by [`pack_pairs`] into one reused buffer,
//! exactly like the timed replay; the counts are pinned to the one scalar
//! energy oracle, [`scalar_segment_commits`](crate::scalar_segment_commits).
//! The timed tape keeps change-only waveforms; the sweep keeps a per-net
//! **commit list** holding every commit the scalar event queue
//! ([`GateLevelSim`](crate::GateLevelSim)) makes, because energy bills
//! the same-instant repeat commits (zero-width glitches) that change-only
//! waveforms merge. A cell evaluates after each of its fanin commits,
//! taken in the queue's exact `(time, seq)` order, and commits one
//! transport delay later whenever its output word changes. At one
//! instant that order is:
//!
//! * the step's input changes, by input index. All of them commit before
//!   any cell evaluates, and the queue schedules events only from inputs
//!   that changed, so a lane's input-caused commit belongs to the
//!   lowest-indexed input that changed *in that lane*: one word may
//!   commit once per such input, each time in its own lanes. (A
//!   word-level event queue keys every lane by the lowest input that
//!   changed in *any* lane, which reorders same-instant commits under
//!   tied delays.)
//! * then commits carried from an earlier step, by rank;
//! * then commits this step scheduled, by their causes' order, then by
//!   the consumer's position in the cause net's [`Netlist::fanout`] list
//!   — the order in which the queue hands out `seq` numbers.
//!
//! A cell's delay is fixed, so its commits before `edge + delay` have
//! causes before the edge and are final. Those at or past the edge carry
//! into the next step, ranked once; later ones are re-derived there, from
//! the next inputs. Only commits before each edge are counted. The sweep
//! never samples outputs: `ysilver` always comes from the timed tape.

use std::cmp::Ordering;

use isa_core::batch::{pack_pairs, LaneSchedule, LANES};
use isa_netlist::builders::AdderNetlist;
use isa_netlist::cell::{CellKind, CellLibrary};
use isa_netlist::graph::{CellId, NetDriver, NetId, Netlist};
use isa_netlist::timing::DelayAnnotation;

use crate::sim::ps_to_fs;

/// Leakage power per NAND2-equivalent area unit, in nanowatts (65 nm-class
/// general-purpose magnitude).
pub const LEAKAGE_NW_PER_AREA: f64 = 2.0;

/// Energy breakdown of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Dynamic (switching) energy in femtojoules.
    pub dynamic_fj: f64,
    /// Leakage energy in femtojoules over the simulated time span.
    pub leakage_fj: f64,
    /// Total committed transitions counted.
    pub transitions: u64,
    /// Simulated time span in femtoseconds.
    pub span_fs: u64,
}

impl EnergyReport {
    /// Total energy in femtojoules.
    #[must_use]
    pub fn total_fj(&self) -> f64 {
        self.dynamic_fj + self.leakage_fj
    }

    /// Energy per operation, given the number of operations in the run.
    ///
    /// # Panics
    ///
    /// Panics if `operations` is zero.
    #[must_use]
    pub fn per_op_fj(&self, operations: u64) -> f64 {
        assert!(operations > 0, "at least one operation required");
        self.total_fj() / operations as f64
    }
}

/// Characterizes an adder's switching energy over an input stream: runs
/// the whole stream through the 64-lane activity sweep at `period_ps` and
/// charges leakage over the sequential-equivalent span
/// (`inputs.len() × period`), so the figure is comparable with a scalar
/// run of the same operation count on one circuit. This is the one
/// energy-per-addition recipe shared by the `energy_table` experiment and
/// the design-space explorer's energy objective.
///
/// The stream is dealt to lanes by the [`LaneSchedule`], exactly like the
/// timed replay: each lane carries one contiguous segment, and lanes that
/// exhaust their segment hold their last inputs, so padding adds no
/// switching activity once settled.
///
/// # Panics
///
/// Panics if the period is not positive/finite (or rounds to 0 fs) or the
/// annotation does not cover the netlist.
#[must_use]
pub fn measure_clocked_batch(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    inputs: &[(u64, u64)],
    lib: &CellLibrary,
) -> EnergyReport {
    assert!(
        period_ps.is_finite() && period_ps > 0.0 && ps_to_fs(period_ps) > 0,
        "period must be positive"
    );
    let _span = isa_obs::span("sim.energy");
    // Same femtosecond rounding as the simulated clock edge, so the
    // leakage span and the activity it pairs with agree to the grid.
    let period_fs = ps_to_fs(period_ps);
    let counts = clocked_batch_commits(adder, annotation, period_fs, inputs);
    measure_activity(
        &counts,
        inputs.len() as u64 * period_fs,
        adder.netlist(),
        lib,
    )
}

/// The lane-summed per-net commit counts of a stream dealt to lanes as
/// [`measure_clocked_batch`] describes.
fn clocked_batch_commits(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_fs: u64,
    inputs: &[(u64, u64)],
) -> Vec<u64> {
    let mut sweep = ActivitySweep::new(adder.netlist(), annotation);
    let schedule = LaneSchedule::new(inputs.len());
    let mut lane_pairs = [(0u64, 0u64); LANES];
    let mut planes = vec![0u64; 2 * adder.width() as usize];
    for t in 0..schedule.steps() {
        schedule.gather(inputs, t, &mut lane_pairs);
        pack_pairs(adder.width(), &lane_pairs, &mut planes);
        sweep.step(&planes, period_fs);
    }
    sweep.net_commits
}

/// Estimates energy from an explicit activity profile: per-net committed
/// transition counts plus the wall-clock span to charge leakage over.
///
/// Dynamic energy: each committed transition of a cell-driven net costs the
/// driving cell's per-switch energy. Primary-input transitions are charged
/// like buffers (the register driving them switches too). Leakage: area x
/// time x [`LEAKAGE_NW_PER_AREA`].
///
/// A scalar run passes its simulator's
/// [`net_commit_counts`](crate::GateLevelSim::net_commit_counts) and
/// [`now_fs`](crate::GateLevelSim::now_fs). [`measure_clocked_batch`]'s
/// 64-lane counts already sum transitions over lanes; it passes the
/// *sequential-equivalent* span (`ops x period`) so leakage stays
/// comparable with a scalar run of the same operation count on one
/// circuit.
#[must_use]
pub fn measure_activity(
    counts: &[u64],
    span_fs: u64,
    netlist: &Netlist,
    lib: &CellLibrary,
) -> EnergyReport {
    let mut dynamic_fj = 0.0f64;
    let mut transitions = 0u64;
    for (index, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        transitions += count;
        let net = NetId::from_index(index);
        let per_switch = match netlist.driver(net) {
            NetDriver::Cell(cell) => lib.energy_fj(netlist.cell(cell).kind),
            NetDriver::Input => lib.energy_fj(CellKind::Buf),
        };
        dynamic_fj += per_switch * count as f64;
    }
    // nW * fs = 1e-9 W * 1e-15 s = 1e-24 J = 1e-9 fJ.
    let leakage_fj = netlist.area(lib) * LEAKAGE_NW_PER_AREA * span_fs as f64 * 1e-9;
    EnergyReport {
        dynamic_fj,
        leakage_fj,
        transitions,
        span_fs,
    }
}

/// Where a commit falls among the commits of one instant, in the scalar
/// event queue's `(time, seq)` order.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// A primary-input change at the step's start, by input index.
    Input(u32),
    /// A commit scheduled in an earlier step, by rank.
    Carried(u64),
    /// A commit scheduled this step: after its cause (an arena index),
    /// then by the consumer's position in the cause net's fanout list.
    New { cause: u32, pos: u32 },
}

/// One commit: a net takes `value` (bit `l` = lane `l`) at `time_fs`.
#[derive(Debug, Clone, Copy)]
struct Commit {
    time_fs: u64,
    value: u64,
    order: Order,
}

/// Orders two commits of one instant as the event queue pops them.
fn same_instant(arena: &[Commit], mut x: Order, mut y: Order) -> Ordering {
    loop {
        match (x, y) {
            (Order::Input(i), Order::Input(j)) => return i.cmp(&j),
            (Order::Input(_), _) => return Ordering::Less,
            (_, Order::Input(_)) => return Ordering::Greater,
            (Order::Carried(r), Order::Carried(s)) => return r.cmp(&s),
            (Order::Carried(_), _) => return Ordering::Less,
            (_, Order::Carried(_)) => return Ordering::Greater,
            (Order::New { cause: c, pos: p }, Order::New { cause: d, pos: q }) => {
                if c == d {
                    return p.cmp(&q);
                }
                let (a, b) = (arena[c as usize], arena[d as usize]);
                if a.time_fs != b.time_fs {
                    return a.time_fs.cmp(&b.time_fs);
                }
                (x, y) = (a.order, b.order);
            }
        }
    }
}

/// The event queue's `(time, seq)` order over commits.
fn queue_order(arena: &[Commit], a: &Commit, b: &Commit) -> Ordering {
    a.time_fs
        .cmp(&b.time_fs)
        .then_with(|| same_instant(arena, a.order, b.order))
}

/// One distinct net a cell reads: the pin slots it feeds (a bit mask) and
/// the cell's first position in the net's fanout list. A repeated pin's
/// later positions schedule repeats of the same value, which never commit.
#[derive(Debug, Clone, Copy, Default)]
struct Fanin {
    net: u32,
    pins: u8,
    pos: u32,
}

/// A cell flattened for the sweep.
#[derive(Debug, Clone, Copy)]
struct SweepCell {
    kind: CellKind,
    out: u32,
    delay_fs: u64,
    fanins: [Fanin; 3],
    fanin_count: usize,
}

#[inline]
fn set_pins(pins: &mut [u64; 3], mask: u8, word: u64) {
    for (slot, pin) in pins.iter_mut().enumerate() {
        if mask >> slot & 1 == 1 {
            *pin = word;
        }
    }
}

/// 64-lane levelized activity counter: every net holds a `u64` whose bit
/// `l` is its value in lane `l`. Delays are per cell (identical across
/// lanes), so word commits are exact per lane: a cell re-evaluated
/// because *any* lane's fanin changed repeats its current value in the
/// lanes whose fanins did not. Each commit adds the popcount of its
/// flipped lanes to its net's count, so the counts equal the sum of 64
/// scalar runs' per-net transition counts (pinned against `GateLevelSim`
/// by the unit tests below).
struct ActivitySweep {
    cells: Vec<SweepCell>,
    inputs: Vec<u32>,
    /// Each net's word at the current step's start.
    values: Vec<u64>,
    /// Each net's word at the next edge, filled by the sweep.
    next_values: Vec<u64>,
    /// Lane-summed commits counted per net.
    net_commits: Vec<u64>,
    /// This step's commits before the edge, net after net in sweep order:
    /// the only ones whose effects can land before a later edge.
    arena: Vec<Commit>,
    /// Each net's `arena` range this step.
    spans: Vec<(u32, u32)>,
    /// Commits at or past the last edge whose causes came before it, net
    /// after net; `carry_spans` holds each net's range. The sweep reads
    /// one net's range and writes its next one in `next_carry`.
    carry: Vec<Commit>,
    next_carry: Vec<Commit>,
    carry_spans: Vec<(u32, u32)>,
    /// The `next_carry` entries scheduled this step, awaiting a rank.
    fresh: Vec<u32>,
    next_rank: u64,
    now_fs: u64,
}

impl ActivitySweep {
    /// All lanes' primary inputs at 0 and the netlist settled there.
    fn new(netlist: &Netlist, annotation: &DelayAnnotation) -> Self {
        assert_eq!(
            annotation.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            annotation.len(),
            netlist.cell_count()
        );
        let cells = netlist
            .cells()
            .iter()
            .zip(annotation.as_slice())
            .enumerate()
            .map(|(i, (cell, &delay_ps))| {
                let id = CellId::from_index(i);
                let mut fanins = [Fanin::default(); 3];
                let mut fanin_count = 0;
                for (slot, &net) in cell.inputs.iter().enumerate() {
                    let index = net.index() as u32;
                    if let Some(f) = fanins[..fanin_count].iter_mut().find(|f| f.net == index) {
                        f.pins |= 1 << slot;
                        continue;
                    }
                    let pos = netlist
                        .fanout(net)
                        .iter()
                        .position(|&c| c == id)
                        .expect("a cell is in the fanout of every net it reads");
                    fanins[fanin_count] = Fanin {
                        net: index,
                        pins: 1 << slot,
                        pos: pos as u32,
                    };
                    fanin_count += 1;
                }
                SweepCell {
                    kind: cell.kind,
                    out: cell.output.index() as u32,
                    delay_fs: ps_to_fs(delay_ps),
                    fanins,
                    fanin_count,
                }
            })
            .collect();
        let values = netlist.evaluate_words(&vec![0; netlist.inputs().len()]);
        let nets = netlist.net_count();
        Self {
            cells,
            inputs: netlist.inputs().iter().map(|n| n.index() as u32).collect(),
            next_values: values.clone(),
            values,
            net_commits: vec![0; nets],
            arena: Vec::new(),
            spans: vec![(0, 0); nets],
            carry: Vec::new(),
            next_carry: Vec::new(),
            carry_spans: vec![(0, 0); nets],
            fresh: Vec::new(),
            next_rank: 0,
            now_fs: 0,
        }
    }

    /// Drives the primary inputs to `words` at the current edge, sweeps
    /// the cells once, and advances to the next edge `period_fs` later:
    /// every commit before that edge is counted, and each cell's commits
    /// in `[edge, edge + delay)` — caused before the edge, so final —
    /// carry into the next step, the ones scheduled this step ranked
    /// after every earlier rank, in queue order. Later commits would be
    /// caused at or past the edge, so the next step re-derives them.
    fn step(&mut self, words: &[u64], period_fs: u64) {
        let start = self.now_fs;
        let edge = start + period_fs;
        self.arena.clear();
        self.next_carry.clear();
        self.fresh.clear();
        for (i, (&net, &word)) in self.inputs.iter().zip(words).enumerate() {
            let net = net as usize;
            let at = self.arena.len() as u32;
            let flipped = self.values[net] ^ word;
            if flipped != 0 {
                self.net_commits[net] += u64::from(flipped.count_ones());
                self.arena.push(Commit {
                    time_fs: start,
                    value: word,
                    order: Order::Input(i as u32),
                });
            }
            self.next_values[net] = word;
            self.spans[net] = (at, self.arena.len() as u32);
        }
        for c in 0..self.cells.len() {
            self.sweep_cell(c, start, edge);
        }
        std::mem::swap(&mut self.values, &mut self.next_values);
        std::mem::swap(&mut self.carry, &mut self.next_carry);
        let (arena, carry) = (&self.arena, &self.carry);
        self.fresh
            .sort_unstable_by(|&x, &y| queue_order(arena, &carry[x as usize], &carry[y as usize]));
        for &x in &self.fresh {
            self.carry[x as usize].order = Order::Carried(self.next_rank);
            self.next_rank += 1;
        }
        self.now_fs = edge;
    }

    /// Sweeps one cell for the step `[start, edge)`: its carried commits,
    /// then one evaluation per fanin commit in queue order, committing
    /// one delay later whenever the word changes.
    fn sweep_cell(&mut self, c: usize, start: u64, edge: u64) {
        let cell = self.cells[c];
        let out = cell.out as usize;
        let begin = self.arena.len() as u32;
        let carried_from = self.next_carry.len() as u32;
        let mut emit = Emit {
            edge,
            last: self.values[out],
            word: self.values[out],
            flips: 0,
        };
        let (from, to) = self.carry_spans[out];
        for i in from as usize..to as usize {
            let commit = self.carry[i];
            emit.commit(self, commit, false);
        }
        let fanins = &cell.fanins[..cell.fanin_count];
        let arity = cell.kind.arity();
        let mut pins = [0u64; 3];
        let mut at = [0usize; 3];
        let mut end = [0usize; 3];
        // Input changes, as (input index, arena index, fanin), each an
        // input net's one commit at the head of its list.
        let mut driven = [(0u32, 0usize, 0usize); 3];
        let mut driven_count = 0;
        for (j, f) in fanins.iter().enumerate() {
            set_pins(&mut pins, f.pins, self.values[f.net as usize]);
            let (s, e) = self.spans[f.net as usize];
            (at[j], end[j]) = (s as usize, e as usize);
            if at[j] < end[j] {
                if let Order::Input(i) = self.arena[at[j]].order {
                    driven[driven_count] = (i, at[j], j);
                    driven_count += 1;
                    at[j] += 1;
                }
            }
        }
        if driven_count > 0 {
            // Every input commits before any event, so each input's event
            // evaluates the whole new input vector. A lane changes at the
            // event of the lowest-indexed input that changed *in that
            // lane* (the scalar queue schedules none for the others).
            let driven = &mut driven[..driven_count];
            driven.sort_unstable_by_key(|&(i, _, _)| i);
            for &(_, cause, j) in driven.iter() {
                set_pins(&mut pins, fanins[j].pins, self.arena[cause].value);
            }
            let settled = cell.kind.eval_word(&pins[..arity]);
            let mut reached = 0u64;
            for &(_, cause, j) in driven.iter() {
                reached |= self.values[fanins[j].net as usize] ^ self.arena[cause].value;
                let value = (emit.last & !reached) | (settled & reached);
                let order = Order::New {
                    cause: cause as u32,
                    pos: fanins[j].pos,
                };
                emit.event(self, start + cell.delay_fs, value, order);
            }
        }
        // Every other fanin commit, in queue order.
        let mut live = [0usize; 3];
        let mut live_count = 0;
        for j in 0..fanins.len() {
            if at[j] < end[j] {
                live[live_count] = j;
                live_count += 1;
            }
        }
        while live_count > 0 {
            let mut k = 0;
            for m in 1..live_count {
                if self.precedes(at[live[m]], at[live[k]]) {
                    k = m;
                }
            }
            let j = live[k];
            let cause = self.arena[at[j]];
            set_pins(&mut pins, fanins[j].pins, cause.value);
            let value = cell.kind.eval_word(&pins[..arity]);
            let order = Order::New {
                cause: at[j] as u32,
                pos: fanins[j].pos,
            };
            emit.event(self, cause.time_fs + cell.delay_fs, value, order);
            at[j] += 1;
            if at[j] == end[j] {
                live_count -= 1;
                live[k] = live[live_count];
            }
        }
        self.net_commits[out] += emit.flips;
        self.next_values[out] = emit.word;
        self.spans[out] = (begin, self.arena.len() as u32);
        self.carry_spans[out] = (carried_from, self.next_carry.len() as u32);
    }

    /// Whether arena commit `x` pops before arena commit `y`.
    #[inline]
    fn precedes(&self, x: usize, y: usize) -> bool {
        let (a, b) = (&self.arena[x], &self.arena[y]);
        a.time_fs < b.time_fs
            || (a.time_fs == b.time_fs
                && same_instant(&self.arena, a.order, b.order) == Ordering::Less)
    }
}

/// One cell's output while it is swept: `last` is its word after every
/// event so far, `word` after every commit before the edge, and `flips`
/// the lanes those commits flipped.
struct Emit {
    edge: u64,
    last: u64,
    word: u64,
    flips: u64,
}

impl Emit {
    /// Records an event: a commit if it changes the word.
    #[inline]
    fn event(&mut self, sweep: &mut ActivitySweep, time_fs: u64, value: u64, order: Order) {
        if value != self.last {
            let commit = Commit {
                time_fs,
                value,
                order,
            };
            self.commit(sweep, commit, true);
        }
    }

    /// Counts a commit before the edge (a fanin commit for later cells),
    /// or carries one at or past it.
    #[inline]
    fn commit(&mut self, sweep: &mut ActivitySweep, commit: Commit, fresh: bool) {
        self.last = commit.value;
        if commit.time_fs < self.edge {
            self.flips += u64::from((self.word ^ commit.value).count_ones());
            self.word = commit.value;
            sweep.arena.push(commit);
        } else {
            if fresh {
                sweep.fresh.push(sweep.next_carry.len() as u32);
            }
            sweep.next_carry.push(commit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::scalar_segment_commits;
    use crate::sim::GateLevelSim;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::graph::NetlistBuilder;
    use isa_netlist::sta::StaReport;
    use isa_netlist::timing::VariationModel;
    use proptest::prelude::*;

    fn run_cycles(adder_bits: u32, topology: AdderTopology, inputs: &[(u64, u64)]) -> EnergyReport {
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(adder_bits, topology);
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let mut sim = GateLevelSim::new(adder.netlist(), &ann);
        for &(a, b) in inputs {
            sim.set_inputs(&adder.input_values(a, b));
            sim.run_to_quiescence(1_000_000).unwrap();
            // Advance a fixed cycle time for a fair leakage comparison.
            let t = sim.now_fs();
            sim.run_until(t + 300_000);
        }
        measure_activity(sim.net_commit_counts(), sim.now_fs(), adder.netlist(), &lib)
    }

    fn pairs(n: usize) -> Vec<(u64, u64)> {
        let mut seed = 77u64;
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed & 0xFFFF, (seed >> 13) & 0xFFFF)
            })
            .collect()
    }

    #[test]
    fn idle_circuit_burns_only_leakage() {
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(8, AdderTopology::Ripple);
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let mut sim = GateLevelSim::new(adder.netlist(), &ann);
        sim.run_until(1_000_000);
        let report = measure_activity(sim.net_commit_counts(), sim.now_fs(), adder.netlist(), &lib);
        assert_eq!(report.dynamic_fj, 0.0);
        assert_eq!(report.transitions, 0);
        assert!(report.leakage_fj > 0.0);
        assert_eq!(report.total_fj(), report.leakage_fj);
    }

    #[test]
    fn more_activity_burns_more_dynamic_energy() {
        let few = run_cycles(16, AdderTopology::Ripple, &pairs(10));
        let many = run_cycles(16, AdderTopology::Ripple, &pairs(100));
        assert!(many.dynamic_fj > few.dynamic_fj * 5.0);
        assert!(many.transitions > few.transitions);
    }

    #[test]
    fn bigger_adders_cost_more_energy_per_op() {
        let inputs = pairs(50);
        let ripple = run_cycles(16, AdderTopology::Ripple, &inputs);
        let ks = run_cycles(16, AdderTopology::KoggeStone, &inputs);
        assert!(
            ks.total_fj() > ripple.total_fj(),
            "Kogge-Stone ({:.0} fJ) should out-consume ripple ({:.0} fJ)",
            ks.total_fj(),
            ripple.total_fj()
        );
    }

    #[test]
    fn per_op_divides_total() {
        let report = run_cycles(8, AdderTopology::Ripple, &pairs(20));
        assert!((report.per_op_fj(20) * 20.0 - report.total_fj()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn per_op_rejects_zero() {
        let report = run_cycles(8, AdderTopology::Ripple, &pairs(5));
        let _ = report.per_op_fj(0);
    }

    #[test]
    fn lane_weighted_commits_match_scalar_totals() {
        // One step with 64 distinct lanes and a period past every settle
        // time must count, net by net, exactly the sum of 64 scalar runs'
        // transitions (uniform reset state, one vector each, run to
        // quiescence).
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(16, AdderTopology::Ripple);
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let netlist = adder.netlist();
        let crit = StaReport::analyze(netlist, &ann).critical_ps();
        let input = pairs(LANES);

        let batched = clocked_batch_commits(&adder, &ann, ps_to_fs(2.0 * crit), &input);
        let mut scalar = vec![0u64; netlist.net_count()];
        for &(a, b) in &input {
            let mut sim = GateLevelSim::new(netlist, &ann);
            sim.set_inputs(&adder.input_values(a, b));
            sim.run_to_quiescence(1_000_000).unwrap();
            for (total, &k) in scalar.iter_mut().zip(sim.net_commit_counts()) {
                *total += k;
            }
        }
        assert_eq!(batched, scalar);
    }

    #[test]
    fn clocked_batch_counts_equal_scalar_segments_at_safe_and_overclocked_periods() {
        // Every lane carries a full segment (n is a multiple of 64), so
        // each lane is exactly one scalar clocked run of its segment and
        // the batch must bill the same transitions, glitches included.
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(16, AdderTopology::Ripple);
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let netlist = adder.netlist();
        let crit = StaReport::analyze(netlist, &ann).critical_ps();
        let inputs = pairs(LANES * 5);
        for period in [crit + 1.0, crit * 0.6] {
            let batched = measure_clocked_batch(&adder, &ann, period, &inputs, &lib);
            let period_fs = ps_to_fs(period);
            let scalar = scalar_segment_commits(&adder, &ann, period_fs, &inputs);
            assert_eq!(
                batched.transitions,
                scalar.iter().sum::<u64>(),
                "period {period}"
            );
            assert_eq!(batched.span_fs, inputs.len() as u64 * period_fs);
        }
    }

    #[test]
    fn per_net_commits_equal_summed_scalar_lanes() {
        // Ripple, prefix and carry-select (0 ps tie cells) adders, under
        // nominal delays (dense same-instant ties) and a varied die, from
        // deep overclock to a safe clock, over streams that fill every
        // lane, end ragged, or leave lanes empty: every net's lane-summed
        // count equals the scalar segment runs'. Overclocked, the lanes
        // whose segment ran out keep committing while they hold.
        let lib = CellLibrary::industrial_65nm();
        for topology in [
            AdderTopology::Ripple,
            AdderTopology::KoggeStone,
            AdderTopology::CarrySelect(4),
        ] {
            let adder = build_exact(16, topology);
            let netlist = adder.netlist();
            let die =
                DelayAnnotation::nominal(netlist, &lib).perturbed(&VariationModel::new(0.05, 11));
            for (label, ann) in [
                ("nominal", DelayAnnotation::nominal(netlist, &lib)),
                ("die", die),
            ] {
                let crit = StaReport::analyze(netlist, &ann).critical_ps();
                for n in [LANES * 5, 203, 37] {
                    let inputs = pairs(n);
                    for factor in [0.25, 0.5, 0.75, 0.9, 1.1] {
                        let period_fs = ps_to_fs(crit * factor);
                        assert_eq!(
                            clocked_batch_commits(&adder, &ann, period_fs, &inputs),
                            scalar_segment_commits(&adder, &ann, period_fs, &inputs),
                            "{topology:?}, {label} delays, {n} pairs, {factor} x critical"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn commits_landing_exactly_on_the_edge_stay_pending() {
        // A period equal to an output's exact arrival time puts commits
        // precisely on the edge, where the queue's strictly-before rule
        // leaves them pending into the next step. Random periods almost
        // never hit this tie, so pin it directly.
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(16, AdderTopology::Ripple);
        let netlist = adder.netlist();
        let ann = DelayAnnotation::nominal(netlist, &lib);
        let mut arrival = vec![0u64; netlist.net_count()];
        for (cell, &delay_ps) in netlist.cells().iter().zip(ann.as_slice()) {
            let latest = cell.inputs.iter().map(|n| arrival[n.index()]).max();
            arrival[cell.output.index()] = latest.unwrap_or(0) + ps_to_fs(delay_ps);
        }
        let mut edges: Vec<u64> = netlist
            .outputs()
            .iter()
            .map(|n| arrival[n.index()])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        // Full-carry-chain pairs between random ones sensitize the long
        // paths the arrival times above belong to.
        let inputs: Vec<(u64, u64)> = pairs(256)
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
        for period_fs in edges {
            assert_eq!(
                clocked_batch_commits(&adder, &ann, period_fs, &inputs),
                scalar_segment_commits(&adder, &ann, period_fs, &inputs),
                "period {period_fs} fs"
            );
        }
    }

    /// Steps the sweep and one scalar run per lane through `steps` (one
    /// bool vector per lane each) and returns both per-net counts, the
    /// scalar ones summed over lanes.
    fn sweep_and_scalar_lanes(
        nl: &Netlist,
        ann: &DelayAnnotation,
        period_fs: u64,
        steps: &[Vec<Vec<bool>>],
    ) -> (Vec<u64>, Vec<u64>) {
        let mut sweep = ActivitySweep::new(nl, ann);
        let mut scalars: Vec<GateLevelSim<'_>> =
            (0..LANES).map(|_| GateLevelSim::new(nl, ann)).collect();
        for vectors in steps {
            let mut words = vec![0u64; nl.inputs().len()];
            for (l, vector) in vectors.iter().enumerate() {
                for (word, &bit) in words.iter_mut().zip(vector) {
                    *word |= u64::from(bit) << l;
                }
            }
            sweep.step(&words, period_fs);
            for (sim, vector) in scalars.iter_mut().zip(vectors) {
                let edge = sim.now_fs() + period_fs;
                sim.set_inputs(vector);
                sim.run_until(edge);
            }
        }
        let mut scalar = vec![0u64; nl.net_count()];
        for sim in &scalars {
            for (total, &k) in scalar.iter_mut().zip(sim.net_commit_counts()) {
                *total += k;
            }
        }
        (sweep.net_commits, scalar)
    }

    #[test]
    fn each_lane_orders_input_events_by_its_own_changed_inputs() {
        // Inputs a, z, b in that order; c1 = OR(a, b), c2 = BUF(z) and
        // y = AND(c1, c2), all delays equal, so c1 and c2 commit at one
        // instant and their order decides whether y glitches. After z
        // rises everywhere, lane 0 drops z and raises b: its scalar queue
        // schedules c2 (from z) before c1 (from b), so y stays low. Lane 1
        // also raises a, whose event comes first: c1 rises before c2
        // falls and y glitches. Keying lane 0 by a, an input that changed
        // only in lane 1, would bill it the same glitch.
        let mut b = NetlistBuilder::new("input-order");
        let a = b.input("a");
        let z = b.input("z");
        let rise = b.input("b");
        let c1 = b.or2(a, rise);
        let c2 = b.buf(z);
        let y = b.and2(c1, c2);
        b.mark_output(y, "y");
        let nl = b.finish().unwrap();
        let ann = DelayAnnotation::from_delays(vec![10.0; 3]);
        let lanes = |vectors: [[bool; 3]; 2]| -> Vec<Vec<bool>> {
            (0..LANES).map(|l| vectors[l.min(1)].to_vec()).collect()
        };
        let steps = [
            lanes([[false, true, false], [false, true, false]]),
            lanes([[false, false, true], [true, false, true]]),
        ];
        let (swept, scalar) = sweep_and_scalar_lanes(&nl, &ann, ps_to_fs(100.0), &steps);
        assert_eq!(swept, scalar);
        assert_eq!(
            swept[y.index()],
            2 * (LANES as u64 - 1),
            "only lanes 1.. glitch"
        );
    }

    /// Recipe for one random cell: kind selector plus input selectors.
    type CellRecipe = (u8, u16, u16, u16);

    /// A random combinational netlist over `n_inputs` inputs, the
    /// generator of `tests/bit_parity.rs`: pins pick from few nets, so
    /// repeated pins are common.
    fn build_random(n_inputs: usize, recipes: &[CellRecipe]) -> Netlist {
        let kinds = [
            CellKind::Inv,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Mux2,
            CellKind::Ao21,
            CellKind::Oai21,
            CellKind::Maj3,
            CellKind::Xor3,
        ];
        let mut b = NetlistBuilder::new("random");
        let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(format!("i{i}"))).collect();
        for &(k, s0, s1, s2) in recipes {
            let kind = kinds[k as usize % kinds.len()];
            let ins: Vec<NetId> = [s0, s1, s2][..kind.arity()]
                .iter()
                .map(|&s| nets[s as usize % nets.len()])
                .collect();
            nets.push(b.cell(kind, &ins));
        }
        let n_out = nets.len().min(8);
        for (i, &net) in nets[nets.len() - n_out..].iter().enumerate() {
            b.mark_output(net, format!("o{i}"));
        }
        b.finish().expect("random netlist is well-formed")
    }

    /// Lane `lane`'s random input vector for one step.
    fn lane_vector(seed: u64, lane: usize, pins: usize) -> Vec<bool> {
        let mut x = seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..pins)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random netlists with repeated pins, nominal (tied) or varied
        /// delays, some of them zero, random per-lane inputs, periods from
        /// deep overclock to safe: the sweep's per-net counts equal the 64
        /// scalar runs'.
        #[test]
        fn random_netlists_count_like_summed_scalar_lanes(
            recipes in prop::collection::vec(any::<CellRecipe>(), 1..50),
            seeds in prop::collection::vec(any::<u64>(), 1..6),
            varied in any::<bool>(),
            delay_seed in any::<u64>(),
            zero_delays in any::<u64>(),
            period_frac in 0.05f64..1.5,
        ) {
            let nl = build_random(5, &recipes);
            let lib = CellLibrary::industrial_65nm();
            let mut ann = DelayAnnotation::nominal(&nl, &lib);
            if varied {
                ann = ann.perturbed(&VariationModel::new(0.08, delay_seed));
            }
            // A zero-delay cell commits at its cause's instant, after it.
            let delays = ann.as_slice().iter().enumerate().map(|(i, &d)| {
                if zero_delays >> (i % 64) & 1 == 1 { 0.0 } else { d }
            });
            let ann = DelayAnnotation::from_delays(delays.collect());
            let crit = StaReport::analyze(&nl, &ann).critical_ps().max(1.0);
            let pins = nl.inputs().len();
            let steps: Vec<Vec<Vec<bool>>> = seeds
                .iter()
                .map(|&seed| (0..LANES).map(|l| lane_vector(seed, l, pins)).collect())
                .collect();
            let (swept, scalar) =
                sweep_and_scalar_lanes(&nl, &ann, ps_to_fs(crit * period_frac), &steps);
            prop_assert_eq!(swept, scalar);
        }
    }
}
