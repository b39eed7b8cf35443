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
//! Batched runs ([`measure_clocked_batch`]) count activity on a private
//! 64-lane event-queue core. It keeps the zero-width glitch commits that
//! energy bills and that the change-only waveforms of
//! [`TimedTapeCore`](crate::TimedTapeCore) erase, so it never samples
//! outputs: `ysilver` always comes from the timed tape.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use isa_core::batch::{segment_len, LaneBatch, LANES};
use isa_netlist::builders::AdderNetlist;
use isa_netlist::cell::CellLibrary;
use isa_netlist::graph::{NetDriver, NetId, Netlist};
use isa_netlist::timing::DelayAnnotation;

use crate::sim::{ps_to_fs, GateLevelSim};

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

/// Estimates the energy of everything simulated so far on `sim`.
///
/// Dynamic energy: each committed transition of a cell-driven net costs the
/// driving cell's per-switch energy. Primary-input transitions are charged
/// like buffers (the register driving them switches too). Leakage: area x
/// time x [`LEAKAGE_NW_PER_AREA`].
#[must_use]
pub fn measure(sim: &GateLevelSim<'_>, netlist: &Netlist, lib: &CellLibrary) -> EnergyReport {
    measure_activity(sim.net_commit_counts(), sim.now_fs(), netlist, lib)
}

/// Characterizes an adder's switching energy over an input stream: runs
/// the whole stream through the 64-lane activity core at `period_ps` and
/// charges leakage over the sequential-equivalent span
/// (`inputs.len() × period`), so the figure is comparable with a scalar
/// run of the same operation count on one circuit. This is the one
/// energy-per-addition recipe shared by the `energy_table` experiment and
/// the design-space explorer's energy objective.
///
/// The stream is dealt to lanes in contiguous segments of [`segment_len`]
/// cycles, exactly like the timed replay: lane `l` carries positions
/// `l*seg ..`, and lanes that exhaust their segment hold their last
/// inputs, so padding adds no switching activity once settled.
///
/// # Panics
///
/// Panics if the period is not positive/finite or the annotation does
/// not cover the netlist.
#[must_use]
pub fn measure_clocked_batch(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    inputs: &[(u64, u64)],
    lib: &CellLibrary,
) -> EnergyReport {
    assert!(
        period_ps.is_finite() && period_ps > 0.0,
        "period must be positive"
    );
    let netlist = adder.netlist();
    let mut core = ActivityCore::new(netlist, annotation);
    // Same femtosecond rounding as the simulated clock edge, so the
    // leakage span and the activity it pairs with agree to the grid.
    let period_fs = ps_to_fs(period_ps);
    let n = inputs.len();
    let seg = segment_len(n);
    let mut lane_pairs = [(0u64, 0u64); LANES];
    for t in 0..seg {
        for (l, lane) in lane_pairs.iter_mut().enumerate() {
            let idx = l * seg + t;
            if idx < n {
                *lane = inputs[idx];
            }
            // else: hold the lane's previous inputs (no activity).
        }
        let batch = LaneBatch::pack(adder.width(), &lane_pairs);
        let edge = core.now_fs + period_fs;
        core.set_input_words(netlist, &adder.input_planes(&batch));
        core.run_until(netlist, edge);
    }
    measure_activity(&core.net_commits, n as u64 * period_fs, netlist, lib)
}

/// Estimates energy from an explicit activity profile: per-net committed
/// transition counts plus the wall-clock span to charge leakage over.
///
/// This is the common core behind [`measure`] and
/// [`measure_clocked_batch`], whose 64-lane counts already sum
/// transitions over lanes; pass the *sequential-equivalent* span
/// (`ops x period`) so leakage stays comparable with a scalar run of the
/// same operation count on one circuit.
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
            NetDriver::Input => lib.energy_fj(isa_netlist::cell::CellKind::Buf),
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

/// One pending word event: `net` takes `value` (bit `l` = lane `l`) at
/// `time_fs`; `seq` keeps scheduling order within a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WordEvent {
    time_fs: u64,
    seq: u64,
    net: u32,
    value: u64,
}

/// 64-lane event-driven activity counter: every net holds a `u64` whose
/// bit `l` is its value in lane `l`, so one commit advances 64
/// independent simulations. Delays are per cell (identical across lanes),
/// so the word-level queue is exact per lane: an event scheduled because
/// *any* lane's input changed carries the fresh evaluation for all lanes,
/// which is a no-op commit in lanes whose inputs did not change.
///
/// Each commit adds the popcount of the flipped lanes to its net's count,
/// so the counts equal the sum of 64 scalar runs' transition counts
/// (pinned against `GateLevelSim` by the unit tests below).
struct ActivityCore {
    delays_fs: Vec<u64>,
    values: Vec<u64>,
    queue: BinaryHeap<Reverse<WordEvent>>,
    now_fs: u64,
    seq: u64,
    net_commits: Vec<u64>,
}

impl ActivityCore {
    /// All lanes' primary inputs at 0 and the netlist settled there.
    fn new(netlist: &Netlist, annotation: &DelayAnnotation) -> Self {
        assert_eq!(
            annotation.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            annotation.len(),
            netlist.cell_count()
        );
        let values = netlist
            .evaluate(&vec![false; netlist.inputs().len()])
            .into_iter()
            .map(|v| if v { u64::MAX } else { 0 })
            .collect();
        Self {
            delays_fs: annotation.as_slice().iter().map(|&d| ps_to_fs(d)).collect(),
            values,
            queue: BinaryHeap::new(),
            now_fs: 0,
            seq: 0,
            net_commits: vec![0; netlist.net_count()],
        }
    }

    fn schedule_fanout(&mut self, netlist: &Netlist, net: NetId) {
        for &cell_id in netlist.fanout(net) {
            let cell = netlist.cell(cell_id);
            let mut pins = [0u64; 3];
            for (slot, n) in pins.iter_mut().zip(&cell.inputs) {
                *slot = self.values[n.index()];
            }
            self.seq += 1;
            self.queue.push(Reverse(WordEvent {
                time_fs: self.now_fs + self.delays_fs[cell_id.index()],
                seq: self.seq,
                net: cell.output.index() as u32,
                value: cell.kind.eval_word(&pins[..cell.inputs.len()]),
            }));
        }
    }

    /// Drives the primary inputs to new lane words at the current time.
    /// All input changes commit before any fanout is re-evaluated, so
    /// multi-input cells see the full new vector.
    fn set_input_words(&mut self, netlist: &Netlist, words: &[u64]) {
        let mut changed = Vec::new();
        for (&net, &w) in netlist.inputs().iter().zip(words) {
            let flipped = self.values[net.index()] ^ w;
            if flipped != 0 {
                self.values[net.index()] = w;
                self.net_commits[net.index()] += u64::from(flipped.count_ones());
                changed.push(net);
            }
        }
        for net in changed {
            self.schedule_fanout(netlist, net);
        }
    }

    /// Commits every event strictly before `t_fs`, then advances the
    /// clock to `t_fs` (the scalar core's sampling-edge semantics).
    fn run_until(&mut self, netlist: &Netlist, t_fs: u64) {
        while let Some(Reverse(ev)) = self.queue.peek().copied() {
            if ev.time_fs >= t_fs {
                break;
            }
            self.queue.pop();
            self.now_fs = ev.time_fs;
            let idx = ev.net as usize;
            let flipped = self.values[idx] ^ ev.value;
            if flipped != 0 {
                self.values[idx] = ev.value;
                self.net_commits[idx] += u64::from(flipped.count_ones());
                self.schedule_fanout(netlist, NetId::from_index(idx));
            }
        }
        self.now_fs = t_fs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::timing::DelayAnnotation;

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
        measure(&sim, adder.netlist(), &lib)
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
        let report = measure(&sim, adder.netlist(), &lib);
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
        // One batch step with 64 distinct lanes must count exactly the sum
        // of 64 scalar runs' transitions (uniform reset state, one vector
        // each, run to quiescence).
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(16, AdderTopology::Ripple);
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let netlist = adder.netlist();
        let input = pairs(LANES);

        let mut core = ActivityCore::new(netlist, &ann);
        let batch = LaneBatch::pack(16, &input);
        core.set_input_words(netlist, &adder.input_planes(&batch));
        core.run_until(netlist, u64::MAX);
        let batched: u64 = core.net_commits.iter().sum();

        let mut scalar_total = 0u64;
        for &(a, b) in &input {
            let mut sim = GateLevelSim::new(netlist, &ann);
            sim.set_inputs(&adder.input_values(a, b));
            sim.run_to_quiescence(1_000_000).unwrap();
            scalar_total += sim.net_commit_counts().iter().sum::<u64>();
        }
        assert_eq!(batched, scalar_total);
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
        let crit = isa_netlist::sta::StaReport::analyze(netlist, &ann).critical_ps();
        let inputs = pairs(LANES * 5);
        let seg = segment_len(inputs.len());
        for period in [crit + 1.0, crit * 0.6] {
            let batched = measure_clocked_batch(&adder, &ann, period, &inputs, &lib);
            let period_fs = ps_to_fs(period);
            let mut scalar_total = 0u64;
            for segment in inputs.chunks(seg) {
                let mut sim = GateLevelSim::new(netlist, &ann);
                for &(a, b) in segment {
                    let edge = sim.now_fs() + period_fs;
                    sim.set_inputs(&adder.input_values(a, b));
                    sim.run_until(edge);
                }
                scalar_total += sim.net_commit_counts().iter().sum::<u64>();
            }
            assert_eq!(batched.transitions, scalar_total, "period {period}");
            assert_eq!(batched.span_fs, inputs.len() as u64 * period_fs);
        }
    }
}
