//! Event-driven gate-level simulation with per-instance transport delays.
//!
//! This is the reproduction's stand-in for the paper's SDF-annotated
//! ModelSim runs: every cell propagates input changes to its output after
//! its annotated delay, glitches and all. Timing errors are *measured*, not
//! injected — an output sampled before its sensitized path has settled
//! simply still holds a stale value.
//!
//! Time is kept in integer femtoseconds for exact, platform-independent
//! event ordering (ties broken by schedule order).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use isa_netlist::graph::{NetId, Netlist};
use isa_netlist::timing::DelayAnnotation;

pub use isa_netlist::timing::{ps_to_fs, FS_PER_PS};

/// Simulation failed to reach quiescence within the event budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettleError {
    /// Events processed before giving up.
    pub events: u64,
}

impl fmt::Display for SettleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation did not settle within {} events (oscillating netlist?)",
            self.events
        )
    }
}

impl Error for SettleError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time_fs: u64,
    seq: u64,
    net: u32,
    value: bool,
}

/// An event-driven simulator bound to one netlist and one delay
/// annotation: per-cell delays, net values, the event queue and activity
/// counters.
#[derive(Debug, Clone)]
pub struct GateLevelSim<'a> {
    netlist: &'a Netlist,
    delays_fs: Vec<u64>,
    values: Vec<bool>,
    queue: BinaryHeap<Reverse<Event>>,
    now_fs: u64,
    seq: u64,
    events_processed: u64,
    net_commits: Vec<u64>,
    recorder: Option<crate::waveform::Waveform>,
}

impl<'a> GateLevelSim<'a> {
    /// Creates a simulator with all primary inputs at 0 and the netlist
    /// settled to that state.
    ///
    /// # Panics
    ///
    /// Panics if the annotation does not cover every cell.
    #[must_use]
    pub fn new(netlist: &'a Netlist, annotation: &DelayAnnotation) -> Self {
        assert_eq!(
            annotation.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            annotation.len(),
            netlist.cell_count()
        );
        let delays_fs = annotation.as_slice().iter().map(|&d| ps_to_fs(d)).collect();
        let values = netlist
            .evaluate_words(&vec![0; netlist.inputs().len()])
            .iter()
            .map(|&w| w & 1 == 1)
            .collect();
        let net_commits = vec![0; netlist.net_count()];
        Self {
            netlist,
            delays_fs,
            values,
            queue: BinaryHeap::new(),
            now_fs: 0,
            seq: 0,
            events_processed: 0,
            net_commits,
            recorder: None,
        }
    }

    /// Starts recording every committed transition into a waveform (for
    /// VCD export and glitch analysis). Replaces any active recording.
    pub fn start_recording(&mut self) {
        self.recorder = Some(crate::waveform::Waveform::new(
            self.netlist.net_count(),
            &self.values,
            self.now_fs,
        ));
    }

    /// Stops recording and returns the captured waveform, if any.
    pub fn take_recording(&mut self) -> Option<crate::waveform::Waveform> {
        self.recorder.take()
    }

    /// Committed transition count per net since construction (an activity
    /// profile for power estimation).
    #[must_use]
    pub fn net_commit_counts(&self) -> &[u64] {
        &self.net_commits
    }

    /// Current simulation time in femtoseconds.
    #[must_use]
    pub fn now_fs(&self) -> u64 {
        self.now_fs
    }

    /// Total committed events so far (a simulator activity/energy proxy).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current logic value of a net.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Packs the primary outputs into a `u64`, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 64 outputs.
    #[must_use]
    pub fn outputs_u64(&self) -> u64 {
        assert!(self.netlist.outputs().len() <= 64);
        let mut out = 0u64;
        for (i, net) in self.netlist.outputs().iter().enumerate() {
            if self.values[net.index()] {
                out |= 1 << i;
            }
        }
        out
    }

    fn schedule_fanout(&mut self, net: NetId) {
        for &cell_id in self.netlist.fanout(net) {
            let cell = self.netlist.cell(cell_id);
            let mut pins = [0u64; 3];
            for (slot, n) in pins.iter_mut().zip(&cell.inputs) {
                *slot = u64::from(self.values[n.index()]);
            }
            let new_value = cell.kind.eval_word(&pins[..cell.inputs.len()]) & 1 == 1;
            let when = self.now_fs + self.delays_fs[cell_id.index()];
            self.seq += 1;
            self.queue.push(Reverse(Event {
                time_fs: when,
                seq: self.seq,
                net: cell.output.index() as u32,
                value: new_value,
            }));
        }
    }

    /// Drives the primary inputs to new values at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of primary inputs.
    pub fn set_inputs(&mut self, values: &[bool]) {
        let netlist = self.netlist;
        assert_eq!(
            values.len(),
            netlist.inputs().len(),
            "expected {} input values",
            netlist.inputs().len()
        );
        // Commit all input changes first so multi-input cells see the full
        // new vector when re-evaluated.
        let mut changed = Vec::new();
        for (&net, &v) in netlist.inputs().iter().zip(values) {
            if self.values[net.index()] != v {
                self.values[net.index()] = v;
                self.net_commits[net.index()] += 1;
                if let Some(rec) = &mut self.recorder {
                    rec.record(self.now_fs, net, v);
                }
                changed.push(net);
            }
        }
        for net in changed {
            self.schedule_fanout(net);
        }
    }

    /// Processes all events strictly before `t_fs`, then advances the clock
    /// to `t_fs`.
    ///
    /// Events at exactly `t_fs` stay pending: a transition landing on the
    /// sampling edge is not captured (zero-margin setup), matching the
    /// hold-the-old-value behaviour of a flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `t_fs` is in the past.
    pub fn run_until(&mut self, t_fs: u64) {
        assert!(t_fs >= self.now_fs, "cannot run backwards");
        while let Some(Reverse(ev)) = self.queue.peek().copied() {
            if ev.time_fs >= t_fs {
                break;
            }
            self.queue.pop();
            self.now_fs = ev.time_fs;
            let idx = ev.net as usize;
            if self.values[idx] != ev.value {
                self.values[idx] = ev.value;
                self.events_processed += 1;
                self.net_commits[idx] += 1;
                if let Some(rec) = &mut self.recorder {
                    rec.record(ev.time_fs, NetId::from_index(idx), ev.value);
                }
                self.schedule_fanout(NetId::from_index(idx));
            }
        }
        self.now_fs = t_fs;
    }

    /// Runs until no events remain (combinational settle), with an event
    /// budget guarding against pathological activity.
    ///
    /// # Errors
    ///
    /// Returns [`SettleError`] if the budget is exhausted.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> Result<(), SettleError> {
        let start = self.events_processed;
        while let Some(Reverse(ev)) = self.queue.peek().copied() {
            if self.events_processed - start > max_events {
                return Err(SettleError {
                    events: self.events_processed - start,
                });
            }
            self.queue.pop();
            self.now_fs = self.now_fs.max(ev.time_fs);
            let idx = ev.net as usize;
            if self.values[idx] != ev.value {
                self.values[idx] = ev.value;
                self.events_processed += 1;
                self.net_commits[idx] += 1;
                if let Some(rec) = &mut self.recorder {
                    rec.record(ev.time_fs, NetId::from_index(idx), ev.value);
                }
                self.schedule_fanout(NetId::from_index(idx));
            }
        }
        Ok(())
    }

    /// Time of the latest pending event, if any (an upper bound on when the
    /// current inputs will have fully propagated).
    #[must_use]
    pub fn pending_horizon_fs(&self) -> Option<u64> {
        self.queue.iter().map(|Reverse(e)| e.time_fs).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::graph::NetlistBuilder;
    use isa_netlist::sta::StaReport;

    fn inv_chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let mut net = a;
        for _ in 0..n {
            net = b.inv(net);
        }
        b.mark_output(net, "y");
        b.finish().unwrap()
    }

    #[test]
    fn settled_output_matches_functional_eval() {
        let nl = inv_chain(5);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.set_inputs(&[true]);
        sim.run_to_quiescence(1_000_000).unwrap();
        assert_eq!(sim.outputs_u64(), nl.evaluate_outputs_u64(&[true]));
    }

    #[test]
    fn output_changes_exactly_after_chain_delay() {
        let nl = inv_chain(4);
        let ann = DelayAnnotation::from_delays(vec![10.0; 4]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        // Initial state: input 0, even inversions => output 0.
        assert_eq!(sim.outputs_u64(), 0);
        sim.set_inputs(&[true]);
        // 4 stages x 10 ps = 40 ps: not settled at 39.999..., settled at 40+.
        sim.run_until(ps_to_fs(40.0)); // strictly-before semantics
        assert_eq!(
            sim.outputs_u64(),
            0,
            "transition at exactly t is not captured"
        );
        sim.run_until(ps_to_fs(40.0) + 1);
        assert_eq!(sim.outputs_u64(), 1);
    }

    #[test]
    fn sampling_before_settle_yields_stale_value() {
        let nl = inv_chain(10);
        let ann = DelayAnnotation::from_delays(vec![10.0; 10]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.set_inputs(&[true]);
        sim.run_until(ps_to_fs(50.0)); // halfway through the chain
        assert_eq!(sim.outputs_u64(), 0, "stale value expected");
        sim.run_to_quiescence(1_000).unwrap();
        assert_eq!(sim.outputs_u64(), 1);
    }

    #[test]
    fn glitch_propagates_through_unequal_paths() {
        // y = a XOR a' where a' is a delayed as copy of a: a change produces
        // a transient pulse on y before it settles back to 0.
        let mut b = NetlistBuilder::new("glitch");
        let a = b.input("a");
        let slow = b.buf(a);
        let y = b.xor2(a, slow);
        b.mark_output(y, "y");
        let nl = b.finish().unwrap();
        let ann = DelayAnnotation::from_delays(vec![30.0, 5.0]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.set_inputs(&[true]);
        // At t=10: XOR saw a=1, slow=0 => pulse high.
        sim.run_until(ps_to_fs(10.0));
        assert_eq!(sim.outputs_u64(), 1, "glitch visible mid-flight");
        sim.run_to_quiescence(1_000).unwrap();
        assert_eq!(
            sim.outputs_u64(),
            0,
            "settles back after slow path catches up"
        );
    }

    #[test]
    fn settle_time_never_exceeds_sta_bound() {
        use isa_netlist::builders::{build_exact, AdderTopology};
        let adder = build_exact(16, AdderTopology::KoggeStone);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let sta = StaReport::analyze(adder.netlist(), &ann);
        let bound_fs = ps_to_fs(sta.critical_ps());
        let mut sim = GateLevelSim::new(adder.netlist(), &ann);
        let mut seed = 1u64;
        for _ in 0..50 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            let (a, b) = (seed & 0xFFFF, (seed >> 16) & 0xFFFF);
            let t0 = sim.now_fs();
            sim.set_inputs(&adder.input_values(a, b));
            sim.run_until(t0 + bound_fs + 1);
            assert!(
                sim.pending_horizon_fs().is_none(),
                "events pending past the STA bound for a={a:#x} b={b:#x}"
            );
            assert_eq!(sim.outputs_u64(), a + b);
        }
    }

    #[test]
    fn event_count_accumulates() {
        let nl = inv_chain(3);
        let ann = DelayAnnotation::from_delays(vec![10.0; 3]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.set_inputs(&[true]);
        sim.run_to_quiescence(100).unwrap();
        assert_eq!(sim.events_processed(), 3, "one commit per inverter");
    }

    #[test]
    fn no_event_when_input_unchanged() {
        let nl = inv_chain(3);
        let ann = DelayAnnotation::from_delays(vec![10.0; 3]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.set_inputs(&[false]); // same as initial state
        sim.run_to_quiescence(100).unwrap();
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn running_backwards_panics() {
        let nl = inv_chain(1);
        let ann = DelayAnnotation::from_delays(vec![10.0]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.run_until(100);
        sim.run_until(50);
    }

    #[test]
    fn ps_to_fs_rounds() {
        assert_eq!(ps_to_fs(0.0), 0);
        assert_eq!(ps_to_fs(1.0), 1000);
        assert_eq!(ps_to_fs(0.0004), 0);
        assert_eq!(ps_to_fs(0.0006), 1);
    }
}
