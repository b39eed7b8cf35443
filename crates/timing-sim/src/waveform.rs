//! Transition recording and Value Change Dump (VCD) export.
//!
//! A [`Waveform`] captures every committed net transition of a
//! [`crate::GateLevelSim`] run — initial state included — and serializes it
//! as an IEEE-1364 VCD file loadable by GTKWave and friends, the standard
//! way to inspect a delay-annotated simulation (glitches, sampling hazards,
//! path races).

use std::fmt::Write as _;

use isa_netlist::graph::{NetId, Netlist};

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Simulation time in femtoseconds.
    pub time_fs: u64,
    /// The net that changed.
    pub net: NetId,
    /// Its new value.
    pub value: bool,
}

/// A recorded waveform: initial values plus a time-ordered transition list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waveform {
    start_fs: u64,
    initial: Vec<bool>,
    transitions: Vec<Transition>,
}

impl Waveform {
    /// Creates a waveform starting from the given net values at `start_fs`.
    #[must_use]
    pub fn new(net_count: usize, initial_values: &[bool], start_fs: u64) -> Self {
        debug_assert_eq!(net_count, initial_values.len());
        Self {
            start_fs,
            initial: initial_values.to_vec(),
            transitions: Vec::new(),
        }
    }

    /// Appends a transition (times must be non-decreasing; the simulator
    /// guarantees this).
    pub fn record(&mut self, time_fs: u64, net: NetId, value: bool) {
        debug_assert!(
            self.transitions.last().is_none_or(|t| t.time_fs <= time_fs),
            "transitions must be recorded in time order"
        );
        self.transitions.push(Transition {
            time_fs,
            net,
            value,
        });
    }

    /// The recorded transitions, in time order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Recording start time in femtoseconds.
    #[must_use]
    pub fn start_fs(&self) -> u64 {
        self.start_fs
    }

    /// Number of transitions on one net.
    #[must_use]
    pub fn transition_count(&self, net: NetId) -> usize {
        self.transitions.iter().filter(|t| t.net == net).count()
    }

    /// Total transitions across all nets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Serializes the waveform as a VCD document for the given netlist
    /// (which must be the one the recording was made from).
    ///
    /// Net names come from the netlist where present (`a[3]`, `sum[7]`);
    /// anonymous internal nets are emitted as `n<index>`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's net count does not match the recording.
    #[must_use]
    pub fn to_vcd(&self, netlist: &Netlist) -> String {
        assert_eq!(
            netlist.net_count(),
            self.initial.len(),
            "waveform was recorded from a different netlist"
        );
        let mut out = String::new();
        let _ = writeln!(out, "$date reproduction run $end");
        let _ = writeln!(out, "$version overclocked-isa timing-sim $end");
        let _ = writeln!(out, "$timescale 1fs $end");
        let _ = writeln!(out, "$scope module {} $end", netlist.name());
        for index in 0..netlist.net_count() {
            let net = NetId::from_index(index);
            let name = netlist
                .net_name(net)
                .map_or_else(|| format!("n{index}"), sanitize_name);
            let _ = writeln!(out, "$var wire 1 {} {} $end", vcd_id(index), name);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "#{}", self.start_fs);
        let _ = writeln!(out, "$dumpvars");
        for (index, &v) in self.initial.iter().enumerate() {
            let _ = writeln!(out, "{}{}", u8::from(v), vcd_id(index));
        }
        let _ = writeln!(out, "$end");
        let mut last_time = self.start_fs;
        let mut time_open = false;
        for t in &self.transitions {
            if t.time_fs != last_time || !time_open {
                let _ = writeln!(out, "#{}", t.time_fs);
                last_time = t.time_fs;
                time_open = true;
            }
            let _ = writeln!(out, "{}{}", u8::from(t.value), vcd_id(t.net.index()));
        }
        out
    }
}

/// VCD identifier for a net index: base-94 over the printable ASCII range.
fn vcd_id(mut index: usize) -> String {
    let mut id = String::new();
    loop {
        id.push((33 + (index % 94)) as u8 as char);
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    id
}

/// VCD tools dislike brackets in scalar names; use underscores.
fn sanitize_name(name: &str) -> String {
    name.replace(['[', ']'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::GateLevelSim;

    use isa_netlist::graph::NetlistBuilder;
    use isa_netlist::timing::DelayAnnotation;

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("wave");
        let a = b.input("a");
        let x = b.input("b");
        let slow = b.buf(a);
        let y = b.xor2(slow, x);
        b.mark_output(y, "y");
        b.finish().unwrap()
    }

    #[test]
    fn recording_captures_all_commits() {
        let nl = xor_netlist();
        let ann = DelayAnnotation::from_delays(vec![20.0, 10.0]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.start_recording();
        sim.set_inputs(&[true, false]);
        sim.run_to_quiescence(1000).unwrap();
        let wave = sim.take_recording().unwrap();
        // a rises, buf follows, y follows: 3 commits.
        assert_eq!(wave.len(), 3);
        assert!(wave
            .transitions()
            .windows(2)
            .all(|w| w[0].time_fs <= w[1].time_fs));
    }

    #[test]
    fn glitch_is_visible_in_waveform() {
        // y = xor(buf(a), b): toggling a and b together makes y pulse.
        let nl = xor_netlist();
        let ann = DelayAnnotation::from_delays(vec![30.0, 5.0]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.start_recording();
        sim.set_inputs(&[true, true]);
        sim.run_to_quiescence(1000).unwrap();
        let wave = sim.take_recording().unwrap();
        let y = *nl.outputs().first().unwrap();
        // y goes 0 -> 1 (b fast path) -> 0 (slow buf catches up): 1 glitch.
        assert_eq!(wave.transition_count(y), 2);
    }

    #[test]
    fn vcd_document_is_well_formed() {
        let nl = xor_netlist();
        let ann = DelayAnnotation::from_delays(vec![20.0, 10.0]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.start_recording();
        sim.set_inputs(&[true, false]);
        sim.run_to_quiescence(1000).unwrap();
        let wave = sim.take_recording().unwrap();
        let vcd = wave.to_vcd(&nl);
        assert!(vcd.contains("$timescale 1fs $end"));
        assert!(vcd.contains("$scope module wave $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$dumpvars"));
        // One $var per net.
        assert_eq!(vcd.matches("$var wire 1 ").count(), nl.net_count());
        // Initial values dumped for every net.
        let dump_section = vcd.split("$dumpvars").nth(1).unwrap();
        let dump_lines = dump_section
            .split("$end")
            .next()
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        assert_eq!(dump_lines, nl.net_count());
    }

    #[test]
    fn vcd_ids_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..5000 {
            let id = vcd_id(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)), "{id:?}");
            assert!(seen.insert(id), "duplicate id at {i}");
        }
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_name("a[3]"), "a_3_");
        assert_eq!(sanitize_name("plain"), "plain");
    }

    #[test]
    fn net_commit_counts_track_activity() {
        let nl = xor_netlist();
        let ann = DelayAnnotation::from_delays(vec![20.0, 10.0]);
        let mut sim = GateLevelSim::new(&nl, &ann);
        sim.set_inputs(&[true, false]);
        sim.run_to_quiescence(1000).unwrap();
        sim.set_inputs(&[false, false]);
        sim.run_to_quiescence(1000).unwrap();
        let counts = sim.net_commit_counts();
        // Input a toggled twice; buf and y followed both times.
        assert_eq!(counts[nl.inputs()[0].index()], 2);
        let y = nl.outputs()[0];
        assert_eq!(counts[y.index()], 2);
    }
}
