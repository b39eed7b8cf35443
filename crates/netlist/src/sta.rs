//! Static timing analysis.
//!
//! Computes worst-case arrival times over the netlist DAG (topological
//! single pass), the critical delay, and per-output arrivals. This is what
//! the paper's synthesis constraint ("fitting the 0.3 ns timing
//! constraints") is checked against, and what defines the safe clock period
//! that overclocking reduces.

use crate::graph::{CellId, NetId, Netlist};
use crate::timing::DelayAnnotation;

/// Result of a static timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    arrival_ps: Vec<f64>,
    critical_ps: f64,
}

impl StaReport {
    /// Runs STA over a netlist with the given per-instance delays.
    ///
    /// Primary inputs arrive at t = 0; every cell adds its annotated delay.
    ///
    /// # Panics
    ///
    /// Panics if the annotation does not cover every cell.
    #[must_use]
    pub fn analyze(netlist: &Netlist, delays: &DelayAnnotation) -> Self {
        assert_eq!(
            delays.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            delays.len(),
            netlist.cell_count()
        );
        let mut arrival_ps = vec![0.0f64; netlist.net_count()];
        for cell_index in 0..netlist.cell_count() {
            let id = CellId::from_index(cell_index);
            let cell = netlist.cell(id);
            let input_arrival = cell
                .inputs
                .iter()
                .map(|n| arrival_ps[n.index()])
                .fold(0.0f64, f64::max);
            arrival_ps[cell.output.index()] = input_arrival + delays.delay_ps(id);
        }
        let critical_ps = netlist
            .outputs()
            .iter()
            .map(|n| arrival_ps[n.index()])
            .fold(0.0f64, f64::max);
        Self {
            arrival_ps,
            critical_ps,
        }
    }

    /// Worst arrival time over all primary outputs (the design's critical
    /// delay), in picoseconds.
    #[must_use]
    pub fn critical_ps(&self) -> f64 {
        self.critical_ps
    }

    /// Arrival time of one net.
    #[must_use]
    pub fn arrival_ps(&self, net: NetId) -> f64 {
        self.arrival_ps[net.index()]
    }

    /// Arrival time of each primary output, in declaration order.
    #[must_use]
    pub fn output_arrivals_ps(&self, netlist: &Netlist) -> Vec<f64> {
        netlist
            .outputs()
            .iter()
            .map(|n| self.arrival_ps[n.index()])
            .collect()
    }

    /// Worst-case *downstream* delay of every net: the longest path (sum of
    /// cell delays) from the net to any primary output, indexed by net.
    ///
    /// This is the dual of the arrival times — `arrival + downstream` along
    /// a net is the worst full path through it. Area recovery reads it for
    /// the worst path through each cell, and `isa-netlint`'s timing stage
    /// re-verifies it as a longest-path labeling. (The lane classifier
    /// keeps its own femtosecond exposures over quantized delays.)
    #[must_use]
    pub fn downstream_ps(netlist: &Netlist, delays: &DelayAnnotation) -> Vec<f64> {
        assert_eq!(
            delays.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            delays.len(),
            netlist.cell_count()
        );
        let mut downstream = vec![0.0f64; netlist.net_count()];
        for index in (0..netlist.cell_count()).rev() {
            let id = CellId::from_index(index);
            let cell = netlist.cell(id);
            let through = delays.delay_ps(id) + downstream[cell.output.index()];
            for input in &cell.inputs {
                if through > downstream[input.index()] {
                    downstream[input.index()] = through;
                }
            }
        }
        downstream
    }

    /// True if every output settles within the period.
    #[must_use]
    pub fn meets(&self, period_ps: f64) -> bool {
        self.critical_ps <= period_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::graph::NetlistBuilder;
    use crate::timing::DelayAnnotation;

    /// A two-level netlist with a known longest path.
    fn chain() -> (Netlist, DelayAnnotation) {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.input("b");
        let n1 = b.and2(a, x); // cell 0
        let n2 = b.xor2(n1, x); // cell 1
        let n3 = b.inv(a); // cell 2 (short branch)
        let y = b.or2(n2, n3); // cell 3
        b.mark_output(y, "y");
        let nl = b.finish().unwrap();
        let delays = DelayAnnotation::from_delays(vec![10.0, 20.0, 5.0, 7.0]);
        (nl, delays)
    }

    #[test]
    fn arrival_is_longest_path() {
        let (nl, d) = chain();
        let sta = StaReport::analyze(&nl, &d);
        // Long branch: 10 + 20 + 7 = 37; short branch: 5 + 7 = 12.
        assert_eq!(sta.critical_ps(), 37.0);
        assert!(sta.meets(37.0));
        assert!(!sta.meets(36.9));
    }

    #[test]
    fn zero_delay_netlist_has_zero_critical() {
        let mut b = NetlistBuilder::new("wire");
        let a = b.input("a");
        b.mark_output(a, "y");
        let nl = b.finish().unwrap();
        let sta = StaReport::analyze(&nl, &DelayAnnotation::from_delays(vec![]));
        assert_eq!(sta.critical_ps(), 0.0);
    }

    #[test]
    fn output_arrivals_in_declaration_order() {
        let mut b = NetlistBuilder::new("two");
        let a = b.input("a");
        let slow = b.xor2(a, a);
        let fast = b.inv(a);
        b.mark_output(slow, "slow");
        b.mark_output(fast, "fast");
        let nl = b.finish().unwrap();
        let lib = CellLibrary::industrial_65nm();
        let d = DelayAnnotation::nominal(&nl, &lib);
        let sta = StaReport::analyze(&nl, &d);
        let arr = sta.output_arrivals_ps(&nl);
        assert_eq!(arr.len(), 2);
        assert!(arr[0] > arr[1], "XOR2 output must arrive after INV");
    }

    #[test]
    fn deeper_logic_has_larger_critical_delay() {
        let lib = CellLibrary::industrial_65nm();
        let mut shallow = NetlistBuilder::new("shallow");
        let a = shallow.input("a");
        let y = shallow.inv(a);
        shallow.mark_output(y, "y");
        let shallow = shallow.finish().unwrap();

        let mut deep = NetlistBuilder::new("deep");
        let a = deep.input("a");
        let mut n = deep.inv(a);
        for _ in 0..9 {
            n = deep.inv(n);
        }
        deep.mark_output(n, "y");
        let deep = deep.finish().unwrap();

        let s1 = StaReport::analyze(&shallow, &DelayAnnotation::nominal(&shallow, &lib));
        let s2 = StaReport::analyze(&deep, &DelayAnnotation::nominal(&deep, &lib));
        assert!(s2.critical_ps() > 5.0 * s1.critical_ps());
    }

    #[test]
    #[should_panic(expected = "annotation covers")]
    fn mismatched_annotation_panics() {
        let (nl, _) = chain();
        let bad = DelayAnnotation::from_delays(vec![1.0]);
        let _ = StaReport::analyze(&nl, &bad);
    }
}
