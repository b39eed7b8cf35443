//! Clocked (overclocked) operation of a combinational netlist.
//!
//! Models the paper's experimental setup: a new input vector is registered
//! every clock period, outputs are sampled at the next edge, and —
//! crucially — circuit state carries over between cycles, so an
//! under-provisioned period leaves residual switching activity that
//! interacts with the next cycle, exactly as in delay-annotated RTL
//! simulation.

use isa_core::batch::LaneSchedule;
use isa_netlist::builders::AdderNetlist;
use isa_netlist::graph::Netlist;
use isa_netlist::timing::DelayAnnotation;

use crate::sim::{ps_to_fs, GateLevelSim};

/// A netlist operated at a fixed clock period.
#[derive(Debug, Clone)]
pub struct ClockedSim<'a> {
    sim: GateLevelSim<'a>,
    period_fs: u64,
}

impl<'a> ClockedSim<'a> {
    /// Creates a clocked wrapper running `netlist` at `period_ps`.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive/finite or the annotation does
    /// not cover the netlist.
    #[must_use]
    pub fn new(netlist: &'a Netlist, annotation: &DelayAnnotation, period_ps: f64) -> Self {
        assert!(
            period_ps.is_finite() && period_ps > 0.0,
            "period must be positive"
        );
        Self {
            sim: GateLevelSim::new(netlist, annotation),
            period_fs: ps_to_fs(period_ps),
        }
    }

    /// Applies one input vector at the current clock edge, runs one period,
    /// and returns the outputs sampled at the next edge (packed LSB-first).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn step(&mut self, inputs: &[bool]) -> u64 {
        let t0 = self.sim.now_fs();
        self.sim.set_inputs(inputs);
        self.sim.run_until(t0 + self.period_fs);
        self.sim.outputs_u64()
    }
}

/// One cycle of an overclocked adder trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRecord {
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Output sampled at the (reduced) clock edge — the paper's `ysilver`.
    pub sampled: u64,
    /// Settled (timing-error-free) output of the same circuit — `ygold`.
    pub settled: u64,
}

impl CycleRecord {
    /// True if any output bit was sampled before settling this cycle.
    #[must_use]
    pub fn has_timing_error(&self) -> bool {
        self.sampled != self.settled
    }

    /// Bit positions that differ between sampled and settled outputs.
    #[must_use]
    pub fn flipped_bits(&self) -> u64 {
        self.sampled ^ self.settled
    }
}

/// Runs an adder netlist over an input stream at a given clock period and
/// records every cycle.
///
/// The first cycle starts from the all-zero settled state (a registered
/// adder coming out of reset).
#[must_use]
pub fn run_adder_trace(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> Vec<CycleRecord> {
    let mut clocked = ClockedSim::new(adder.netlist(), annotation, period_ps);
    let mut records = Vec::with_capacity(inputs.len());
    for &(a, b) in inputs {
        records.push(CycleRecord {
            a,
            b,
            sampled: clocked.step(&adder.input_values(a, b)),
            settled: adder.add(a, b),
        });
    }
    records
}

/// The scalar oracle the 64-lane runners are pinned to: each lane segment
/// of `inputs` ([`LaneSchedule::segments`]) replayed on a fresh
/// [`ClockedSim`] from reset, returning the sampled outputs in stream
/// order.
#[must_use]
pub fn scalar_segments(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> Vec<u64> {
    LaneSchedule::new(inputs.len())
        .segments(inputs)
        .flat_map(|segment| run_adder_trace(adder, annotation, period_ps, segment))
        .map(|record| record.sampled)
        .collect()
}

/// The scalar energy oracle the 64-lane activity sweep
/// ([`measure_clocked_batch`](crate::measure_clocked_batch)) is pinned to:
/// per-net committed transitions summed over one [`GateLevelSim`] clocked
/// run per lane segment, each from reset and padded to
/// [`LaneSchedule::steps`] cycles with its last pair, as the batch holds
/// an exhausted lane.
#[must_use]
pub fn scalar_segment_commits(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_fs: u64,
    inputs: &[(u64, u64)],
) -> Vec<u64> {
    let netlist = adder.netlist();
    let schedule = LaneSchedule::new(inputs.len());
    let mut counts = vec![0u64; netlist.net_count()];
    for segment in schedule.segments(inputs) {
        let held = segment[segment.len() - 1];
        let mut sim = GateLevelSim::new(netlist, annotation);
        for t in 0..schedule.steps() {
            let (a, b) = segment.get(t).copied().unwrap_or(held);
            let edge = sim.now_fs() + period_fs;
            sim.set_inputs(&adder.input_values(a, b));
            sim.run_until(edge);
        }
        for (total, &k) in counts.iter_mut().zip(sim.net_commit_counts()) {
            *total += k;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::sta::StaReport;

    fn adder_and_annotation() -> (AdderNetlist, DelayAnnotation, f64) {
        let adder = build_exact(16, AdderTopology::Ripple);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        (adder, ann, crit)
    }

    fn pairs(n: usize, width: u32) -> Vec<(u64, u64)> {
        let mask = (1u64 << width) - 1;
        let mut seed = 0xABCDu64;
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed & mask, (seed >> 20) & mask)
            })
            .collect()
    }

    #[test]
    fn safe_clock_has_no_timing_errors() {
        let (adder, ann, crit) = adder_and_annotation();
        let trace = run_adder_trace(&adder, &ann, crit + 1.0, &pairs(200, 16));
        for rec in &trace {
            assert_eq!(rec.sampled, rec.settled, "a={:#x} b={:#x}", rec.a, rec.b);
            assert_eq!(rec.settled, rec.a + rec.b);
            assert!(!rec.has_timing_error());
        }
    }

    #[test]
    fn severe_overclocking_produces_timing_errors() {
        let (adder, ann, crit) = adder_and_annotation();
        // Quarter of the critical path: long carries cannot settle.
        let trace = run_adder_trace(&adder, &ann, crit / 4.0, &pairs(500, 16));
        let errors = trace.iter().filter(|r| r.has_timing_error()).count();
        assert!(
            errors > 50,
            "expected plenty of timing errors, got {errors}/500"
        );
        // The settled reference stays exact regardless.
        for rec in &trace {
            assert_eq!(rec.settled, rec.a + rec.b);
        }
    }

    #[test]
    fn error_rate_is_monotone_in_overclocking() {
        let (adder, ann, crit) = adder_and_annotation();
        let inputs = pairs(400, 16);
        let mut last_rate = -1.0f64;
        for factor in [1.05, 0.8, 0.55, 0.3] {
            let trace = run_adder_trace(&adder, &ann, crit * factor, &inputs);
            let rate =
                trace.iter().filter(|r| r.has_timing_error()).count() as f64 / trace.len() as f64;
            assert!(
                rate >= last_rate - 0.02,
                "rate should not decrease substantially with overclocking: \
                 {rate} after {last_rate} at factor {factor}"
            );
            last_rate = rate;
        }
        assert!(last_rate > 0.1, "harshest overclock must show errors");
    }

    #[test]
    fn timing_errors_depend_on_previous_state() {
        // The same input pair can be correct or erroneous depending on what
        // preceded it — the core reason the paper's predictor needs x[t-1].
        let (adder, ann, crit) = adder_and_annotation();
        let period = crit * 0.55;
        // Case 1: the full-carry vector arrives fresh at cycle 1 and has
        // only 0.55x the critical delay to propagate: timing error.
        let t1 = run_adder_trace(&adder, &ann, period, &[(0, 0), (0xFFFF, 1)]);
        // Case 2: the same vector is held for two cycles; the residual
        // carry ripple from cycle 0 completes during cycle 1 (1.1x the
        // critical delay in total), so cycle 1 samples correctly.
        let t2 = run_adder_trace(&adder, &ann, period, &[(0xFFFF, 1), (0xFFFF, 1)]);
        let e1 = t1[1].has_timing_error();
        let e2 = t2[1].has_timing_error();
        assert!(
            e1 && !e2,
            "history must matter: fresh-vector error={e1}, held-vector error={e2}"
        );
    }

    #[test]
    fn flipped_bits_reports_differences() {
        let rec = CycleRecord {
            a: 0,
            b: 0,
            sampled: 0b1010,
            settled: 0b0010,
        };
        assert!(rec.has_timing_error());
        assert_eq!(rec.flipped_bits(), 0b1000);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_rejected() {
        let (adder, ann, _) = adder_and_annotation();
        let _ = ClockedSim::new(adder.netlist(), &ann, 0.0);
    }
}
