//! Razor-style timing-error detection and recovery (the paper's reference
//! \[10\] baseline).
//!
//! A shadow latch re-samples every output a fixed margin after the main
//! clock edge; a mismatch flags a timing error and triggers a replay
//! penalty. Two classic Razor properties are modelled faithfully:
//!
//! * **long-path misses** — a path that settles even later than the shadow
//!   margin corrupts both latches identically and escapes detection;
//! * **short-path constraint** — the next computation starts at the main
//!   edge, so without countermeasures fast paths would reach the outputs
//!   *before* the shadow samples. As in real Razor designs, the harness
//!   hold-fixes the netlist first ([`isa_netlist::transform::pad_min_delay`])
//!   so that no output can change within the shadow margin; the buffer
//!   chains are the "silicon overhead for online monitoring" the paper
//!   mentions, and they are charged to the design's area.
//!
//! This gives the overclocking-with-recovery baseline the paper contrasts
//! with prediction-based guardband reduction.
//!
//! # Lane-parallel replay
//!
//! The stream is one pipeline: operation `k` launches at edge `k·P`, its
//! main latch samples at `(k+1)·P` and its shadow at `(k+1)·P + margin`,
//! after operation `k+1` has launched. The trace replays that timeline on
//! the timed tape ([`TimedTapeCore`]) with the stream dealt to the 64
//! lanes in contiguous segments, each lane starting
//! `W = ⌈(D + margin)/P⌉ + 1` cycles before its segment, where `D` is the
//! hold-fixed netlist's longest input-to-output path in the simulator's
//! femtosecond delays.
//!
//! The warm-up is exact, not approximate. Under transport delay every net
//! obeys `out(t) = f(in(t - d))`, so an output at time `t` is a function
//! of the primary inputs over `[t - D, t]` alone; whatever state a lane
//! held before that window cannot reach it. A lane that starts settled at
//! the reset operands and replays the `W` preceding operations therefore
//! samples its first main latch (`W·P ≥ D + margin + P` after the lane
//! starts) exactly as the uninterrupted stream does, and every later
//! sample too. Lanes whose warm-up would begin before the stream replay
//! the reset state instead, which *is* the stream's history. Each shadow
//! is read from the waveform after the next operation launched, so
//! short-path contamination is sampled, never assumed away; `settled` is
//! the tape's functional value.

use isa_core::batch::{pack_pairs, segment_len, unpack_lanes, LANES};
use isa_netlist::builders::AdderNetlist;
use isa_netlist::cell::CellLibrary;
use isa_netlist::tape::InstructionTape;
use isa_netlist::timing::{ps_to_fs, DelayAnnotation};
use isa_netlist::transform::pad_min_delay;

use crate::timedtape::{TimedTape, TimedTapeCore};

/// Razor operating parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RazorConfig {
    /// Shadow-latch delay after the main edge, in picoseconds.
    pub margin_ps: f64,
    /// Pipeline cycles charged per detected error (flush + replay).
    pub recovery_cycles: u32,
}

impl Default for RazorConfig {
    fn default() -> Self {
        Self {
            margin_ps: 30.0,
            recovery_cycles: 5,
        }
    }
}

/// One Razor-monitored cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RazorCycle {
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Output captured by the main latch at the clock edge.
    pub main: u64,
    /// Output captured by the shadow latch `margin` later.
    pub shadow: u64,
    /// The fully settled (correct-for-this-circuit) output.
    pub settled: u64,
}

impl RazorCycle {
    /// Razor flags a cycle when the latches disagree.
    #[must_use]
    pub fn detected(&self) -> bool {
        self.main != self.shadow
    }

    /// The main latch captured a wrong value.
    #[must_use]
    pub fn erroneous(&self) -> bool {
        self.main != self.settled
    }

    /// A wrong value that Razor did not flag (silent data corruption).
    #[must_use]
    pub fn undetected_error(&self) -> bool {
        self.erroneous() && !self.detected()
    }

    /// A flagged cycle whose main value was actually correct (spurious
    /// replay from short-path contamination of the shadow).
    #[must_use]
    pub fn false_alarm(&self) -> bool {
        !self.erroneous() && self.detected()
    }

    /// The architecturally committed value: replayed (settled) when
    /// detected, the main latch otherwise.
    #[must_use]
    pub fn committed(&self) -> u64 {
        if self.detected() {
            self.settled
        } else {
            self.main
        }
    }
}

/// Aggregate Razor statistics for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RazorReport {
    /// Operations executed.
    pub operations: usize,
    /// Cycles flagged by the shadow comparison.
    pub detections: usize,
    /// Erroneous cycles that escaped detection.
    pub undetected_errors: usize,
    /// Correct cycles that were flagged anyway.
    pub false_alarms: usize,
    /// Total pipeline cycles including replay penalties.
    pub total_cycles: u64,
    /// Buffer cells inserted by hold fixing (the monitoring overhead).
    pub hold_buffers: usize,
}

impl RazorReport {
    /// Effective throughput relative to an error-free pipeline
    /// (operations / total cycles).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.operations as f64 / self.total_cycles as f64
    }

    /// Fraction of operations with silent corruption after recovery.
    #[must_use]
    pub fn silent_error_rate(&self) -> f64 {
        if self.operations == 0 {
            return 0.0;
        }
        self.undetected_errors as f64 / self.operations as f64
    }
}

/// Runs an adder under Razor monitoring at the given clock period.
///
/// The netlist is hold-fixed first so that no output can change within the
/// shadow margin (the short-path constraint); the inserted buffers are
/// reported as overhead. Returns the per-cycle records and the aggregate
/// report.
///
/// # Panics
///
/// Panics if the period or margin is not positive/finite, the margin
/// does not fit within the period, or a cell with inputs has a zero
/// delay (see [`TimedTape::new`]).
#[must_use]
pub fn run_razor_trace(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    lib: &CellLibrary,
    period_ps: f64,
    config: &RazorConfig,
    inputs: &[(u64, u64)],
) -> (Vec<RazorCycle>, RazorReport) {
    assert!(
        period_ps.is_finite() && period_ps > 0.0,
        "period must be positive"
    );
    assert!(
        config.margin_ps.is_finite() && config.margin_ps > 0.0,
        "margin must be positive"
    );
    assert!(
        config.margin_ps < period_ps,
        "shadow margin must fit within the period"
    );
    // Hold fixing: enforce the min-delay constraint at the margin plus a
    // small guard for the simulator's femtosecond rounding.
    let (padded, padded_ann) =
        pad_min_delay(adder.netlist(), annotation, lib, config.margin_ps + 0.01);
    let hold_buffers = padded.cell_count() - adder.netlist().cell_count();
    let padded_adder = AdderNetlist::from_netlist(padded, adder.width());

    let cycles = sample_lanes(
        &padded_adder,
        &padded_ann,
        period_ps,
        config.margin_ps,
        inputs,
    );

    let detections = cycles.iter().filter(|c| c.detected()).count();
    let undetected_errors = cycles.iter().filter(|c| c.undetected_error()).count();
    let false_alarms = cycles.iter().filter(|c| c.false_alarm()).count();
    let report = RazorReport {
        operations: cycles.len(),
        detections,
        undetected_errors,
        false_alarms,
        total_cycles: cycles.len() as u64 + detections as u64 * u64::from(config.recovery_cycles),
        hold_buffers,
    };
    (cycles, report)
}

/// Samples every operation's main and shadow latch on the timed tape, 64
/// contiguous lane segments per sweep (see the module docs for why the
/// warm-up makes each lane exact).
fn sample_lanes(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    margin_ps: f64,
    inputs: &[(u64, u64)],
) -> Vec<RazorCycle> {
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let netlist = adder.netlist();
    let tape = InstructionTape::compile(netlist);
    let program = TimedTape::new(netlist, &tape, annotation);
    let margin_fs = ps_to_fs(margin_ps);
    let warmup = (program.critical_fs() + margin_fs).div_ceil(ps_to_fs(period_ps)) as usize + 1;
    let seg = segment_len(n);
    // The reset state: every lane settled at zero operands.
    let mut planes = vec![0u64; 2 * adder.width() as usize];
    let mut core = TimedTapeCore::with_settled(&program, &tape, period_ps, &planes);
    let settled = adder.add_batch_with_tape(&tape, inputs);
    let mut main = vec![0u64; n];
    let mut shadow = vec![0u64; n];
    let mut lane_pairs = [(0u64, 0u64); LANES];
    let (mut mains, mut shadows) = ([0u64; LANES], [0u64; LANES]);
    // Step `t` launches stream position `l·seg + t - W` on lane `l`: the
    // reset operands before the stream, held operands past its end. Its
    // main latch belongs to that position, its shadow to the one before.
    for t in 0..warmup + seg + 1 {
        for (l, lane) in lane_pairs.iter_mut().enumerate() {
            match (l * seg + t).checked_sub(warmup) {
                None => *lane = (0, 0),
                Some(pos) if pos < n => *lane = inputs[pos],
                Some(_) => {}
            }
        }
        pack_pairs(adder.width(), &lane_pairs, &mut planes);
        unpack_lanes(core.step_planes(&program, &planes), &mut mains);
        unpack_lanes(core.sample_after_launch(&program, margin_fs), &mut shadows);
        for l in 0..LANES {
            let segment = l * seg..((l + 1) * seg).min(n);
            let Some(pos) = (l * seg + t).checked_sub(warmup) else {
                continue;
            };
            if segment.contains(&pos) {
                main[pos] = mains[l];
            }
            if pos > 0 && segment.contains(&(pos - 1)) {
                shadow[pos - 1] = shadows[l];
            }
        }
    }
    inputs
        .iter()
        .zip(main.into_iter().zip(shadow))
        .zip(settled)
        .map(|((&(a, b), (main, shadow)), settled)| RazorCycle {
            a,
            b,
            main,
            shadow,
            settled,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::sta::StaReport;

    fn setup() -> (AdderNetlist, DelayAnnotation, f64, CellLibrary) {
        let adder = build_exact(16, AdderTopology::Ripple);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        (adder, ann, crit, lib)
    }

    fn pairs(n: usize) -> Vec<(u64, u64)> {
        let mut seed = 0x5AFEu64;
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed & 0xFFFF, (seed >> 19) & 0xFFFF)
            })
            .collect()
    }

    #[test]
    fn safe_clock_has_no_detections() {
        let (adder, ann, crit, lib) = setup();
        let config = RazorConfig {
            margin_ps: 40.0,
            recovery_cycles: 5,
        };
        let (cycles, report) =
            run_razor_trace(&adder, &ann, &lib, crit + 50.0, &config, &pairs(100));
        assert_eq!(report.detections, 0);
        assert_eq!(report.undetected_errors, 0);
        assert_eq!(report.throughput(), 1.0);
        assert!(report.hold_buffers > 0, "fast LSB paths need padding");
        assert!(cycles.iter().all(|c| c.committed() == c.settled));
    }

    #[test]
    fn overclocking_triggers_detections_and_recovery_cost() {
        let (adder, ann, crit, lib) = setup();
        let config = RazorConfig {
            margin_ps: 60.0,
            recovery_cycles: 5,
        };
        let (cycles, report) =
            run_razor_trace(&adder, &ann, &lib, crit * 0.85, &config, &pairs(400));
        assert!(report.detections > 0, "expected detections");
        assert!(report.throughput() < 1.0);
        // Recovery restores correctness for detected cycles.
        for c in cycles.iter().filter(|c| c.detected()) {
            assert_eq!(c.committed(), c.settled);
        }
    }

    #[test]
    fn deep_overclocking_produces_undetected_errors() {
        // Paths longer than period + margin corrupt both latches equally.
        let (adder, ann, crit, lib) = setup();
        let config = RazorConfig {
            margin_ps: 10.0,
            recovery_cycles: 5,
        };
        let (_, report) = run_razor_trace(&adder, &ann, &lib, crit * 0.5, &config, &pairs(500));
        assert!(
            report.undetected_errors > 0,
            "a thin margin must miss long-path errors"
        );
        assert!(report.silent_error_rate() > 0.0);
    }

    #[test]
    fn wider_margin_catches_more_errors() {
        let (adder, ann, crit, lib) = setup();
        let inputs = pairs(500);
        let thin = run_razor_trace(
            &adder,
            &ann,
            &lib,
            crit * 0.5,
            &RazorConfig {
                margin_ps: 10.0,
                recovery_cycles: 5,
            },
            &inputs,
        )
        .1;
        let wide = run_razor_trace(
            &adder,
            &ann,
            &lib,
            crit * 0.5,
            &RazorConfig {
                margin_ps: 0.35 * crit,
                recovery_cycles: 5,
            },
            &inputs,
        )
        .1;
        assert!(
            wide.undetected_errors <= thin.undetected_errors,
            "wide {} vs thin {}",
            wide.undetected_errors,
            thin.undetected_errors
        );
        assert!(
            wide.hold_buffers >= thin.hold_buffers,
            "a wider margin needs more padding"
        );
    }

    #[test]
    #[should_panic(expected = "margin must fit")]
    fn margin_wider_than_period_is_rejected() {
        let (adder, ann, _, lib) = setup();
        let _ = run_razor_trace(
            &adder,
            &ann,
            &lib,
            100.0,
            &RazorConfig {
                margin_ps: 150.0,
                recovery_cycles: 1,
            },
            &pairs(10),
        );
    }

    #[test]
    fn report_totals_account_for_replays() {
        let (adder, ann, crit, lib) = setup();
        let config = RazorConfig {
            margin_ps: 60.0,
            recovery_cycles: 7,
        };
        let (_, report) = run_razor_trace(&adder, &ann, &lib, crit * 0.8, &config, &pairs(200));
        assert_eq!(report.total_cycles, 200 + report.detections as u64 * 7);
    }
}
