//! Lane-parallel Razor against the scalar event-driven oracle.
//!
//! `run_razor_trace` replays the stream on the timed tape in 64 warmed-up
//! lane segments. The oracle below is the original harness: one
//! `GateLevelSim` stepping the whole stream cycle by cycle. Both must agree
//! on every `RazorCycle` and on the report, from a safe clock to deep
//! overclock, for thin to wide shadow margins, and for streams shorter
//! than one lane segment's warm-up.

use isa_netlist::builders::{build_exact, AdderNetlist, AdderTopology};
use isa_netlist::cell::CellLibrary;
use isa_netlist::sta::StaReport;
use isa_netlist::synth::{synthesize_exact, SynthesisOptions};
use isa_netlist::timing::{DelayAnnotation, VariationModel};
use isa_netlist::transform::pad_min_delay;
use isa_timing_sim::sim::{ps_to_fs, GateLevelSim};
use isa_timing_sim::{run_razor_trace, RazorConfig, RazorCycle, RazorReport};

/// The scalar Razor harness: hold-fix, then one event-driven simulator
/// over the whole stream.
fn scalar_razor_trace(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    lib: &CellLibrary,
    period_ps: f64,
    config: &RazorConfig,
    inputs: &[(u64, u64)],
) -> (Vec<RazorCycle>, RazorReport) {
    let (padded, padded_ann) =
        pad_min_delay(adder.netlist(), annotation, lib, config.margin_ps + 0.01);
    let hold_buffers = padded.cell_count() - adder.netlist().cell_count();
    let padded_adder = AdderNetlist::from_netlist(padded, adder.width());

    let period_fs = ps_to_fs(period_ps);
    let margin_fs = ps_to_fs(config.margin_ps);
    let netlist = padded_adder.netlist();
    let mut sim = GateLevelSim::new(netlist, &padded_ann);
    let mut cycles = Vec::with_capacity(inputs.len());

    // Pipeline the sampling: operation k's inputs are applied at absolute
    // edge k*P; its main latch samples at edge (k+1)*P; its shadow samples
    // at (k+1)*P + margin, after operation k+1's inputs have already been
    // applied at their own edge — safe thanks to hold fixing.
    for (k, &(a, b)) in inputs.iter().enumerate() {
        let launch_edge = k as u64 * period_fs;
        let sample_edge = launch_edge + period_fs;
        if k == 0 {
            sim.set_inputs(&padded_adder.input_values(a, b));
        }
        sim.run_until(sample_edge);
        let main = sim.outputs_u64();
        // The next operation launches exactly at the sampling edge.
        if let Some(&(na, nb)) = inputs.get(k + 1) {
            sim.set_inputs(&padded_adder.input_values(na, nb));
        }
        sim.run_until(sample_edge + margin_fs);
        let shadow = sim.outputs_u64();
        let settled = netlist.evaluate_outputs_u64(&padded_adder.input_values(a, b));
        cycles.push(RazorCycle {
            a,
            b,
            main,
            shadow,
            settled,
        });
    }

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

fn pairs(n: usize, width: u32, seed: u64) -> Vec<(u64, u64)> {
    let mask = (1u64 << width) - 1;
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & mask, (x >> 29) & mask)
        })
        .collect()
}

/// The battery's circuits: name, adder, annotation, critical delay.
fn circuits(lib: &CellLibrary) -> Vec<(&'static str, AdderNetlist, DelayAnnotation, f64)> {
    let nominal = |topology| {
        let adder = build_exact(16, topology);
        let ann = DelayAnnotation::nominal(adder.netlist(), lib);
        let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        (adder, ann, crit)
    };
    let (ripple, ripple_ann, ripple_crit) = nominal(AdderTopology::Ripple);
    let (ks, ks_ann, ks_crit) = nominal(AdderTopology::KoggeStone);
    // The guardband experiment's Razor subject: the 32-bit exact adder
    // synthesized at the slack wall, on a varied die.
    let synthesized =
        synthesize_exact(32, 300.0, lib, &SynthesisOptions::paper()).expect("feasible");
    let exact_ann = synthesized
        .annotation
        .perturbed(&VariationModel::new(0.05, 0xD1E));
    let exact_crit = StaReport::analyze(synthesized.adder.netlist(), &exact_ann).critical_ps();
    vec![
        ("ripple16", ripple, ripple_ann, ripple_crit),
        ("kogge-stone16", ks, ks_ann, ks_crit),
        (
            "synthesized exact32",
            synthesized.adder,
            exact_ann,
            exact_crit,
        ),
    ]
}

fn assert_parity(
    name: &str,
    adder: &AdderNetlist,
    ann: &DelayAnnotation,
    lib: &CellLibrary,
    period: f64,
    margin: f64,
    inputs: &[(u64, u64)],
) -> RazorReport {
    let config = RazorConfig {
        margin_ps: margin,
        recovery_cycles: 5,
    };
    let (lanes, lane_report) = run_razor_trace(adder, ann, lib, period, &config, inputs);
    let (scalar, scalar_report) = scalar_razor_trace(adder, ann, lib, period, &config, inputs);
    let at = format!(
        "{name}, P = {period:.1} ps, margin {margin:.1} ps, {} cycles",
        inputs.len()
    );
    assert_eq!(lanes.len(), scalar.len(), "{at}");
    for (k, (got, want)) in lanes.iter().zip(&scalar).enumerate() {
        assert_eq!(got, want, "{at}: cycle {k}");
    }
    assert_eq!(lane_report, scalar_report, "{at}");
    lane_report
}

#[test]
fn lanes_match_the_scalar_oracle_across_circuits_periods_and_margins() {
    let lib = CellLibrary::industrial_65nm();
    let mut detections = 0;
    let mut misses = 0;
    for (name, adder, ann, crit) in circuits(&lib) {
        let inputs = pairs(400, adder.width(), 0x4A20 + crit as u64);
        for period in [crit + 50.0, 0.85 * crit, 0.5 * crit] {
            for margin in [10.0, 0.12 * period, 0.35 * crit] {
                for len in [0, 1, 63, 64, 65, 400] {
                    let report =
                        assert_parity(name, &adder, &ann, &lib, period, margin, &inputs[..len]);
                    detections += report.detections;
                    misses += report.undetected_errors;
                }
            }
        }
    }
    // The battery must exercise both Razor outcomes, not only quiet runs.
    assert!(detections > 0 && misses > 0, "{detections} / {misses}");
}

#[test]
fn long_streams_match_the_scalar_oracle() {
    // 10,000 cycles: segments of 157, far longer than the warm-up, so
    // every lane carries state across many edges after its seam.
    let lib = CellLibrary::industrial_65nm();
    for (name, adder, ann, crit) in circuits(&lib) {
        let inputs = pairs(10_000, adder.width(), 0x10_000 + crit as u64);
        for (period, margin) in [
            (crit + 50.0, 10.0),
            (0.85 * crit, 0.12 * 0.85 * crit),
            (0.5 * crit, 0.35 * crit),
        ] {
            assert_parity(name, &adder, &ann, &lib, period, margin, &inputs);
        }
    }
}
