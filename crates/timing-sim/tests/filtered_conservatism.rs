//! The classifier's hard contract, checked exhaustively: over **all**
//! 8-bit operand pairs and several clock periods, no lane whose sampled
//! output actually differs from its settled output may ever be classified
//! safe. (The dual direction — over-approximating "unsafe" — only costs
//! speed and is deliberately allowed.)
//!
//! The stream is dealt to lanes exactly like the filtered runner deals
//! it (contiguous segments, exhausted lanes holding their operands), so
//! the verdicts line up one-to-one with the ground truth: plain timed
//! replay of the whole stream, which `tests/bit_parity.rs` pins lane by
//! lane to the scalar clocked simulator.

use isa_core::batch::{pack_pairs, LaneSchedule, LANES};
use isa_core::IsaConfig;
use isa_netlist::builders::{build_exact, isa, AdderNetlist, AdderTopology};
use isa_netlist::cell::CellLibrary;
use isa_netlist::classify::LaneClassifier;
use isa_netlist::sta::StaReport;
use isa_netlist::tape::InstructionTape;
use isa_netlist::timing::{DelayAnnotation, VariationModel};
use isa_timing_sim::{run_clocked_batch_timed, TimedTape};

/// Per-cycle classifier verdicts for a stream, using the filtered
/// runner's lane dealing.
fn classify_stream(
    classifier: &LaneClassifier,
    width: u32,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> Vec<bool> {
    let schedule = LaneSchedule::new(inputs.len());
    let mut stream = classifier.stream_classifier(period_ps);
    let mut lane_pairs = [(0u64, 0u64); LANES];
    let mut planes = vec![0u64; 2 * width as usize];
    let mut verdicts = vec![false; inputs.len()];
    for t in 0..schedule.steps() {
        schedule.gather(inputs, t, &mut lane_pairs);
        pack_pairs(width, &lane_pairs, &mut planes);
        let (a_planes, b_planes) = planes.split_at(width as usize);
        let safe = stream.step(a_planes, b_planes);
        schedule.scatter(t, &[true; LANES], safe, &mut verdicts);
    }
    verdicts
}

/// All 65536 8-bit operand pairs, in an order that mixes violating and
/// quiet transitions (sequential sweeps would understate history
/// effects).
fn exhaustive_pairs() -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = (0..1u64 << 16).map(|v| (v & 0xFF, v >> 8)).collect();
    // Deterministic shuffle (Fisher-Yates with an xorshift stream).
    let mut x = 0x2545F491_4F6CDD1Du64;
    for i in (1..pairs.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        pairs.swap(i, (x as usize) % (i + 1));
    }
    pairs
}

fn assert_conservative(adder: &AdderNetlist, annotation: &DelayAnnotation, fractions: &[f64]) {
    let classifier = LaneClassifier::build(adder, annotation);
    let crit = StaReport::analyze(adder.netlist(), annotation).critical_ps();
    let inputs = exhaustive_pairs();
    let tape = InstructionTape::compile(adder.netlist());
    let settled = adder.add_batch_with_tape(&tape, &inputs);
    let program = TimedTape::new(adder.netlist(), &tape, annotation);
    for &fraction in fractions {
        let period = crit * fraction;
        let sampled = run_clocked_batch_timed(adder, &program, &tape, period, &inputs);
        let verdicts = classify_stream(&classifier, adder.width(), period, &inputs);
        let mut violations = 0usize;
        let mut safe = 0usize;
        for (i, &(a, b)) in inputs.iter().enumerate() {
            let violating = sampled[i] != settled[i];
            violations += usize::from(violating);
            safe += usize::from(verdicts[i]);
            assert!(
                !(violating && verdicts[i]),
                "cycle {i} (a={a:#x} b={b:#x}) violates timing but was classified safe \
                 (period {period:.1} ps, fraction {fraction})"
            );
        }
        // The run must be informative: overclocked points need real
        // violations, and the classifier must not be vacuously unsafe.
        if fraction < 0.9 {
            assert!(violations > 0, "no violations at fraction {fraction}?");
        }
        if fraction > 0.93 {
            assert!(safe > 0, "classifier vacuously unsafe at {fraction}");
        }
    }
}

#[test]
fn ripple_8bit_exhaustive_is_conservative() {
    let adder = build_exact(8, AdderTopology::Ripple);
    let lib = CellLibrary::industrial_65nm();
    let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
    assert_conservative(&adder, &ann, &[0.55, 0.75, 0.9, 1.02]);
}

#[test]
fn ripple_8bit_with_process_variation_is_conservative() {
    // A perturbed die exercises the integer-femtosecond rounding margins.
    let adder = build_exact(8, AdderTopology::Ripple);
    let lib = CellLibrary::industrial_65nm();
    let ann = DelayAnnotation::nominal(adder.netlist(), &lib)
        .perturbed(&VariationModel::new(0.05, 0xD1E));
    assert_conservative(&adder, &ann, &[0.7, 0.9]);
}

#[test]
fn kogge_stone_8bit_exhaustive_is_conservative() {
    // Prefix topology: the group-PG span pinning rules carry the load.
    let adder = build_exact(8, AdderTopology::KoggeStone);
    let lib = CellLibrary::industrial_65nm();
    let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
    assert_conservative(&adder, &ann, &[0.7, 0.85, 0.95]);
}

#[test]
fn isa_8bit_exhaustive_is_conservative() {
    // An ISA assembly: SPEC window + COMP correction/reduction logic on
    // top of ripple blocks (the chain-span machinery).
    let cfg = IsaConfig::new(8, 4, 1, 1, 2).expect("valid 8-bit quadruple");
    let adder = isa::build(&cfg, AdderTopology::Ripple).expect("buildable");
    let lib = CellLibrary::industrial_65nm();
    let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
    assert_conservative(&adder, &ann, &[0.6, 0.8, 0.95]);
}
