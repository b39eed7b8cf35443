//! Ablation study: isolates which modelling choice produces which feature
//! of the reproduced figures (see the root README's "Synthesis flow" note).
//!
//! Three ablations on the exact adder and one ISA:
//!
//! 1. **Area recovery off** for the exact adder — without the slack wall
//!    the exact adder tolerates overclocking and the paper's headline
//!    observation (exact worst at 5% CPR) disappears.
//! 2. **Process variation sigma sweep** — variation spreads the error
//!    onset and roughens the Fig. 10 distribution; sigma 0 makes errors
//!    abrupt and regular.
//! 3. **Forced sub-adder topology** for ISA (8,0,0,4) — replacing the
//!    min-area ripple sub-adders with Kogge-Stone prefix blocks shifts
//!    sensitized arrivals earlier and removes most timing errors.
//!
//! Run with: `cargo run --release --example ablation_study [cycles]`

use overclocked_isa::core::{combine_errors, IsaConfig};
use overclocked_isa::netlist::builders::{build_exact, isa, AdderTopology};
use overclocked_isa::netlist::cell::CellLibrary;
use overclocked_isa::netlist::sta::StaReport;
use overclocked_isa::netlist::synth::{synthesize_exact, SynthesisOptions};
use overclocked_isa::netlist::timing::{DelayAnnotation, VariationModel};
use overclocked_isa::netlist::AdderNetlist;
use overclocked_isa::timing_sim::run_adder_trace;
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

const PERIOD: f64 = 300.0;

fn measure(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    clk: f64,
    inputs: &[(u64, u64)],
) -> (f64, f64) {
    let trace = run_adder_trace(adder, annotation, clk, inputs);
    let settled: Vec<u64> = trace.iter().map(|rec| rec.settled).collect();
    let sampled: Vec<u64> = trace.iter().map(|rec| rec.sampled).collect();
    let stats = combine_errors(adder.width(), inputs, &settled, &sampled);
    (stats.e_timing.error_rate(), stats.re_joint.rms() * 100.0)
}

fn main() {
    let cycles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let inputs = take_pairs(UniformWorkload::new(32, 0xAB1A7E), cycles);
    let lib = CellLibrary::industrial_65nm();
    let variation = VariationModel::new(0.05, 0xD1CE);

    // ---- Ablation 1: area recovery on/off for the exact adder ----
    println!("== ablation 1: slack-wall area recovery (exact adder, 5% CPR) ==");
    for (label, options) in [
        ("recovery ON  (paper flow)", SynthesisOptions::paper()),
        ("recovery OFF (natural slack)", SynthesisOptions::default()),
    ] {
        let synth = synthesize_exact(32, PERIOD, &lib, &options).expect("feasible");
        let ann = synth.annotation.perturbed(&variation);
        let (rate, rms) = measure(&synth.adder, &ann, PERIOD * 0.95, &inputs);
        println!(
            "  {label:<30} crit {:>6.1} ps  err-rate {rate:.4}  joint RMS RE {rms:.3}%",
            synth.critical_ps
        );
    }
    println!("  -> without the slack wall the exact adder shrugs off 5% CPR;");
    println!("     the paper's 'worst of the group' finding needs the constrained flow.\n");

    // ---- Ablation 2: variation sigma sweep ----
    println!("== ablation 2: process-variation sigma (exact adder, 5% CPR) ==");
    let synth = synthesize_exact(32, PERIOD, &lib, &SynthesisOptions::paper()).expect("feasible");
    for sigma in [0.0, 0.02, 0.05, 0.08] {
        let ann = synth
            .annotation
            .perturbed(&VariationModel::new(sigma, 0xD1CE));
        let (rate, rms) = measure(&synth.adder, &ann, PERIOD * 0.95, &inputs);
        println!("  sigma {sigma:>4.2}  err-rate {rate:.4}  joint RMS RE {rms:.3}%");
    }
    println!("  -> variation widens the onset; with sigma 0 the error rate is set");
    println!("     purely by path sensitization at the recovered arrival times.\n");

    // ---- Ablation 3: forced sub-adder topology for ISA (8,0,0,4) ----
    println!("== ablation 3: ISA (8,0,0,4) sub-adder topology (15% CPR) ==");
    let cfg = IsaConfig::new(32, 8, 0, 0, 4).expect("valid");
    for topology in [
        AdderTopology::Ripple,
        AdderTopology::Cla4,
        AdderTopology::KoggeStone,
    ] {
        let adder = isa::build(&cfg, topology).expect("buildable");
        let nominal = DelayAnnotation::nominal(adder.netlist(), &lib);
        let crit = StaReport::analyze(adder.netlist(), &nominal).critical_ps();
        let ann = nominal.perturbed(&variation);
        let (rate, rms) = measure(&adder, &ann, PERIOD * 0.85, &inputs);
        println!(
            "  {:<12} crit {crit:>6.1} ps  err-rate {rate:.4}  joint RMS RE {rms:.3}%",
            topology.name()
        );
    }
    println!("  -> faster (larger) sub-adders buy timing robustness with area,");
    println!("     the delay-accuracy dial the ISA design strategy exposes.");

    // Cross-check the headline claim once more with the exact baseline.
    let exact_fast = build_exact(32, AdderTopology::KoggeStone);
    let nominal = DelayAnnotation::nominal(exact_fast.netlist(), &lib);
    let crit = StaReport::analyze(exact_fast.netlist(), &nominal).critical_ps();
    println!(
        "\n(reference: unconstrained Kogge-Stone exact adder has crit {crit:.1} ps — \
         overclocking a fast-but-large design is 'free' until its own wall)"
    );
}
