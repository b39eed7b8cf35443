//! Quickstart: build an Inexact Speculative Adder, synthesize it, overclock
//! it, and combine its structural and timing errors — the paper's whole
//! methodology in one page, driven through the engine's plan API.
//!
//! Run with: `cargo run --release --example quickstart`

use overclocked_isa::core::{combine, Adder, IsaConfig, SpeculativeAdder};
use overclocked_isa::engine::{Engine, ExperimentConfig, ExperimentPlan};
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

fn main() {
    // 1. The behavioural ISA model: quadruple (block, SPEC, correction,
    //    reduction) = (8,0,0,4), the paper's best-balanced design.
    let cfg = IsaConfig::new(32, 8, 0, 0, 4).expect("valid paper quadruple");
    let isa = SpeculativeAdder::new(cfg);

    let (a, b) = (0x0000_00FF_u64, 0x0000_0001_u64);
    let exact = a + b;
    let gold = isa.add(a, b);
    println!("ISA {cfg}: {a:#x} + {b:#x} = {gold:#x} (exact {exact:#x})");
    println!("  -> a missed carry, reduced by forcing bits 4..8 of the preceding sum\n");

    // 2. Structural errors alone over random data (properly clocked).
    let inputs = take_pairs(UniformWorkload::new(32, 42), 100_000);
    let structural = combine::structural_errors(&isa, inputs.iter().copied());
    println!(
        "structural RMS RE over {} samples: {:.4}% (error rate {:.2}%)",
        inputs.len(),
        structural.re_struct.rms() * 100.0,
        structural.e_struct.error_rate() * 100.0,
    );

    // 3. Synthesize to gates (65 nm-class library, 0.3 ns constraint),
    //    overclock by 15% and measure emergent timing errors — one
    //    experiment plan, run on the gate level.
    let config = ExperimentConfig::default();
    let engine = Engine::new();
    let design = overclocked_isa::core::Design::Isa(cfg);
    let ctx = engine.context(&design, &config);
    println!(
        "\nsynthesized as {} sub-adders: {} cells, {:.0} NAND2-eq, critical {:.1} ps",
        ctx.synthesized.topology.name(),
        ctx.synthesized.adder.netlist().cell_count(),
        ctx.synthesized.area,
        ctx.synthesized.critical_ps,
    );

    let plan = ExperimentPlan::new(config)
        .designs([design])
        .cprs([0.15])
        .workload("uniform", inputs[..20_000].to_vec());
    let result = &engine.run(&plan)[0];
    let (s, t, j) = result.stats.rms_re_percent();
    println!(
        "overclocked at {} ps (15% CPR): RMS RE structural {s:.4}%, timing {t:.4}%, joint {j:.4}%",
        result.clock_ps
    );
    println!("(timing errors emerged from event-driven gate simulation — nothing injected)");
}
