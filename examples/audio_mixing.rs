//! DSP scenario on full-range data: mixing two 32-bit (offset-binary)
//! audio channels through each paper design, with and without
//! overclocking.
//!
//! This is the regime the paper's 32-bit quadruples are built for: operands
//! span the full adder width, so speculation faults at bits 8/16/24 are
//! tiny *relative* errors. The example reports the mixed signal's SNR per
//! design — exercising the paper's observation that RMS relative error is
//! proportional to SNR — and then overclocks the same designs by 15% to
//! show the joint (structural + timing) SNR degradation.
//!
//! The twelve designs are evaluated in parallel through
//! [`Engine::map`](overclocked_isa::engine::Engine::map), each overclocked
//! stream coming from one gate-level `run_batch` call.
//!
//! Run with: `cargo run --release --example audio_mixing [samples]`

use overclocked_isa::core::{paper_designs, OutputTriple, Substrate};
use overclocked_isa::engine::{Engine, ExperimentConfig, ExperimentPlan, GateLevelSubstrate};
use overclocked_isa::metrics::snr_db;
use overclocked_isa::workloads::{take_pairs, SineWorkload};

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);

    // Two full-scale tones with 2% noise, offset-binary around 2^30.
    let inputs = take_pairs(SineWorkload::new(32, 0.011, 0.017, 0.02, 77), samples);
    let config = ExperimentConfig::default();
    let engine = Engine::new();
    let gate = GateLevelSubstrate::new(engine.cache(), config.clone());

    println!("mixing {samples} samples of two 32-bit channels (offset-binary)");
    println!(
        "{:<12} {:>16} {:>18} {:>12}",
        "design", "SNR mix (dB)", "SNR @15% CPR (dB)", "err-rate"
    );
    let plan = ExperimentPlan::new(config)
        .designs(paper_designs())
        .cprs([0.15])
        .workload("sine-mix", inputs);
    let rows = engine.map(&plan, |unit| {
        let golds = unit.design.behavioural().add_batch(unit.inputs);
        let silvers = gate.run_batch(&unit.design, unit.clock_ps, unit.inputs);

        // Properly clocked: structural errors only.
        let mut noise_power = 0.0f64;
        let mut signal_power = 0.0f64;
        // Overclocked: structural + timing errors.
        let mut joint_noise_power = 0.0f64;
        let mut error_cycles = 0usize;

        for ((&(a, b), &gold), &silver) in unit.inputs.iter().zip(&golds).zip(&silvers) {
            let triple = OutputTriple::new(a + b, gold, silver);
            let signal = (a + b) as f64;
            signal_power += signal * signal;
            let structural = triple.e_struct() as f64;
            noise_power += structural * structural;
            let joint = triple.e_joint() as f64;
            joint_noise_power += joint * joint;
            if triple.e_timing() != 0 {
                error_cycles += 1;
            }
        }
        let snr = |noise: f64| -> String {
            if noise == 0.0 {
                "inf".to_owned()
            } else {
                format!("{:.1}", snr_db((noise / signal_power).sqrt()))
            }
        };
        format!(
            "{:<12} {:>16} {:>18} {:>12.4}",
            unit.design.to_string(),
            snr(noise_power),
            snr(joint_noise_power),
            error_cycles as f64 / unit.inputs.len() as f64
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!("\nAt full-range data even the cheapest quadruples deliver ~45+ dB;");
    println!("overclocking trades a few dB where timing errors appear, and the");
    println!("exact adder (no structural error, slack-wall timing) collapses.");
}
