//! Exact vs. simulated structural-error statistics.
//!
//! `isa_core::analysis` computes every design's exact structural error
//! rate, mean and RMS over all operand pairs with a per-bit dynamic
//! program, without simulation. This example prints those numbers side
//! by side with a Monte-Carlo run of the behavioural model — they must
//! agree to sampling noise — and then times the program over the whole
//! width-32 design space.
//!
//! Run with: `cargo run --release --example analytical_model [samples]`

use std::time::Instant;

use overclocked_isa::core::analysis::DesignAnalysis;
use overclocked_isa::core::{
    enumerate_quadruples, paper_isa_configs, Adder, Design, ExactAdder, SpeculativeAdder,
};
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    let inputs = take_pairs(UniformWorkload::new(32, 0xA11A), samples);
    let exact = ExactAdder::new(32);

    println!("exact (DP) vs Monte-Carlo ({samples} samples)");
    println!(
        "{:<12} {:>11} {:>11} | {:>12} {:>12} | {:>12} {:>12}",
        "design", "rate(DP)", "rate(MC)", "meanE(DP)", "meanE(MC)", "rmsE(DP)", "rmsE(MC)"
    );
    for cfg in paper_isa_configs() {
        let analysis = DesignAnalysis::analyze(&Design::Isa(cfg));
        let isa = SpeculativeAdder::new(cfg);
        let mut errors = 0usize;
        let mut sum_e = 0.0;
        let mut sum_e2 = 0.0;
        for &(a, b) in &inputs {
            let e = isa.add(a, b) as i64 - exact.add(a, b) as i64;
            if e != 0 {
                errors += 1;
            }
            sum_e += e as f64;
            sum_e2 += (e as f64) * (e as f64);
        }
        println!(
            "{:<12} {:>11.6} {:>11.6} | {:>12.2} {:>12.2} | {:>12.1} {:>12.1}",
            cfg.to_string(),
            analysis.error_rate(),
            errors as f64 / samples as f64,
            analysis.mean_error(),
            sum_e / samples as f64,
            analysis.rms_error(),
            (sum_e2 / samples as f64).sqrt(),
        );
    }

    let space = enumerate_quadruples(32);
    let started = Instant::now();
    let worst = space
        .iter()
        .map(|&cfg| DesignAnalysis::analyze(&Design::Isa(cfg)).rms_error())
        .fold(0.0, f64::max);
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "\nexact moments of all {} width-32 designs in {:.3} s ({:.1} us per design); \
         largest RMS {worst:.4e}",
        space.len(),
        elapsed,
        elapsed / space.len() as f64 * 1e6
    );
}
