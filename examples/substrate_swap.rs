//! Substrate swap: the same (design, clock, stream) run evaluated on both
//! `ysilver` backends — the learned per-bit predictor and gate-level
//! ground truth — through the one `Substrate::run_batch` call, beside the
//! structural-only floor, which needs no substrate at all.
//!
//! This is the FATE-style substitution the engine is built around: the
//! predictor backend approximates the gate-level substrate orders of
//! magnitude faster, and `structural_errors` isolates the error the
//! design has before any overclocking. Each row is one `combine_errors`
//! call; timing-error rate and joint RMS RE are printed side by side,
//! with per-row wall-clock.
//!
//! Run with: `cargo run --release --example substrate_swap [cycles]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use overclocked_isa::core::{
    combine_errors, structural_errors, CombinedErrorStats, Design, IsaConfig, Substrate,
};
use overclocked_isa::engine::{
    ArtifactCache, ExperimentConfig, GateLevelSubstrate, PredictedSubstrate,
};
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

fn print_row(design: &Design, source: &str, stats: &CombinedErrorStats, elapsed: Duration) {
    println!(
        "{:<12} {:<12} {:>10.4} {:>12.4} {:>9.2}s",
        design.to_string(),
        source,
        stats.e_timing.error_rate(),
        stats.re_joint.rms() * 100.0,
        elapsed.as_secs_f64(),
    );
}

fn main() {
    let cycles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);

    let config = ExperimentConfig::default();
    let clock_ps = config.clock_ps(0.15);
    let inputs = take_pairs(UniformWorkload::new(32, config.workload_seed), cycles);
    let cache = Arc::new(ArtifactCache::new());
    let predicted = PredictedSubstrate::new(Arc::clone(&cache), config.clone(), 2_000);
    let gate = GateLevelSubstrate::new(cache, config);
    let substrates: [(&str, &dyn Substrate); 2] =
        [("predicted", &predicted), ("gate-level", &gate)];

    println!("{cycles} cycles per (design, substrate) at 15% CPR\n");
    println!(
        "{:<12} {:<12} {:>10} {:>12} {:>10}",
        "design", "ysilver", "err-rate", "RMS REj(%)", "time"
    );
    for design in [
        Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).expect("valid")),
        Design::Exact { width: 32 },
    ] {
        let gold = design.behavioural();
        let started = Instant::now();
        let floor = structural_errors(gold.as_ref(), inputs.iter().copied());
        print_row(&design, "= ygold", &floor, started.elapsed());
        let golds = gold.add_batch(&inputs);
        for (name, substrate) in substrates {
            let started = Instant::now();
            let silvers = substrate.run_batch(&design, clock_ps, &inputs);
            let stats = combine_errors(design.width(), &inputs, &golds, &silvers);
            print_row(&design, name, &stats, started.elapsed());
        }
    }
    println!("\nSame stream, same interface: only the substrate changed. The");
    println!("predictor tracks gate-level error rates at behavioural-model cost");
    println!("(after its one-off training trace); use it for wide sweeps and");
    println!("re-validate chosen operating points on the gate-level substrate.");
}
