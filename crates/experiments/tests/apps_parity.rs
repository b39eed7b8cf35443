//! Parity contract of the application-quality pipeline: when overclocked,
//! the production gate-level `run_batch` of a kernel's operand stream
//! equals the scalar oracle fed the same stream in per-lane segments — the
//! lane-parity contract lifted to application streams, including the
//! ragged final segment.

use isa_apps::{run_with, FirKernel};
use isa_core::{Design, IsaConfig, Substrate};
use isa_experiments::{ArtifactCache, ExperimentConfig, GateLevelSubstrate};
use isa_timing_sim::scalar_segments;
use std::sync::Arc;

fn isa_8004() -> Design {
    Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())
}

#[test]
fn overclocked_run_batch_equals_scalar_segments() {
    // Record the FIR kernel's first reduction pass: a real application
    // operand stream whose length is not a multiple of 64.
    let kernel = FirKernel::new(128, 0x5EED_CAFE ^ 0xF14);
    let mut first_pass: Option<Vec<(u64, u64)>> = None;
    let _ = run_with(&kernel, &mut |ops| {
        if first_pass.is_none() {
            first_pass = Some(ops.to_vec());
        }
        ops.iter().map(|&(a, b)| a + b).collect()
    });
    let ops = first_pass.expect("FIR has at least one pass");
    assert_ne!(ops.len() % 64, 0, "stream must exercise the ragged tail");

    let design = isa_8004();
    let config = ExperimentConfig::default();
    let clock_ps = config.clock_ps(0.15);
    let gate = GateLevelSubstrate::new(Arc::new(ArtifactCache::new()), config);

    let batched = gate.run_batch(&design, clock_ps, &ops);
    let ctx = gate.context(&design);
    let oracle = scalar_segments(&ctx.synthesized.adder, &ctx.annotation, clock_ps, &ops);
    assert_eq!(batched, oracle, "lane-parity contract on app streams");
}
