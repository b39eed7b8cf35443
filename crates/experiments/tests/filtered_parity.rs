//! The filtered runner's results contract: **bit-identical** to the
//! scalar oracle — every lane segment replayed on a fresh `ClockedSim`
//! from reset — for every paper design at every Fig. 9 clock point, and
//! on a real application kernel's operation stream with its ragged
//! (non-multiple-of-64) passes.
//!
//! This is what makes the filtered runner the one production path
//! without touching a single golden CSV: the classifier's fast path and
//! the compacted timed slow path reproduce the scalar event simulation
//! exactly, they are just cheaper about it.

use isa_apps::{kernel_by_name, BatchAdder};
use isa_core::paper_designs;
use isa_engine::{DesignContext, ExperimentConfig};
use isa_timing_sim::{run_filtered_batch_with_stats_tape, scalar_segments};
use isa_workloads::{take_pairs, UniformWorkload};

#[test]
fn filtered_matches_scalar_at_every_fig9_clock_point() {
    let config = ExperimentConfig::default();
    let inputs = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0xF11),
        1_920,
    );
    let mut filtered_cells = 0usize;
    for design in paper_designs() {
        let ctx = DesignContext::build(design, &config);
        // The safe clock plus all three Fig. 9 overclock points.
        for cpr in [0.0, 0.05, 0.10, 0.15] {
            let clock = config.clock_ps(cpr);
            let (got, stats) = run_filtered_batch_with_stats_tape(
                &ctx.synthesized.adder,
                &ctx.annotation,
                ctx.classifier(),
                ctx.tape(),
                clock,
                &inputs,
            );
            assert_eq!(
                got,
                scalar_segments(&ctx.synthesized.adder, &ctx.annotation, clock, &inputs),
                "{design} at cpr {cpr}"
            );
            if !stats.tier0 && !stats.fell_back {
                filtered_cells += 1;
            }
        }
    }
    // The sweep must exercise the interesting regime: some cells with a
    // genuine safe/unsafe lane mix (not only tier-0 and fallbacks).
    assert!(
        filtered_cells >= 5,
        "only {filtered_cells} cells took the mixed filtered path"
    );
}

#[test]
fn filtered_matches_scalar_on_app_kernel_stream_with_ragged_tail() {
    // A real kernel lowering produces many short, ragged run_batch calls
    // (one per breadth-first reduction level) — the opposite shape of the
    // long uniform figure streams.
    let config = ExperimentConfig::default();
    let design = paper_designs()[4]; // (8,0,1,6): never tier-0 at fig9 clocks
    let ctx = DesignContext::build(design, &config);
    let clock = config.clock_ps(0.15);
    let mut ragged_passes = 0usize;
    let mut passes = 0usize;
    {
        let mut add = |ops: &[(u64, u64)]| -> Vec<u64> {
            passes += 1;
            ragged_passes += usize::from(!ops.len().is_multiple_of(64));
            let (got, _) = run_filtered_batch_with_stats_tape(
                &ctx.synthesized.adder,
                &ctx.annotation,
                ctx.classifier(),
                ctx.tape(),
                clock,
                ops,
            );
            assert_eq!(
                got,
                scalar_segments(&ctx.synthesized.adder, &ctx.annotation, clock, ops),
                "pass {passes} ({} ops)",
                ops.len()
            );
            got
        };
        let mut adder = BatchAdder::new(&mut add);
        let kernel = kernel_by_name("dot", 1, 0x5EED).expect("standard kernel");
        let _ = kernel.run(&mut adder);
    }
    assert!(passes > 3, "kernel must lower to several passes");
    assert!(ragged_passes > 0, "stream must include a ragged tail");
}
