//! # isa-apps
//!
//! Application kernels lowered to streams of adder operations.
//!
//! The paper justifies RMS relative error by its proportionality to the
//! SNR "in many applications, particularly in multimedia processing", but
//! never runs an application. This crate closes that loop: a [`Kernel`]
//! expresses a small multimedia/DSP computation — FIR filtering, 2-D image
//! convolution, blocked dot products, histogram accumulation — purely in
//! terms of unsigned additions, and an executor routes every one of those
//! additions through one adder backend: the behavioural golden model
//! ([`run_behavioural`]) or an [`isa_core::Substrate`] such as the
//! gate-level simulator ([`run_on_substrate`]). The same kernel therefore
//! runs on any adder design at any clock, and its output can be scored in
//! the units the paper's argument appeals to: PSNR / SNR in dB
//! ([`isa_metrics::QualityStats`]).
//!
//! ## Lowering model
//!
//! Kernels are lowered *breadth-first*: each call to
//! [`BatchAdder::add_all`] is one **pass** containing every addition whose
//! operands are already known (e.g. one level of a balanced reduction
//! tree, across all output samples at once). Data-dependent chains —
//! partial sums feeding further sums — become successive passes, so error
//! feedback through the inexact adder is preserved exactly, while each
//! pass is a single [`Substrate::run_batch`] call and hence gets the
//! bit-sliced fast path for free. Constant scalings (filter taps, stencil
//! weights) are applied exactly before accumulation, modelling the usual
//! shift-and-add/wiring implementation; only genuine additions go through
//! the approximate adder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod kernels;
pub mod reduce;

pub use kernels::{
    kernel_by_name, standard_kernels, Conv2dKernel, DotProductKernel, FirKernel, HistogramKernel,
    StencilOp, KERNEL_WIDTH,
};
pub use reduce::tree_reduce;

use isa_core::{Design, Substrate};
use isa_metrics::QualityStats;

/// The backend signature a [`BatchAdder`] drives: one pass of operand
/// pairs in, one sum per pair out.
pub type BatchAddFn<'a> = dyn FnMut(&[(u64, u64)]) -> Vec<u64> + 'a;

/// The batched adder handed to a kernel: every application-level addition
/// goes through [`add_all`](BatchAdder::add_all), one call per
/// breadth-first pass.
pub struct BatchAdder<'a> {
    add: &'a mut BatchAddFn<'a>,
    adds: u64,
    passes: u64,
}

impl<'a> BatchAdder<'a> {
    /// Wraps a batch-add backend (typically a [`Substrate::run_batch`]
    /// closure).
    pub fn new(add: &'a mut BatchAddFn<'a>) -> Self {
        Self {
            add,
            adds: 0,
            passes: 0,
        }
    }

    /// Executes one pass of additions, returning one sum per operand pair
    /// in order. Empty passes are skipped without touching the backend.
    pub fn add_all(&mut self, ops: &[(u64, u64)]) -> Vec<u64> {
        if ops.is_empty() {
            return Vec::new();
        }
        self.adds += ops.len() as u64;
        self.passes += 1;
        let sums = (self.add)(ops);
        assert_eq!(
            sums.len(),
            ops.len(),
            "batch adder must return one sum per operand pair"
        );
        sums
    }

    /// Total additions executed so far.
    #[must_use]
    pub fn adds(&self) -> u64 {
        self.adds
    }

    /// Total non-empty passes executed so far.
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

/// An application expressed as a stream of adder operations.
///
/// Implementations must be deterministic: the operand streams they emit
/// may depend only on their construction parameters and on the sums the
/// [`BatchAdder`] returned for earlier passes (that is how adder errors
/// propagate through the application). The `Send + Sync` bound lets sweep
/// evaluators share one constructed kernel across worker threads
/// (kernels hold only immutable input data).
pub trait Kernel: Send + Sync {
    /// Short name for reports and CSVs (e.g. `"fir"`).
    fn name(&self) -> &'static str;

    /// Operand width in bits every addition uses. All standard kernels are
    /// sized so exact intermediate values cannot overflow this width.
    fn width(&self) -> u32;

    /// Runs the kernel, routing every addition through `adds`, and returns
    /// the application output vector (filtered samples, pixels, partial
    /// dots, histogram bins, ...).
    fn run(&self, adds: &mut BatchAdder<'_>) -> Vec<u64>;
}

/// Outcome of one kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRun {
    /// The application output vector.
    pub output: Vec<u64>,
    /// Additions executed through the adder.
    pub adds: u64,
    /// Breadth-first passes (batched `run_batch` calls) used.
    pub passes: u64,
}

/// Runs a kernel over an arbitrary batch-add backend.
pub fn run_with(kernel: &dyn Kernel, add: &mut BatchAddFn<'_>) -> KernelRun {
    let mut adder = BatchAdder::new(add);
    let output = kernel.run(&mut adder);
    KernelRun {
        output,
        adds: adder.adds(),
        passes: adder.passes(),
    }
}

/// Runs a kernel on the exact adder (the application's reference output).
#[must_use]
pub fn run_exact(kernel: &dyn Kernel) -> KernelRun {
    let mask = width_mask(kernel.width());
    run_with(kernel, &mut |ops| {
        ops.iter().map(|&(a, b)| a.wrapping_add(b) & mask).collect()
    })
}

/// Runs a kernel on a design's behavioural golden model: structural errors
/// only, no timing errors (the properly clocked circuit).
#[must_use]
pub fn run_behavioural(kernel: &dyn Kernel, design: &Design) -> KernelRun {
    assert_eq!(design.width(), kernel.width(), "design/kernel width");
    let gold = design.behavioural();
    run_with(kernel, &mut |ops| gold.add_batch(ops))
}

/// Runs a kernel on a substrate: every breadth-first pass is one
/// [`Substrate::run_batch`] call for the given (design, clock) pair, so
/// the gate-level substrate evaluates it 64 lanes at a time.
#[must_use]
pub fn run_on_substrate(
    kernel: &dyn Kernel,
    substrate: &dyn Substrate,
    design: &Design,
    clock_ps: f64,
) -> KernelRun {
    assert_eq!(design.width(), kernel.width(), "design/kernel width");
    run_with(kernel, &mut |ops| {
        substrate.run_batch(design, clock_ps, ops)
    })
}

/// Scores a kernel run against the exact reference run.
///
/// # Panics
///
/// Panics if the two outputs have different lengths (different kernels).
#[must_use]
pub fn score(reference: &KernelRun, actual: &KernelRun) -> QualityStats {
    QualityStats::from_signals(&reference.output, &actual.output)
}

/// The operand mask of a `width`-bit adder.
#[must_use]
pub fn width_mask(width: u32) -> u64 {
    assert!((1..=63).contains(&width), "width must be in 1..=63");
    (1u64 << width) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    struct ChainKernel;

    impl Kernel for ChainKernel {
        fn name(&self) -> &'static str {
            "chain"
        }

        fn width(&self) -> u32 {
            32
        }

        // Two passes where the second depends on the first's (possibly
        // erroneous) sums: output = [(1+2)+(3+4)].
        fn run(&self, adds: &mut BatchAdder<'_>) -> Vec<u64> {
            let level0 = adds.add_all(&[(1, 2), (3, 4)]);
            adds.add_all(&[(level0[0], level0[1])])
        }
    }

    #[test]
    fn exact_run_counts_ops_and_sums_exactly() {
        let run = run_exact(&ChainKernel);
        assert_eq!(run.output, vec![10]);
        assert_eq!(run.adds, 3);
        assert_eq!(run.passes, 2);
    }

    #[test]
    fn errors_propagate_between_passes() {
        // A backend that drops the low bit of every sum: the second pass
        // must see the corrupted first-pass results (3->2, 7->6 => 8).
        let run = run_with(&ChainKernel, &mut |ops| {
            ops.iter().map(|&(a, b)| (a + b) & !1).collect()
        });
        assert_eq!(run.output, vec![8]);
    }

    #[test]
    fn behavioural_run_applies_structural_errors_only() {
        let design = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let gold = design.behavioural();
        let run = run_behavioural(&ChainKernel, &design);
        let l0 = (gold.add(1, 2), gold.add(3, 4));
        assert_eq!(run.output, vec![gold.add(l0.0, l0.1)]);
    }

    #[test]
    fn score_of_identical_runs_is_perfect() {
        let reference = run_exact(&ChainKernel);
        let q = score(&reference, &reference.clone());
        assert_eq!(q.max_abs_error(), 0);
        assert_eq!(q.snr_db(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "one sum per operand pair")]
    fn short_backend_reply_is_rejected() {
        let _ = run_with(&ChainKernel, &mut |_| vec![0]);
    }
}
