//! # isa-engine
//!
//! The unified execution layer of the reproduction: one declarative
//! [`ExperimentPlan`] describes *what* to evaluate (`designs × cprs ×
//! workloads`), and the [`Engine`] runs the whole matrix through the
//! gate-level Fig. 6 flow with per-design artifact memoization, one
//! (design, cpr, workload) run per worker task — so every result is
//! identical at every thread count.
//!
//! # The paper's Fig. 6 roles
//!
//! Every run of the flow needs three output values per cycle:
//!
//! * `ydiamond` — the exact, properly clocked reference. Always computed
//!   from [`ExactAdder`](isa_core::ExactAdder).
//! * `ygold` — the implemented design's expected output (structural errors
//!   only): the behavioural model, memoized per design as
//!   [`DesignContext::gold`].
//! * `ysilver` — the overclocked output (structural **and** timing
//!   errors), from a [`Substrate`](isa_core::Substrate):
//!
//! | substrate | `ysilver` | use when |
//! |-----------|-----------|----------|
//! | [`GateLevelSubstrate`] | sampled from the delay-annotated netlist at the reduced clock edge | ground truth for Figs. 9–10 and [`Engine::run`]; anything where cycle-to-cycle circuit state matters |
//! | [`PredictedSubstrate`] | `ygold ^` predicted timing-class vector | wide/fast sweeps (FATE-style): orders of magnitude cheaper per cycle, approximate |
//!
//! [`isa_core::combine_errors`] turns the three streams into the Fig. 6
//! statistics; [`Engine::run`] is that call on the gate level. The
//! structural-only flow (`ysilver == ygold`) is
//! [`isa_core::structural_errors`]. Prefer the predictor over gate-level
//! simulation when exploring large design/clock spaces where per-cycle
//! simulation dominates cost and aggregate error statistics (not exact
//! per-cycle waveforms) are the quantity of interest; re-validate
//! selected points with [`Engine::run`], which remains the reference.
//!
//! # Example
//!
//! ```
//! use isa_core::{Design, IsaConfig};
//! use isa_engine::{Engine, ExperimentConfig, ExperimentPlan};
//!
//! let engine = Engine::with_threads(2);
//! let plan = ExperimentPlan::new(ExperimentConfig::default())
//!     .designs([Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())])
//!     .cprs([-0.2])
//!     .cycles(500);
//! let results = engine.run(&plan);
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].timing_error_rate(), 0.0, "an underclocked run settles");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod context;
#[allow(clippy::module_inception)]
pub mod engine;
pub mod plan;
pub mod substrates;

pub use cache::ArtifactCache;
pub use context::{BuildError, DesignContext, ExperimentConfig};
pub use engine::{panic_message, Engine, RunResult, RunUnit};
pub use plan::{ExperimentPlan, WorkloadSpec};
pub use substrates::{
    cycles_with_segment_resets, GateLevelSubstrate, PredictedSubstrate, GATE_BACKEND_LABEL,
};
