//! # isa-engine
//!
//! The unified execution layer of the reproduction: one declarative
//! [`ExperimentPlan`] describes *what* to evaluate (`designs × cprs ×
//! workloads`), one [`Substrate`](isa_core::Substrate) describes *where*
//! the overclocked outputs come from, and the [`Engine`] runs the whole
//! matrix with per-design artifact memoization, one (design, cpr,
//! workload) run per worker task — so every result is identical at every
//! thread count.
//!
//! # The paper's Fig. 6 roles
//!
//! Every run of the flow needs three output values per cycle:
//!
//! * `ydiamond` — the exact, properly clocked reference. Always computed
//!   from [`ExactAdder`](isa_core::ExactAdder); no substrate involved.
//! * `ygold` — the implemented design's expected output (structural errors
//!   only). Always computed from the behavioural model
//!   ([`Design::behavioural`](isa_core::Design::behavioural)).
//! * `ysilver` — the overclocked output (structural **and** timing
//!   errors). This is the role a substrate fills:
//!
//! | substrate | `ysilver` | use when |
//! |-----------|-----------|----------|
//! | [`BehaviouralSubstrate`](isa_core::BehaviouralSubstrate) | `= ygold` | characterizing structural errors alone (Section V.A table) |
//! | [`GateLevelSubstrate`] | sampled from the delay-annotated netlist at the reduced clock edge | ground truth for Figs. 9–10; anything where cycle-to-cycle circuit state matters |
//! | [`PredictedSubstrate`] | `ygold ^` predicted timing-class vector | wide/fast sweeps (FATE-style): orders of magnitude cheaper per cycle, approximate |
//!
//! Prefer the predictor backend over gate-level simulation when exploring
//! large design/clock spaces where per-cycle event simulation dominates
//! cost and aggregate error statistics (not exact per-cycle waveforms) are
//! the quantity of interest; re-validate selected points on
//! [`GateLevelSubstrate`], which remains the reference.
//!
//! # Example
//!
//! ```
//! use isa_core::{Design, IsaConfig};
//! use isa_engine::{Engine, ExperimentConfig, ExperimentPlan, SubstrateChoice};
//!
//! let engine = Engine::with_threads(2);
//! let plan = ExperimentPlan::new(ExperimentConfig::default())
//!     .designs([Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())])
//!     .cprs([0.10])
//!     .cycles(500)
//!     .substrate(SubstrateChoice::Behavioural);
//! let results = engine.run(&plan);
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].timing_error_rate(), 0.0, "behavioural = no timing errors");
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
pub use engine::{Engine, RunResult, RunUnit};
pub use plan::{ExperimentPlan, SubstrateChoice, WorkloadSpec};
pub use substrates::{
    cycles_with_segment_resets, GateLevelSubstrate, PredictedSubstrate, GATE_BACKEND_LABEL,
};
