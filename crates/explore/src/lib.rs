//! # isa-explore
//!
//! Multi-objective design-space exploration over the *combined* structural
//! × timing × workload space of overclocked inexact speculative adders.
//!
//! The paper samples that space at twelve hand-picked designs and three
//! clock-period reductions; this crate *searches* it. A
//! [`SpaceSpec`] materializes the candidate space (structural quadruples ×
//! clock reductions), and [`explore`] scores every point of it with a
//! two-tier evaluation (see [`mod@evaluate`]) — exact structural-error
//! bounds and femtosecond STA prune provably-dominated configurations
//! before the engine simulates the survivors on the filtered gate-level
//! backend — and assembles a deterministic [`ParetoFront`] over (error,
//! delay, energy) [`ObjectiveVector`]s.
//!
//! Quality-constrained queries ("the cheapest design meeting ≥ 30 dB PSNR
//! on Sobel at clock X") run against the outcome via
//! [`SearchOutcome::cheapest`], and
//! [`SearchOutcome::thesis_witness`] reproduces the paper's central claim
//! as a search result: a combined (inexact **and** overclocked)
//! configuration that strictly dominates every measured pure-structural
//! and pure-overclocking configuration at its quality level.
//!
//! ```no_run
//! use isa_engine::{Engine, ExperimentConfig};
//! use isa_explore::{explore, EvalMode, EvalSettings, SearchSettings, SpaceSpec};
//!
//! let engine = Engine::new();
//! let config = ExperimentConfig::default();
//! let mode = EvalMode::uniform_stream(32, 20_000, config.workload_seed);
//! let outcome = explore(
//!     &engine,
//!     config,
//!     &SpaceSpec::paper(),
//!     mode,
//!     EvalSettings::default(),
//!     SearchSettings::default(),
//! );
//! for entry in outcome.front.entries() {
//!     println!("{}: {:?}", entry.key, entry.objectives);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluate;
pub mod pareto;
pub mod search;
pub mod space;

pub use evaluate::{CandidateEval, EvalMode, EvalSettings};
pub use isa_metrics::{snr_db_of_rms_pct, ObjectiveVector};
pub use pareto::{FrontEntry, ParetoFront};
pub use search::{
    explore, Query, SearchOutcome, SearchSettings, SearchStats, Strategy, ThesisWitness,
};
pub use space::{DesignPoint, SpaceSpec, DEFAULT_CPRS};
