//! # overclocked-isa
//!
//! A full Rust reproduction of *"Combining Structural and Timing Errors in
//! Overclocked Inexact Speculative Adders"* (Jiao, Camus, Cacciotti, Jiang,
//! Enz, Gupta — DATE 2017), from the gate level up:
//!
//! * [`core`] — the ISA behavioural model, the signed
//!   structural/timing/joint error methodology, the twelve paper designs,
//!   and the [`Substrate`](core::Substrate) interface over `ysilver`
//!   providers;
//! * [`netlist`] — standard cells, adder topologies, ISA
//!   assembly, STA, SDF annotation, mini-synthesis (the Design Compiler
//!   substitute);
//! * [`timing_sim`] — event-driven delay-annotated
//!   simulation (the ModelSim substitute);
//! * [`learn`] — decision trees / random forests and the
//!   per-bit timing-error predictor (the scikit-learn substitute);
//! * [`metrics`] — ABPER, AVPE, display floor, SNR, and
//!   application quality ([`QualityStats`](metrics::QualityStats):
//!   PSNR/SNR in dB);
//! * [`workloads`] — input-vector generators;
//! * [`apps`] — application kernels (FIR, 2-D convolution, dot
//!   product, histogram) lowered to adder-operation streams and scored by
//!   PSNR/SNR against their exact reference;
//! * [`engine`] — the unified execution layer:
//!   [`ExperimentPlan`](engine::ExperimentPlan) +
//!   [`Engine`](engine::Engine) with memoized synthesis artifacts and
//!   multi-threaded gate-level runs, identical at every thread count;
//! * [`explore`] — multi-objective design-space exploration:
//!   Pareto search over (error, delay, energy) that scores every point of
//!   a space with a two-tier analytical + gate-level evaluation;
//! * [`experiments`] — the per-figure reproduction
//!   pipelines, all driving the engine;
//! * [`serve`] — the resident query service: a line-delimited JSON
//!   front end over the engine with an on-disk result store, request
//!   coalescing, budget-tiered degradation and seeded fault injection;
//! * [`obs`] — the zero-dependency observability spine every layer
//!   above reports through: lock-free metric registry (counters, gauges,
//!   log-bucket latency histograms), thread-local span tracing to JSONL,
//!   rate-limited structured logging, Prometheus-style exposition, and
//!   the `trace-summary` profiler — all strictly out-of-band.
//!
//! See the `examples/` directory for runnable entry points and the root
//! `README.md` for a quickstart, the architecture inventory and how the
//! substrates map onto the paper's Fig. 6 roles.
//!
//! # Quick start
//!
//! ```
//! use overclocked_isa::core::{combine, IsaConfig, SpeculativeAdder};
//!
//! # fn main() -> Result<(), overclocked_isa::core::ConfigError> {
//! let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, 0, 0, 4)?);
//! let inputs = (0..100u64).map(|i| (i * 977, i * 3331));
//! let stats = combine::structural_errors(&isa, inputs);
//! assert!(stats.re_joint.rms() < 0.1, "speculation errors are bounded");
//! # Ok(())
//! # }
//! ```
//!
//! # Running an experiment plan
//!
//! ```
//! use overclocked_isa::core::{Design, IsaConfig};
//! use overclocked_isa::engine::{Engine, ExperimentConfig, ExperimentPlan};
//!
//! let engine = Engine::with_threads(2);
//! let plan = ExperimentPlan::new(ExperimentConfig::default())
//!     .designs([Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())])
//!     .cprs([-0.2])
//!     .cycles(200);
//! let results = engine.run(&plan);
//! assert_eq!(results[0].timing_error_rate(), 0.0, "an underclocked run settles");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use isa_apps as apps;
pub use isa_core as core;
pub use isa_engine as engine;
pub use isa_experiments as experiments;
pub use isa_explore as explore;
pub use isa_learn as learn;
pub use isa_metrics as metrics;
pub use isa_netlist as netlist;
pub use isa_obs as obs;
pub use isa_serve as serve;
pub use isa_timing_sim as timing_sim;
pub use isa_workloads as workloads;
