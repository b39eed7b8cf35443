//! # isa-timing-sim
//!
//! Event-driven, delay-annotated gate-level simulation — the reproduction's
//! stand-in for the paper's Mentor ModelSim flow. Overclocked outputs
//! (`ysilver`) are obtained by sampling a combinational netlist at a clock
//! edge that may arrive before the sensitized paths settle; nothing is
//! injected, the errors emerge from the event timeline.
//!
//! # Example
//!
//! ```
//! use isa_netlist::builders::{build_exact, AdderTopology};
//! use isa_netlist::cell::CellLibrary;
//! use isa_netlist::sta::StaReport;
//! use isa_netlist::timing::DelayAnnotation;
//! use isa_timing_sim::run_adder_trace;
//!
//! let adder = build_exact(8, AdderTopology::Ripple);
//! let lib = CellLibrary::industrial_65nm();
//! let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
//! let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
//!
//! // At a safe clock there are no timing errors.
//! let trace = run_adder_trace(&adder, &ann, crit + 1.0, &[(200, 55), (255, 1)]);
//! assert!(trace.iter().all(|r| !r.has_timing_error()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clocked;
pub mod filtered;
pub mod power;
pub mod razor;
pub mod sim;
pub mod timedtape;
pub mod waveform;

pub use clocked::{
    run_adder_trace, scalar_segment_commits, scalar_segments, ClockedSim, CycleRecord,
};
pub use filtered::{run_filtered_batch_tape, run_filtered_batch_with_stats_tape, FilterStats};
pub use power::{measure_activity, measure_clocked_batch, EnergyReport};
pub use razor::{run_razor_trace, RazorConfig, RazorCycle, RazorReport};
pub use sim::{ps_to_fs, GateLevelSim, SettleError, FS_PER_PS};
pub use timedtape::{run_clocked_batch_timed, TimedTape, TimedTapeCore};
pub use waveform::{Transition, Waveform};
