//! # isa-netlist
//!
//! The synthesis substrate for the DATE 2017 reproduction: a gate-level
//! netlist IR over a synthetic 65 nm-class standard-cell library, classic
//! adder topology generators, the Inexact Speculative Adder assembly,
//! static timing analysis, SDF-style delay annotation with process
//! variation, and a cost-driven mini-synthesis that picks the smallest
//! architecture meeting a clock constraint (with bounded area-recovery
//! derating), standing in for the paper's Synopsys Design Compiler flow.
//!
//! # Example
//!
//! ```
//! use isa_netlist::cell::CellLibrary;
//! use isa_netlist::synth::{synthesize_exact, SynthesisOptions};
//!
//! # fn main() -> Result<(), isa_netlist::synth::SynthesisError> {
//! let lib = CellLibrary::industrial_65nm();
//! // The paper's constraint: 3.3 GHz in 65 nm = 0.3 ns.
//! let synth = synthesize_exact(32, 300.0, &lib, &SynthesisOptions::paper())?;
//! assert!(synth.critical_ps <= 300.0);
//! assert_eq!(synth.adder.add(1, 2), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod cell;
pub mod classify;
pub mod graph;
pub mod sdf;
pub mod sta;
pub mod synth;
pub mod tape;
pub mod timing;
pub mod transform;
pub mod verilog;

pub use builders::{build_exact, AdderNetlist, AdderTopology, CANDIDATE_TOPOLOGIES};
pub use cell::{CellKind, CellLibrary, CellTiming};
pub use classify::{LaneClassifier, StreamClassifier};
pub use graph::{Cell, CellId, NetDriver, NetId, Netlist, NetlistBuilder, NetlistError};
pub use sta::StaReport;
pub use synth::{synthesize_exact, synthesize_isa, SynthesisError, SynthesisOptions, Synthesized};
pub use tape::{InstructionTape, Levelization, CHUNK};
pub use timing::{DelayAnnotation, VariationModel};
