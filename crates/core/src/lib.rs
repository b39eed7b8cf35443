//! # isa-core
//!
//! Behavioural models and the error-combination methodology from
//! *"Combining Structural and Timing Errors in Overclocked Inexact
//! Speculative Adders"* (Jiao, Camus, Cacciotti, Jiang, Enz, Gupta —
//! DATE 2017).
//!
//! The crate provides:
//!
//! * [`IsaConfig`] / [`SpeculativeAdder`] — the bit-accurate behavioural
//!   model of the Inexact Speculative Adder (carry speculation, error
//!   correction and error reduction/balancing), i.e. the paper's `ygold`;
//! * [`ExactAdder`] — the conventional reference (`ydiamond`);
//! * [`error`] — the signed structural/timing/joint error model (Eq. 2–3);
//! * [`combine`] — the Fig. 6 flow combining both error types over an input
//!   stream, given its gold and overclocked (`ysilver`) output streams;
//! * [`ErrorStats`] / [`BitErrorDistribution`] — the statistics behind the
//!   paper's figures (RMS relative error, per-bit error distributions);
//! * [`DesignAnalysis`] — a design's exact structural error rate, mean
//!   and RMS over all operand pairs, from a per-bit dynamic program;
//! * [`designs`] — the twelve evaluated designs of Section V.
//!
//! # Example
//!
//! ```
//! use isa_core::{combine, IsaConfig, SpeculativeAdder};
//!
//! # fn main() -> Result<(), isa_core::ConfigError> {
//! // The paper's best-balanced design, ISA (8,0,0,4):
//! let isa = SpeculativeAdder::new(IsaConfig::new(32, 8, 0, 0, 4)?);
//!
//! // Structural errors alone (properly clocked circuit):
//! let inputs = (0..1000u64).map(|i| (i * 2654435761 % (1 << 32), i * 40503 % (1 << 32)));
//! let stats = combine::structural_errors(&isa, inputs);
//! assert!(stats.re_struct.rms() > 0.0);
//! assert_eq!(stats.re_timing.rms(), 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod analysis;
pub mod batch;
pub mod bitdist;
pub mod combine;
pub mod config;
pub mod designs;
pub mod error;
pub mod isa;
pub mod multiplier;
pub mod plane;
pub mod stats;
pub mod substrate;

pub use adder::{Adder, ExactAdder, MAX_WIDTH};
pub use analysis::{DesignAnalysis, I256};
pub use batch::{
    lanes_with_run_at_least, pack_pairs, segment_len, transpose64, unpack_lanes, LaneSchedule,
    LANES,
};
pub use bitdist::BitErrorDistribution;
pub use combine::{combine_errors, structural_errors, CombinedErrorStats};
pub use config::{ConfigError, IsaConfig, ParseQuadrupleError};
pub use designs::{
    enumerate_quadruples, paper_designs, paper_isa_configs, quadruple_grid, Design,
    PAPER_QUADRUPLES, PAPER_WIDTH,
};
pub use error::OutputTriple;
pub use isa::{Compensation, IsaAddition, PathOutcome, SpeculativeAdder};
pub use multiplier::{ExactMultiplier, Multiplier, SpeculativeMultiplier};
pub use plane::{ripple_add_planes_in, PlaneAlgebra, WordPlanes};
pub use stats::ErrorStats;
pub use substrate::Substrate;
