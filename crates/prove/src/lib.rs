//! isa-prove: symbolic static analysis for inexact speculative adders.
//!
//! The simulators draw input streams and the linter spot-checks parity on
//! random vectors: they *sample*. This crate closes the
//! gap with **proofs** over all inputs at once, using a reduced ordered
//! BDD engine (no external dependencies):
//!
//! - [`equiv`] — combinational equivalence of every synthesized netlist
//!   against the behavioural [`isa_core::SpeculativeAdder`] spec, over all
//!   `2^(2W)` operand pairs. The spec side is not re-implemented: the
//!   behavioural plane algorithm itself runs over BDD nodes via the
//!   [`isa_core::PlaneAlgebra`] trait.
//! - [`dist`] — the *exact* structural error distribution (PMF, RMS,
//!   extrema, error rate) by model counting on the approx-minus-exact
//!   difference function; integer-exact at widths the exhaustive harness
//!   cannot reach, and the oracle for the per-bit moment program
//!   [`isa_core::DesignAnalysis`].
//! - [`sta`] — false-path-aware settle bounds by symbolic timed
//!   simulation: a proven critical delay that is sound against the
//!   transport-delay simulator and never worse than topological STA.
//!
//! The [`bdd`], [`spec`] and [`netlist`] modules provide the shared
//! engine, spec construction, and symbolic netlist evaluation these three
//! analyses are built from. None of them re-implements a semantics: the
//! [`Bdd`] is one more [`isa_core::PlaneAlgebra`] instance, so the spec is
//! the behavioural model's own plane code, and a netlist's functions come
//! from its own interpreter (`Netlist::evaluate_in`) and cell truth table
//! (`CellKind::eval_in`), the ones the tape and the simulators run.
//!
//! # Where this sits
//!
//! `isa-netlint` runs cheap sampled checks on every synthesis result; this
//! crate is the offline deep tier. The `prove` sweep binary is the one
//! place its equivalence and settle-bound proofs run, over every design in
//! the space; it also checks there that [`dist`]'s counts equal the moment
//! program's, which fills the design-space explorer's `exact_struct_rms`
//! column.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdd;
pub mod dist;
pub mod equiv;
pub mod netlist;
pub mod spec;
pub mod sta;

pub use bdd::{Bdd, Op, Ref};
pub use dist::{ErrorDistribution, DEFAULT_PMF_CAP};
pub use equiv::{check_equivalence, EquivReport};
pub use netlist::output_functions;
pub use spec::{spec_outputs, OperandVars};
pub use sta::{analyze_settle, StaOptions, SymbolicSta};
