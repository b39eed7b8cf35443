//! The uniform execution interface over `ysilver` providers.
//!
//! The paper's Fig. 6 flow needs, for every (design, clock period, input
//! stream), a source of overclocked outputs `ysilver`. Two backends play
//! that role in this reproduction, at very different costs:
//!
//! * **gate-level simulation** — `ysilver` sampled from a delay-annotated
//!   netlist at the reduced clock edge (expensive, ground truth);
//! * the **learned per-bit predictor** — `ysilver` deduced from predicted
//!   timing-class vectors, the paper's Section III model (cheap).
//!
//! A [`Substrate`] abstracts over these — the FATE-style substitution of a
//! fast learned timing model for gate-level simulation behind one
//! interface. The whole interface is one batch call,
//! [`Substrate::run_batch`], which evaluates a (design, clock) run over a
//! stream.
//!
//! Mapping onto the paper's roles: `ydiamond` always comes from
//! [`ExactAdder`](crate::ExactAdder), `ygold` from
//! [`Design::behavioural`], and `ysilver` from [`Substrate::run_batch`];
//! [`combine_errors`](crate::combine_errors) turns the three streams into
//! the Fig. 6 statistics. The structural-only flow (a properly clocked
//! circuit, `ysilver == ygold`) needs no substrate at all:
//! [`structural_errors`](crate::structural_errors).
//!
//! Both implementations live in the `isa-engine` crate (they need
//! synthesis artifacts and trained forests); this module defines the
//! interface.

use crate::designs::Design;

/// A provider of overclocked (`ysilver`) output streams, uniform over
/// backends.
///
/// Implementations are shared across the engine's worker threads, hence
/// the `Send + Sync` bound; they may memoize expensive per-design
/// artifacts (synthesis, annotation, trained predictors) behind `&self`.
pub trait Substrate: Send + Sync {
    /// Evaluates one full (design, clock) run over an input stream,
    /// returning `ysilver` per cycle in stream order.
    ///
    /// Timing errors depend on the previous circuit state, so a run is a
    /// stream, not a set of independent cycles. Stateful backends deal the
    /// stream to [`LANES`](crate::LANES) lanes in **contiguous segments**
    /// of [`segment_len`](crate::segment_len) cycles (the
    /// [`LaneSchedule`](crate::LaneSchedule)), so a lane's
    /// cycle-to-cycle state carryover matches a scalar run of its segment,
    /// which starts from the reset state exactly like a scalar run's first
    /// cycle.
    fn run_batch(&self, design: &Design, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64>;
}
