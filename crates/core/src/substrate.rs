//! The uniform execution interface over `ysilver` providers.
//!
//! The paper's Fig. 6 flow needs, for every (design, clock period, input
//! stream), a source of overclocked outputs `ysilver`. Three backends can
//! play that role in this reproduction, at very different costs:
//!
//! * the **behavioural** golden model — `ysilver == ygold`, i.e. a properly
//!   clocked circuit with structural errors only (free);
//! * the **learned per-bit predictor** — `ysilver` deduced from predicted
//!   timing-class vectors, the paper's Section III model (cheap);
//! * **gate-level simulation** — `ysilver` sampled from a delay-annotated
//!   netlist at the reduced clock edge (expensive, ground truth).
//!
//! A [`Substrate`] abstracts over these so experiment pipelines are written
//! once and backends are swapped freely — the FATE-style substitution of a
//! fast learned timing model for gate-level simulation behind one
//! interface. The whole interface is one batch call,
//! [`Substrate::run_batch`], which evaluates a (design, clock) run over a
//! stream, plus [`Substrate::label`] for reports.
//!
//! Mapping onto the paper's roles: `ydiamond` always comes from
//! [`ExactAdder`](crate::ExactAdder), `ygold` from
//! [`Design::behavioural`], and `ysilver` from [`Substrate::run_batch`].
//! With [`BehaviouralSubstrate`] the silver output equals gold, so
//! `E_timing` is identically zero and only structural errors remain — the
//! paper's properly-clocked baseline.
//!
//! The gate-level and predictor-backed implementations live in the
//! `isa-engine` crate (they need synthesis artifacts and trained forests);
//! this module defines the interface plus the dependency-free behavioural
//! backend.

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
    /// of [`segment_len`](crate::segment_len) cycles, so a lane's
    /// cycle-to-cycle state carryover matches a scalar run of its segment,
    /// which starts from the reset state exactly like a scalar run's first
    /// cycle.
    fn run_batch(&self, design: &Design, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64>;

    /// Human-readable backend name for reports (e.g. `"gate-level"`).
    fn label(&self) -> String;
}

/// The structural-only golden substrate: `ysilver == ygold`.
///
/// This is the paper's properly clocked circuit — the silver output is the
/// behavioural model's output, so timing error is identically zero and the
/// combined flow degenerates to structural characterization (the Section
/// V.A table). It is also the reference half of substrate parity checks: a
/// gate-level run at a safe clock must match this substrate exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BehaviouralSubstrate;

impl Substrate for BehaviouralSubstrate {
    /// The golden model's 64-lane plane evaluation
    /// ([`Adder::add_batch`](crate::Adder::add_batch)).
    fn run_batch(&self, design: &Design, _clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
        design.behavioural().add_batch(inputs)
    }

    fn label(&self) -> String {
        "behavioural".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine_errors;
    use crate::config::IsaConfig;

    #[test]
    fn behavioural_substrate_has_zero_timing_error() {
        let design = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let inputs: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 2654435761, i * 40503)).collect();
        let golds = design.behavioural().add_batch(&inputs);
        let silvers = BehaviouralSubstrate.run_batch(&design, 300.0, &inputs);
        let stats = combine_errors(32, &inputs, &golds, &silvers);
        assert_eq!(stats.re_timing.rms(), 0.0);
        assert!(stats.re_struct.rms() > 0.0);
        assert_eq!(stats.re_joint.rms(), stats.re_struct.rms());
        assert_eq!(BehaviouralSubstrate.label(), "behavioural");
    }
}
