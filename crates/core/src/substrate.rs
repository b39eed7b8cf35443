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
//! * the **event-driven gate-level simulator** — `ysilver` sampled from a
//!   delay-annotated netlist at the reduced clock edge (expensive, ground
//!   truth).
//!
//! A [`Substrate`] abstracts over these so experiment pipelines are written
//! once and backends are swapped freely — the FATE-style substitution of a
//! fast learned timing model for gate-level simulation behind one
//! interface. The trait extends the existing [`SilverSource`] streaming
//! interface with a lifecycle: [`Substrate::prepare`] binds a (design,
//! clock) pair and returns a stateful session whose
//! [`SilverSource::next_silver`] yields the stream; [`Substrate::label`]
//! and [`Substrate::cost_class`] identify the backend for reports and
//! scheduling.
//!
//! Mapping onto the paper's roles: `ydiamond` always comes from
//! [`ExactAdder`](crate::ExactAdder), `ygold` from
//! [`Design::behavioural`], and `ysilver` from the session returned by
//! [`Substrate::prepare`]. With [`BehaviouralSubstrate`] the silver output
//! equals gold, so `E_timing` is identically zero and only structural
//! errors remain — the paper's properly-clocked baseline.
//!
//! The gate-level and predictor-backed implementations live in the
//! `isa-engine` crate (they need synthesis artifacts and trained forests);
//! this module defines the interface plus the dependency-free behavioural
//! backend.

use crate::combine::SilverSource;
use crate::designs::Design;

pub use crate::batch::{segment_len, LaneBatch, LANES};

/// Relative cost tier of a substrate, cheapest first.
///
/// Orderable so schedulers can pick the cheapest backend that satisfies an
/// accuracy requirement (e.g. prefer [`CostClass::Predicted`] over
/// [`CostClass::GateLevel`] for wide design-space sweeps, then confirm
/// the Pareto front on the gate-level substrate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostClass {
    /// Pure behavioural model: no timing errors, O(1) per cycle. The
    /// silver stream *is* the golden model's output, which the engine
    /// relies on to evaluate the model once per shard.
    Behavioural,
    /// Learned per-bit timing-error predictor: approximate timing errors,
    /// forest inference per cycle (the FATE-style fast path).
    Predicted,
    /// Event-driven delay-annotated gate-level simulation: emergent timing
    /// errors, event-queue work per cycle (ground truth).
    GateLevel,
}

/// A provider of overclocked (`ysilver`) output streams, uniform over
/// backends.
///
/// Implementations are shared across the engine's shard workers, hence the
/// `Send + Sync` bound; any per-(design, clock) mutable state lives in the
/// session returned by [`prepare`](Substrate::prepare), which stays on one
/// worker thread.
pub trait Substrate: Send + Sync {
    /// Binds the substrate to one (design, clock period) run and returns a
    /// fresh stateful session producing that run's `ysilver` stream.
    ///
    /// Sessions are stateful on purpose — timing errors depend on previous
    /// circuit state — so each independent run must get its own session and
    /// feed it inputs in stream order. Implementations may memoize
    /// expensive per-design artifacts (synthesis, annotation, trained
    /// predictors) across calls; `prepare` takes `&self` so concurrent
    /// preparation from worker threads is allowed.
    fn prepare(&self, design: &Design, clock_ps: f64) -> Box<dyn SilverSource + '_>;

    /// Human-readable backend name for reports (e.g. `"gate-level"`).
    fn label(&self) -> String;

    /// The backend's relative cost tier.
    fn cost_class(&self) -> CostClass;

    /// True if sessions are pure per-cycle functions (no carried state), in
    /// which case a single run's input stream may be sharded across
    /// sessions and the per-shard statistics merged.
    fn is_stateless(&self) -> bool {
        false
    }

    /// Evaluates one full (design, clock) run over an input stream,
    /// returning `ysilver` per cycle in stream order.
    ///
    /// The default implementation feeds one scalar
    /// [`prepare`](Substrate::prepare) session cycle by cycle, so every
    /// substrate keeps working unchanged. Backends with a bit-sliced
    /// (64-lane) fast path override this to evaluate [`LANES`] cycles per
    /// gate pass; such overrides deal the stream to lanes in **contiguous
    /// segments** of [`segment_len`] cycles, so a lane's cycle-to-cycle
    /// state carryover matches the scalar simulator's everywhere except at
    /// the segment seams, where a lane starts from the reset state exactly
    /// like the scalar run's first cycle.
    fn run_batch(&self, design: &Design, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
        let mut session = self.prepare(design, clock_ps);
        inputs
            .iter()
            .map(|&(a, b)| session.next_silver(a, b))
            .collect()
    }
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
    fn prepare(&self, design: &Design, _clock_ps: f64) -> Box<dyn SilverSource + '_> {
        let gold = design.behavioural();
        Box::new(move |a, b| gold.add(a, b))
    }

    fn label(&self) -> String {
        "behavioural".to_owned()
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Behavioural
    }

    fn is_stateless(&self) -> bool {
        true
    }

    /// Bit-sliced behavioural evaluation: the silver stream is the golden
    /// model itself, and the golden ISA model has a 64-lane plane
    /// evaluation ([`Adder::add_batch`](crate::Adder::add_batch)) — so behavioural Monte-Carlo
    /// sweeps (the design-characterization table) batch exactly like the
    /// gate-level backends instead of paying one `add_traced` allocation
    /// per cycle.
    fn run_batch(&self, design: &Design, _clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
        design.behavioural().add_batch(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine_errors;
    use crate::config::IsaConfig;

    fn paper_best() -> Design {
        Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())
    }

    #[test]
    fn behavioural_substrate_has_zero_timing_error() {
        let substrate = BehaviouralSubstrate;
        let design = paper_best();
        let gold = design.behavioural();
        let mut session = substrate.prepare(&design, 300.0);
        let inputs: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 2654435761, i * 40503)).collect();
        let mut silver = |a, b| session.next_silver(a, b);
        let stats = combine_errors(gold.as_ref(), &mut silver, inputs);
        assert_eq!(stats.re_timing.rms(), 0.0);
        assert!(stats.re_struct.rms() > 0.0);
        assert_eq!(stats.re_joint.rms(), stats.re_struct.rms());
    }

    #[test]
    fn sessions_are_independent() {
        let substrate = BehaviouralSubstrate;
        let design = paper_best();
        let mut s1 = substrate.prepare(&design, 300.0);
        let mut s2 = substrate.prepare(&design, 285.0);
        assert_eq!(s1.next_silver(1000, 24), s2.next_silver(1000, 24));
    }

    #[test]
    fn default_run_batch_matches_a_scalar_session() {
        let substrate = BehaviouralSubstrate;
        let design = paper_best();
        let inputs: Vec<(u64, u64)> = (0..200u64).map(|i| (i * 7919, i * 104729)).collect();
        let batched = substrate.run_batch(&design, 300.0, &inputs);
        let mut session = substrate.prepare(&design, 300.0);
        let scalar: Vec<u64> = inputs
            .iter()
            .map(|&(a, b)| session.next_silver(a, b))
            .collect();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn cost_classes_order_cheapest_first() {
        assert!(CostClass::Behavioural < CostClass::Predicted);
        assert!(CostClass::Predicted < CostClass::GateLevel);
        assert_eq!(BehaviouralSubstrate.cost_class(), CostClass::Behavioural);
        assert!(BehaviouralSubstrate.is_stateless());
        assert_eq!(BehaviouralSubstrate.label(), "behavioural");
    }
}
