//! Multi-objective vectors for design-space exploration.
//!
//! The explorer scores every (design, clock) candidate on three axes, all
//! minimized:
//!
//! * **error** — the accuracy cost (joint RMS relative error in percent on
//!   a stream workload, or negated PSNR dB on an application kernel);
//! * **delay_ps** — the clock period the configuration runs at;
//! * **energy_fj** — energy per addition at that clock.
//!
//! [`ObjectiveVector`] defines Pareto dominance over those axes plus a
//! total lexicographic order used to emit fronts in a deterministic,
//! insertion-order-independent sequence.

use std::cmp::Ordering;

/// One candidate's objective values; every component is minimized.
///
/// Components may be infinite (an error-free kernel run has `error`
/// `-inf` when quality is encoded as negated PSNR) but never NaN —
/// construction rejects NaN so dominance stays a strict partial order.
///
/// # Examples
///
/// ```
/// use isa_metrics::ObjectiveVector;
///
/// let a = ObjectiveVector::new(0.1, 270.0, 50.0);
/// let b = ObjectiveVector::new(0.1, 300.0, 50.0);
/// assert!(a.dominates(&b), "same error/energy, strictly faster");
/// assert!(!b.dominates(&a));
/// assert!(!a.dominates(&a), "dominance is irreflexive");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveVector {
    /// Accuracy cost (minimized).
    pub error: f64,
    /// Clock period in picoseconds (minimized).
    pub delay_ps: f64,
    /// Energy per operation in femtojoules (minimized).
    pub energy_fj: f64,
}

impl ObjectiveVector {
    /// Creates a vector, rejecting NaN components.
    ///
    /// # Panics
    ///
    /// Panics if any component is NaN.
    #[must_use]
    pub fn new(error: f64, delay_ps: f64, energy_fj: f64) -> Self {
        assert!(
            !error.is_nan() && !delay_ps.is_nan() && !energy_fj.is_nan(),
            "objective components must not be NaN"
        );
        Self {
            error,
            delay_ps,
            energy_fj,
        }
    }

    /// The components in comparison order.
    #[must_use]
    pub fn components(&self) -> [f64; 3] {
        [self.error, self.delay_ps, self.energy_fj]
    }

    /// Strict Pareto dominance: no component worse, at least one strictly
    /// better. Irreflexive, antisymmetric and transitive (a strict partial
    /// order) because components are NaN-free.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        let mine = self.components();
        let theirs = other.components();
        let no_worse = mine.iter().zip(&theirs).all(|(m, t)| m <= t);
        let strictly_better = mine.iter().zip(&theirs).any(|(m, t)| m < t);
        no_worse && strictly_better
    }

    /// Total lexicographic order (error, then delay, then energy) via
    /// [`f64::total_cmp`]: the deterministic emission order of Pareto
    /// fronts.
    #[must_use]
    pub fn lex_cmp(&self, other: &Self) -> Ordering {
        let mine = self.components();
        let theirs = other.components();
        mine.iter()
            .zip(&theirs)
            .map(|(m, t)| m.total_cmp(t))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(e: f64, d: f64, j: f64) -> ObjectiveVector {
        ObjectiveVector::new(e, d, j)
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        let a = v(1.0, 2.0, 3.0);
        assert!(!a.dominates(&a));
        assert!(v(1.0, 2.0, 2.9).dominates(&a));
        assert!(v(0.5, 1.0, 1.0).dominates(&a));
        // Incomparable: better on one axis, worse on another.
        assert!(!v(0.5, 2.5, 3.0).dominates(&a));
        assert!(!a.dominates(&v(0.5, 2.5, 3.0)));
    }

    #[test]
    fn dominance_handles_infinities() {
        let perfect = v(f64::NEG_INFINITY, 270.0, 10.0);
        let flawed = v(-30.0, 270.0, 10.0);
        assert!(perfect.dominates(&flawed));
        assert!(!flawed.dominates(&perfect));
        let unbounded = v(f64::INFINITY, 270.0, 10.0);
        assert!(flawed.dominates(&unbounded));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_components_are_rejected() {
        let _ = v(f64::NAN, 1.0, 1.0);
    }

    #[test]
    fn lex_cmp_is_total_and_deterministic() {
        let a = v(1.0, 2.0, 3.0);
        let b = v(1.0, 2.0, 4.0);
        assert_eq!(a.lex_cmp(&b), Ordering::Less);
        assert_eq!(b.lex_cmp(&a), Ordering::Greater);
        assert_eq!(a.lex_cmp(&a), Ordering::Equal);
        // Ties on the first axes fall through to later ones.
        assert_eq!(v(1.0, 1.0, 1.0).lex_cmp(&v(1.0, 2.0, 0.0)), Ordering::Less);
    }
}
