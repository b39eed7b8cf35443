//! Streaming error statistics.
//!
//! The paper's main metric is the Root Mean Square of the relative error
//! ("independent of the adder bit-width and proportional to the SNR");
//! [`ErrorStats`] accumulates that together with mean/max absolute error and
//! the error rate, in a single pass and in O(1) memory, so ten-million-sample
//! characterizations (Section V.A) stream without allocation.

/// Single-pass accumulator for a stream of signed error observations.
///
/// Keeps only the plain running sums its readers use (of the absolute
/// values and of the squares; no compensation, adequate for f64 over
/// ≤ 10^8 samples of bounded errors) and derives every statistic from
/// them at read time, so [`ErrorStats::push`] costs no division.
///
/// # Examples
///
/// ```
/// use isa_core::ErrorStats;
///
/// let mut stats = ErrorStats::new();
/// for e in [-0.25f64, 0.0, 0.25] {
///     stats.push(e);
/// }
/// assert_eq!(stats.len(), 3);
/// assert_eq!(stats.mean_abs(), 0.5 / 3.0);
/// assert!((stats.rms() - (0.125f64 / 3.0).sqrt()).abs() < 1e-12);
/// assert_eq!(stats.error_rate(), 2.0 / 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats {
    n: u64,
    nonzero: u64,
    sum_abs: f64,
    sum_sq: f64,
    max_abs: f64,
}

impl ErrorStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.n += 1;
        if value != 0.0 {
            self.nonzero += 1;
        }
        self.sum_abs += value.abs();
        self.sum_sq += value * value;
        if value.abs() > self.max_abs {
            self.max_abs = value.abs();
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if no observation was pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean of the absolute observations (0 when empty).
    #[must_use]
    pub fn mean_abs(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_abs / self.n as f64
        }
    }

    /// Root mean square of the observations (0 when empty) — the paper's
    /// headline metric when fed relative errors.
    #[must_use]
    pub fn rms(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum_sq / self.n as f64).sqrt()
        }
    }

    /// Largest absolute observation (0 when empty).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Fraction of non-zero observations — the error rate when fed
    /// per-sample errors.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nonzero as f64 / self.n as f64
        }
    }
}

impl Extend<f64> for ErrorStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for ErrorStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut stats = Self::new();
        stats.extend(iter);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_all_zero() {
        let s = ErrorStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_abs(), 0.0);
        assert_eq!(s.rms(), 0.0);
        assert_eq!(s.max_abs(), 0.0);
        assert_eq!(s.error_rate(), 0.0);
    }

    #[test]
    fn single_value() {
        let s: ErrorStats = [3.0].into_iter().collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rms(), 3.0);
        assert_eq!(s.mean_abs(), 3.0);
        assert_eq!(s.max_abs(), 3.0);
        assert_eq!(s.error_rate(), 1.0);
    }

    #[test]
    fn signs_do_not_cancel_in_rms_or_mean_abs() {
        let s: ErrorStats = [-2.0, 2.0].into_iter().collect();
        assert_eq!(s.rms(), 2.0);
        assert_eq!(s.mean_abs(), 2.0);
    }

    #[test]
    fn error_rate_counts_nonzero() {
        let s: ErrorStats = [0.0, 0.0, 1.0, 0.0].into_iter().collect();
        assert_eq!(s.error_rate(), 0.25);
    }
}
