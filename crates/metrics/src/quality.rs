//! Application-level quality metrics: MSE, SNR and PSNR in dB.
//!
//! The paper motivates RMS relative error by its proportionality to the
//! SNR "in many applications, particularly in multimedia processing"; this
//! module closes that loop. [`QualityStats`] compares an application
//! kernel's output (computed through an inexact and/or overclocked adder)
//! against the exact reference output, streaming in O(1) memory, and
//! reports the quality figures multimedia work actually quotes:
//!
//! * **SNR (dB)** — `10·log10(Σref² / Σ(ref − out)²)`, the signal-relative
//!   view for 1-D signals (FIR outputs, dot products, histograms);
//! * **PSNR (dB)** — `10·log10(peak² / MSE)`, the image-processing view,
//!   against an explicit peak value (e.g. the reference image's maximum);
//! * **max absolute error** — the worst single output deviation.
//!
//! Error-free runs have infinite SNR/PSNR; the values are returned as
//! `f64::INFINITY` (which formats deterministically as `inf` in reports)
//! rather than floored, so "no degradation" stays distinguishable from
//! "small degradation".

/// Streaming accumulator comparing an output stream against its exact
/// reference, one `(reference, actual)` pair at a time.
///
/// # Examples
///
/// ```
/// use isa_metrics::QualityStats;
///
/// let mut q = QualityStats::new();
/// for (reference, actual) in [(100u64, 100u64), (200, 196), (50, 53)] {
///     q.record(reference, actual);
/// }
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.max_abs_error(), 4);
/// assert!((q.mse() - (16.0 + 9.0) / 3.0).abs() < 1e-12);
/// assert!(q.snr_db() > 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualityStats {
    n: u64,
    sum_sq_err: f64,
    sum_sq_ref: f64,
    max_abs_err: u64,
}

impl QualityStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates the stats of two aligned signals.
    ///
    /// # Panics
    ///
    /// Panics if the signals have different lengths.
    #[must_use]
    pub fn from_signals(reference: &[u64], actual: &[u64]) -> Self {
        assert_eq!(
            reference.len(),
            actual.len(),
            "reference and actual signals must be aligned"
        );
        let mut stats = Self::new();
        for (&r, &a) in reference.iter().zip(actual) {
            stats.record(r, a);
        }
        stats
    }

    /// Adds one output sample and its exact reference.
    pub fn record(&mut self, reference: u64, actual: u64) {
        self.n += 1;
        let err = reference.abs_diff(actual);
        let err_f = err as f64;
        self.sum_sq_err += err_f * err_f;
        let ref_f = reference as f64;
        self.sum_sq_ref += ref_f * ref_f;
        self.max_abs_err = self.max_abs_err.max(err);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &QualityStats) {
        self.n += other.n;
        self.sum_sq_err += other.sum_sq_err;
        self.sum_sq_ref += other.sum_sq_ref;
        self.max_abs_err = self.max_abs_err.max(other.max_abs_err);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean squared error (0 when empty).
    #[must_use]
    pub fn mse(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_sq_err / self.n as f64
        }
    }

    /// Largest absolute per-sample error.
    #[must_use]
    pub fn max_abs_error(&self) -> u64 {
        self.max_abs_err
    }

    /// Signal-to-noise ratio in dB: `10·log10(Σref² / Σerr²)`.
    ///
    /// Returns `f64::INFINITY` for an error-free stream and
    /// `f64::NEG_INFINITY` when the reference is identically zero but the
    /// output is not (all noise, no signal).
    #[must_use]
    pub fn snr_db(&self) -> f64 {
        if self.sum_sq_err == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (self.sum_sq_ref / self.sum_sq_err).log10()
        }
    }

    /// Peak signal-to-noise ratio in dB against an explicit peak value:
    /// `10·log10(peak² / MSE)`.
    ///
    /// Returns `f64::INFINITY` for an error-free stream.
    ///
    /// # Panics
    ///
    /// Panics if `peak` is zero (a degenerate reference; pick the
    /// reference signal's maximum or the format's nominal peak).
    #[must_use]
    pub fn psnr_db(&self, peak: u64) -> f64 {
        assert!(peak > 0, "PSNR needs a positive peak value");
        if self.sum_sq_err == 0.0 {
            f64::INFINITY
        } else {
            let p = peak as f64;
            10.0 * (p * p / self.mse()).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero_and_infinite_snr() {
        let q = QualityStats::new();
        assert!(q.is_empty());
        assert_eq!(q.mse(), 0.0);
        assert_eq!(q.max_abs_error(), 0);
        assert_eq!(q.snr_db(), f64::INFINITY);
        assert_eq!(q.psnr_db(255), f64::INFINITY);
    }

    #[test]
    fn identical_signals_have_infinite_quality() {
        let signal = [7u64, 0, 1000, 42];
        let q = QualityStats::from_signals(&signal, &signal);
        assert_eq!(q.len(), 4);
        assert_eq!(q.snr_db(), f64::INFINITY);
        assert_eq!(q.psnr_db(1000), f64::INFINITY);
        assert_eq!(q.max_abs_error(), 0);
    }

    #[test]
    fn psnr_matches_closed_form() {
        // One wrong 8-bit pixel out of four: MSE = 4, PSNR = 10·log10(255²/4).
        let q = QualityStats::from_signals(&[10, 20, 30, 40], &[10, 20, 30, 44]);
        assert_eq!(q.max_abs_error(), 4);
        let expected = 10.0 * (255.0f64 * 255.0 / 4.0).log10();
        assert!((q.psnr_db(255) - expected).abs() < 1e-12);
    }

    #[test]
    fn snr_is_scale_invariant() {
        let a = QualityStats::from_signals(&[100, 200], &[101, 202]);
        let b = QualityStats::from_signals(&[1000, 2000], &[1010, 2020]);
        assert!((a.snr_db() - b.snr_db()).abs() < 1e-9);
    }

    #[test]
    fn zero_reference_with_noise_is_negative_infinity() {
        let q = QualityStats::from_signals(&[0, 0], &[1, 2]);
        assert_eq!(q.snr_db(), f64::NEG_INFINITY);
        assert!(q.psnr_db(255).is_finite());
    }

    #[test]
    fn merge_equals_sequential() {
        let reference = [5u64, 90, 13, 0, 255, 7];
        let actual = [5u64, 92, 13, 1, 250, 7];
        let whole = QualityStats::from_signals(&reference, &actual);
        let mut left = QualityStats::from_signals(&reference[..3], &actual[..3]);
        let right = QualityStats::from_signals(&reference[3..], &actual[3..]);
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    #[should_panic(expected = "positive peak")]
    fn psnr_rejects_zero_peak() {
        let _ = QualityStats::new().psnr_db(0);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn from_signals_rejects_length_mismatch() {
        let _ = QualityStats::from_signals(&[1], &[1, 2]);
    }
}
