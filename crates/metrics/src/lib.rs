//! # isa-metrics
//!
//! The evaluation metrics of the DATE 2017 paper:
//!
//! * [`abper`](mod@abper) — Average Bit-level Prediction Error Rate (Eq. 1), the
//!   bit-classifier accuracy metric of Fig. 7;
//! * [`avpe`](mod@avpe) — Average Value-level Predictive Error (Eq. 4), the
//!   arithmetic-impact metric of Fig. 8;
//! * [`floor`] — the paper's 10⁻⁶ display floor for error-free points on
//!   logarithmic axes;
//! * [`snr_db`] / [`snr_db_of_rms_pct`] — signal-to-noise helpers relating
//!   RMS relative error to SNR (the paper's motivation for using RMS RE);
//! * [`quality`](mod@quality) — application-level quality
//!   ([`QualityStats`]: MSE, SNR/PSNR in dB, max absolute error) for
//!   kernels executed through inexact overclocked adders;
//! * [`objective`](mod@objective) — multi-objective
//!   (error, delay, energy) vectors with Pareto dominance and a total
//!   lexicographic order, the scoring currency of the design-space
//!   explorer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abper;
pub mod avpe;
pub mod objective;
pub mod quality;

pub use abper::{abper, AbperAccumulator};
pub use avpe::{avpe, AvpeAccumulator};
pub use objective::ObjectiveVector;
pub use quality::QualityStats;

/// The paper's display floor: zero-valued metrics are plotted as 10⁻⁶
/// ("We use 10⁻⁶ as ABPER in this case").
pub const PAPER_FLOOR: f64 = 1e-6;

/// Applies the paper's display floor to a metric value.
///
/// # Examples
///
/// ```
/// assert_eq!(isa_metrics::floor(0.0), 1e-6);
/// assert_eq!(isa_metrics::floor(0.25), 0.25);
/// ```
#[must_use]
pub fn floor(value: f64) -> f64 {
    if value < PAPER_FLOOR {
        PAPER_FLOOR
    } else {
        value
    }
}

/// Signal-to-noise ratio (dB) equivalent of an RMS relative error: the
/// paper notes RMS RE "is proportional to the SNR, which is interesting for
/// many applications, particularly in multimedia processing".
///
/// # Examples
///
/// ```
/// // 1% RMS relative error = 40 dB SNR.
/// assert!((isa_metrics::snr_db(0.01) - 40.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `rms_re` is not positive (use [`floor`] first for error-free
/// measurements).
#[must_use]
pub fn snr_db(rms_re: f64) -> f64 {
    assert!(rms_re > 0.0, "SNR undefined for non-positive RMS RE");
    -20.0 * rms_re.log10()
}

/// SNR (dB) of a joint RMS relative error expressed in percent; infinite
/// when error-free. The quality figure of explorer reports and served
/// stream answers.
///
/// # Examples
///
/// ```
/// assert_eq!(isa_metrics::snr_db_of_rms_pct(0.0), f64::INFINITY);
/// assert!((isa_metrics::snr_db_of_rms_pct(1.0) - 40.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn snr_db_of_rms_pct(rms_pct: f64) -> f64 {
    if rms_pct <= 0.0 {
        f64::INFINITY
    } else {
        snr_db(rms_pct / 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_clamps_only_tiny_values() {
        assert_eq!(floor(0.0), PAPER_FLOOR);
        assert_eq!(floor(1e-7), PAPER_FLOOR);
        assert_eq!(floor(1e-5), 1e-5);
        assert_eq!(floor(1.0), 1.0);
    }

    #[test]
    fn snr_of_perfect_tenth_is_20db() {
        assert!((snr_db(0.1) - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "SNR undefined")]
    fn snr_rejects_zero() {
        let _ = snr_db(0.0);
    }
}
