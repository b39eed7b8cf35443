//! Order statistics over measured samples.

/// The value at quantile `q` (0..=1) of `sorted`, by linear interpolation
/// between closest ranks. `None` for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples), 0.5)
}

/// A copy of `samples` in ascending order (NaN-free input assumed).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// [`quantile`] at `pct` percent, reported only when at least ten
/// samples lie strictly beyond it.
#[must_use]
pub fn percentile_with_tail(samples: &[f64], pct: f64) -> Option<f64> {
    let s = sorted(samples);
    let value = quantile(&s, pct / 100.0)?;
    (s.iter().filter(|&&x| x > value).count() >= 10).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly ten lie beyond p99.
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile_with_tail(&samples, 99.0).is_some());
        // 500 samples: only five lie beyond p99.
        let few: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&few, 99.0), None);
        assert!(percentile_with_tail(&few, 90.0).is_some());
        assert_eq!(percentile_with_tail(&[1.0; 50], 50.0), None);
    }
}
