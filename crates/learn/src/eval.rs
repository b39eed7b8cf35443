//! Binary-classification evaluation: confusion matrices and derived rates.

/// A 2x2 confusion matrix for binary classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Predicted positive, actually positive.
    pub true_positives: u64,
    /// Predicted positive, actually negative.
    pub false_positives: u64,
    /// Predicted negative, actually negative.
    pub true_negatives: u64,
    /// Predicted negative, actually positive.
    pub false_negatives: u64,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one (predicted, actual) observation.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (false, true) => self.false_negatives += 1,
        }
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Fraction of correct predictions (0 when empty).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.true_positives + self.true_negatives) as f64 / total as f64
    }

    /// Precision: TP / (TP + FP), 1.0 when nothing was predicted positive.
    #[must_use]
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 1.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Recall: TP / (TP + FN), 1.0 when there were no positives.
    #[must_use]
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 1.0;
        }
        self.true_positives as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new();
        // 3 TP, 1 FP, 5 TN, 1 FN
        for _ in 0..3 {
            m.record(true, true);
        }
        m.record(true, false);
        for _ in 0..5 {
            m.record(false, false);
        }
        m.record(false, true);
        m
    }

    #[test]
    fn counts_are_tracked() {
        let m = sample_matrix();
        assert_eq!(m.true_positives, 3);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.true_negatives, 5);
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.total(), 10);
    }

    #[test]
    fn derived_rates() {
        let m = sample_matrix();
        assert!((m.accuracy() - 0.8).abs() < 1e-12);
        assert!((m.precision() - 0.75).abs() < 1e-12);
        assert!((m.recall() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let empty = ConfusionMatrix::new();
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);

        let mut all_negative = ConfusionMatrix::new();
        all_negative.record(false, false);
        assert_eq!(all_negative.accuracy(), 1.0);
    }
}
