//! # isa-learn
//!
//! From-scratch supervised learning for the paper's bit-level timing-error
//! prediction model (Section III): bit-packed binary-feature datasets, CART
//! decision trees (Gini), bagged random forests with feature subsampling
//! (the scikit-learn RFC substitute), and the per-output-bit
//! [`TimingErrorPredictor`] that learns the mapping from
//! `{x[t], x[t-1], yRTL_n[t-1], yRTL_n[t]}` to each bit's timing class and
//! deduces predicted overclocked outputs.
//!
//! # Example
//!
//! ```
//! use isa_learn::{CyclePair, PredictorConfig, TimingErrorPredictor};
//!
//! // Stream of (a, b, gold, real-flip-mask) cycles; here error-free.
//! let raw: Vec<(u64, u64, u64, u64)> = (0..50).map(|i| (i, i, 2 * i, 0)).collect();
//! let cycles = CyclePair::from_stream(&raw);
//! let model = TimingErrorPredictor::train(&cycles, 8, &PredictorConfig::default());
//! assert_eq!(model.predict_flips(&cycles[10]), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod eval;
pub mod forest;
pub mod predictor;
pub mod serialize;
pub mod tree;

pub use dataset::Dataset;
pub use eval::ConfusionMatrix;
pub use forest::{FeatureSubsample, ForestConfig, RandomForest};
pub use predictor::{CyclePair, PredictorConfig, TimingErrorPredictor};
pub use tree::{DecisionTree, TreeConfig};
