//! # isa-learn
//!
//! The paper's bit-level timing-error prediction model (Section III), from
//! scratch: the per-output-bit [`TimingErrorPredictor`] learns the mapping
//! from `{x[t], x[t-1], yRTL_n[t-1], yRTL_n[t]}` to each bit's timing class
//! with one bagged [`RandomForest`] of CART trees (Gini) per bit — the
//! scikit-learn RFC substitute, grown over bit-packed binary features at
//! fixed settings — and deduces predicted overclocked outputs.
//! [`ConfusionMatrix`] scores the predictions; [`serialize`] holds the
//! text format's parse error.
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

mod dataset;
mod eval;
mod forest;
mod predictor;
pub mod serialize;
mod tree;

pub use eval::ConfusionMatrix;
pub use forest::RandomForest;
pub use predictor::{CyclePair, PredictorConfig, TimingErrorPredictor};
