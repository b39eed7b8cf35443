//! The paper's bit-level timing-error prediction model (Section III.A).
//!
//! For each output bit position `n`, a binary classifier learns the mapping
//! from `{x[t], x[t-1], yRTL_n[t-1], yRTL_n[t]}` to the bit's timing class.
//! Bits whose training labels are constant (e.g. never erroneous at a mild
//! overclock) skip forest training and predict that constant — the paper's
//! ABPER = 0 cases.
//!
//! The model "does not directly generate arithmetic values, it only
//! generates timing-class vectors" ([`TimingErrorPredictor::predict_flips`])
//! "and deduces the corresponding ysilver compared to the expected output
//! ygold": `ysilver = ygold ^ flips`, which the engine's predicted
//! substrate applies to whole streams.
//!
//! Every trained bit fits the one forest of [`crate::forest`], seeded with
//! [`FOREST_SEED`] xored with `n << 32` for output bit `n`.
//!
//! Training and inference both turn 64 cycles of each field into bit
//! planes with the batch layer's 64×64 transpose
//! ([`isa_core::transpose64`]); inference turns the predicted flip planes
//! back into per-cycle vectors with the same call.

use isa_core::batch::transpose64;

use crate::dataset::Dataset;
use crate::forest::RandomForest;
use crate::serialize::ParseModelError;

/// Base seed of every bit's forest.
pub(crate) const FOREST_SEED: u64 = 0x5EED_F07E;

/// One training/inference cycle of an overclocked adder stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclePair {
    /// Current first operand `x[t]` (low half).
    pub a: u64,
    /// Current second operand `x[t]` (high half).
    pub b: u64,
    /// Previous first operand `x[t-1]`.
    pub a_prev: u64,
    /// Previous second operand `x[t-1]`.
    pub b_prev: u64,
    /// Current golden (structural-only) output `yRTL[t]`.
    pub gold: u64,
    /// Previous golden output `yRTL[t-1]`.
    pub gold_prev: u64,
    /// Real timing-class vector: bit `n` set iff position `n` was
    /// timing-erroneous this cycle (training label; ignored at inference).
    pub flips: u64,
}

impl CyclePair {
    /// Builds the cycle sequence from stream-ordered per-cycle data
    /// `(a, b, gold, flips)`, deriving the `t-1` fields. The first cycle's
    /// predecessor is the all-zero reset state.
    #[must_use]
    pub fn from_stream(cycles: &[(u64, u64, u64, u64)]) -> Vec<CyclePair> {
        let mut prev = (0u64, 0u64, 0u64);
        cycles
            .iter()
            .map(|&(a, b, gold, flips)| {
                let pair = CyclePair {
                    a,
                    b,
                    a_prev: prev.0,
                    b_prev: prev.1,
                    gold,
                    gold_prev: prev.2,
                    flips,
                };
                prev = (a, b, gold);
                pair
            })
            .collect()
    }
}

/// Per-bit model: a trained forest, or a constant for bits with constant
/// training labels.
#[derive(Debug, Clone, PartialEq)]
enum BitModel {
    Constant(bool),
    Forest(RandomForest),
}

/// Options for [`TimingErrorPredictor::train`]. It has no settings: every
/// trained bit fits the same forest (ten trees of depth at most 12, bagged
/// without replacement, `⌈√F⌉` candidate features per split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictorConfig {}

/// The trained bit-level timing-error prediction model for one (design,
/// clock period) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingErrorPredictor {
    width: u32,
    out_bits: u32,
    models: Vec<BitModel>,
}

/// Number of features: `x[t]` (2w) + `x[t-1]` (2w) + `yRTL_n[t-1]` +
/// `yRTL_n[t]`.
fn feature_count(width: u32) -> usize {
    4 * width as usize + 2
}

/// The `CyclePair` fields behind the base features, in feature order:
/// `x[t]` (a, then b), then `x[t-1]`.
const BASE_FIELDS: [fn(&CyclePair) -> u64; 4] = [|c| c.a, |c| c.b, |c| c.a_prev, |c| c.b_prev];

/// Bit-planes of one `CyclePair` field over a batch of up to 64 cycles
/// (unused lanes read as zero).
fn field_planes(cycles: &[CyclePair], field: impl Fn(&CyclePair) -> u64) -> [u64; 64] {
    let mut m = [0u64; 64];
    for (lane, c) in m.iter_mut().zip(cycles) {
        *lane = field(c);
    }
    transpose64(&mut m);
    m
}

impl TimingErrorPredictor {
    /// Trains one classifier per output bit from stream-ordered cycles.
    ///
    /// `width` is the adder operand width; outputs cover `width + 1` bits.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is empty or `width` is not in `1..=63`.
    #[must_use]
    pub fn train(cycles: &[CyclePair], width: u32, _config: &PredictorConfig) -> Self {
        assert!(!cycles.is_empty(), "cannot train on an empty stream");
        assert!(width > 0 && width <= 63, "width must be in 1..=63");
        let _span = isa_obs::span("learn.train");
        let out_bits = width + 1;
        let n = cycles.len();
        let words = n.div_ceil(64);
        let w = width as usize;
        // Every training plane, 64 cycles at a time through the
        // transposition inference uses: the 4w base-feature planes
        // (x[t], x[t-1]), identical for every output bit, and each output
        // bit's label, yRTL_n[t-1] and yRTL_n[t] planes.
        let mut base_planes = vec![vec![0u64; words]; 4 * w];
        let mut label_planes = vec![vec![0u64; words]; out_bits as usize];
        let mut gold_prev_planes = label_planes.clone();
        let mut gold_planes = label_planes.clone();
        for (word, batch) in cycles.chunks(64).enumerate() {
            for (slot, field) in BASE_FIELDS.into_iter().enumerate() {
                let planes = field_planes(batch, field);
                for (plane, &bits) in base_planes[slot * w..(slot + 1) * w]
                    .iter_mut()
                    .zip(&planes)
                {
                    plane[word] = bits;
                }
            }
            for (per_bit, field) in [
                (&mut label_planes, (|c| c.flips) as fn(&CyclePair) -> u64),
                (&mut gold_prev_planes, |c| c.gold_prev),
                (&mut gold_planes, |c| c.gold),
            ] {
                let planes = field_planes(batch, field);
                for (plane, &bits) in per_bit.iter_mut().zip(&planes) {
                    plane[word] = bits;
                }
            }
        }

        // One dataset serves every trained bit: the first takes the base
        // planes, and each later one swaps in its own two planes and
        // labels.
        let mut dataset: Option<Dataset> = None;
        let mut models = Vec::with_capacity(out_bits as usize);
        let per_bit = label_planes
            .into_iter()
            .zip(gold_prev_planes.into_iter().zip(gold_planes));
        for (n_bit, (label_plane, (gold_prev_plane, gold_plane))) in per_bit.enumerate() {
            let positives: usize = label_plane.iter().map(|w| w.count_ones() as usize).sum();
            if positives == 0 || positives == n {
                models.push(BitModel::Constant(positives == n));
                continue;
            }
            let dataset = match dataset.as_mut() {
                Some(dataset) => {
                    dataset.set_feature_plane(4 * w, gold_prev_plane);
                    dataset.set_feature_plane(4 * w + 1, gold_plane);
                    dataset.set_label_plane(label_plane);
                    dataset
                }
                None => {
                    let mut planes = std::mem::take(&mut base_planes);
                    planes.push(gold_prev_plane);
                    planes.push(gold_plane);
                    debug_assert_eq!(planes.len(), feature_count(width));
                    dataset.insert(Dataset::from_planes(planes, label_plane, n))
                }
            };
            let seed = FOREST_SEED ^ ((n_bit as u64) << 32);
            models.push(BitModel::Forest(RandomForest::fit(dataset, seed)));
        }
        Self {
            width,
            out_bits,
            models,
        }
    }

    /// Adder operand width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of predicted output bit positions (`width + 1`).
    #[must_use]
    pub fn out_bits(&self) -> u32 {
        self.out_bits
    }

    /// Number of bit positions that required a trained forest (vs constant
    /// prediction).
    #[must_use]
    pub fn trained_bits(&self) -> usize {
        self.models
            .iter()
            .filter(|m| matches!(m, BitModel::Forest(_)))
            .count()
    }

    /// Predicts the timing-class vector (bit `n` set = predicted
    /// timing-erroneous) for one cycle: the one-lane case of
    /// [`Self::predict_flips_batch`].
    #[must_use]
    pub fn predict_flips(&self, cycle: &CyclePair) -> u64 {
        self.predict_flips_batch(std::slice::from_ref(cycle))[0]
    }

    /// Predicts the timing-class vector of every cycle, 64 cycles per
    /// pass: each batch is transposed once into the model's feature
    /// planes (`x[t]`, `x[t-1]`, then per bit `yRTL_n[t-1]`, `yRTL_n[t]`)
    /// and every bit's forest routes the 64-lane mask down its trees.
    /// Equal, cycle for cycle, to [`RandomForest::predict`] on each
    /// cycle's packed feature vector.
    #[must_use]
    pub fn predict_flips_batch(&self, cycles: &[CyclePair]) -> Vec<u64> {
        let w = self.width as usize;
        let mut planes = vec![0u64; feature_count(self.width)];
        let mut out = Vec::with_capacity(cycles.len());
        for batch in cycles.chunks(64) {
            let lanes = u64::MAX >> (64 - batch.len());
            for (slot, field) in BASE_FIELDS.into_iter().enumerate() {
                planes[slot * w..(slot + 1) * w].copy_from_slice(&field_planes(batch, field)[..w]);
            }
            let gold = field_planes(batch, |c| c.gold);
            let gold_prev = field_planes(batch, |c| c.gold_prev);
            let mut flips = [0u64; 64];
            for (n, model) in self.models.iter().enumerate() {
                flips[n] = match model {
                    BitModel::Constant(true) => lanes,
                    BitModel::Constant(false) => 0,
                    BitModel::Forest(forest) => {
                        planes[4 * w] = gold_prev[n];
                        planes[4 * w + 1] = gold[n];
                        forest.predict_lanes(&planes, lanes)
                    }
                };
            }
            transpose64(&mut flips);
            out.extend_from_slice(&flips[..batch.len()]);
        }
        out
    }

    /// Serializes the whole per-bit model as plain text: a header plus one
    /// `bit <n> constant <0|1>` line or `bit <n> forest` + forest block per
    /// output position.
    ///
    /// # Examples
    ///
    /// ```
    /// use isa_learn::{CyclePair, PredictorConfig, TimingErrorPredictor};
    ///
    /// # fn main() -> Result<(), isa_learn::serialize::ParseModelError> {
    /// let raw: Vec<(u64, u64, u64, u64)> = (0..50).map(|i| (i, i, 2 * i, 0)).collect();
    /// let cycles = CyclePair::from_stream(&raw);
    /// let model = TimingErrorPredictor::train(&cycles, 8, &PredictorConfig::default());
    /// let text = model.to_text();
    /// let reloaded = TimingErrorPredictor::from_text(&text)?;
    /// assert_eq!(reloaded.predict_flips(&cycles[3]), model.predict_flips(&cycles[3]));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "timing-error-predictor width={} out_bits={}\n",
            self.width, self.out_bits
        );
        for (n, model) in self.models.iter().enumerate() {
            match model {
                BitModel::Constant(c) => {
                    let _ = writeln!(out, "bit {n} constant {}", u8::from(*c));
                }
                BitModel::Forest(forest) => {
                    let _ = writeln!(out, "bit {n} forest");
                    out.push_str(&forest.to_text());
                }
            }
        }
        out
    }

    /// Parses a model serialized by [`Self::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseModelError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, ParseModelError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .peekable();
        let (line_no, header) = lines
            .next()
            .ok_or_else(|| ParseModelError::new(0, "empty model"))?;
        let herr = |msg: &str| ParseModelError::new(line_no + 1, msg.to_owned());
        let rest = header
            .strip_prefix("timing-error-predictor width=")
            .ok_or_else(|| herr("bad model header"))?;
        let (width_s, out_s) = rest
            .split_once(" out_bits=")
            .ok_or_else(|| herr("missing out_bits"))?;
        let width: u32 = width_s.parse().map_err(|_| herr("bad width"))?;
        let out_bits: u32 = out_s.trim().parse().map_err(|_| herr("bad out_bits"))?;
        if width == 0 || width > 63 || out_bits != width + 1 {
            return Err(herr("inconsistent width/out_bits"));
        }
        let mut models = Vec::with_capacity(out_bits as usize);
        for n in 0..out_bits {
            let (bn, line) = lines
                .next()
                .ok_or_else(|| ParseModelError::new(0, format!("missing bit {n}")))?;
            let berr = |msg: &str| ParseModelError::new(bn + 1, msg.to_owned());
            let mut parts = line.split_whitespace();
            if parts.next() != Some("bit") {
                return Err(berr("expected 'bit'"));
            }
            let index: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| berr("bad bit index"))?;
            if index != n {
                return Err(berr("bit indices out of order"));
            }
            match parts.next() {
                Some("constant") => {
                    let v: u8 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| berr("bad constant value"))?;
                    models.push(BitModel::Constant(v != 0));
                }
                Some("forest") => {
                    models.push(BitModel::Forest(RandomForest::from_lines(&mut lines)?));
                }
                _ => return Err(berr("expected 'constant' or 'forest'")),
            }
        }
        Ok(Self {
            width,
            out_bits,
            models,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic overclocked adder: bit 8 flips whenever a short carry
    /// pattern is present AND the previous cycle had different operands
    /// (path freshly sensitized). Occurs on ~6% of cycles so that a
    /// constant-false predictor cannot reach the accuracy bar.
    fn synthetic_stream(n: usize, width: u32) -> Vec<CyclePair> {
        let mask = (1u64 << width) - 1;
        let mut seed = 0xACE5u64;
        let mut raw = Vec::with_capacity(n);
        let mut prev_inputs = (0u64, 0u64);
        for _ in 0..n {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let a = seed & mask;
            let b = (seed >> 17) & mask;
            let gold = (a + b) & ((1 << (width + 1)) - 1);
            let chain_crosses = (a & 0x7) == 0x7 && (b & 1) == 1;
            let fresh = prev_inputs != (a, b);
            let flips = if chain_crosses && fresh { 1 << 8 } else { 0 };
            raw.push((a, b, gold, flips));
            prev_inputs = (a, b);
        }
        CyclePair::from_stream(&raw)
    }

    #[test]
    fn from_stream_threads_previous_cycle() {
        let cycles = CyclePair::from_stream(&[(1, 2, 3, 0), (4, 5, 9, 1)]);
        assert_eq!(cycles[0].a_prev, 0);
        assert_eq!(cycles[1].a_prev, 1);
        assert_eq!(cycles[1].b_prev, 2);
        assert_eq!(cycles[1].gold_prev, 3);
    }

    #[test]
    fn error_free_stream_trains_constant_models() {
        let raw: Vec<(u64, u64, u64, u64)> = (0..200).map(|i| (i, i + 1, 2 * i + 1, 0)).collect();
        let cycles = CyclePair::from_stream(&raw);
        let predictor = TimingErrorPredictor::train(&cycles, 16, &PredictorConfig::default());
        assert_eq!(predictor.trained_bits(), 0);
        for c in &cycles {
            assert_eq!(predictor.predict_flips(c), 0);
        }
    }

    #[test]
    fn learns_pattern_dependent_bit_errors() {
        // The figures' training size: the signal is a sparse conjunction
        // that `⌈√F⌉` candidates per split find only with enough samples.
        let cycles = synthetic_stream(9000, 16);
        let (train, test) = cycles.split_at(8000);
        let predictor = TimingErrorPredictor::train(train, 16, &PredictorConfig::default());
        assert_eq!(predictor.trained_bits(), 1, "only bit 8 misbehaves");
        let mut correct = 0usize;
        let mut errors_seen = 0usize;
        for c in test {
            let predicted = predictor.predict_flips(c);
            if predicted == c.flips {
                correct += 1;
            }
            if c.flips != 0 {
                errors_seen += 1;
            }
        }
        assert!(errors_seen > 0, "test set must contain errors");
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.97, "cycle-level accuracy {acc}");
    }

    #[test]
    fn out_bits_is_width_plus_one() {
        let cycles = synthetic_stream(100, 16);
        let predictor = TimingErrorPredictor::train(&cycles, 16, &PredictorConfig::default());
        assert_eq!(predictor.out_bits(), 17);
        assert_eq!(predictor.width(), 16);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_training_panics() {
        let _ = TimingErrorPredictor::train(&[], 16, &PredictorConfig::default());
    }
}
