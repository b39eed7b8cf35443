//! Bit-packed binary-feature datasets.
//!
//! The paper's model uses purely binary features (`{x[t], x[t-1],
//! yRTL_n[t-1], yRTL_n[t]}`), so samples are stored as packed `u64` words:
//! compact, cache-friendly, and branch-free to test during tree descent.
//!
//! Every dataset keeps one row-major feature store (each sample's packed
//! words), its column-major mirror (one bit-plane per feature over
//! samples, which tree growth counts splits on with popcounts), and one
//! label store, the label bit-plane. [`Dataset::from_planes`] takes the
//! planes and label plane and derives the rows 64 samples at a time with
//! the workspace's one 64×64 bit transpose ([`isa_core::transpose64`],
//! from the batch layer). The per-bit predictor builds one dataset per
//! training call and swaps each output bit's two features and labels in
//! place, rows included. Tree growth gathers a fragmented node's member
//! rows from the row store and turns them back into dense planes the same
//! way (see [`crate::tree`]). Tests also build datasets sample by sample
//! (`Dataset::push`), the reference the plane-built ones must equal.

use isa_core::batch::transpose64;

/// A set of binary-feature samples with boolean labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Dataset {
    num_features: usize,
    words_per_sample: usize,
    len: usize,
    /// Row-major store: sample `i`'s packed features are words
    /// `i * words_per_sample..(i + 1) * words_per_sample` (bit `f % 64` of
    /// word `f / 64` is feature `f`).
    rows: Vec<u64>,
    /// Column-major mirror: one bit-plane per feature over samples (bit
    /// `i % 64` of word `i / 64` is the feature in sample `i`), the layout
    /// that lets tree growth count split sides with bitmask popcounts.
    planes: Vec<Vec<u64>>,
    /// The labels as a bit-plane over samples.
    label_plane: Vec<u64>,
}

impl Dataset {
    /// Creates an empty dataset over `num_features` binary features.
    ///
    /// # Panics
    ///
    /// Panics if `num_features` is zero.
    #[cfg(test)]
    pub(crate) fn new(num_features: usize) -> Self {
        assert!(num_features > 0, "datasets need at least one feature");
        Self {
            num_features,
            words_per_sample: num_features.div_ceil(64),
            len: 0,
            rows: Vec::new(),
            planes: vec![Vec::new(); num_features],
            label_plane: Vec::new(),
        }
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of features per sample.
    pub(crate) fn num_features(&self) -> usize {
        self.num_features
    }

    /// Adds one sample from a bool slice.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from [`Self::num_features`].
    #[cfg(test)]
    pub(crate) fn push(&mut self, features: &[bool], label: bool) {
        assert_eq!(
            features.len(),
            self.num_features,
            "expected {} features, got {}",
            self.num_features,
            features.len()
        );
        let base = self.rows.len();
        self.rows
            .extend(std::iter::repeat_n(0, self.words_per_sample));
        let sample = self.len;
        if sample.is_multiple_of(64) {
            for plane in &mut self.planes {
                plane.push(0);
            }
            self.label_plane.push(0);
        }
        let (word, bit) = (sample / 64, sample % 64);
        for (i, &f) in features.iter().enumerate() {
            if f {
                self.rows[base + i / 64] |= 1u64 << (i % 64);
                self.planes[i][word] |= 1u64 << bit;
            }
        }
        if label {
            self.label_plane[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Builds a dataset directly from column-major feature planes and a
    /// label plane over `len` samples — the path for callers that already
    /// hold bit-planes (e.g. the per-bit predictor, whose 4w base-feature
    /// planes are shared by every output bit's dataset). The row store is
    /// derived 64 samples at a time with 64×64 bit transposes.
    ///
    /// Stray bits above `len` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is empty, `len` is zero, or any plane (or the
    /// label plane) has the wrong word count.
    pub(crate) fn from_planes(
        mut planes: Vec<Vec<u64>>,
        mut label_plane: Vec<u64>,
        len: usize,
    ) -> Self {
        assert!(!planes.is_empty(), "datasets need at least one feature");
        assert!(len > 0, "datasets need at least one sample");
        let words = len.div_ceil(64);
        assert_eq!(label_plane.len(), words, "label plane has wrong length");
        mask_tail(&mut label_plane, len);
        for plane in &mut planes {
            assert_eq!(plane.len(), words, "feature plane has wrong length");
            mask_tail(plane, len);
        }
        let num_features = planes.len();
        let words_per_sample = num_features.div_ceil(64);
        let mut rows = vec![0u64; len * words_per_sample];
        let mut block = [0u64; 64];
        for (word, chunk) in rows.chunks_mut(64 * words_per_sample).enumerate() {
            for (group, features) in planes.chunks(64).enumerate() {
                block.fill(0);
                for (slot, plane) in block.iter_mut().zip(features) {
                    *slot = plane[word];
                }
                transpose64(&mut block);
                for (row, &bits) in chunk.chunks_exact_mut(words_per_sample).zip(&block) {
                    row[group] = bits;
                }
            }
        }
        Self {
            num_features,
            words_per_sample,
            len,
            rows,
            planes,
            label_plane,
        }
    }

    /// The bit-plane of feature `f` over all samples (bit `i % 64` of word
    /// `i / 64` is the feature in sample `i`).
    pub(crate) fn feature_plane(&self, f: usize) -> &[u64] {
        &self.planes[f]
    }

    /// The labels as a bit-plane over all samples.
    pub(crate) fn label_plane(&self) -> &[u64] {
        &self.label_plane
    }

    /// Replaces feature `f`'s plane (stray bits above `len` masked off)
    /// and its bit in every row.
    ///
    /// # Panics
    ///
    /// Panics if the plane has the wrong word count.
    pub(crate) fn set_feature_plane(&mut self, f: usize, mut plane: Vec<u64>) {
        assert_eq!(
            plane.len(),
            self.label_plane.len(),
            "feature plane has wrong length"
        );
        mask_tail(&mut plane, self.len);
        let (word, bit) = (f / 64, f % 64);
        for (i, row) in self
            .rows
            .chunks_exact_mut(self.words_per_sample)
            .enumerate()
        {
            let value = (plane[i / 64] >> (i % 64)) & 1;
            row[word] = (row[word] & !(1 << bit)) | (value << bit);
        }
        self.planes[f] = plane;
    }

    /// Replaces the labels (stray bits above `len` masked off).
    ///
    /// # Panics
    ///
    /// Panics if the label plane has the wrong word count.
    pub(crate) fn set_label_plane(&mut self, mut label_plane: Vec<u64>) {
        assert_eq!(
            label_plane.len(),
            self.label_plane.len(),
            "label plane has wrong length"
        );
        mask_tail(&mut label_plane, self.len);
        self.label_plane = label_plane;
    }

    /// The row-major store: every sample's packed feature words (bit
    /// `f % 64` of word `f / 64` is feature `f`), in order.
    pub(crate) fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Number of packed words per sample (`ceil(num_features / 64)`).
    pub(crate) fn words_per_sample(&self) -> usize {
        self.words_per_sample
    }

    /// The packed feature words of sample `i`.
    #[cfg(test)]
    pub(crate) fn sample(&self, i: usize) -> &[u64] {
        let base = i * self.words_per_sample;
        &self.rows[base..base + self.words_per_sample]
    }

    /// Label of sample `i`.
    #[cfg(test)]
    pub(crate) fn label(&self, i: usize) -> bool {
        (self.label_plane[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// Clears the bits of a plane over `len` samples that lie past `len`.
fn mask_tail(plane: &mut [u64], len: usize) {
    let stray = plane.len() * 64 - len;
    if let Some(last) = plane.last_mut() {
        *last &= u64::MAX >> stray;
    }
}

/// Tests a feature inside a packed sample without unpacking.
#[must_use]
pub(crate) fn packed_feature(sample: &[u64], f: usize) -> bool {
    (sample[f / 64] >> (f % 64)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrips_past_word_boundary() {
        let n = 130;
        let mut d = Dataset::new(n);
        let features: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        d.push(&features, true);
        for (i, &f) in features.iter().enumerate() {
            assert_eq!(packed_feature(d.sample(0), i), f, "feature {i}");
        }
    }

    #[test]
    fn plane_built_and_push_built_datasets_agree() {
        let mut state = 0x5EED_DA7Au64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (len, features) in [
            (1usize, 1usize),
            (63, 5),
            (64, 64),
            (65, 65),
            (200, 130),
            (130, 200),
        ] {
            let samples: Vec<(Vec<bool>, bool)> = (0..len)
                .map(|_| {
                    (
                        (0..features).map(|_| next() % 3 == 0).collect(),
                        next() % 4 == 0,
                    )
                })
                .collect();
            let mut pushed = Dataset::new(features);
            let words = len.div_ceil(64);
            // Stray bits above `len` must be masked off.
            let mut planes: Vec<Vec<u64>> = (0..features)
                .map(|_| {
                    let mut plane = vec![0u64; words];
                    plane[words - 1] = next() & !(u64::MAX >> (words * 64 - len));
                    plane
                })
                .collect();
            let mut label_plane = vec![0u64; words];
            label_plane[words - 1] = (u64::MAX << 1) << ((len - 1) % 64);
            for (i, (row, label)) in samples.iter().enumerate() {
                pushed.push(row, *label);
                for (plane, &f) in planes.iter_mut().zip(row) {
                    plane[i / 64] |= u64::from(f) << (i % 64);
                }
                label_plane[i / 64] |= u64::from(*label) << (i % 64);
            }
            let built = Dataset::from_planes(planes, label_plane, len);
            let case = format!("{len} samples, {features} features");
            assert_eq!(built.len(), pushed.len(), "{case}");
            assert_eq!(built.num_features(), pushed.num_features(), "{case}");
            assert_eq!(built.label_plane(), pushed.label_plane(), "{case}");
            assert_eq!(built.rows(), pushed.rows(), "{case}");
            for f in 0..features {
                assert_eq!(built.feature_plane(f), pushed.feature_plane(f), "{case}");
            }
            for (i, (row, label)) in samples.iter().enumerate() {
                assert_eq!(built.sample(i), pushed.sample(i), "{case}, sample {i}");
                assert_eq!(built.label(i), *label, "{case}, sample {i}");
                assert_eq!(pushed.label(i), *label, "{case}, sample {i}");
                for (f, &value) in row.iter().enumerate() {
                    assert_eq!(
                        packed_feature(built.sample(i), f),
                        value,
                        "{case}, sample {i}"
                    );
                    assert_eq!(
                        packed_feature(pushed.sample(i), f),
                        value,
                        "{case}, sample {i}"
                    );
                }
            }
            assert_eq!(built, pushed, "{case}");
        }
    }

    #[test]
    fn replaced_planes_equal_a_dataset_built_from_them() {
        let mut state = 0xFEED_F00Du64;
        let mut plane = |words: usize| -> Vec<u64> {
            (0..words)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect()
        };
        for (len, features) in [(1usize, 1usize), (70, 3), (130, 66), (200, 130)] {
            let words = len.div_ceil(64);
            let planes: Vec<Vec<u64>> = (0..features).map(|_| plane(words)).collect();
            let mut dataset = Dataset::from_planes(planes.clone(), plane(words), len);
            let mut want_planes = planes;
            for f in [0, features / 2, features - 1] {
                let new_plane = plane(words);
                want_planes[f] = new_plane.clone();
                dataset.set_feature_plane(f, new_plane);
            }
            let labels = plane(words);
            dataset.set_label_plane(labels.clone());
            let want = Dataset::from_planes(want_planes, labels, len);
            assert_eq!(dataset, want, "{len} samples, {features} features");
        }
    }

    #[test]
    fn labels_and_positives() {
        let mut d = Dataset::new(2);
        d.push(&[true, true], true);
        d.push(&[false, true], false);
        d.push(&[true, false], true);
        assert_eq!(d.label_plane(), [0b101]);
        assert!(d.label(0) && !d.label(1));
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn push_validates_width() {
        let mut d = Dataset::new(2);
        d.push(&[true], false);
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn zero_features_rejected() {
        let _ = Dataset::new(0);
    }
}
