//! Random Forest classification: the forest the per-bit predictor fits.
//!
//! "RFC alleviates overfitting issue by developing more than one decision
//! tree and use their average result as final prediction" — Section III.A
//! of the paper.
//!
//! A forest has [`N_TREES`] trees and votes by strict majority. Each tree
//! trains on a bag of `⌈0.632·n⌉` of the `n` samples drawn **without
//! replacement** — the expected distinct-sample fraction of a classic
//! bootstrap bag (`1 - 1/e`). Duplicate-free bags are what let tree growth
//! count node membership with bitmask popcounts instead of per-index scans
//! (the same bit-sliced idea as the 64-lane simulator). One RNG, seeded
//! per forest, draws every tree's bag and then its split candidates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::serialize::ParseModelError;
use crate::tree::DecisionTree;

/// Trees per forest.
const N_TREES: usize = 10;

/// A trained random forest binary classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fits a forest on every sample of the dataset, drawing bags and
    /// split candidates from one RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub(crate) fn fit(dataset: &Dataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keep = (dataset.len() as f64 * 0.632).ceil() as usize;
        let trees = (0..N_TREES)
            .map(|_| {
                let bag = bag_members(dataset.len(), keep, &mut rng);
                DecisionTree::fit(dataset, &bag, &mut rng)
            })
            .collect();
        Self { trees }
    }

    /// Majority-vote classification of one packed feature sample (bit
    /// `f % 64` of word `f / 64` is feature `f`).
    #[must_use]
    pub fn predict(&self, sample: &[u64]) -> bool {
        let votes = self.trees.iter().filter(|t| t.predict(sample)).count();
        2 * votes > self.trees.len()
    }

    /// [`Self::predict`] for up to 64 samples at once, over feature planes
    /// (bit `l` of `planes[f]` is feature `f` of lane `l`): every tree
    /// routes the `lanes` mask down its splits, and the result holds the
    /// lanes a strict majority of trees predicts positive.
    pub(crate) fn predict_lanes(&self, planes: &[u64], lanes: u64) -> u64 {
        let mut votes = [0usize; 64];
        let mut stack = Vec::new();
        for tree in &self.trees {
            let mut positive = tree.predict_lanes(planes, lanes, &mut stack);
            while positive != 0 {
                votes[positive.trailing_zeros() as usize] += 1;
                positive &= positive - 1;
            }
        }
        votes
            .iter()
            .enumerate()
            .filter(|&(_, &v)| 2 * v > self.trees.len())
            .fold(0u64, |mask, (lane, _)| mask | 1 << lane)
    }

    /// Serializes the forest: a `forest trees=<N>` header followed by each
    /// tree's text block.
    pub(crate) fn to_text(&self) -> String {
        let mut out = format!("forest trees={}\n", self.trees.len());
        for tree in &self.trees {
            out.push_str(&tree.to_text());
        }
        out
    }

    /// Parses one forest block of a model serialized by
    /// [`TimingErrorPredictor::to_text`](crate::TimingErrorPredictor::to_text)
    /// from a line iterator: the `forest trees=<N>` header and its `N`
    /// trees.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseModelError`] on malformed input.
    pub fn from_lines<'a>(
        lines: &mut std::iter::Peekable<impl Iterator<Item = (usize, &'a str)>>,
    ) -> Result<Self, ParseModelError> {
        let (line_no, header) = lines
            .next()
            .ok_or_else(|| ParseModelError::new(0, "missing forest header"))?;
        let n: usize = header
            .strip_prefix("forest trees=")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| ParseModelError::new(line_no + 1, "expected 'forest trees=N'"))?;
        if n == 0 {
            return Err(ParseModelError::new(line_no + 1, "forest needs trees"));
        }
        let trees = (0..n)
            .map(|_| DecisionTree::from_lines(lines))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { trees })
    }
}

/// One tree's bag over samples `0..len`: the first `keep` entries after a
/// Fisher–Yates [`shuffle`](rand::seq::SliceRandom::shuffle), as a set
/// (in another order), with the same draws. A draw at `i < keep` only
/// permutes the kept prefix, so it moves nothing; a draw at `i >= keep`
/// only has to move the entry at `i` into slot `j`, because slot `i` is
/// never read again.
fn bag_members(len: usize, keep: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut bag: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let draw = rng.next_u64();
        if i >= keep {
            bag[(draw % (i as u64 + 1)) as usize] = bag[i];
        }
    }
    bag.truncate(keep);
    bag
}

#[cfg(test)]
mod tests {
    use rand::seq::SliceRandom;

    use super::*;
    use crate::predictor::FOREST_SEED;

    #[test]
    fn bag_members_equal_a_truncated_shuffle() {
        for (len, keep) in [
            (1, 1),
            (2, 1),
            (2, 2),
            (7, 5),
            (64, 41),
            (100, 64),
            (8_000, 5_056),
        ] {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut bag = bag_members(len, keep, &mut rng);
                let mut shuffled_rng = StdRng::seed_from_u64(seed);
                let mut shuffled: Vec<usize> = (0..len).collect();
                shuffled.shuffle(&mut shuffled_rng);
                shuffled.truncate(keep);
                bag.sort_unstable();
                shuffled.sort_unstable();
                assert_eq!(bag, shuffled, "len {len}, keep {keep}, seed {seed}");
                assert_eq!(rng, shuffled_rng, "len {len}, keep {keep}, seed {seed}");
            }
        }
    }

    /// Samples whose label is f3 AND f7, with every `noise_every`-th label
    /// flipped.
    fn noisy_samples(n: usize, noise_every: usize) -> Vec<(Vec<bool>, bool)> {
        let mut state = 5u64;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                let features: Vec<bool> = (0..16).map(|b| (state >> b) & 1 == 1).collect();
                let mut label = features[3] && features[7];
                if noise_every > 0 && i % noise_every == 0 {
                    label = !label;
                }
                (features, label)
            })
            .collect()
    }

    fn noisy_dataset(n: usize, noise_every: usize) -> Dataset {
        let mut d = Dataset::new(16);
        for (features, label) in noisy_samples(n, noise_every) {
            d.push(&features, label);
        }
        d
    }

    fn pack(features: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; features.len().div_ceil(64)];
        for (i, &f) in features.iter().enumerate() {
            if f {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    #[test]
    fn forest_learns_conjunction_under_noise() {
        let forest = RandomForest::fit(&noisy_dataset(1500, 20), FOREST_SEED);
        let mut f = vec![false; 16];
        f[3] = true;
        f[7] = true;
        assert!(forest.predict(&pack(&f)));
        f[7] = false;
        assert!(!forest.predict(&pack(&f)));
    }

    #[test]
    fn deterministic_under_seed() {
        let d = noisy_dataset(300, 10);
        assert_eq!(
            RandomForest::fit(&d, FOREST_SEED),
            RandomForest::fit(&d, FOREST_SEED)
        );
    }

    #[test]
    fn different_seeds_build_different_forests() {
        let d = noisy_dataset(300, 10);
        assert_ne!(
            RandomForest::fit(&d, FOREST_SEED),
            RandomForest::fit(&d, 999)
        );
    }

    #[test]
    fn forest_generalizes_better_than_its_overfit_trees() {
        // With label noise, the bagged majority should be at least as good
        // on held-out data as the average single tree.
        let samples = noisy_samples(2000, 7);
        let (train, test) = samples.split_at(1400);
        let mut d = Dataset::new(16);
        for (features, label) in train {
            d.push(features, *label);
        }
        let forest = RandomForest::fit(&d, FOREST_SEED);
        let forest_acc = test
            .iter()
            .filter(|(features, label)| forest.predict(&pack(features)) == *label)
            .count() as f64
            / test.len() as f64;
        assert!(forest_acc > 0.8, "forest accuracy {forest_acc}");
    }
}
