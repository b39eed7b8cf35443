//! Random Forest classification (bagging + feature subsampling +
//! majority vote).
//!
//! "RFC alleviates overfitting issue by developing more than one decision
//! tree and use their average result as final prediction" — Section III.A
//! of the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeConfig};

/// How many features each split examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureSubsample {
    /// `sqrt(F)` features per split — the scikit-learn classification
    /// default.
    #[default]
    Sqrt,
    /// All features at every split (single-tree CART behaviour).
    All,
    /// A fixed number of features per split.
    Fixed(usize),
}

impl FeatureSubsample {
    /// Resolves to a concrete per-split candidate count for `num_features`.
    #[must_use]
    pub fn resolve(self, num_features: usize) -> Option<usize> {
        match self {
            FeatureSubsample::Sqrt => Some(((num_features as f64).sqrt().ceil() as usize).max(1)),
            FeatureSubsample::All => None,
            FeatureSubsample::Fixed(k) => Some(k.max(1)),
        }
    }
}

/// Forest training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits (its `feature_subsample` field is overridden
    /// by [`Self::features`]).
    pub tree: TreeConfig,
    /// Per-split feature subsampling policy.
    pub features: FeatureSubsample,
    /// Bag the training set per tree: each tree trains on a random
    /// ~63.2% subsample drawn **without replacement** — the expected
    /// distinct-sample fraction of a classic bootstrap bag (`1 - 1/e`).
    /// Duplicate-free bags are what let tree growth count node membership
    /// with bitmask popcounts instead of per-index scans (the same
    /// bit-sliced idea as the 64-lane simulator).
    pub bootstrap: bool,
    /// RNG seed controlling bagging and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 10,
            tree: TreeConfig::default(),
            features: FeatureSubsample::default(),
            bootstrap: true,
            seed: 0x5EED_F07E,
        }
    }
}

/// A trained random forest binary classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fits a forest on the given sample indices.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or the config requests zero trees.
    #[must_use]
    pub fn fit(dataset: &Dataset, indices: &[usize], config: &ForestConfig) -> Self {
        assert!(!indices.is_empty(), "cannot fit a forest on zero samples");
        assert!(config.n_trees > 0, "forest needs at least one tree");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let tree_config = TreeConfig {
            feature_subsample: config.features.resolve(dataset.num_features()),
            ..config.tree
        };
        let keep = ((indices.len() as f64 * 0.632).ceil() as usize).max(1);
        let trees = (0..config.n_trees)
            .map(|_| {
                let bag = if config.bootstrap {
                    bag_members(indices, keep, &mut rng)
                } else {
                    indices.to_vec()
                };
                DecisionTree::fit(dataset, &bag, &tree_config, &mut rng)
            })
            .collect();
        Self { trees }
    }

    /// Mean positive-class probability across trees.
    #[must_use]
    pub fn predict_prob(&self, sample: &[u64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_prob(sample)).sum();
        sum / self.trees.len() as f64
    }

    /// Majority-vote classification.
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

    /// Number of trees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Always false: a fitted forest has at least one tree.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Serializes the forest: a `forest trees=<N>` header followed by each
    /// tree's text block.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("forest trees={}\n", self.trees.len());
        for tree in &self.trees {
            out.push_str(&tree.to_text());
        }
        out
    }

    /// Parses a forest serialized by [`Self::to_text`] from a line
    /// iterator.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::serialize::ParseModelError`] on malformed input.
    pub fn from_lines<'a>(
        lines: &mut std::iter::Peekable<impl Iterator<Item = (usize, &'a str)>>,
    ) -> Result<Self, crate::serialize::ParseModelError> {
        use crate::serialize::ParseModelError;
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

    /// Mean-decrease-in-impurity feature importances averaged over trees,
    /// normalized to sum to 1 (all zeros when no tree ever split).
    #[must_use]
    pub fn feature_importances(&self) -> Vec<f64> {
        let n_features = self.trees.first().map_or(0, DecisionTree::num_features);
        let mut total = vec![0.0f64; n_features];
        for tree in &self.trees {
            for (slot, &v) in total.iter_mut().zip(tree.feature_importances()) {
                *slot += v;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in &mut total {
                *v /= sum;
            }
        }
        total
    }
}

/// One tree's bag: the first `keep` entries of `indices` after a
/// Fisher–Yates [`shuffle`](rand::seq::SliceRandom::shuffle), as a set
/// (in another order), with the same draws. A draw at `i < keep` only
/// permutes the kept prefix, so it moves nothing; a draw at `i >= keep`
/// only has to move the entry at `i` into slot `j`, because slot `i` is
/// never read again.
fn bag_members(indices: &[usize], keep: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut bag = indices.to_vec();
    for i in (1..bag.len()).rev() {
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
                let indices: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut bag = bag_members(&indices, keep, &mut rng);
                let mut shuffled_rng = StdRng::seed_from_u64(seed);
                let mut shuffled = indices.clone();
                shuffled.shuffle(&mut shuffled_rng);
                shuffled.truncate(keep);
                bag.sort_unstable();
                shuffled.sort_unstable();
                assert_eq!(bag, shuffled, "len {len}, keep {keep}, seed {seed}");
                assert_eq!(rng, shuffled_rng, "len {len}, keep {keep}, seed {seed}");
            }
        }
    }

    fn noisy_dataset(n: usize, noise_every: usize) -> Dataset {
        // Label = f3 AND f7, with some label noise.
        let mut d = Dataset::new(16);
        let mut state = 5u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            let features: Vec<bool> = (0..16).map(|b| (state >> b) & 1 == 1).collect();
            let mut label = features[3] && features[7];
            if noise_every > 0 && i % noise_every == 0 {
                label = !label;
            }
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
        let d = noisy_dataset(1500, 20);
        let idx: Vec<usize> = (0..d.len()).collect();
        let forest = RandomForest::fit(&d, &idx, &ForestConfig::default());
        let mut f = vec![false; 16];
        f[3] = true;
        f[7] = true;
        assert!(forest.predict(&pack(&f)));
        f[7] = false;
        assert!(!forest.predict(&pack(&f)));
    }

    #[test]
    fn forest_probability_is_mean_of_trees() {
        let d = noisy_dataset(400, 0);
        let idx: Vec<usize> = (0..d.len()).collect();
        let forest = RandomForest::fit(&d, &idx, &ForestConfig::default());
        let sample = pack(&[true; 16]);
        let mean: f64 = forest
            .trees
            .iter()
            .map(|t| t.predict_prob(&sample))
            .sum::<f64>()
            / forest.len() as f64;
        assert!((forest.predict_prob(&sample) - mean).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = noisy_dataset(300, 10);
        let idx: Vec<usize> = (0..d.len()).collect();
        let f1 = RandomForest::fit(&d, &idx, &ForestConfig::default());
        let f2 = RandomForest::fit(&d, &idx, &ForestConfig::default());
        assert_eq!(f1, f2);
    }

    #[test]
    fn different_seeds_build_different_forests() {
        let d = noisy_dataset(300, 10);
        let idx: Vec<usize> = (0..d.len()).collect();
        let f1 = RandomForest::fit(&d, &idx, &ForestConfig::default());
        let f2 = RandomForest::fit(
            &d,
            &idx,
            &ForestConfig {
                seed: 999,
                ..ForestConfig::default()
            },
        );
        assert_ne!(f1, f2);
    }

    #[test]
    fn forest_generalizes_better_than_its_overfit_trees() {
        // With label noise, the bagged majority should be at least as good
        // on held-out data as the average single tree.
        let d = noisy_dataset(2000, 7);
        let (train, test) = d.split_indices(0.7, 42);
        let forest = RandomForest::fit(&d, &train, &ForestConfig::default());
        let forest_acc = test
            .iter()
            .filter(|&&i| forest.predict(d.sample(i)) == d.label(i))
            .count() as f64
            / test.len() as f64;
        assert!(forest_acc > 0.8, "forest accuracy {forest_acc}");
    }

    #[test]
    fn single_tree_forest_works() {
        let d = noisy_dataset(200, 0);
        let idx: Vec<usize> = (0..d.len()).collect();
        let forest = RandomForest::fit(
            &d,
            &idx,
            &ForestConfig {
                n_trees: 1,
                bootstrap: false,
                ..ForestConfig::default()
            },
        );
        assert_eq!(forest.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let d = noisy_dataset(10, 0);
        let idx: Vec<usize> = (0..d.len()).collect();
        let _ = RandomForest::fit(
            &d,
            &idx,
            &ForestConfig {
                n_trees: 0,
                ..ForestConfig::default()
            },
        );
    }
}
