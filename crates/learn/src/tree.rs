//! CART decision trees over binary features (Gini impurity).
//!
//! "DT considers the joint effects of different bit positions but could
//! incur overfitting problem" — the forest in [`crate::forest`] addresses
//! that; this module provides the underlying learner.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::dataset::{packed_feature, Dataset};
use crate::serialize::ParseModelError;

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: u32,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features examined per split; `None` examines all.
    pub feature_subsample: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 8,
            feature_subsample: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Leaf {
        prob_true: f64,
    },
    Split {
        feature: u32,
        /// Child index when the feature is 0.
        low: u32,
        /// Child index when the feature is 1.
        high: u32,
    },
}

/// A trained binary-feature decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
    importances: Vec<f64>,
    root_size: usize,
}

/// Gini impurity of a (positives, total) split side.
fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

/// One non-zero word of a node's membership mask.
#[derive(Debug, Clone, Copy)]
struct MaskWord {
    /// Word index into the dataset's bit-planes.
    word: u32,
    /// Member samples within that word.
    bits: u64,
}

/// State shared by one tree's recursive growth: the member-word list every
/// node's span indexes into, and the reused candidate-feature buffer.
struct Growth<'a> {
    dataset: &'a Dataset,
    config: &'a TreeConfig,
    rng: &'a mut StdRng,
    words: Vec<MaskWord>,
    candidates: Vec<u32>,
}

impl DecisionTree {
    /// Fits a tree on the given sample indices of a dataset.
    ///
    /// Growth is bit-parallel over samples: node membership is a bitmask
    /// over the dataset, split sides are counted with popcounts against the
    /// dataset's column-major feature planes, and partitioning is two
    /// bitwise ANDs — the same SIMD-within-a-register idea the 64-lane
    /// gate-level simulator uses. A node keeps only the non-zero words of
    /// its mask, so deep nodes cost their member count rather than the
    /// dataset length. Duplicate indices collapse into the membership mask
    /// (callers bag without replacement; see
    /// [`ForestConfig::bootstrap`](crate::ForestConfig)).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    #[must_use]
    pub fn fit(
        dataset: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut mask = vec![0u64; dataset.len().div_ceil(64)];
        for &i in indices {
            mask[i / 64] |= 1u64 << (i % 64);
        }
        let words: Vec<MaskWord> = mask
            .iter()
            .enumerate()
            .filter(|&(_, &bits)| bits != 0)
            .map(|(word, &bits)| MaskWord {
                word: word as u32,
                bits,
            })
            .collect();
        let total: usize = words.iter().map(|m| m.bits.count_ones() as usize).sum();
        let mut tree = Self {
            nodes: Vec::new(),
            num_features: dataset.num_features(),
            importances: vec![0.0; dataset.num_features()],
            root_size: total,
        };
        let root_words = words.len();
        let mut growth = Growth {
            dataset,
            config,
            rng,
            words,
            candidates: Vec::with_capacity(dataset.num_features()),
        };
        tree.grow(&mut growth, 0..root_words, total, 0);
        tree
    }

    /// Recursively grows the subtree over the members listed in
    /// `growth.words[span]`, returning its node id. Children's member
    /// words are appended past the current end of the shared list and
    /// truncated away once both subtrees are grown.
    fn grow(
        &mut self,
        growth: &mut Growth<'_>,
        span: Range<usize>,
        total: usize,
        depth: u32,
    ) -> u32 {
        let dataset = growth.dataset;
        let config = growth.config;
        let labels = dataset.label_plane();
        let members = &growth.words[span.clone()];
        let positives: usize = members
            .iter()
            .map(|m| (m.bits & labels[m.word as usize]).count_ones() as usize)
            .sum();
        let make_leaf = positives == 0
            || positives == total
            || depth >= config.max_depth
            || total < config.min_samples_split;
        if make_leaf {
            return self.push_leaf(positives as f64 / total as f64);
        }

        // Candidate features: all, or a random subset (random-forest
        // style). The buffer restarts from `0..F` at every node, so the
        // shuffle draws and permutes exactly as on a fresh list.
        let candidates = &mut growth.candidates;
        candidates.clear();
        candidates.extend(0..dataset.num_features() as u32);
        if let Some(k) = config.feature_subsample {
            candidates.shuffle(growth.rng);
            candidates.truncate(k.max(1));
        }

        let parent_gini = gini(positives as f64, total as f64);
        let mut best: Option<(f64, u32)> = None;
        for &f in candidates.iter() {
            let plane = dataset.feature_plane(f as usize);
            let mut high_total = 0usize;
            let mut high_pos = 0usize;
            for m in members {
                let high = m.bits & plane[m.word as usize];
                high_total += high.count_ones() as usize;
                high_pos += (high & labels[m.word as usize]).count_ones() as usize;
            }
            let low_total = total - high_total;
            if high_total == 0 || low_total == 0 {
                continue; // useless split
            }
            let low_pos = positives - high_pos;
            let weighted = (low_total as f64 * gini(low_pos as f64, low_total as f64)
                + high_total as f64 * gini(high_pos as f64, high_total as f64))
                / total as f64;
            let gain = parent_gini - weighted;
            // Zero-gain (but non-degenerate) splits are accepted, like
            // scikit-learn's CART: they are what lets greedy trees descend
            // into XOR-style interactions, with the depth limit as the
            // overfitting guard.
            let better = match best {
                None => true,
                Some((best_gain, best_f)) => {
                    gain > best_gain + 1e-12 || (gain > best_gain - 1e-12 && f < best_f)
                }
            };
            if better {
                best = Some((gain, f));
            }
        }

        let Some((gain, feature)) = best else {
            return self.push_leaf(positives as f64 / total as f64);
        };
        // Mean-decrease-in-impurity importance, weighted by node size.
        self.importances[feature as usize] += gain.max(0.0) * total as f64 / self.root_size as f64;

        // Partition: two bitwise ANDs against the chosen feature's plane,
        // keeping each side's non-zero words (low side first).
        let plane = dataset.feature_plane(feature as usize);
        let low_start = growth.words.len();
        for i in span.clone() {
            let m = growth.words[i];
            let bits = m.bits & !plane[m.word as usize];
            if bits != 0 {
                growth.words.push(MaskWord { bits, ..m });
            }
        }
        let high_start = growth.words.len();
        let mut high_total = 0usize;
        for i in span {
            let m = growth.words[i];
            let bits = m.bits & plane[m.word as usize];
            if bits != 0 {
                high_total += bits.count_ones() as usize;
                growth.words.push(MaskWord { bits, ..m });
            }
        }
        let high_end = growth.words.len();
        let low_total = total - high_total;
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf { prob_true: 0.0 }); // placeholder
        let low = self.grow(growth, low_start..high_start, low_total, depth + 1);
        let high = self.grow(growth, high_start..high_end, high_total, depth + 1);
        growth.words.truncate(low_start);
        self.nodes[id as usize] = Node::Split { feature, low, high };
        id
    }

    fn push_leaf(&mut self, prob_true: f64) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf { prob_true });
        id
    }

    /// Probability of the positive class for a packed feature sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sample has too few words.
    #[must_use]
    pub fn predict_prob(&self, sample: &[u64]) -> f64 {
        let mut node = 0usize;
        loop {
            match self.nodes[node] {
                Node::Leaf { prob_true } => return prob_true,
                Node::Split { feature, low, high } => {
                    node = if packed_feature(sample, feature as usize) {
                        high as usize
                    } else {
                        low as usize
                    };
                }
            }
        }
    }

    /// Hard classification at threshold 0.5.
    #[must_use]
    pub fn predict(&self, sample: &[u64]) -> bool {
        self.predict_prob(sample) > 0.5
    }

    /// [`Self::predict`] for up to 64 samples at once: `planes[f]` holds
    /// feature `f` of every lane (bit `l` = lane `l`) and `lanes` selects
    /// the lanes to classify. Returns the selected lanes predicted
    /// positive; `stack` is traversal scratch the caller reuses.
    ///
    /// Each split sends its lane mask down both sides with two ANDs, so
    /// a batch visits every reached node once instead of once per lane.
    pub(crate) fn predict_lanes(
        &self,
        planes: &[u64],
        lanes: u64,
        stack: &mut Vec<(u32, u64)>,
    ) -> u64 {
        let mut positive = 0u64;
        stack.clear();
        if lanes != 0 {
            stack.push((0, lanes));
        }
        while let Some((node, mask)) = stack.pop() {
            match self.nodes[node as usize] {
                Node::Leaf { prob_true } => {
                    if prob_true > 0.5 {
                        positive |= mask;
                    }
                }
                Node::Split { feature, low, high } => {
                    let plane = planes[feature as usize];
                    for (child, side) in [(high, mask & plane), (low, mask & !plane)] {
                        if side != 0 {
                            stack.push((child, side));
                        }
                    }
                }
            }
        }
        positive
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of features the tree was trained over.
    #[must_use]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Mean-decrease-in-impurity feature importances (unnormalized; zero
    /// for features never split on).
    #[must_use]
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Serializes the tree as a line-oriented text block:
    /// `tree features=<F> nodes=<N>` followed by one `leaf <p>` or
    /// `split <feature> <low> <high>` line per node.
    ///
    /// Importances are not persisted (they are a training-time analysis).
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tree features={} nodes={}",
            self.num_features,
            self.nodes.len()
        );
        for node in &self.nodes {
            match *node {
                Node::Leaf { prob_true } => {
                    let _ = writeln!(out, "leaf {prob_true}");
                }
                Node::Split { feature, low, high } => {
                    let _ = writeln!(out, "split {feature} {low} {high}");
                }
            }
        }
        out
    }

    /// Parses a tree serialized by [`Self::to_text`] from a line iterator
    /// (consumes exactly the tree's lines).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseModelError`] on any malformed or truncated input.
    pub fn from_lines<'a>(
        lines: &mut std::iter::Peekable<impl Iterator<Item = (usize, &'a str)>>,
    ) -> Result<Self, ParseModelError> {
        let (line_no, header) = lines
            .next()
            .ok_or_else(|| ParseModelError::new(0, "missing tree header"))?;
        let err = |msg: &str| ParseModelError::new(line_no + 1, msg.to_owned());
        let rest = header
            .strip_prefix("tree features=")
            .ok_or_else(|| err("expected 'tree features=...'"))?;
        let (features_s, nodes_s) = rest
            .split_once(" nodes=")
            .ok_or_else(|| err("expected 'nodes=...'"))?;
        let num_features: usize = features_s.parse().map_err(|_| err("bad feature count"))?;
        let node_count: usize = nodes_s.trim().parse().map_err(|_| err("bad node count"))?;
        if node_count == 0 {
            return Err(err("trees need at least one node"));
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let (n, line) = lines
                .next()
                .ok_or_else(|| ParseModelError::new(line_no + 1, "truncated tree"))?;
            let lerr = |msg: &str| ParseModelError::new(n + 1, msg.to_owned());
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("leaf") => {
                    let p: f64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| lerr("bad leaf probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(lerr("leaf probability out of [0, 1]"));
                    }
                    nodes.push(Node::Leaf { prob_true: p });
                }
                Some("split") => {
                    let mut next_u32 = || -> Result<u32, ParseModelError> {
                        parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| lerr("bad split field"))
                    };
                    let feature = next_u32()?;
                    let low = next_u32()?;
                    let high = next_u32()?;
                    if feature as usize >= num_features {
                        return Err(lerr("split feature out of range"));
                    }
                    // Children must point strictly forward (the training
                    // order guarantees it); this also rules out cycles in
                    // hand-crafted inputs.
                    let own = nodes.len() as u32;
                    if low as usize >= node_count
                        || high as usize >= node_count
                        || low <= own
                        || high <= own
                    {
                        return Err(lerr("split child out of range"));
                    }
                    nodes.push(Node::Split { feature, low, high });
                }
                _ => return Err(lerr("expected 'leaf' or 'split'")),
            }
        }
        Ok(Self {
            nodes,
            num_features,
            importances: vec![0.0; num_features],
            root_size: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
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
    fn learns_single_feature_rule() {
        let mut d = Dataset::new(4);
        for i in 0..200usize {
            let f2 = i % 2 == 0;
            d.push(&[i % 3 == 0, i % 5 == 0, f2, i % 7 == 0], f2);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &TreeConfig::default(), &mut rng());
        assert!(tree.predict(&pack(&[false, false, true, false])));
        assert!(!tree.predict(&pack(&[true, true, false, true])));
        // A single split suffices: root + two leaves.
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn learns_xor_of_two_features() {
        let mut d = Dataset::new(2);
        for i in 0..400usize {
            let a = (i / 2) % 2 == 0;
            let b = i % 2 == 0;
            d.push(&[a, b], a ^ b);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &TreeConfig::default(), &mut rng());
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(tree.predict(&pack(&[a, b])), a ^ b, "a={a} b={b}");
        }
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let mut d = Dataset::new(3);
        for _ in 0..50 {
            d.push(&[true, false, true], true);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert!(tree.predict(&pack(&[false, false, false])));
    }

    #[test]
    fn depth_limit_is_respected() {
        // Random labels force deep growth unless limited.
        let mut d = Dataset::new(16);
        let mut state = 1u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let features: Vec<bool> = (0..16).map(|b| (state >> b) & 1 == 1).collect();
            d.push(&features, (state >> 60) & 1 == 1);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let cfg = TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&d, &idx, &cfg, &mut rng());
        // Depth 2 means at most 1 + 2 + 4 = 7 nodes.
        assert!(tree.node_count() <= 7, "{} nodes", tree.node_count());
    }

    #[test]
    fn probability_reflects_class_mixture() {
        let mut d = Dataset::new(1);
        // Feature tells nothing; 75% positive.
        for i in 0..100 {
            d.push(&[false], i % 4 != 0);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &TreeConfig::default(), &mut rng());
        let p = tree.predict_prob(&pack(&[false]));
        assert!((p - 0.75).abs() < 1e-9, "{p}");
    }

    #[test]
    fn feature_subsampling_still_learns_strong_signal() {
        let mut d = Dataset::new(32);
        let mut state = 99u64;
        for _ in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(17);
            let features: Vec<bool> = (0..32).map(|b| (state >> b) & 1 == 1).collect();
            let label = features[20];
            d.push(&features, label);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let cfg = TreeConfig {
            feature_subsample: Some(6),
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&d, &idx, &cfg, &mut rng());
        // With depth available, even subsampled trees find the feature
        // eventually; check training accuracy instead of structure.
        let correct = (0..d.len())
            .filter(|&i| tree.predict(d.sample(i)) == d.label(i))
            .count();
        assert!(correct as f64 / d.len() as f64 > 0.9);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let d = Dataset::new(1);
        let _ = DecisionTree::fit(&d, &[], &TreeConfig::default(), &mut rng());
    }
}
