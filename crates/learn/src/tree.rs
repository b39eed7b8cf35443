//! CART decision trees over binary features (Gini impurity), grown at the
//! predictor's fixed limits: depth at most [`MAX_DEPTH`], no split below
//! [`MIN_SAMPLES_SPLIT`] members, and `⌈√F⌉` random candidate features
//! per split (scikit-learn's classification default).
//!
//! "DT considers the joint effects of different bit positions but could
//! incur overfitting problem" — the forest in [`crate::forest`] addresses
//! that; this module provides the underlying learner.
//!
//! Growth is bit-parallel over samples. A node's membership is a list of
//! the non-zero words of a bitmask over the samples of its *frame*, the
//! set of feature planes it grows on. Each member word also carries its
//! positive members, so a candidate split's sides are counted with two
//! popcounts against one feature plane and no label plane is read while
//! scanning. Every node is handed its `(total, positives)` by its parent's
//! winning split (the root counts once), so no node recounts its labels,
//! leaves included, and a child that will be a leaf gets no member list.
//!
//! The root's frame is the dataset's own planes. Each split keeps about
//! half the members of every word, so deep nodes hold only a few members
//! per word and their scans visit many more words than their members
//! would fill densely. When a node of at least `REPACK_MIN_MEMBERS` (128)
//! members has more than `REPACK_FACTOR` (8) times as many member words
//! as dense words, growth *re-packs* it: it gathers the members' rows
//! from the [`Dataset`]'s row-major store, turns them into dense local
//! planes with 64×64 bit transposes, and grows the subtree on that new
//! frame, which maps its samples back to the dataset's so that a deeper
//! node can re-pack again. Re-packing changes only where members sit,
//! never what a scan counts, so random draws, candidate order, split
//! choice and leaf probabilities are those of growth without it;
//! `tree/reference.rs` keeps that grower as the test oracle.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use isa_core::batch::transpose64;

use crate::dataset::{packed_feature, Dataset};
use crate::serialize::ParseModelError;

#[cfg(test)]
mod reference;

/// A node is re-packed when its member words exceed this multiple of the
/// words its members fill densely. Chosen from a sweep over the figures'
/// 36 prediction cells (BENCHMARKS.md, "Re-pack threshold sweep"):
/// factors from 4 to 16 fit them equally fast within the host's noise, 2
/// re-packs 3.3× the rows of 8, and 32 scans nearly as many words as
/// growth without re-packing.
const REPACK_FACTOR: usize = 8;

/// Nodes with fewer members are never re-packed (64 and 256 measured the
/// same as 128 at factor 8).
const REPACK_MIN_MEMBERS: usize = 128;

/// Maximum tree depth (the root is depth 0).
const MAX_DEPTH: u32 = 12;

/// Nodes with fewer members are leaves.
const MIN_SAMPLES_SPLIT: usize = 8;

/// Candidate features per split over `num_features` features: `⌈√F⌉`.
fn candidate_count(num_features: usize) -> usize {
    (num_features as f64).sqrt().ceil() as usize
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
pub(crate) struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
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
    /// Word index into the frame's bit-planes.
    word: u32,
    /// Member samples within that word.
    bits: u64,
    /// The positive members among `bits`.
    pos: u64,
}

/// The planes a subtree grows on: the dataset's own, or a dense copy of
/// one re-packed node's members.
struct Frame<'a> {
    /// One bit-plane per feature over the frame's samples.
    planes: Vec<&'a [u64]>,
    /// The dataset sample behind each frame sample; `None` when the frame
    /// is the dataset itself.
    samples: Option<&'a [u32]>,
}

/// The storage of a re-packed frame: the members' dataset samples in
/// member order, their planes (feature `f`'s plane at
/// `f * words..(f + 1) * words`) and their labels as a bit-plane.
struct Packed {
    samples: Vec<u32>,
    planes: Vec<u64>,
    labels: Vec<u64>,
    words: usize,
}

impl Packed {
    /// Gathers the `total` members listed in `members` (words of `frame`)
    /// from the dataset's row store into dense planes.
    fn gather(frame: &Frame<'_>, members: &[MaskWord], total: usize, dataset: &Dataset) -> Self {
        let words = total.div_ceil(64);
        let mut samples = Vec::with_capacity(total);
        let mut labels = vec![0u64; words];
        for m in members {
            let mut bits = m.bits;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                let local = m.word as usize * 64 + bit as usize;
                let k = samples.len();
                labels[k / 64] |= ((m.pos >> bit) & 1) << (k % 64);
                samples.push(frame.samples.map_or(local as u32, |s| s[local]));
                bits &= bits - 1;
            }
        }
        // One 64×64 block per 64 members and 64 features: rows in, planes
        // out.
        let (rows, words_per_sample) = (dataset.rows(), dataset.words_per_sample());
        let num_features = dataset.num_features();
        let mut planes = vec![0u64; num_features * words];
        let mut block = [0u64; 64];
        for (word, chunk) in samples.chunks(64).enumerate() {
            for group in 0..words_per_sample {
                for (slot, &sample) in block.iter_mut().zip(chunk) {
                    *slot = rows[sample as usize * words_per_sample + group];
                }
                block[chunk.len()..].fill(0);
                transpose64(&mut block);
                let features = (num_features - group * 64).min(64);
                let column = planes[group * 64 * words + word..]
                    .iter_mut()
                    .step_by(words);
                for (bits, &plane_word) in column.zip(&block[..features]) {
                    *bits = plane_word;
                }
            }
        }
        Self {
            samples,
            planes,
            labels,
            words,
        }
    }

    /// The frame this storage backs.
    fn frame(&self) -> Frame<'_> {
        Frame {
            planes: self.planes.chunks_exact(self.words).collect(),
            samples: Some(&self.samples),
        }
    }

    /// The member words of all `total` gathered samples.
    fn members(&self, total: usize) -> impl Iterator<Item = MaskWord> + '_ {
        self.labels
            .iter()
            .enumerate()
            .map(move |(word, &pos)| MaskWord {
                word: word as u32,
                bits: u64::MAX >> (64 * (word + 1)).saturating_sub(total),
                pos,
            })
    }
}

/// Whether a node of `total` members, `positives` of them positive, at
/// `depth` is a leaf (pure, too deep or too small to split).
fn is_leaf(total: usize, positives: usize, depth: u32) -> bool {
    positives == 0 || positives == total || depth >= MAX_DEPTH || total < MIN_SAMPLES_SPLIT
}

/// Leaves in `items` what [`shuffle`](rand::seq::SliceRandom::shuffle) followed by
/// `truncate(keep)` would, with the same draws. Fisher–Yates fills slots
/// from the back, so once a draw at `i >= keep` has moved the entry at `i`
/// into slot `j`, slot `i` is never read again and needs no write.
fn shuffle_prefix(items: &mut Vec<u32>, keep: usize, rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        if i >= keep {
            items[j] = items[i];
        } else {
            items.swap(i, j);
        }
    }
    items.truncate(keep);
}

/// State shared by one tree's recursive growth: the member-word list every
/// node's span indexes into, and the reused candidate-feature buffer.
struct Growth<'a> {
    dataset: &'a Dataset,
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
    /// its mask, and a fragmented node is re-packed densely (see the
    /// module docs), so deep nodes cost about their member count rather
    /// than the dataset length. Duplicate indices collapse into the
    /// membership mask (the forest bags without replacement).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or holds an index not below
    /// `dataset.len()`, or if the dataset has more than `u32::MAX` samples.
    pub(crate) fn fit(dataset: &Dataset, indices: &[usize], rng: &mut StdRng) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        // Re-packed frames name their samples with `u32`s.
        assert!(
            u32::try_from(dataset.len()).is_ok(),
            "datasets over u32::MAX samples are not supported"
        );
        let mut mask = vec![0u64; dataset.len().div_ceil(64)];
        for &i in indices {
            assert!(i < dataset.len(), "sample {i} out of range");
            mask[i / 64] |= 1u64 << (i % 64);
        }
        let words: Vec<MaskWord> = mask
            .iter()
            .zip(dataset.label_plane())
            .enumerate()
            .filter(|&(_, (&bits, _))| bits != 0)
            .map(|(word, (&bits, &labels))| MaskWord {
                word: word as u32,
                bits,
                pos: bits & labels,
            })
            .collect();
        let total: usize = words.iter().map(|m| m.bits.count_ones() as usize).sum();
        let positives: usize = words.iter().map(|m| m.pos.count_ones() as usize).sum();
        let num_features = dataset.num_features();
        let mut tree = Self {
            nodes: Vec::new(),
            num_features,
        };
        let frame = Frame {
            planes: (0..num_features)
                .map(|f| dataset.feature_plane(f))
                .collect(),
            samples: None,
        };
        let root_words = words.len();
        let mut growth = Growth {
            dataset,
            rng,
            words,
            candidates: Vec::with_capacity(num_features),
        };
        tree.grow(&mut growth, &frame, 0..root_words, total, positives, 0);
        tree
    }

    /// Grows the subtree over the `total` members (`positives` of them
    /// positive) listed in `growth.words[span]`, returning its node id:
    /// a leaf, or a split grown on `frame` or, when the members are
    /// fragmented, on a re-packed copy of them.
    fn grow(
        &mut self,
        growth: &mut Growth<'_>,
        frame: &Frame<'_>,
        span: Range<usize>,
        total: usize,
        positives: usize,
        depth: u32,
    ) -> u32 {
        if is_leaf(total, positives, depth) {
            return self.push_leaf(positives as f64 / total as f64);
        }
        if total >= REPACK_MIN_MEMBERS && span.len() > REPACK_FACTOR * total.div_ceil(64) {
            #[cfg(test)]
            tests::REPACKS.with(|n| n.set(n.get() + 1));
            let packed = Packed::gather(frame, &growth.words[span], total, growth.dataset);
            let start = growth.words.len();
            growth.words.extend(packed.members(total));
            let end = growth.words.len();
            let id = self.split(growth, &packed.frame(), start..end, total, positives, depth);
            growth.words.truncate(start);
            return id;
        }
        self.split(growth, frame, span, total, positives, depth)
    }

    /// Splits a non-leaf node on its best candidate feature and grows both
    /// children. Children's member words are appended past the current
    /// end of the shared list and truncated away once both subtrees are
    /// grown.
    fn split(
        &mut self,
        growth: &mut Growth<'_>,
        frame: &Frame<'_>,
        span: Range<usize>,
        total: usize,
        positives: usize,
        depth: u32,
    ) -> u32 {
        // Candidate features: a random subset (random-forest style). The
        // buffer restarts from `0..F` at every node, so the shuffle draws
        // and permutes exactly as on a fresh list.
        let candidates = &mut growth.candidates;
        let num_features = growth.dataset.num_features();
        candidates.clear();
        candidates.extend(0..num_features as u32);
        shuffle_prefix(candidates, candidate_count(num_features), growth.rng);

        let members = &growth.words[span.clone()];
        let parent_gini = gini(positives as f64, total as f64);
        // (gain, feature, high-side total, high-side positives)
        let mut best: Option<(f64, u32, usize, usize)> = None;
        for &f in candidates.iter() {
            let plane = frame.planes[f as usize];
            let mut high_total = 0usize;
            let mut high_pos = 0usize;
            for m in members {
                let p = plane[m.word as usize];
                high_total += (m.bits & p).count_ones() as usize;
                high_pos += (m.pos & p).count_ones() as usize;
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
                Some((best_gain, best_f, ..)) => {
                    gain > best_gain + 1e-12 || (gain > best_gain - 1e-12 && f < best_f)
                }
            };
            if better {
                best = Some((gain, f, high_total, high_pos));
            }
        }

        let Some((_, feature, high_total, high_pos)) = best else {
            return self.push_leaf(positives as f64 / total as f64);
        };

        // Partition: one bitwise AND per side against the chosen feature's
        // plane, keeping each side's non-zero words (low side first). A
        // side that will be a leaf needs no member list.
        let plane = frame.planes[feature as usize];
        let (low_total, low_pos) = (total - high_total, positives - high_pos);
        let low_start = growth.words.len();
        let mut ends = [low_start; 2];
        let sides = [(u64::MAX, low_total, low_pos), (0, high_total, high_pos)];
        for (end, (invert, side_total, side_pos)) in ends.iter_mut().zip(sides) {
            if !is_leaf(side_total, side_pos, depth + 1) {
                for i in span.clone() {
                    let m = growth.words[i];
                    let side = plane[m.word as usize] ^ invert;
                    if m.bits & side != 0 {
                        growth.words.push(MaskWord {
                            word: m.word,
                            bits: m.bits & side,
                            pos: m.pos & side,
                        });
                    }
                }
            }
            *end = growth.words.len();
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf { prob_true: 0.0 }); // placeholder
        let low = self.grow(
            growth,
            frame,
            low_start..ends[0],
            low_total,
            low_pos,
            depth + 1,
        );
        let high = self.grow(
            growth,
            frame,
            ends[0]..ends[1],
            high_total,
            high_pos,
            depth + 1,
        );
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
    pub(crate) fn predict_prob(&self, sample: &[u64]) -> f64 {
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
    pub(crate) fn predict(&self, sample: &[u64]) -> bool {
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

    /// Serializes the tree as a line-oriented text block:
    /// `tree features=<F> nodes=<N>` followed by one `leaf <p>` or
    /// `split <feature> <low> <high>` line per node.
    pub(crate) fn to_text(&self) -> String {
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
    pub(crate) fn from_lines<'a>(
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
        })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    use super::*;

    thread_local! {
        /// Re-packs made on this thread, so tests can tell that they
        /// reached re-packed growth.
        pub(super) static REPACKS: Cell<usize> = const { Cell::new(0) };
    }

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

    /// Depth of the deepest leaf (the root is depth 0).
    fn depth(tree: &DecisionTree) -> u32 {
        let mut deepest = 0;
        let mut stack = vec![(0u32, 0u32)];
        while let Some((node, d)) = stack.pop() {
            deepest = deepest.max(d);
            if let Node::Split { low, high, .. } = tree.nodes[node as usize] {
                stack.extend([(low, d + 1), (high, d + 1)]);
            }
        }
        deepest
    }

    #[test]
    fn learns_single_feature_rule() {
        // Two features, so every split examines both (`⌈√2⌉ = 2`).
        let mut d = Dataset::new(2);
        for i in 0..200usize {
            let f1 = i % 2 == 0;
            d.push(&[i % 3 == 0, f1], f1);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &mut rng());
        assert!(tree.predict(&pack(&[false, true])));
        assert!(!tree.predict(&pack(&[true, false])));
        // A single split suffices: root + two leaves.
        assert_eq!(tree.nodes.len(), 3);
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
        let tree = DecisionTree::fit(&d, &idx, &mut rng());
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
        let tree = DecisionTree::fit(&d, &idx, &mut rng());
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.predict(&pack(&[false, false, false])));
    }

    #[test]
    fn depth_limit_is_respected() {
        // Random labels force deep growth unless limited.
        let mut d = Dataset::new(16);
        let mut state = 1u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let features: Vec<bool> = (0..16).map(|b| (state >> b) & 1 == 1).collect();
            d.push(&features, (state >> 60) & 1 == 1);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &mut rng());
        assert_eq!(depth(&tree), MAX_DEPTH);
    }

    #[test]
    fn probability_reflects_class_mixture() {
        let mut d = Dataset::new(1);
        // Feature tells nothing; 75% positive.
        for i in 0..100 {
            d.push(&[false], i % 4 != 0);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &mut rng());
        let p = tree.predict_prob(&pack(&[false]));
        assert!((p - 0.75).abs() < 1e-9, "{p}");
    }

    #[test]
    fn feature_subsampling_still_learns_strong_signal() {
        // 32 features: 6 candidates per split.
        let mut d = Dataset::new(32);
        let mut state = 99u64;
        for _ in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(17);
            let features: Vec<bool> = (0..32).map(|b| (state >> b) & 1 == 1).collect();
            let label = features[20];
            d.push(&features, label);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let tree = DecisionTree::fit(&d, &idx, &mut rng());
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
        let _ = DecisionTree::fit(&d, &[], &mut rng());
    }

    #[test]
    fn shuffle_prefix_equals_a_truncated_shuffle() {
        for (len, keep) in [(1, 1), (2, 1), (12, 12), (130, 12), (130, 129), (200, 15)] {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut drawn: Vec<u32> = (0..len).collect();
                shuffle_prefix(&mut drawn, keep, &mut rng);
                let mut shuffled_rng = StdRng::seed_from_u64(seed);
                let mut shuffled: Vec<u32> = (0..len).collect();
                shuffled.shuffle(&mut shuffled_rng);
                shuffled.truncate(keep);
                assert_eq!(drawn, shuffled, "len {len}, keep {keep}, seed {seed}");
                assert_eq!(rng, shuffled_rng, "len {len}, keep {keep}, seed {seed}");
            }
        }
    }

    /// A seeded random dataset: features of mixed density, constant
    /// features and exact duplicates (for useless splits and gain ties),
    /// and labels that are all negative (`labels` 0), one positive (1),
    /// 5 % (2) or 50 % (3) positive, or all positive (4).
    fn random_dataset(len: usize, features: usize, labels: u8, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let words = len.div_ceil(64);
        let mut planes: Vec<Vec<u64>> = Vec::with_capacity(features);
        for f in 0..features {
            let plane = match rng.next_u64() % 8 {
                0 if f > 0 => planes[rng.gen_range(0..f)].clone(),
                1 => vec![0; words],
                2 => vec![u64::MAX; words],
                3 => (0..words)
                    .map(|_| rng.next_u64() & rng.next_u64() & rng.next_u64())
                    .collect(),
                4 => (0..words)
                    .map(|_| rng.next_u64() | rng.next_u64())
                    .collect(),
                _ => (0..words).map(|_| rng.next_u64()).collect(),
            };
            planes.push(plane);
        }
        let mut label_plane = vec![0u64; words];
        for i in 0..len {
            let positive = match labels {
                0 => false,
                1 => i == len / 3,
                2 => rng.next_u64() % 20 == 0,
                3 => rng.next_u64() % 2 == 0,
                _ => true,
            };
            label_plane[i / 64] |= u64::from(positive) << (i % 64);
        }
        Dataset::from_planes(planes, label_plane, len)
    }

    /// Fits one case with production growth and with the reference grower
    /// and asserts identical trees (node for node) and identical RNG
    /// states afterwards.
    fn assert_growth_matches_reference(
        len: usize,
        features: usize,
        labels: u8,
        seed: u64,
        keep_per_mille: usize,
    ) {
        let dataset = random_dataset(len, features, labels, seed);
        let mut indices: Vec<usize> = (0..len).collect();
        let mut bag_rng = StdRng::seed_from_u64(seed ^ 0xBA6);
        indices.shuffle(&mut bag_rng);
        indices.truncate((len * keep_per_mille / 1000).max(1));
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        let mut reference_rng = rng.clone();
        let tree = DecisionTree::fit(&dataset, &indices, &mut rng);
        let want = reference::fit(&dataset, &indices, &mut reference_rng);
        let case = format!(
            "len {len}, features {features}, labels {labels}, seed {seed:#x}, {} indices",
            indices.len()
        );
        assert_eq!(tree, want, "{case}");
        assert_eq!(rng, reference_rng, "{case}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Production growth builds the reference grower's trees on
        /// datasets of ragged sizes, 1–200 features and every label
        /// density.
        #[test]
        fn growth_matches_the_reference_grower(
            len in 1usize..=2_500,
            features in 1usize..=200,
            labels in 0u8..5,
            seed in any::<u64>(),
            keep_per_mille in 1usize..=1_000,
        ) {
            assert_growth_matches_reference(len, features, labels, seed, keep_per_mille);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The same at sizes up to 20,000 samples, where fragmented nodes
        /// cross the re-pack threshold (and nested re-packs occur).
        #[test]
        fn repacked_growth_matches_the_reference_grower(
            len in 4_000usize..=20_000,
            features in 16usize..=200,
            labels in 2u8..4,
            seed in any::<u64>(),
            keep_per_mille in 500usize..=1_000,
        ) {
            let before = REPACKS.with(Cell::get);
            assert_growth_matches_reference(len, features, labels, seed, keep_per_mille);
            prop_assert!(
                REPACKS.with(Cell::get) > before,
                "no re-pack at {len} samples, {features} features"
            );
        }
    }
}
