//! The tree grower as it was before re-packed growth and inherited
//! counts, kept verbatim (at production growth's limits) as the oracle
//! production growth is tested against: every node scans the dataset's
//! own planes through its member words and recounts its labels.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use super::{candidate_count, gini, DecisionTree, Node, MAX_DEPTH, MIN_SAMPLES_SPLIT};
use crate::dataset::Dataset;

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
    rng: &'a mut StdRng,
    words: Vec<MaskWord>,
    candidates: Vec<u32>,
}

/// Fits a tree on the given sample indices of a dataset.
pub(crate) fn fit(dataset: &Dataset, indices: &[usize], rng: &mut StdRng) -> DecisionTree {
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
    let mut tree = DecisionTree {
        nodes: Vec::new(),
        num_features: dataset.num_features(),
    };
    let root_words = words.len();
    let mut growth = Growth {
        dataset,
        rng,
        words,
        candidates: Vec::with_capacity(dataset.num_features()),
    };
    grow(&mut tree, &mut growth, 0..root_words, total, 0);
    tree
}

/// Recursively grows the subtree over the members listed in
/// `growth.words[span]`, returning its node id. Children's member
/// words are appended past the current end of the shared list and
/// truncated away once both subtrees are grown.
fn grow(
    tree: &mut DecisionTree,
    growth: &mut Growth<'_>,
    span: Range<usize>,
    total: usize,
    depth: u32,
) -> u32 {
    let dataset = growth.dataset;
    let labels = dataset.label_plane();
    let members = &growth.words[span.clone()];
    let positives: usize = members
        .iter()
        .map(|m| (m.bits & labels[m.word as usize]).count_ones() as usize)
        .sum();
    let make_leaf =
        positives == 0 || positives == total || depth >= MAX_DEPTH || total < MIN_SAMPLES_SPLIT;
    if make_leaf {
        return tree.push_leaf(positives as f64 / total as f64);
    }

    // Candidate features: a random subset (random-forest style). The
    // buffer restarts from `0..F` at every node, so the shuffle draws and
    // permutes exactly as on a fresh list.
    let candidates = &mut growth.candidates;
    candidates.clear();
    candidates.extend(0..dataset.num_features() as u32);
    candidates.shuffle(growth.rng);
    candidates.truncate(candidate_count(dataset.num_features()));

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

    let Some((_, feature)) = best else {
        return tree.push_leaf(positives as f64 / total as f64);
    };

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
    let id = tree.nodes.len() as u32;
    tree.nodes.push(Node::Leaf { prob_true: 0.0 }); // placeholder
    let low = grow(tree, growth, low_start..high_start, low_total, depth + 1);
    let high = grow(tree, growth, high_start..high_end, high_total, depth + 1);
    growth.words.truncate(low_start);
    tree.nodes[id as usize] = Node::Split { feature, low, high };
    id
}
