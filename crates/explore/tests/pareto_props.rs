//! Property tests of the Pareto-front container and its dominance order:
//! dominance is a strict partial order (irreflexive, antisymmetric,
//! transitive), and the emitted front is invariant under insertion order.

use isa_explore::{FrontEntry, ParetoFront};
use isa_metrics::ObjectiveVector;
use proptest::prelude::*;

/// Small integer-valued components so random vectors frequently tie and
/// dominate each other (the interesting cases).
fn vector_from(seed: (u8, u8, u8)) -> ObjectiveVector {
    ObjectiveVector::new(
        f64::from(seed.0 % 5),
        f64::from(seed.1 % 5),
        f64::from(seed.2 % 5),
    )
}

fn entries_from(seeds: &[(u8, u8, u8)]) -> Vec<FrontEntry<usize>> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| FrontEntry {
            objectives: vector_from(s),
            key: format!("p{i}"),
            payload: i,
        })
        .collect()
}

/// Deterministic rendering of a front for equality checks.
fn render(front: &ParetoFront<usize>) -> Vec<(String, [u64; 3])> {
    front
        .entries()
        .iter()
        .map(|e| {
            let [a, b, c] = e.objectives.components();
            (e.key.clone(), [a.to_bits(), b.to_bits(), c.to_bits()])
        })
        .collect()
}

proptest! {
    /// Dominance is irreflexive and antisymmetric.
    #[test]
    fn dominance_antisymmetry(a in any::<(u8, u8, u8)>(), b in any::<(u8, u8, u8)>()) {
        let (va, vb) = (vector_from(a), vector_from(b));
        prop_assert!(!va.dominates(&va));
        prop_assert!(!(va.dominates(&vb) && vb.dominates(&va)));
    }

    /// Dominance is transitive.
    #[test]
    fn dominance_transitivity(
        a in any::<(u8, u8, u8)>(),
        b in any::<(u8, u8, u8)>(),
        c in any::<(u8, u8, u8)>(),
    ) {
        let (va, vb, vc) = (vector_from(a), vector_from(b), vector_from(c));
        if va.dominates(&vb) && vb.dominates(&vc) {
            prop_assert!(va.dominates(&vc));
        }
    }

    /// The emitted front does not depend on insertion order: inserting the
    /// same entries forward, reversed, or rotated yields byte-identical
    /// fronts.
    #[test]
    fn insertion_order_invariance(
        seeds in prop::collection::vec(any::<(u8, u8, u8)>(), 1..24),
        rotation in any::<u8>(),
    ) {
        let entries = entries_from(&seeds);
        let mut forward = ParetoFront::new();
        for e in entries.clone() {
            forward.insert(e);
        }
        let mut reversed = ParetoFront::new();
        for e in entries.iter().rev().cloned() {
            reversed.insert(e);
        }
        let mut rotated = ParetoFront::new();
        let pivot = rotation as usize % entries.len();
        for e in entries[pivot..].iter().chain(&entries[..pivot]).cloned() {
            rotated.insert(e);
        }
        prop_assert_eq!(render(&forward), render(&reversed));
        prop_assert_eq!(render(&forward), render(&rotated));
    }

    /// Front invariant: entries are mutually non-dominated, and every
    /// inserted entry is either on the front or strictly dominated by a
    /// front entry.
    #[test]
    fn front_is_maximal_set(seeds in prop::collection::vec(any::<(u8, u8, u8)>(), 1..24)) {
        let entries = entries_from(&seeds);
        let mut front = ParetoFront::new();
        for e in entries.clone() {
            front.insert(e);
        }
        for (i, a) in front.entries().iter().enumerate() {
            for (j, b) in front.entries().iter().enumerate() {
                if i != j {
                    prop_assert!(!a.objectives.dominates(&b.objectives));
                }
            }
        }
        for e in &entries {
            let on_front = front.entries().iter().any(|f| f.key == e.key);
            prop_assert!(
                on_front || front.dominates(&e.objectives),
                "dropped entry {} is not dominated",
                e.key
            );
        }
    }
}
