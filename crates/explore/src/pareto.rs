//! Pareto-front container with deterministic, insertion-order-invariant
//! semantics.
//!
//! A [`ParetoFront`] holds mutually non-dominated entries. The surviving
//! *set* is a pure function of the inserted multiset: an entry survives
//! iff no inserted entry strictly dominates it (strict dominance is a
//! strict partial order, so survivors are exactly the maximal elements),
//! and exact duplicates — same key *and* bit-identical objectives — are
//! kept once. Emission order is the total lexicographic objective order
//! with the entry key as tie-break, so two fronts built from the same
//! entries in any order render identically, byte for byte.

use isa_metrics::ObjectiveVector;

/// One non-dominated entry: an objective vector plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEntry<T> {
    /// The entry's objective values (all minimized).
    pub objectives: ObjectiveVector,
    /// Stable identity used for deduplication and deterministic
    /// tie-breaking (e.g. a design-point label).
    pub key: String,
    /// Arbitrary payload carried alongside.
    pub payload: T,
}

/// A set of mutually non-dominated entries (see the module docs for the
/// exact survival and ordering semantics).
///
/// # Examples
///
/// ```
/// use isa_explore::{FrontEntry, ParetoFront};
/// use isa_metrics::ObjectiveVector;
///
/// let mut front = ParetoFront::new();
/// front.insert(FrontEntry {
///     objectives: ObjectiveVector::new(1.0, 300.0, 50.0),
///     key: "slow".into(),
///     payload: (),
/// });
/// front.insert(FrontEntry {
///     objectives: ObjectiveVector::new(1.0, 270.0, 50.0),
///     key: "fast".into(),
///     payload: (),
/// });
/// // The faster entry dominates the slower one.
/// assert_eq!(front.len(), 1);
/// assert_eq!(front.entries()[0].key, "fast");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront<T> {
    entries: Vec<FrontEntry<T>>,
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ParetoFront<T> {
    /// Creates an empty front.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Inserts an entry, keeping the front mutually non-dominated.
    /// Returns `true` if the entry joined the front (`false` if it was
    /// dominated by an incumbent or is an exact duplicate).
    pub fn insert(&mut self, entry: FrontEntry<T>) -> bool {
        for incumbent in &self.entries {
            if incumbent.objectives.dominates(&entry.objectives) {
                return false;
            }
            if incumbent.key == entry.key
                && objective_bits(&incumbent.objectives) == objective_bits(&entry.objectives)
            {
                return false;
            }
        }
        self.entries
            .retain(|incumbent| !entry.objectives.dominates(&incumbent.objectives));
        let at = self.entries.partition_point(|incumbent| {
            entry_order(incumbent, &entry) == std::cmp::Ordering::Less
        });
        self.entries.insert(at, entry);
        true
    }

    /// The entries in deterministic order (lexicographic objectives, then
    /// key).
    #[must_use]
    pub fn entries(&self) -> &[FrontEntry<T>] {
        &self.entries
    }

    /// Number of entries on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the front is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if some entry strictly dominates the given vector.
    #[must_use]
    pub fn dominates(&self, objectives: &ObjectiveVector) -> bool {
        self.entries
            .iter()
            .any(|e| e.objectives.dominates(objectives))
    }
}

/// Bit patterns of the components, for exact-duplicate detection.
fn objective_bits(v: &ObjectiveVector) -> [u64; 3] {
    let [e, d, j] = v.components();
    [e.to_bits(), d.to_bits(), j.to_bits()]
}

/// The deterministic emission order.
fn entry_order<T>(a: &FrontEntry<T>, b: &FrontEntry<T>) -> std::cmp::Ordering {
    a.objectives
        .lex_cmp(&b.objectives)
        .then_with(|| a.key.cmp(&b.key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, e: f64, d: f64, j: f64) -> FrontEntry<u32> {
        FrontEntry {
            objectives: ObjectiveVector::new(e, d, j),
            key: key.to_owned(),
            payload: 0,
        }
    }

    #[test]
    fn dominated_insertions_are_rejected_and_dominators_evict() {
        let mut front = ParetoFront::new();
        assert!(front.insert(entry("a", 1.0, 1.0, 1.0)));
        assert!(!front.insert(entry("b", 2.0, 1.0, 1.0)), "dominated");
        assert!(front.insert(entry("c", 0.5, 0.5, 0.5)), "dominates a");
        assert_eq!(front.len(), 1);
        assert_eq!(front.entries()[0].key, "c");
    }

    #[test]
    fn incomparable_entries_coexist_in_lex_order() {
        let mut front = ParetoFront::new();
        front.insert(entry("high-acc", 0.1, 300.0, 80.0));
        front.insert(entry("fast", 1.0, 255.0, 80.0));
        front.insert(entry("cheap", 1.0, 300.0, 20.0));
        assert_eq!(front.len(), 3);
        let keys: Vec<&str> = front.entries().iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["high-acc", "fast", "cheap"]);
    }

    #[test]
    fn objective_ties_keep_both_unless_exact_duplicates() {
        let mut front = ParetoFront::new();
        assert!(front.insert(entry("x", 1.0, 2.0, 3.0)));
        // Same objectives, different key: neither dominates — both stay,
        // ordered by key.
        assert!(front.insert(entry("w", 1.0, 2.0, 3.0)));
        assert_eq!(front.len(), 2);
        assert_eq!(front.entries()[0].key, "w");
        // Exact duplicate (same key and objectives): idempotent.
        assert!(!front.insert(entry("x", 1.0, 2.0, 3.0)));
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn dominates_query() {
        let mut front = ParetoFront::new();
        front.insert(entry("a", 1.0, 2.0, 3.0));
        assert!(front.dominates(&ObjectiveVector::new(1.0, 2.0, 4.0)));
        assert!(!front.dominates(&ObjectiveVector::new(1.0, 2.0, 3.0)));
        assert!(!front.dominates(&ObjectiveVector::new(0.5, 9.0, 9.0)));
    }
}
