//! # isa-workloads
//!
//! Input-vector generators for adder characterization. The paper
//! characterizes its adders "using a sample of ten million unsigned random
//! inputs"; this crate provides that workload ([`UniformWorkload`]) plus
//! correlated and DSP-flavoured streams used by the extended examples, all
//! deterministic under a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlated;
pub mod signal;
pub mod uniform;

pub use correlated::RandomWalkWorkload;
pub use signal::{AccumulationWorkload, SineWorkload};
pub use uniform::UniformWorkload;

/// A deterministic stream of operand pairs for a `width`-bit adder.
///
/// Implementors are infinite iterators; take as many cycles as the
/// experiment needs.
pub trait Workload: Iterator<Item = (u64, u64)> {
    /// Operand width in bits.
    fn width(&self) -> u32;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Collects `n` operand pairs from a workload.
///
/// # Examples
///
/// ```
/// use isa_workloads::{take_pairs, UniformWorkload};
///
/// let pairs = take_pairs(UniformWorkload::new(32, 42), 1000);
/// assert_eq!(pairs.len(), 1000);
/// assert!(pairs.iter().all(|&(a, b)| a <= u32::MAX as u64 && b <= u32::MAX as u64));
/// ```
#[must_use]
pub fn take_pairs<W: Workload>(workload: W, n: usize) -> Vec<(u64, u64)> {
    workload.take(n).collect()
}

/// The named operand streams that requests and CLI flags select by name
/// (`isa-serve` quality queries, `explore --workload`), in report order.
pub const STREAM_NAMES: [&str; 4] = ["uniform", "walk", "sine", "accumulate"];

/// `cycles` operand pairs of the named stream for a `width`-bit adder,
/// seeded with `seed` — the one mapping from a [`STREAM_NAMES`] entry to
/// its generator and constants. `None` for any other name.
///
/// # Examples
///
/// ```
/// use isa_workloads::{named_stream, take_pairs, UniformWorkload};
///
/// let uniform = named_stream("uniform", 32, 7, 100).unwrap();
/// assert_eq!(uniform, take_pairs(UniformWorkload::new(32, 7), 100));
/// assert!(named_stream("bursty", 32, 7, 100).is_none());
/// ```
#[must_use]
pub fn named_stream(name: &str, width: u32, seed: u64, cycles: usize) -> Option<Vec<(u64, u64)>> {
    Some(match name {
        "uniform" => take_pairs(UniformWorkload::new(width, seed), cycles),
        "walk" => take_pairs(RandomWalkWorkload::new(width, 4096, seed), cycles),
        "sine" => take_pairs(SineWorkload::new(width, 0.013, 0.029, 0.05, seed), cycles),
        "accumulate" => take_pairs(AccumulationWorkload::new(width, 24, seed), cycles),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_pairs_is_deterministic() {
        let a = take_pairs(UniformWorkload::new(32, 7), 100);
        let b = take_pairs(UniformWorkload::new(32, 7), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn every_stream_name_resolves() {
        for name in STREAM_NAMES {
            let pairs = named_stream(name, 32, 7, 64).expect(name);
            assert_eq!(pairs.len(), 64, "{name}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = take_pairs(UniformWorkload::new(32, 7), 100);
        let b = take_pairs(UniformWorkload::new(32, 8), 100);
        assert_ne!(a, b);
    }
}
