//! Per-instance delay annotation (the SDF content) and process variation.
//!
//! The paper extracts a Standard Delay Format file from synthesis and runs
//! delay-annotated gate-level simulation. Here, a [`DelayAnnotation`] holds
//! one propagation delay per cell instance, derived from the library's
//! intrinsic + load model and optionally perturbed by a deterministic
//! Gaussian process-variation model (seeded, reproducible) that stands in
//! for the PVT spread of a real die.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cell::CellLibrary;
use crate::graph::{CellId, Netlist};

/// Femtoseconds per picosecond — the resolution both the event-driven
/// simulators and the timing classifier keep time in.
pub const FS_PER_PS: f64 = 1000.0;

/// Converts picoseconds to integer femtoseconds (rounded).
///
/// Every consumer that compares against simulated event times (the event
/// queues in `isa-timing-sim`, the lane classifier in
/// [`classify`](crate::classify)) must quantize delays through this one
/// function, so that analytically summed path delays are bit-identical to
/// the simulator's accumulated event times.
#[must_use]
pub fn ps_to_fs(ps: f64) -> u64 {
    debug_assert!(ps.is_finite() && ps >= 0.0);
    (ps * FS_PER_PS).round() as u64
}

/// Multiplicative Gaussian process-variation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Relative standard deviation of each instance's delay (e.g. 0.03 for
    /// ±3 % sigma).
    pub sigma: f64,
    /// RNG seed, so annotations are reproducible die samples.
    pub seed: u64,
}

impl VariationModel {
    /// Creates a variation model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    #[must_use]
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0");
        Self { sigma, seed }
    }

    /// No variation: nominal delays.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            sigma: 0.0,
            seed: 0,
        }
    }
}

/// Standard normal sample via Box-Muller (avoids a `rand_distr` dependency).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One propagation delay per cell instance, in picoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayAnnotation {
    delays_ps: Vec<f64>,
}

impl DelayAnnotation {
    /// Nominal annotation: library intrinsic delay plus load-dependent term
    /// from the actual fanout of each instance's output net.
    #[must_use]
    pub fn nominal(netlist: &Netlist, lib: &CellLibrary) -> Self {
        let delays_ps = netlist
            .cells()
            .iter()
            .map(|c| lib.delay_ps(c.kind, netlist.load_count(c.output)))
            .collect();
        Self { delays_ps }
    }

    /// Builds an annotation from raw per-cell delays.
    ///
    /// # Panics
    ///
    /// Panics if any delay is negative or non-finite.
    #[must_use]
    pub fn from_delays(delays_ps: Vec<f64>) -> Self {
        assert!(
            delays_ps.iter().all(|d| d.is_finite() && *d >= 0.0),
            "delays must be finite and non-negative"
        );
        Self { delays_ps }
    }

    /// Builds an annotation from raw per-cell delays **without the
    /// finite/non-negative validation** of [`Self::from_delays`] — the
    /// ingestion point for foreign (SDF-parsed) or fault-injected delay
    /// data that `isa-netlint`'s timing pass validates. Simulators and
    /// STA assume validated delays; lint before use.
    #[must_use]
    pub fn from_delays_unchecked(delays_ps: Vec<f64>) -> Self {
        Self { delays_ps }
    }

    /// Number of annotated instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.delays_ps.len()
    }

    /// True if no instance is annotated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.delays_ps.is_empty()
    }

    /// Delay of one instance in picoseconds.
    #[must_use]
    pub fn delay_ps(&self, cell: CellId) -> f64 {
        self.delays_ps[cell.index()]
    }

    /// All delays, indexed by cell.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.delays_ps
    }

    /// Returns a copy with per-instance Gaussian variation applied on top of
    /// the existing delays (e.g. after area recovery), clamped to ±3 sigma.
    #[must_use]
    pub fn perturbed(&self, variation: &VariationModel) -> Self {
        if variation.sigma == 0.0 {
            return self.clone();
        }
        let mut rng = StdRng::seed_from_u64(variation.seed);
        Self {
            delays_ps: self
                .delays_ps
                .iter()
                .map(|d| {
                    let z = standard_normal(&mut rng).clamp(-3.0, 3.0);
                    d * (1.0 + variation.sigma * z)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetlistBuilder;

    fn small_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.input("b");
        let n1 = b.and2(a, x);
        let n2 = b.xor2(a, n1);
        let n3 = b.or2(n1, n2);
        b.mark_output(n3, "y");
        b.finish().unwrap()
    }

    #[test]
    fn nominal_matches_library_model() {
        let nl = small_netlist();
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib);
        assert_eq!(ann.len(), nl.cell_count());
        for (i, cell) in nl.cells().iter().enumerate() {
            let expected = lib.delay_ps(cell.kind, nl.load_count(cell.output));
            assert_eq!(ann.as_slice()[i], expected);
        }
    }

    #[test]
    fn fanout_affects_annotated_delay() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let x = b.input("b");
        let hot = b.and2(a, x); // will have fanout 3
        let i1 = b.inv(hot);
        let i2 = b.inv(hot);
        let i3 = b.inv(hot);
        let y1 = b.and2(i1, i2);
        let y = b.and2(y1, i3);
        b.mark_output(y, "y");
        let nl = b.finish().unwrap();
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib);
        // The hot AND2 (cell 0) drives 3 loads, the final AND2 drives 1.
        let hot_cell = CellId::from_index(0);
        let last_cell = CellId::from_index(nl.cell_count() - 1);
        assert!(ann.delay_ps(hot_cell) > ann.delay_ps(last_cell));
    }

    #[test]
    fn variation_is_deterministic_per_seed() {
        let nl = small_netlist();
        let lib = CellLibrary::industrial_65nm();
        let v1 = DelayAnnotation::nominal(&nl, &lib).perturbed(&VariationModel::new(0.05, 7));
        let v2 = DelayAnnotation::nominal(&nl, &lib).perturbed(&VariationModel::new(0.05, 7));
        let v3 = DelayAnnotation::nominal(&nl, &lib).perturbed(&VariationModel::new(0.05, 8));
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
    }

    #[test]
    fn variation_stays_within_three_sigma() {
        let nl = small_netlist();
        let lib = CellLibrary::industrial_65nm();
        let nominal = DelayAnnotation::nominal(&nl, &lib);
        let sigma = 0.05;
        let varied = nominal.perturbed(&VariationModel::new(sigma, 99));
        for (v, n) in varied.as_slice().iter().zip(nominal.as_slice()) {
            assert!(*v >= n * (1.0 - 3.0 * sigma) - 1e-9);
            assert!(*v <= n * (1.0 + 3.0 * sigma) + 1e-9);
        }
    }

    #[test]
    fn zero_sigma_is_nominal() {
        let nl = small_netlist();
        let lib = CellLibrary::industrial_65nm();
        let nominal = DelayAnnotation::nominal(&nl, &lib);
        let varied = nominal.perturbed(&VariationModel::nominal());
        assert_eq!(nominal, varied);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_delays_rejects_negative() {
        let _ = DelayAnnotation::from_delays(vec![1.0, -2.0]);
    }

    #[test]
    fn normal_samples_have_sane_moments() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
