//! The explorable design space: structural parameters × clock.
//!
//! A [`DesignPoint`] is one hardware configuration the explorer can
//! realize — an adder design run at a clock-period reduction. The
//! workload is deliberately *not* a point axis: two configurations are
//! only Pareto-comparable under the same input statistics, so a front is
//! always computed for one workload context (see
//! [`EvalMode`](crate::evaluate::EvalMode)) and workload sensitivity is
//! explored by re-running the search per workload.

use isa_core::{paper_designs, quadruple_grid, Design, PAPER_WIDTH};

/// One explorable configuration: a design at a clock-period reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// The structural configuration.
    pub design: Design,
    /// Clock-period reduction (0.0 = the safe synthesis clock).
    pub cpr: f64,
}

impl DesignPoint {
    /// Display label, e.g. `(8,0,0,4)@10%`. The percentage is rounded —
    /// use [`DesignPoint::id`] wherever identity matters.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{:.0}%", self.design, self.cpr * 100.0)
    }

    /// Canonical identity string, e.g. `(8,0,0,4)@0.1`. Collision-free
    /// across distinct points (Rust's shortest-roundtrip float `Display`
    /// is injective per bit pattern), used as the front key and for
    /// candidate lookups.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}@{}", self.design, self.cpr)
    }

    /// True for a *pure-structural* configuration: an inexact design at
    /// the safe clock (approximation without overclocking).
    #[must_use]
    pub fn is_pure_structural(&self) -> bool {
        !self.design.is_exact() && self.cpr == 0.0
    }

    /// True for a *pure-overclocking* configuration: the exact adder past
    /// the safe clock (overclocking without approximation).
    #[must_use]
    pub fn is_pure_overclocking(&self) -> bool {
        self.design.is_exact() && self.cpr > 0.0
    }

    /// True for a *combined* configuration: an inexact design overclocked
    /// past the safe clock — the paper's thesis region.
    #[must_use]
    pub fn is_combined(&self) -> bool {
        !self.design.is_exact() && self.cpr > 0.0
    }
}

/// A materialized design space: the cross product `designs × cprs`.
///
/// Construction is deterministic; [`SpaceSpec::enumerate`] lists points
/// designs-outermost in the stored order (the grids are lexicographic in
/// `(B, S, C, R)`), which is the order of the explorer's candidate list
/// and CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// Operand width of every design in the space.
    pub width: u32,
    /// The structural axis.
    pub designs: Vec<Design>,
    /// The clock axis (clock-period reductions; include 0.0 for the safe
    /// clock so pure-structural baselines exist).
    pub cprs: Vec<f64>,
}

/// The paper's clock axis: safe clock plus 5/10/15 % reductions.
pub const DEFAULT_CPRS: [f64; 4] = [0.0, 0.05, 0.10, 0.15];

impl SpaceSpec {
    /// The paper's twelve designs (eleven ISAs + exact) over the default
    /// clock axis: 48 points.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            width: PAPER_WIDTH,
            designs: paper_designs(),
            cprs: DEFAULT_CPRS.to_vec(),
        }
    }

    /// A compact 32-bit grid around the paper's designs: blocks {8, 16},
    /// SPEC {0, 1, 2, 4, 7}, correction {0, 1}, reduction
    /// {0, 2, 4, 6, 8}, plus the exact baseline — 96 designs × 4 clocks =
    /// 384 points. Large enough that the pre-filter matters, small
    /// enough for a sub-second search.
    #[must_use]
    pub fn compact() -> Self {
        Self::from_grid(
            PAPER_WIDTH,
            &[8, 16],
            &[0, 1, 2, 4, 7],
            &[0, 1],
            &[0, 2, 4, 6, 8],
        )
    }

    /// The full valid non-overlapping structural space for `width` (every
    /// block size dividing the width, every SPEC window, every
    /// `C + R <= B` compensation pair) over the default clock axis. For
    /// 32-bit adders this is 21,619 designs and 86,476 points, explored
    /// exhaustively like the smaller spaces.
    #[must_use]
    pub fn full(width: u32) -> Self {
        let designs: Vec<Design> = isa_core::enumerate_quadruples(width)
            .into_iter()
            .map(Design::Isa)
            .chain([Design::Exact { width }])
            .collect();
        Self {
            width,
            designs,
            cprs: DEFAULT_CPRS.to_vec(),
        }
    }

    /// A space from explicit parameter-axis grids (plus the exact
    /// baseline) over the default clock axis.
    #[must_use]
    pub fn from_grid(
        width: u32,
        blocks: &[u32],
        specs: &[u32],
        corrections: &[u32],
        reductions: &[u32],
    ) -> Self {
        let designs: Vec<Design> = quadruple_grid(width, blocks, specs, corrections, reductions)
            .into_iter()
            .map(Design::Isa)
            .chain([Design::Exact { width }])
            .collect();
        Self {
            width,
            designs,
            cprs: DEFAULT_CPRS.to_vec(),
        }
    }

    /// Number of points in the space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.designs.len() * self.cprs.len()
    }

    /// True if the space has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All points, designs outermost, in deterministic order.
    #[must_use]
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &design in &self.designs {
            for &cpr in &self.cprs {
                out.push(DesignPoint { design, cpr });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_has_48_points_with_baselines() {
        let space = SpaceSpec::paper();
        assert_eq!(space.len(), 48);
        let points = space.enumerate();
        assert_eq!(points.len(), 48);
        assert!(points.iter().any(DesignPoint::is_pure_structural));
        assert!(points.iter().any(DesignPoint::is_pure_overclocking));
        assert!(points.iter().any(DesignPoint::is_combined));
        // The exact adder at the safe clock is none of the three classes.
        let baseline = DesignPoint {
            design: Design::Exact { width: 32 },
            cpr: 0.0,
        };
        assert!(!baseline.is_pure_structural());
        assert!(!baseline.is_pure_overclocking());
        assert!(!baseline.is_combined());
    }

    #[test]
    fn compact_space_matches_its_documented_size() {
        let space = SpaceSpec::compact();
        // B=8: S×C×R with C+R<=8 → 5×(5+4) = 45; B=16: 5×2×5 = 50; +exact.
        assert_eq!(space.designs.len(), 45 + 50 + 1);
        assert_eq!(space.len(), 96 * 4);
    }

    #[test]
    fn full_space_contains_compact_and_paper() {
        let full = SpaceSpec::full(32);
        for d in SpaceSpec::paper().designs {
            assert!(full.designs.contains(&d), "{d} missing");
        }
        assert!(full.designs.len() > 500);
    }

    #[test]
    fn enumeration_is_deterministic_and_labels_are_stable() {
        let a = SpaceSpec::compact().enumerate();
        let b = SpaceSpec::compact().enumerate();
        assert_eq!(a, b);
        let p = DesignPoint {
            design: Design::Isa(isa_core::IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
            cpr: 0.10,
        };
        assert_eq!(p.label(), "(8,0,0,4)@10%");
    }
}
