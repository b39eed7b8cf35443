//! The twelve adder designs evaluated in the paper (Section V.A).
//!
//! "Twelve different ISA designs have been selected from \[17\], they are the
//! best implementations fitting the 0.3 ns timing constraints. All ISA have
//! regular structures with uniformly sized blocks [...] and are denoted by
//! quadruples of bit-widths: (block size, SPEC size, correction, reduction).
//! They have been confronted to an exact adder, also constrained at 0.3 ns."

use std::fmt;

use crate::adder::{Adder, ExactAdder};
use crate::config::IsaConfig;
use crate::isa::SpeculativeAdder;

/// Operand width of every design evaluated in the paper.
pub const PAPER_WIDTH: u32 = 32;

/// One of the paper's evaluated adder designs: an ISA quadruple or the exact
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// An Inexact Speculative Adder configuration.
    Isa(IsaConfig),
    /// The conventional exact adder of the given width.
    Exact {
        /// Operand width in bits.
        width: u32,
    },
}

impl Design {
    /// Operand width of the design.
    #[must_use]
    pub fn width(&self) -> u32 {
        match self {
            Design::Isa(cfg) => cfg.width(),
            Design::Exact { width } => *width,
        }
    }

    /// Instantiates the behavioural (golden) model of the design.
    #[must_use]
    pub fn behavioural(&self) -> Box<dyn Adder> {
        match self {
            Design::Isa(cfg) => Box::new(SpeculativeAdder::new(*cfg)),
            Design::Exact { width } => Box::new(ExactAdder::new(*width)),
        }
    }

    /// The ISA configuration, if this design is speculative.
    #[must_use]
    pub fn isa_config(&self) -> Option<&IsaConfig> {
        match self {
            Design::Isa(cfg) => Some(cfg),
            Design::Exact { .. } => None,
        }
    }

    /// True for the exact baseline.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, Design::Exact { .. })
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Design::Isa(cfg) => write!(f, "{cfg}"),
            Design::Exact { .. } => write!(f, "exact"),
        }
    }
}

/// The eleven ISA quadruples of Figs. 7–9, in the paper's left-to-right
/// (increasing-accuracy) order.
pub const PAPER_QUADRUPLES: [(u32, u32, u32, u32); 11] = [
    (8, 0, 0, 0),
    (8, 0, 0, 2),
    (8, 0, 0, 4),
    (8, 0, 1, 4),
    (8, 0, 1, 6),
    (16, 0, 0, 0),
    (16, 1, 0, 0),
    (16, 1, 0, 2),
    (16, 2, 0, 4),
    (16, 2, 1, 6),
    (16, 7, 0, 8),
];

/// The eleven ISA configurations of the paper, 32 bits wide.
#[must_use]
pub fn paper_isa_configs() -> Vec<IsaConfig> {
    PAPER_QUADRUPLES
        .iter()
        .map(|&(b, s, c, r)| {
            IsaConfig::new(PAPER_WIDTH, b, s, c, r)
                .expect("paper quadruples are valid by construction")
        })
        .collect()
}

/// All twelve designs of the paper's evaluation: eleven ISAs followed by the
/// exact adder, in figure order.
#[must_use]
pub fn paper_designs() -> Vec<Design> {
    let mut designs: Vec<Design> = paper_isa_configs().into_iter().map(Design::Isa).collect();
    designs.push(Design::Exact { width: PAPER_WIDTH });
    designs
}

/// Every valid ISA configuration on the cross product of the given
/// parameter axes, in deterministic lexicographic `(B, S, C, R)` order.
///
/// Combinations that fail [`IsaConfig`] validation (block not dividing the
/// width, SPEC/correction/reduction wider than a block) are skipped, as are
/// configurations with *overlapping compensation* (`C + R > B`): the
/// paper's designs never overlap, so design-space iteration stays with
/// the designs it describes.
///
/// # Examples
///
/// ```
/// use isa_core::designs::quadruple_grid;
///
/// let grid = quadruple_grid(32, &[8, 16], &[0, 2], &[0, 1], &[0, 4]);
/// assert!(grid.iter().all(|c| c.width() == 32));
/// // 2 blocks x 2 specs x 2 corrections x 2 reductions, all valid here.
/// assert_eq!(grid.len(), 16);
/// ```
#[must_use]
pub fn quadruple_grid(
    width: u32,
    blocks: &[u32],
    specs: &[u32],
    corrections: &[u32],
    reductions: &[u32],
) -> Vec<IsaConfig> {
    let mut out = Vec::new();
    for &b in blocks {
        for &s in specs {
            for &c in corrections {
                for &r in reductions {
                    if c + r > b {
                        continue;
                    }
                    if let Ok(cfg) = IsaConfig::new(width, b, s, c, r) {
                        out.push(cfg);
                    }
                }
            }
        }
    }
    out
}

/// Every valid non-overlapping ISA configuration for `width`: all block
/// sizes dividing the width, all SPEC windows `0..=B`, and all
/// correction/reduction pairs with `C + R <= B`, lexicographic in
/// `(B, S, C, R)`. This is the explorer's "full" structural space.
///
/// The walk visits only the quadruples it keeps (21,618 at width 32), in
/// the order [`quadruple_grid`] yields over the full axes.
#[must_use]
pub fn enumerate_quadruples(width: u32) -> Vec<IsaConfig> {
    if width > IsaConfig::MAX_WIDTH {
        return Vec::new();
    }
    let mut out = Vec::new();
    for b in (1..=width).filter(|b| width.is_multiple_of(*b)) {
        for s in 0..=b {
            for c in 0..=b {
                for r in 0..=b - c {
                    out.push(
                        IsaConfig::new(width, b, s, c, r).expect("quadruple within its block"),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_designs_with_exact_last() {
        let designs = paper_designs();
        assert_eq!(designs.len(), 12);
        assert!(designs[11].is_exact());
        assert!(designs[..11].iter().all(|d| !d.is_exact()));
    }

    #[test]
    fn quadruples_match_the_paper_order() {
        let designs = paper_designs();
        assert_eq!(designs[0].to_string(), "(8,0,0,0)");
        assert_eq!(designs[2].to_string(), "(8,0,0,4)");
        assert_eq!(designs[10].to_string(), "(16,7,0,8)");
        assert_eq!(designs[11].to_string(), "exact");
    }

    #[test]
    fn all_paper_designs_are_32_bits() {
        for d in paper_designs() {
            assert_eq!(d.width(), 32);
        }
    }

    #[test]
    fn behavioural_models_instantiate_and_add() {
        for d in paper_designs() {
            let adder = d.behavioural();
            // Sanity: adding zero to zero is always exact.
            assert_eq!(adder.add(0, 0), 0, "design {d}");
            assert_eq!(adder.width(), 32);
        }
    }

    #[test]
    fn isa_config_accessor() {
        let designs = paper_designs();
        assert!(designs[0].isa_config().is_some());
        assert!(designs[11].isa_config().is_none());
    }

    #[test]
    fn quadruple_grid_skips_invalid_and_overlapping() {
        // Block 12 does not divide 32; S=9 > B=8; C+R > B combinations are
        // excluded even when individually valid.
        let grid = quadruple_grid(32, &[8, 12], &[0, 9], &[0, 4], &[0, 6]);
        assert!(grid.iter().all(|c| c.block_size() == 8));
        assert!(grid.iter().all(|c| c.spec_size() == 0));
        assert!(grid
            .iter()
            .all(|c| c.correction() + c.reduction() <= c.block_size()));
        // (8,0,0,0), (8,0,0,6), (8,0,4,0) — but not (8,0,4,6).
        assert_eq!(grid.len(), 3);
    }

    #[test]
    fn quadruple_grid_is_lexicographic_and_deterministic() {
        let grid = quadruple_grid(32, &[16, 8], &[0, 1], &[0], &[0]);
        let quads: Vec<_> = grid.iter().map(IsaConfig::quadruple).collect();
        // Axis order is preserved exactly as given (deterministic).
        assert_eq!(
            quads,
            vec![(16, 0, 0, 0), (16, 1, 0, 0), (8, 0, 0, 0), (8, 1, 0, 0)]
        );
    }

    #[test]
    fn enumerate_quadruples_equals_the_full_axis_grid() {
        // The brute force over every (B, S, C, R) on the full axes is the
        // oracle for the direct walk: same configurations, same order.
        for width in [0u32, 1, 2, 7, 8, 12, 16, 24, 32, 63, 64] {
            let blocks: Vec<u32> = (1..=width).filter(|b| width.is_multiple_of(*b)).collect();
            let axis: Vec<u32> = (0..=width).collect();
            let grid = quadruple_grid(width, &blocks, &axis, &axis, &axis);
            assert_eq!(enumerate_quadruples(width), grid, "width {width}");
        }
        assert_eq!(enumerate_quadruples(32).len(), 21_618);
    }

    #[test]
    fn enumerate_quadruples_covers_the_paper_designs() {
        let all = enumerate_quadruples(32);
        for quad in PAPER_QUADRUPLES {
            assert!(
                all.iter().any(|c| c.quadruple() == quad),
                "{quad:?} missing from the full space"
            );
        }
        // Every entry is valid and non-overlapping by construction.
        assert!(all
            .iter()
            .all(|c| c.correction() + c.reduction() <= c.block_size()));
        // The space is substantial but bounded.
        assert!(all.len() > 500);
    }

    #[test]
    fn block_structures_are_2x16_or_4x8() {
        for cfg in paper_isa_configs() {
            let paths = cfg.num_paths();
            assert!(paths == 2 || paths == 4, "paper uses 2x16 or 4x8 blocks");
        }
    }
}
