//! Design-point configuration for Inexact Speculative Adders.
//!
//! The paper denotes every ISA design by a quadruple of bit-widths
//! `(block size, SPEC size, correction, reduction)`; all the paper's designs
//! are 32-bit adders with uniformly sized blocks. [`IsaConfig`] captures that
//! quadruple plus the adder width. Every design speculates a carry of 0
//! where its lookahead window cannot determine one (cf. Fig. 2: "2-bit
//! carry chains speculated at 0"), so every speculation fault is a missed
//! carry.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Error validating an [`IsaConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The adder width was zero.
    WidthZero,
    /// The adder width exceeded [`IsaConfig::MAX_WIDTH`].
    WidthTooLarge {
        /// Requested width.
        width: u32,
    },
    /// The block size was zero.
    BlockZero,
    /// The block size does not evenly divide the adder width.
    BlockNotDividingWidth {
        /// Requested width.
        width: u32,
        /// Requested block size.
        block_size: u32,
    },
    /// The speculation window is wider than one block.
    SpecLargerThanBlock {
        /// Requested speculation window width.
        spec_size: u32,
        /// Requested block size.
        block_size: u32,
    },
    /// The correction group is wider than one block.
    CorrectionLargerThanBlock {
        /// Requested correction width.
        correction: u32,
        /// Requested block size.
        block_size: u32,
    },
    /// The reduction group is wider than one block.
    ReductionLargerThanBlock {
        /// Requested reduction width.
        reduction: u32,
        /// Requested block size.
        block_size: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::WidthZero => write!(f, "adder width must be non-zero"),
            ConfigError::WidthTooLarge { width } => write!(
                f,
                "adder width {width} exceeds the supported maximum of {}",
                IsaConfig::MAX_WIDTH
            ),
            ConfigError::BlockZero => write!(f, "block size must be non-zero"),
            ConfigError::BlockNotDividingWidth { width, block_size } => write!(
                f,
                "block size {block_size} does not evenly divide adder width {width}"
            ),
            ConfigError::SpecLargerThanBlock {
                spec_size,
                block_size,
            } => write!(
                f,
                "speculation window {spec_size} is wider than block size {block_size}"
            ),
            ConfigError::CorrectionLargerThanBlock {
                correction,
                block_size,
            } => write!(
                f,
                "correction group {correction} is wider than block size {block_size}"
            ),
            ConfigError::ReductionLargerThanBlock {
                reduction,
                block_size,
            } => write!(
                f,
                "reduction group {reduction} is wider than block size {block_size}"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Error parsing an ISA quadruple such as `(8,0,1,4)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQuadrupleError {
    input: String,
    reason: ParseQuadrupleReason,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseQuadrupleReason {
    Shape,
    Int,
    Config(ConfigError),
}

impl fmt::Display for ParseQuadrupleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            ParseQuadrupleReason::Shape => write!(
                f,
                "expected a quadruple of the form (B,S,C,R), got {:?}",
                self.input
            ),
            ParseQuadrupleReason::Int => {
                write!(f, "quadruple {:?} contains a non-integer field", self.input)
            }
            ParseQuadrupleReason::Config(e) => {
                write!(f, "quadruple {:?} is not a valid design: {e}", self.input)
            }
        }
    }
}

impl Error for ParseQuadrupleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.reason {
            ParseQuadrupleReason::Config(e) => Some(e),
            _ => None,
        }
    }
}

/// Configuration of an Inexact Speculative Adder.
///
/// Every design is identified by the quadruple
/// `(block size, SPEC size, correction, reduction)` used throughout the
/// paper, together with the total adder width (32 for all paper designs).
///
/// # Examples
///
/// ```
/// use isa_core::IsaConfig;
///
/// # fn main() -> Result<(), isa_core::ConfigError> {
/// let cfg = IsaConfig::new(32, 8, 0, 1, 4)?;
/// assert_eq!(cfg.to_string(), "(8,0,1,4)");
/// assert_eq!(cfg.num_paths(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsaConfig {
    width: u32,
    block_size: u32,
    spec_size: u32,
    correction: u32,
    reduction: u32,
}

impl IsaConfig {
    /// Maximum supported adder width.
    ///
    /// Outputs carry `width + 1` bits (the top block's carry-out is part of
    /// the result, as in Fig. 10 of the paper whose bit axis spans 0..=32),
    /// so widths are limited to 63 to keep results in a `u64`.
    pub const MAX_WIDTH: u32 = 63;

    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the width is zero or above
    /// [`Self::MAX_WIDTH`], if the block size is zero or does not divide the
    /// width, or if any of the SPEC/correction/reduction widths exceeds the
    /// block size.
    pub fn new(
        width: u32,
        block_size: u32,
        spec_size: u32,
        correction: u32,
        reduction: u32,
    ) -> Result<Self, ConfigError> {
        if width == 0 {
            return Err(ConfigError::WidthZero);
        }
        if width > Self::MAX_WIDTH {
            return Err(ConfigError::WidthTooLarge { width });
        }
        if block_size == 0 {
            return Err(ConfigError::BlockZero);
        }
        if !width.is_multiple_of(block_size) {
            return Err(ConfigError::BlockNotDividingWidth { width, block_size });
        }
        if spec_size > block_size {
            return Err(ConfigError::SpecLargerThanBlock {
                spec_size,
                block_size,
            });
        }
        if correction > block_size {
            return Err(ConfigError::CorrectionLargerThanBlock {
                correction,
                block_size,
            });
        }
        if reduction > block_size {
            return Err(ConfigError::ReductionLargerThanBlock {
                reduction,
                block_size,
            });
        }
        Ok(Self {
            width,
            block_size,
            spec_size,
            correction,
            reduction,
        })
    }

    /// Total adder width in bits (operand width).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Width of each speculative block (`B` in the quadruple).
    #[must_use]
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Number of operand bits inspected by each SPEC block (`S`).
    ///
    /// A SPEC size of 0 means the speculated carry is always 0.
    #[must_use]
    pub fn spec_size(&self) -> u32 {
        self.spec_size
    }

    /// Width of the error-correction group on each local sum's LSBs (`C`).
    #[must_use]
    pub fn correction(&self) -> u32 {
        self.correction
    }

    /// Width of the error-reduction (balancing) group on the preceding sum's
    /// MSBs (`R`).
    #[must_use]
    pub fn reduction(&self) -> u32 {
        self.reduction
    }

    /// Number of parallel speculative paths (`width / block size`).
    #[must_use]
    pub fn num_paths(&self) -> u32 {
        self.width / self.block_size
    }

    /// The paper quadruple `(block size, SPEC size, correction, reduction)`.
    #[must_use]
    pub fn quadruple(&self) -> (u32, u32, u32, u32) {
        (
            self.block_size,
            self.spec_size,
            self.correction,
            self.reduction,
        )
    }
}

impl fmt::Display for IsaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{},{})",
            self.block_size, self.spec_size, self.correction, self.reduction
        )
    }
}

/// Parses a paper-style quadruple such as `(8,0,1,4)` at the paper's
/// 32-bit adder width. A string that is not a parenthesized,
/// comma-separated quadruple of integers, or that names an invalid design,
/// is a [`ParseQuadrupleError`].
impl FromStr for IsaConfig {
    type Err = ParseQuadrupleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseQuadrupleError {
            input: s.to_owned(),
            reason,
        };
        let inner = s
            .trim()
            .strip_prefix('(')
            .and_then(|rest| rest.strip_suffix(')'))
            .ok_or_else(|| err(ParseQuadrupleReason::Shape))?;
        let fields: Vec<&str> = inner.split(',').map(str::trim).collect();
        if fields.len() != 4 {
            return Err(err(ParseQuadrupleReason::Shape));
        }
        let mut values = [0u32; 4];
        for (slot, field) in values.iter_mut().zip(&fields) {
            *slot = field.parse().map_err(|_| err(ParseQuadrupleReason::Int))?;
        }
        Self::new(32, values[0], values[1], values[2], values[3])
            .map_err(|e| err(ParseQuadrupleReason::Config(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_paper_config_roundtrips_through_display() {
        let cfg = IsaConfig::new(32, 16, 2, 1, 6).unwrap();
        assert_eq!(cfg.to_string(), "(16,2,1,6)");
        let parsed: IsaConfig = cfg.to_string().parse().unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn quadruple_accessors_match_inputs() {
        let cfg = IsaConfig::new(32, 8, 0, 1, 4).unwrap();
        assert_eq!(cfg.width(), 32);
        assert_eq!(cfg.block_size(), 8);
        assert_eq!(cfg.spec_size(), 0);
        assert_eq!(cfg.correction(), 1);
        assert_eq!(cfg.reduction(), 4);
        assert_eq!(cfg.num_paths(), 4);
        assert_eq!(cfg.quadruple(), (8, 0, 1, 4));
    }

    #[test]
    fn zero_width_is_rejected() {
        assert_eq!(IsaConfig::new(0, 8, 0, 0, 0), Err(ConfigError::WidthZero));
    }

    #[test]
    fn width_beyond_max_is_rejected() {
        assert_eq!(
            IsaConfig::new(64, 8, 0, 0, 0),
            Err(ConfigError::WidthTooLarge { width: 64 })
        );
    }

    #[test]
    fn zero_block_is_rejected() {
        assert_eq!(IsaConfig::new(32, 0, 0, 0, 0), Err(ConfigError::BlockZero));
    }

    #[test]
    fn non_dividing_block_is_rejected() {
        assert_eq!(
            IsaConfig::new(32, 12, 0, 0, 0),
            Err(ConfigError::BlockNotDividingWidth {
                width: 32,
                block_size: 12
            })
        );
    }

    #[test]
    fn oversized_spec_is_rejected() {
        assert_eq!(
            IsaConfig::new(32, 8, 9, 0, 0),
            Err(ConfigError::SpecLargerThanBlock {
                spec_size: 9,
                block_size: 8
            })
        );
    }

    #[test]
    fn oversized_correction_is_rejected() {
        assert_eq!(
            IsaConfig::new(32, 8, 0, 9, 0),
            Err(ConfigError::CorrectionLargerThanBlock {
                correction: 9,
                block_size: 8
            })
        );
    }

    #[test]
    fn oversized_reduction_is_rejected() {
        assert_eq!(
            IsaConfig::new(32, 8, 0, 0, 9),
            Err(ConfigError::ReductionLargerThanBlock {
                reduction: 9,
                block_size: 8
            })
        );
    }

    #[test]
    fn single_block_config_is_valid() {
        // A single 32-bit block degenerates into an exact adder.
        let cfg = IsaConfig::new(32, 32, 0, 0, 0).unwrap();
        assert_eq!(cfg.num_paths(), 1);
    }

    #[test]
    fn parse_rejects_malformed_strings() {
        assert!("8,0,1,4".parse::<IsaConfig>().is_err());
        assert!("(8,0,1)".parse::<IsaConfig>().is_err());
        assert!("(8,0,1,4,2)".parse::<IsaConfig>().is_err());
        assert!("(8,x,1,4)".parse::<IsaConfig>().is_err());
        assert!("(8,0,1,9)".parse::<IsaConfig>().is_err());
    }

    #[test]
    fn parse_accepts_whitespace() {
        let cfg: IsaConfig = " ( 16 , 7 , 0 , 8 ) ".parse().unwrap();
        assert_eq!(cfg.quadruple(), (16, 7, 0, 8));
    }

    #[test]
    fn config_error_messages_are_informative() {
        let e = IsaConfig::new(32, 12, 0, 0, 0).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("12"),
            "message should mention the block: {msg}"
        );
        assert!(
            msg.contains("32"),
            "message should mention the width: {msg}"
        );
    }
}
