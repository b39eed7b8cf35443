//! A minimal Standard Delay Format (SDF 3.0 subset) writer and reader.
//!
//! The paper's flow extracts an SDF file from synthesis and feeds it to the
//! gate-level simulator. This module persists a [`DelayAnnotation`] in an
//! SDF-shaped text format (one `CELL` entry per instance with an absolute
//! `IOPATH` delay) and reads it back, so experiment artifacts can be
//! inspected and replayed exactly like in the original ModelSim flow.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::graph::Netlist;
use crate::timing::DelayAnnotation;

/// Error reading an SDF file back.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdfError {
    /// The header is missing or malformed.
    BadHeader,
    /// The design name does not match the netlist.
    DesignMismatch {
        /// Name found in the file.
        found: String,
        /// Name of the netlist being annotated.
        expected: String,
    },
    /// A cell entry could not be parsed.
    BadCellEntry {
        /// 1-based line number.
        line: usize,
    },
    /// An instance index is out of range or duplicated.
    BadInstance {
        /// The instance name found.
        instance: String,
    },
    /// The file does not annotate every cell of the netlist.
    MissingInstances {
        /// Number of annotated instances.
        annotated: usize,
        /// Number of cells in the netlist.
        cells: usize,
    },
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::BadHeader => write!(f, "missing or malformed SDF header"),
            SdfError::DesignMismatch { found, expected } => {
                write!(f, "SDF is for design {found:?}, expected {expected:?}")
            }
            SdfError::BadCellEntry { line } => write!(f, "malformed CELL entry at line {line}"),
            SdfError::BadInstance { instance } => {
                write!(f, "unknown or duplicate instance {instance:?}")
            }
            SdfError::MissingInstances { annotated, cells } => {
                write!(
                    f,
                    "SDF annotates {annotated} instances, netlist has {cells}"
                )
            }
        }
    }
}

impl Error for SdfError {}

/// Serializes an annotation to SDF text.
///
/// # Examples
///
/// ```
/// use isa_netlist::cell::CellLibrary;
/// use isa_netlist::graph::NetlistBuilder;
/// use isa_netlist::sdf;
/// use isa_netlist::timing::DelayAnnotation;
///
/// # fn main() -> Result<(), isa_netlist::sdf::SdfError> {
/// let mut b = NetlistBuilder::new("demo");
/// let a = b.input("a");
/// let y = b.inv(a);
/// b.mark_output(y, "y");
/// let nl = b.finish().unwrap();
/// let ann = DelayAnnotation::nominal(&nl, &CellLibrary::industrial_65nm());
///
/// let text = sdf::write(&nl, &ann);
/// let back = sdf::read(&nl, &text)?;
/// assert_eq!(back, ann);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn write(netlist: &Netlist, annotation: &DelayAnnotation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "(DELAYFILE");
    let _ = writeln!(out, "  (SDFVERSION \"3.0\")");
    let _ = writeln!(out, "  (DESIGN \"{}\")", netlist.name());
    let _ = writeln!(out, "  (TIMESCALE 1ps)");
    for (i, cell) in netlist.cells().iter().enumerate() {
        let d = annotation.as_slice()[i];
        let _ = writeln!(
            out,
            "  (CELL (CELLTYPE \"{}\") (INSTANCE c{}) (DELAY (ABSOLUTE (IOPATH * Y ({:.3})))))",
            cell.kind.name(),
            i,
            d
        );
    }
    let _ = writeln!(out, ")");
    out
}

/// Parses SDF text produced by [`write()`](fn@write) back into an annotation for the
/// same netlist.
///
/// # Errors
///
/// Returns an [`SdfError`] if the header or any cell entry is malformed, the
/// design name differs, or the annotation is incomplete.
pub fn read(netlist: &Netlist, text: &str) -> Result<DelayAnnotation, SdfError> {
    let mut design_seen = false;
    let mut delays: Vec<Option<f64>> = vec![None; netlist.cell_count()];
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("(DESIGN ") {
            let name = rest
                .trim_end_matches(')')
                .trim()
                .trim_matches('"')
                .to_owned();
            if name != netlist.name() {
                return Err(SdfError::DesignMismatch {
                    found: name,
                    expected: netlist.name().to_owned(),
                });
            }
            design_seen = true;
            continue;
        }
        if !line.starts_with("(CELL ") {
            continue;
        }
        let entry_err = || SdfError::BadCellEntry { line: line_no + 1 };
        let inst_start = line.find("(INSTANCE ").ok_or_else(entry_err)?;
        let inst_rest = &line[inst_start + "(INSTANCE ".len()..];
        let inst_end = inst_rest.find(')').ok_or_else(entry_err)?;
        let instance = inst_rest[..inst_end].trim();

        let iopath = line.find("(IOPATH ").ok_or_else(entry_err)?;
        let io_rest = &line[iopath + "(IOPATH ".len()..];
        let open = io_rest.find('(').ok_or_else(entry_err)?;
        let close = io_rest[open..].find(')').ok_or_else(entry_err)? + open;
        let value: f64 = io_rest[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| entry_err())?;

        let index: usize = instance
            .strip_prefix('c')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SdfError::BadInstance {
                instance: instance.to_owned(),
            })?;
        if index >= delays.len() || delays[index].is_some() {
            return Err(SdfError::BadInstance {
                instance: instance.to_owned(),
            });
        }
        delays[index] = Some(value);
    }
    if !design_seen {
        return Err(SdfError::BadHeader);
    }
    let annotated = delays.iter().filter(|d| d.is_some()).count();
    if annotated != netlist.cell_count() {
        return Err(SdfError::MissingInstances {
            annotated,
            cells: netlist.cell_count(),
        });
    }
    Ok(DelayAnnotation::from_delays(
        delays.into_iter().map(|d| d.unwrap_or(0.0)).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::graph::NetlistBuilder;
    use crate::timing::{DelayAnnotation, VariationModel};

    fn netlist() -> Netlist {
        let mut b = NetlistBuilder::new("sdf_test");
        let a = b.input("a");
        let x = b.input("b");
        let n1 = b.nand2(a, x);
        let n2 = b.xor2(n1, a);
        b.mark_output(n2, "y");
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_delays_to_milli_ps() {
        let nl = netlist();
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib).perturbed(&VariationModel::new(0.04, 3));
        let text = write(&nl, &ann);
        let back = read(&nl, &text).unwrap();
        for (a, b) in ann.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn header_contains_design_and_timescale() {
        let nl = netlist();
        let ann = DelayAnnotation::nominal(&nl, &CellLibrary::industrial_65nm());
        let text = write(&nl, &ann);
        assert!(text.contains("(DESIGN \"sdf_test\")"));
        assert!(text.contains("(TIMESCALE 1ps)"));
        assert!(text.contains("(CELLTYPE \"NAND2\")"));
    }

    #[test]
    fn design_mismatch_is_detected() {
        let nl = netlist();
        let ann = DelayAnnotation::nominal(&nl, &CellLibrary::industrial_65nm());
        let text = write(&nl, &ann).replace("sdf_test", "other_design");
        match read(&nl, &text) {
            Err(SdfError::DesignMismatch { found, .. }) => assert_eq!(found, "other_design"),
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_cells_are_detected() {
        let nl = netlist();
        let ann = DelayAnnotation::nominal(&nl, &CellLibrary::industrial_65nm());
        let text = write(&nl, &ann);
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("(INSTANCE c1)"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            read(&nl, &truncated),
            Err(SdfError::MissingInstances {
                annotated: 1,
                cells: 2
            })
        ));
    }

    #[test]
    fn duplicate_instance_is_rejected() {
        let nl = netlist();
        let ann = DelayAnnotation::nominal(&nl, &CellLibrary::industrial_65nm());
        let text = write(&nl, &ann);
        let dup_line = text
            .lines()
            .find(|l| l.contains("(INSTANCE c0)"))
            .unwrap()
            .to_owned();
        let doubled = format!("{text}\n{dup_line}");
        assert!(matches!(
            read(&nl, &doubled),
            Err(SdfError::BadInstance { .. })
        ));
    }

    #[test]
    fn missing_header_is_rejected() {
        let nl = netlist();
        assert_eq!(read(&nl, "(DELAYFILE)"), Err(SdfError::BadHeader));
    }

    #[test]
    fn garbage_cell_entry_reports_line() {
        let nl = netlist();
        let text = "(DELAYFILE\n  (DESIGN \"sdf_test\")\n  (CELL nonsense)\n)";
        assert!(matches!(
            read(&nl, text),
            Err(SdfError::BadCellEntry { line: 3 })
        ));
    }
}
