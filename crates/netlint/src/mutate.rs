//! Seeded fault injector for the negative-path battery.
//!
//! Each [`Mutation`] plants one specific defect in an otherwise healthy
//! design and records the [`Rule`] that must catch it. The test battery
//! (and `cargo test -p isa-netlint`) applies every mutation to every
//! seed design and asserts the full lint pipeline reports the expected
//! rule at Error severity — proving the analyzer detects real faults,
//! not just that clean designs pass.
//!
//! Mutations go through [`Netlist::into_raw_parts`] /
//! [`Netlist::from_raw_parts`], the only way to represent a malformed
//! graph (the builder API makes these states unconstructible).

use isa_netlist::timing::DelayAnnotation;
use isa_netlist::{AdderNetlist, CellKind, Netlist};

use crate::diag::Rule;
use crate::Splitmix;

/// One plantable defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Rewire one input pin of a random cell to the cell's own output,
    /// creating a combinational self-loop.
    AddLoopEdge,
    /// Remove the last cell while the driver table still claims it
    /// drives its net — the net floats.
    DropDriver,
    /// Retype a propagate XOR (primary operand pair) into an AND: the
    /// graph stays perfectly well-formed, only the *function* is wrong.
    SwapPgKind,
    /// Replace one cell delay with a negative value.
    CorruptDelay,
}

/// Every mutation, for exhaustive batteries.
pub const ALL_MUTATIONS: [Mutation; 4] = [
    Mutation::AddLoopEdge,
    Mutation::DropDriver,
    Mutation::SwapPgKind,
    Mutation::CorruptDelay,
];

impl Mutation {
    /// The rule that must fire on a design carrying this defect.
    #[must_use]
    pub fn expected_rule(self) -> Rule {
        match self {
            Mutation::AddLoopEdge => Rule::CombLoop,
            Mutation::DropDriver => Rule::FloatingNet,
            Mutation::SwapPgKind => Rule::FunctionalMismatch,
            Mutation::CorruptDelay => Rule::BadDelay,
        }
    }
}

/// A mutated design plus the verdict the linter must reach on it.
#[derive(Debug, Clone)]
pub struct Mutated {
    /// The faulted adder (I/O shape is preserved by every mutation).
    pub adder: AdderNetlist,
    /// The (possibly faulted) delay annotation matching `adder`.
    pub annotation: DelayAnnotation,
    /// The rule that must appear among the lint findings.
    pub expected: Rule,
    /// Human description of exactly what was planted where.
    pub description: String,
}

/// Applies `mutation` to a copy of `adder` at a seed-chosen site.
///
/// Returns `None` only when the design offers no site for the mutation
/// (e.g. [`Mutation::SwapPgKind`] on a netlist with no propagate XOR
/// over a primary operand pair) — never for the seed designs, which all
/// contain at least one of each site.
#[must_use]
pub fn apply_mutation(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    mutation: Mutation,
    seed: u64,
) -> Option<Mutated> {
    let mut rng = Splitmix::new(seed ^ 0x4D55_5441_5445_0001);
    let width = adder.width();
    let netlist = adder.netlist().clone();
    let expected = mutation.expected_rule();
    match mutation {
        Mutation::AddLoopEdge => {
            let (name, drivers, names, mut cells, inputs, outputs, onames) =
                netlist.into_raw_parts();
            if cells.is_empty() {
                return None;
            }
            let c = (rng.next_u64() % cells.len() as u64) as usize;
            let pin = (rng.next_u64() % cells[c].inputs.len() as u64) as usize;
            cells[c].inputs[pin] = cells[c].output;
            let description = format!("cell {c} pin {pin} rewired to the cell's own output");
            let mutated =
                Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
            Some(Mutated {
                adder: AdderNetlist::from_netlist(mutated, width),
                annotation: annotation.clone(),
                expected,
                description,
            })
        }
        Mutation::DropDriver => {
            let (name, drivers, names, mut cells, inputs, outputs, onames) =
                netlist.into_raw_parts();
            let dropped = cells.pop()?;
            let description = format!(
                "cell {} ({}) removed; driver table still claims it drives {}",
                cells.len(),
                dropped.kind,
                dropped.output
            );
            // Keep the annotation aligned with the shrunk cell list so the
            // only defect is the structural one.
            let mut delays = annotation.as_slice().to_vec();
            delays.truncate(cells.len());
            let mutated =
                Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
            Some(Mutated {
                adder: AdderNetlist::from_netlist(mutated, width),
                annotation: DelayAnnotation::from_delays_unchecked(delays),
                expected,
                description,
            })
        }
        Mutation::SwapPgKind => {
            // Propagate XOR sites: both inputs are the primary pair
            // a[i], b[i] — and the cell must be *live* (reach a primary
            // output). Synthesized designs carry dead logic, and retyping
            // a dead cell changes no observable sum, so nothing could
            // catch it.
            let live = netlist.live_nets();
            let mut pin_of_net = vec![usize::MAX; netlist.net_count()];
            for (i, n) in netlist.inputs().iter().enumerate() {
                pin_of_net[n.index()] = i;
            }
            let w = width as usize;
            let sites: Vec<usize> = netlist
                .cells()
                .iter()
                .enumerate()
                .filter(|(_, cell)| {
                    cell.kind == CellKind::Xor2 && live[cell.output.index()] && {
                        let px = pin_of_net[cell.inputs[0].index()];
                        let py = pin_of_net[cell.inputs[1].index()];
                        px != usize::MAX
                            && py != usize::MAX
                            && px.min(py) < w
                            && px.max(py) == px.min(py) + w
                    }
                })
                .map(|(i, _)| i)
                .collect();
            if sites.is_empty() {
                return None;
            }
            let c = sites[(rng.next_u64() % sites.len() as u64) as usize];
            let (name, drivers, names, mut cells, inputs, outputs, onames) =
                netlist.into_raw_parts();
            cells[c].kind = CellKind::And2;
            let description =
                format!("cell {c}: propagate xor2 over a primary pair retyped to and2");
            let mutated =
                Netlist::from_raw_parts(name, drivers, names, cells, inputs, outputs, onames);
            Some(Mutated {
                adder: AdderNetlist::from_netlist(mutated, width),
                annotation: annotation.clone(),
                expected,
                description,
            })
        }
        Mutation::CorruptDelay => {
            let mut delays = annotation.as_slice().to_vec();
            if delays.is_empty() {
                return None;
            }
            let c = (rng.next_u64() % delays.len() as u64) as usize;
            let value = -1.0 - (rng.next_u64() % 1000) as f64;
            delays[c] = value;
            Some(Mutated {
                adder: adder.clone(),
                annotation: DelayAnnotation::from_delays_unchecked(delays),
                expected,
                description: format!("cell {c} delay replaced with {value} ps"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::{build_exact, AdderTopology};

    #[test]
    fn every_mutation_has_a_site_on_exact_adders() {
        for topology in [
            AdderTopology::Ripple,
            AdderTopology::KoggeStone,
            AdderTopology::Sklansky,
        ] {
            let adder = build_exact(8, topology);
            let ann = DelayAnnotation::nominal(adder.netlist(), &CellLibrary::industrial_65nm());
            for (i, &m) in ALL_MUTATIONS.iter().enumerate() {
                let got = apply_mutation(&adder, &ann, m, 0xBEEF + i as u64);
                assert!(got.is_some(), "{topology:?}: no site for {m:?}");
            }
        }
    }

    #[test]
    fn mutations_are_deterministic_in_the_seed() {
        let adder = build_exact(8, AdderTopology::Ripple);
        let ann = DelayAnnotation::nominal(adder.netlist(), &CellLibrary::industrial_65nm());
        for &m in &ALL_MUTATIONS {
            let a = apply_mutation(&adder, &ann, m, 7).unwrap();
            let b = apply_mutation(&adder, &ann, m, 7).unwrap();
            assert_eq!(a.description, b.description);
            assert_eq!(a.adder.netlist(), b.adder.netlist());
        }
    }

    #[test]
    fn swap_pg_changes_function_but_not_structure() {
        let adder = build_exact(8, AdderTopology::KoggeStone);
        let ann = DelayAnnotation::nominal(adder.netlist(), &CellLibrary::industrial_65nm());
        let m = apply_mutation(&adder, &ann, Mutation::SwapPgKind, 3).unwrap();
        assert!(crate::structural::check(m.adder.netlist())
            .iter()
            .all(|d| d.severity != crate::Severity::Error));
        let broken = (0..=255u64).any(|a| m.adder.add(a, 255 - a) != adder.add(a, 255 - a));
        assert!(broken, "retyped propagate must change some sum");
    }
}
