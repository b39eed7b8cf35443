//! The behavioural spec as Boolean functions.
//!
//! [`Bdd`] implements [`PlaneAlgebra`] (with [`Bdd::ite`] as its
//! multiplexer), so the *actual* behavioural algorithm —
//! [`SpeculativeAdder::add_planes_in`] for ISA designs,
//! [`ripple_add_planes_in`] for the exact reference — runs unchanged over
//! BDD nodes and yields one canonical function per output bit, covering all
//! `2^(2W)` operand pairs at once. Nothing here re-implements the spec; an
//! equivalence proof against these functions is a proof against the very
//! code the whole repository treats as `ygold`.
//!
//! # Variable order
//!
//! Operand bits are **interleaved**: `a[i] -> 2i`, `b[i] -> 2i + 1`, LSB
//! nearest the root. Carry chains depend on lower bits only through the
//! single running carry, so every sum-bit function (of any adder) has at
//! most a constant number of BDD nodes per level in this order — the whole
//! spec is linear in the width, for speculative and exact adders alike.

use isa_core::{ripple_add_planes_in, Design, PlaneAlgebra, SpeculativeAdder};

use crate::bdd::{Bdd, Op, Ref};

impl PlaneAlgebra for Bdd {
    type Plane = Ref;

    fn zero(&mut self) -> Ref {
        Bdd::zero(self)
    }
    fn one(&mut self) -> Ref {
        Bdd::one(self)
    }
    fn not(&mut self, x: &Ref) -> Ref {
        Bdd::not(self, *x)
    }
    fn and(&mut self, x: &Ref, y: &Ref) -> Ref {
        self.apply(Op::And, *x, *y)
    }
    fn or(&mut self, x: &Ref, y: &Ref) -> Ref {
        self.apply(Op::Or, *x, *y)
    }
    fn xor(&mut self, x: &Ref, y: &Ref) -> Ref {
        self.apply(Op::Xor, *x, *y)
    }
    fn mux(&mut self, sel: &Ref, t: &Ref, f: &Ref) -> Ref {
        self.ite(*sel, *t, *f)
    }
    fn debug_assert_false(&self, x: &Ref) {
        // Canonicity makes the check exact: only the 0-terminal is false.
        debug_assert_eq!(*x, Bdd::zero(self), "plane invariant violated");
    }
}

/// The operand-bit projection functions of one adder instance.
#[derive(Debug, Clone)]
pub struct OperandVars {
    /// `a[i]` projections, LSB first.
    pub a: Vec<Ref>,
    /// `b[i]` projections, LSB first.
    pub b: Vec<Ref>,
}

impl OperandVars {
    /// Creates interleaved operand variables (`a[i] -> 2i`, `b[i] -> 2i+1`)
    /// for a `width`-bit adder. The store must have at least `2 * width`
    /// variables.
    pub fn interleaved(bdd: &mut Bdd, width: u32) -> Self {
        assert!(bdd.num_vars() >= 2 * width, "store too small for width");
        let a = (0..width).map(|i| bdd.var(2 * i)).collect();
        let b = (0..width).map(|i| bdd.var(2 * i + 1)).collect();
        Self { a, b }
    }

    /// Operand width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.a.len() as u32
    }

    /// Decodes a store-wide assignment back into `(a, b)` operand words.
    #[must_use]
    pub fn decode(&self, assignment: &[bool]) -> (u64, u64) {
        let mut a = 0u64;
        let mut b = 0u64;
        for i in 0..self.a.len() {
            a |= u64::from(assignment[2 * i]) << i;
            b |= u64::from(assignment[2 * i + 1]) << i;
        }
        (a, b)
    }
}

/// Builds the behavioural spec's output functions for a design: `width + 1`
/// bits, carry-out last — [`SpeculativeAdder::add_planes_in`] for ISA
/// designs, [`ripple_add_planes_in`] for the exact adder.
pub fn spec_outputs(bdd: &mut Bdd, design: &Design, vars: &OperandVars) -> Vec<Ref> {
    assert_eq!(design.width(), vars.width(), "design/vars width mismatch");
    match design {
        Design::Isa(cfg) => SpeculativeAdder::new(*cfg).add_planes_in(bdd, &vars.a, &vars.b),
        Design::Exact { .. } => ripple_add_planes_in(bdd, &vars.a, &vars.b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    fn check_against_scalar(design: &Design) {
        let w = design.width();
        let mut bdd = Bdd::new(2 * w);
        let vars = OperandVars::interleaved(&mut bdd, w);
        let outs = spec_outputs(&mut bdd, design, &vars);
        assert_eq!(outs.len(), w as usize + 1);
        let model = design.behavioural();
        for a in 0..1u64 << w {
            for b in 0..1u64 << w {
                let mut got = 0u64;
                for (i, &o) in outs.iter().enumerate() {
                    let bit = bdd.eval(o, |v| {
                        let (op, idx) = (v % 2, (v / 2) as u64);
                        if op == 0 {
                            (a >> idx) & 1 == 1
                        } else {
                            (b >> idx) & 1 == 1
                        }
                    });
                    got |= u64::from(bit) << i;
                }
                assert_eq!(got, model.add(a, b), "{design:?} a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn exact_spec_matches_scalar_exhaustively() {
        check_against_scalar(&Design::Exact { width: 5 });
    }

    #[test]
    fn isa_spec_matches_scalar_exhaustively() {
        for quad in [(2, 1, 1, 1), (3, 2, 1, 2), (3, 0, 0, 3)] {
            let cfg = IsaConfig::new(6, quad.0, quad.1, quad.2, quad.3).unwrap();
            check_against_scalar(&Design::Isa(cfg));
        }
    }

    #[test]
    fn spec_is_linear_in_width() {
        // The interleaved order must keep the 32-bit spec small; a bad
        // order would blow past this by orders of magnitude.
        let mut bdd = Bdd::new(64);
        let vars = OperandVars::interleaved(&mut bdd, 32);
        let cfg = IsaConfig::new(32, 8, 2, 1, 4).unwrap();
        let _ = spec_outputs(&mut bdd, &Design::Isa(cfg), &vars);
        assert!(bdd.num_nodes() < 20_000, "nodes: {}", bdd.num_nodes());
    }
}
