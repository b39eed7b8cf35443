//! The plane algebra: one bitwise interface for every evaluator.
//!
//! The ISA spec ([`SpeculativeAdder::add_planes_in`](crate::SpeculativeAdder::add_planes_in))
//! and the cell truth table (`isa_netlist::CellKind::eval_in`) are written
//! once as bitwise recurrences over *planes*: one value per signal. Neither
//! depends on what a plane is; they only need the Boolean operations that
//! [`PlaneAlgebra`] names. Three instances serve the whole stack:
//!
//! * [`WordPlanes`] (`Plane = u64`): 64 parallel lanes per plane. It runs
//!   [`Adder::add_batch`](crate::Adder::add_batch), the netlist
//!   interpreter and the timed-tape seeding. Monomorphisation makes this
//!   identical to hand-written bitwise code.
//! * [`ChunkPlanes`] (`Plane = [u64; C]`): `C` words of 64 lanes in
//!   lockstep. The instruction tape's production sweeps run on it, and
//!   each operation compiles to one 256-bit vector op at `C = 4`.
//! * A BDD manager (`Plane =` BDD node, in `isa-prove`): the *symbolic*
//!   instance. The same spec and cell code yield canonical decision
//!   diagrams covering all `2^(2W)` operand pairs at once, so formal
//!   equivalence checks compare synthesized netlists against the actual
//!   behavioural algorithm, not a re-implementation of it.

/// Boolean algebra over bit planes.
///
/// Operations take `&mut self` because symbolic implementations hash-cons
/// nodes into a shared store. Implementations must satisfy the laws of
/// Boolean algebra; callers may assume e.g. `xor(x, zero) == x` only up to
/// semantic equivalence, not representation equality.
pub trait PlaneAlgebra {
    /// One plane: the algebra's representation of a Boolean function (or of
    /// 64 parallel concrete bits for [`WordPlanes`]).
    type Plane: Clone;

    /// The constant-false plane.
    fn zero(&mut self) -> Self::Plane;
    /// The constant-true plane.
    fn one(&mut self) -> Self::Plane;
    /// Complement.
    fn not(&mut self, x: &Self::Plane) -> Self::Plane;
    /// Conjunction.
    fn and(&mut self, x: &Self::Plane, y: &Self::Plane) -> Self::Plane;
    /// Disjunction.
    fn or(&mut self, x: &Self::Plane, y: &Self::Plane) -> Self::Plane;
    /// Exclusive or.
    fn xor(&mut self, x: &Self::Plane, y: &Self::Plane) -> Self::Plane;

    /// `x & !y` (material nonimplication); the default composes
    /// [`not`](Self::not) and [`and`](Self::and).
    fn andn(&mut self, x: &Self::Plane, y: &Self::Plane) -> Self::Plane {
        let ny = self.not(y);
        self.and(x, &ny)
    }

    /// Multiplexer `sel ? t : f`; the default computes
    /// `(t & sel) | (f & !sel)`.
    fn mux(&mut self, sel: &Self::Plane, t: &Self::Plane, f: &Self::Plane) -> Self::Plane {
        let hi = self.and(t, sel);
        let lo = self.andn(f, sel);
        self.or(&hi, &lo)
    }

    /// Debug hook asserting a plane is provably false. The concrete word
    /// algebra checks it eagerly (it is an internal invariant of the COMP
    /// correction ripple); symbolic algebras may check canonically or skip.
    fn debug_assert_false(&self, _x: &Self::Plane) {}
}

/// The concrete 64-lane word algebra: each `u64` plane carries one bit of 64
/// independent additions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordPlanes;

impl PlaneAlgebra for WordPlanes {
    type Plane = u64;

    #[inline]
    fn zero(&mut self) -> u64 {
        0
    }
    #[inline]
    fn one(&mut self) -> u64 {
        u64::MAX
    }
    #[inline]
    fn not(&mut self, x: &u64) -> u64 {
        !x
    }
    #[inline]
    fn and(&mut self, x: &u64, y: &u64) -> u64 {
        x & y
    }
    #[inline]
    fn or(&mut self, x: &u64, y: &u64) -> u64 {
        x | y
    }
    #[inline]
    fn xor(&mut self, x: &u64, y: &u64) -> u64 {
        x ^ y
    }
    #[inline]
    fn andn(&mut self, x: &u64, y: &u64) -> u64 {
        x & !y
    }
    #[inline]
    fn debug_assert_false(&self, x: &u64) {
        debug_assert_eq!(*x, 0, "plane invariant violated");
    }
}

/// The chunked word algebra: each `[u64; C]` plane carries `C`
/// independent 64-lane words, combined element by element.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkPlanes<const C: usize>;

impl<const C: usize> PlaneAlgebra for ChunkPlanes<C> {
    type Plane = [u64; C];

    #[inline(always)]
    fn zero(&mut self) -> [u64; C] {
        [0; C]
    }
    #[inline(always)]
    fn one(&mut self) -> [u64; C] {
        [u64::MAX; C]
    }
    #[inline(always)]
    fn not(&mut self, x: &[u64; C]) -> [u64; C] {
        x.map(|w| !w)
    }
    #[inline(always)]
    fn and(&mut self, x: &[u64; C], y: &[u64; C]) -> [u64; C] {
        std::array::from_fn(|i| x[i] & y[i])
    }
    #[inline(always)]
    fn or(&mut self, x: &[u64; C], y: &[u64; C]) -> [u64; C] {
        std::array::from_fn(|i| x[i] | y[i])
    }
    #[inline(always)]
    fn xor(&mut self, x: &[u64; C], y: &[u64; C]) -> [u64; C] {
        std::array::from_fn(|i| x[i] ^ y[i])
    }
}

/// Exact ripple-carry addition over planes: `width + 1` result planes
/// (carry-out last) from `width` operand planes each.
///
/// This is the plane form of [`ExactAdder`](crate::ExactAdder) and serves as
/// the *exact* spec for symbolic algebras, next to the speculative spec from
/// [`SpeculativeAdder::add_planes_in`](crate::SpeculativeAdder::add_planes_in).
///
/// # Panics
///
/// Panics if the operand plane counts differ.
pub fn ripple_add_planes_in<A: PlaneAlgebra>(
    alg: &mut A,
    a_planes: &[A::Plane],
    b_planes: &[A::Plane],
) -> Vec<A::Plane> {
    assert_eq!(a_planes.len(), b_planes.len(), "operand widths must match");
    let mut out = Vec::with_capacity(a_planes.len() + 1);
    let mut carry = alg.zero();
    for (a, b) in a_planes.iter().zip(b_planes) {
        let p = alg.xor(a, b);
        let g = alg.and(a, b);
        out.push(alg.xor(&p, &carry));
        let t = alg.and(&p, &carry);
        carry = alg.or(&g, &t);
    }
    out.push(carry);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::{Adder, ExactAdder};
    use crate::batch::{pack_pairs, unpack_lanes};

    #[test]
    fn word_algebra_is_plain_bitwise_logic() {
        let mut w = WordPlanes;
        let (x, y) = (0b1100u64, 0b1010u64);
        assert_eq!(w.and(&x, &y), 0b1000);
        assert_eq!(w.or(&x, &y), 0b1110);
        assert_eq!(w.xor(&x, &y), 0b0110);
        assert_eq!(w.andn(&x, &y), 0b0100);
        assert_eq!(w.mux(&x, &y, &0b0110), 0b1010);
        assert_eq!(w.not(&0), u64::MAX);
        assert_eq!(w.zero(), 0);
        assert_eq!(w.one(), u64::MAX);
    }

    #[test]
    fn ripple_planes_match_exact_adder() {
        let exact = ExactAdder::new(16);
        let pairs: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 977, i * 31 + 5)).collect();
        let mut planes = [0u64; 32];
        pack_pairs(16, &pairs, &mut planes);
        let (a_planes, b_planes) = planes.split_at(16);
        let sums = ripple_add_planes_in(&mut WordPlanes, a_planes, b_planes);
        assert_eq!(sums.len(), 17);
        let mut lanes = [0u64; 64];
        unpack_lanes(&sums, &mut lanes);
        for (&(a, b), got) in pairs.iter().zip(lanes) {
            assert_eq!(got, exact.add(a, b), "a={a:#x} b={b:#x}");
        }
    }
}
