//! A small reduced ordered binary decision diagram (ROBDD) engine.
//!
//! Nodes are hash-consed into a shared store, so two [`Ref`]s denote the
//! same Boolean function **iff** they are equal — equivalence checking is a
//! pointer comparison once both sides are built. The engine deliberately
//! omits complement edges and dynamic reordering: adder cones are linear in
//! the interleaved operand order (see [`crate::spec`]), so the classic
//! textbook representation is simplest and fast enough.
//!
//! Provided operations: the Boolean connectives with memoised [`Bdd::apply`]
//! / [`Bdd::ite`], satisfying-assignment counting ([`Bdd::satcount`]),
//! witness extraction ([`Bdd::any_sat`]), greedy maximisation of an
//! unsigned bit-vector ([`Bdd::max_value`]), and structural cofactoring for
//! the model-counting image computation in [`crate::dist`].

use std::collections::HashMap;

/// A reference to a node in a [`Bdd`] store.
///
/// Refs are canonical: within one store, `f == g` iff the two functions are
/// identical. Refs from different stores must never be mixed (not checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

/// Sentinel variable index for the two terminal nodes; orders after every
/// real variable.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
}

/// Binary Boolean connectives accepted by [`Bdd::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Exclusive or.
    Xor,
}

impl Op {
    fn eval(self, a: bool, b: bool) -> bool {
        match self {
            Op::And => a && b,
            Op::Or => a || b,
            Op::Xor => a ^ b,
        }
    }
}

/// A hash-consed ROBDD node store over a fixed set of variables.
#[derive(Debug, Clone)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<Node, u32>,
    apply_cache: HashMap<(Op, u32, u32), u32>,
    ite_cache: HashMap<(u32, u32, u32), u32>,
    num_vars: u32,
}

impl Bdd {
    /// Creates a store over variables `0..num_vars` (index order = variable
    /// order, variable 0 nearest the root).
    #[must_use]
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars < TERMINAL_VAR, "variable count out of range");
        let false_node = Node {
            var: TERMINAL_VAR,
            lo: 0,
            hi: 0,
        };
        let true_node = Node {
            var: TERMINAL_VAR,
            lo: 1,
            hi: 1,
        };
        Self {
            nodes: vec![false_node, true_node],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            ite_cache: HashMap::new(),
            num_vars,
        }
    }

    /// Number of variables the store was created with.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total number of nodes ever interned (terminals included) — the
    /// engine's memory footprint, used for blowup regression bounds and
    /// budget bailouts.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The constant-false function.
    #[must_use]
    pub fn zero(&self) -> Ref {
        Ref(0)
    }

    /// The constant-true function.
    #[must_use]
    pub fn one(&self) -> Ref {
        Ref(1)
    }

    /// The projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&mut self, v: u32) -> Ref {
        assert!(v < self.num_vars, "variable {v} out of range");
        Ref(self.mk(v, 0, 1))
    }

    /// Interns a (reduced) node.
    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("BDD store overflow");
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    fn node(&self, id: u32) -> Node {
        self.nodes[id as usize]
    }

    /// The root variable of `f`, or `None` for the terminals.
    #[must_use]
    pub fn root_var(&self, f: Ref) -> Option<u32> {
        let v = self.node(f.0).var;
        (v != TERMINAL_VAR).then_some(v)
    }

    /// The two cofactors of `f` with respect to variable `v`, which must not
    /// be below `f`'s root (i.e. `v <= root_var(f)` in the order). For a
    /// terminal or a root strictly below `v`, both cofactors are `f` itself.
    #[must_use]
    pub fn cofactors_at(&self, f: Ref, v: u32) -> (Ref, Ref) {
        let n = self.node(f.0);
        if n.var == v {
            (Ref(n.lo), Ref(n.hi))
        } else {
            debug_assert!(n.var > v, "cofactor variable below the root");
            (f, f)
        }
    }

    /// Applies a binary connective, memoised over the node pair.
    pub fn apply(&mut self, op: Op, f: Ref, g: Ref) -> Ref {
        Ref(self.apply_rec(op, f.0, g.0))
    }

    fn apply_rec(&mut self, op: Op, f: u32, g: u32) -> u32 {
        // Terminal short-circuits.
        let (f, g) = if f <= g { (f, g) } else { (g, f) }; // all ops commute
        if f <= 1 && g <= 1 {
            return u32::from(op.eval(f == 1, g == 1));
        }
        match (op, f) {
            (Op::And, 0) => return 0,
            (Op::And, 1) => return g,
            (Op::Or, 1) => return 1,
            (Op::Or, 0) => return g,
            (Op::Xor, 0) => return g,
            _ => {}
        }
        if f == g {
            return match op {
                Op::And | Op::Or => f,
                Op::Xor => 0,
            };
        }
        if let Some(&r) = self.apply_cache.get(&(op, f, g)) {
            return r;
        }
        let nf = self.node(f);
        let ng = self.node(g);
        let v = nf.var.min(ng.var);
        let (f0, f1) = if nf.var == v { (nf.lo, nf.hi) } else { (f, f) };
        let (g0, g1) = if ng.var == v { (ng.lo, ng.hi) } else { (g, g) };
        let lo = self.apply_rec(op, f0, g0);
        let hi = self.apply_rec(op, f1, g1);
        let r = self.mk(v, lo, hi);
        self.apply_cache.insert((op, f, g), r);
        r
    }

    /// Complement.
    pub fn not(&mut self, f: Ref) -> Ref {
        let one = self.one();
        self.apply(Op::Xor, f, one)
    }

    /// If-then-else: `cond ? then_f : else_f`, memoised over the triple.
    pub fn ite(&mut self, cond: Ref, then_f: Ref, else_f: Ref) -> Ref {
        Ref(self.ite_rec(cond.0, then_f.0, else_f.0))
    }

    fn ite_rec(&mut self, c: u32, t: u32, e: u32) -> u32 {
        if c == 1 {
            return t;
        }
        if c == 0 {
            return e;
        }
        if t == e {
            return t;
        }
        if t == 1 && e == 0 {
            return c;
        }
        if let Some(&r) = self.ite_cache.get(&(c, t, e)) {
            return r;
        }
        let nc = self.node(c);
        let nt = self.node(t);
        let ne = self.node(e);
        let v = nc.var.min(nt.var).min(ne.var);
        let (c0, c1) = if nc.var == v { (nc.lo, nc.hi) } else { (c, c) };
        let (t0, t1) = if nt.var == v { (nt.lo, nt.hi) } else { (t, t) };
        let (e0, e1) = if ne.var == v { (ne.lo, ne.hi) } else { (e, e) };
        let lo = self.ite_rec(c0, t0, e0);
        let hi = self.ite_rec(c1, t1, e1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert((c, t, e), r);
        r
    }

    /// Evaluates `f` under a concrete assignment.
    #[must_use]
    pub fn eval(&self, f: Ref, assignment: impl Fn(u32) -> bool) -> bool {
        let mut id = f.0;
        loop {
            let n = self.node(id);
            if n.var == TERMINAL_VAR {
                return id == 1;
            }
            id = if assignment(n.var) { n.hi } else { n.lo };
        }
    }

    /// Number of satisfying assignments of `f` over all `num_vars`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if the store has more than 127 variables (the `u128` count
    /// could overflow).
    #[must_use]
    pub fn satcount(&self, f: Ref) -> u128 {
        assert!(self.num_vars <= 127, "satcount limited to 127 variables");
        let mut memo: HashMap<u32, u128> = HashMap::new();
        // `sub(id)` = satisfying assignments of the variables at or below
        // the node's own level; scale the root by the variables above it.
        let sub = self.satcount_rec(f.0, &mut memo);
        let root_level = self.node(f.0).var.min(self.num_vars);
        sub << root_level
    }

    fn satcount_rec(&self, id: u32, memo: &mut HashMap<u32, u128>) -> u128 {
        if id == 0 {
            return 0;
        }
        if id == 1 {
            return 1;
        }
        if let Some(&c) = memo.get(&id) {
            return c;
        }
        let n = self.node(id);
        let lo_level = self.node(n.lo).var.min(self.num_vars);
        let hi_level = self.node(n.hi).var.min(self.num_vars);
        let lo = self.satcount_rec(n.lo, memo) << (lo_level - n.var - 1);
        let hi = self.satcount_rec(n.hi, memo) << (hi_level - n.var - 1);
        let c = lo + hi;
        memo.insert(id, c);
        c
    }

    /// A satisfying assignment of `f` (variables off the witness path are
    /// false), or `None` if `f` is unsatisfiable.
    #[must_use]
    pub fn any_sat(&self, f: Ref) -> Option<Vec<bool>> {
        if f.0 == 0 {
            return None;
        }
        let mut assignment = vec![false; self.num_vars as usize];
        let mut id = f.0;
        while id > 1 {
            let n = self.node(id);
            // Reduced diagrams reach the 1-terminal from every non-zero
            // node through at least one branch.
            if n.hi != 0 {
                assignment[n.var as usize] = true;
                id = n.hi;
            } else {
                id = n.lo;
            }
        }
        Some(assignment)
    }

    /// Maximum unsigned value of the bit vector `bits` (LSB first) over the
    /// satisfying set of `constraint`, or `None` if it is unsatisfiable.
    ///
    /// Greedy from the MSB down: taking a feasible high bit always
    /// dominates every combination of lower bits, so the scan is exact.
    pub fn max_value(&mut self, bits: &[Ref], constraint: Ref) -> Option<u128> {
        if constraint.0 == 0 {
            return None;
        }
        let mut value = 0u128;
        let mut c = constraint;
        for (i, &bit) in bits.iter().enumerate().rev() {
            let with_bit = self.apply(Op::And, c, bit);
            if with_bit.0 != 0 {
                value |= 1u128 << i;
                c = with_bit;
            } else {
                // `bit` is false on all of `c`; the constraint is unchanged
                // semantically, but conjoin for the invariant `c => !bit`.
                let nb = self.not(bit);
                c = self.apply(Op::And, c, nb);
            }
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive truth-table evaluation over `n <= 16` variables.
    fn truth_table(bdd: &Bdd, f: Ref) -> Vec<bool> {
        let n = bdd.num_vars();
        assert!(n <= 16);
        (0..1u32 << n)
            .map(|bits| bdd.eval(f, |v| (bits >> v) & 1 == 1))
            .collect()
    }

    #[test]
    fn connectives_match_truth_tables() {
        let mut bdd = Bdd::new(3);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let z = bdd.var(2);
        let xy = bdd.apply(Op::And, x, y);
        let f = bdd.apply(Op::Or, xy, z);
        for bits in 0..8u32 {
            let (a, b, c) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
            assert_eq!(bdd.eval(f, |v| bits >> v & 1 == 1), (a && b) || c);
        }
    }

    #[test]
    fn canonical_refs_mean_semantic_equality() {
        let mut bdd = Bdd::new(2);
        let x = bdd.var(0);
        let y = bdd.var(1);
        // x XOR y built two different ways must intern to the same node.
        let direct = bdd.apply(Op::Xor, x, y);
        let nx = bdd.not(x);
        let ny = bdd.not(y);
        let a = bdd.apply(Op::And, x, ny);
        let b = bdd.apply(Op::And, nx, y);
        let rebuilt = bdd.apply(Op::Or, a, b);
        assert_eq!(direct, rebuilt);
    }

    #[test]
    fn ite_agrees_with_apply_composition() {
        let mut bdd = Bdd::new(3);
        let c = bdd.var(0);
        let t = bdd.var(1);
        let e = bdd.var(2);
        let ite = bdd.ite(c, t, e);
        let ct = bdd.apply(Op::And, c, t);
        let nc = bdd.not(c);
        let nce = bdd.apply(Op::And, nc, e);
        let composed = bdd.apply(Op::Or, ct, nce);
        assert_eq!(ite, composed);
        assert_eq!(truth_table(&bdd, ite), truth_table(&bdd, composed));
    }

    #[test]
    fn satcount_counts_all_variables() {
        let mut bdd = Bdd::new(4);
        let x = bdd.var(0);
        assert_eq!(bdd.satcount(x), 8); // x free over 3 remaining vars
        let y = bdd.var(3);
        let xy = bdd.apply(Op::And, x, y);
        assert_eq!(bdd.satcount(xy), 4);
        assert_eq!(bdd.satcount(bdd.one()), 16);
        assert_eq!(bdd.satcount(bdd.zero()), 0);
    }

    #[test]
    fn any_sat_returns_a_model() {
        let mut bdd = Bdd::new(3);
        let x = bdd.var(0);
        let nz = {
            let z = bdd.var(2);
            bdd.not(z)
        };
        let f = bdd.apply(Op::And, x, nz);
        let model = bdd.any_sat(f).unwrap();
        assert!(bdd.eval(f, |v| model[v as usize]));
        assert!(bdd.any_sat(bdd.zero()).is_none());
    }

    #[test]
    fn max_value_is_greedy_exact() {
        let mut bdd = Bdd::new(3);
        // Value = [v0, v1, v2] as bits 0..3 constrained by v2 -> !v0.
        let bits = [bdd.var(0), bdd.var(1), bdd.var(2)];
        let v0 = bits[0];
        let nv0 = bdd.not(v0);
        let nv2 = bdd.not(bits[2]);
        let constraint = bdd.apply(Op::Or, nv2, nv0);
        // Max is 110b = 6 (v2=1 forces v0=0).
        assert_eq!(bdd.max_value(&bits, constraint), Some(6));
        assert_eq!(bdd.max_value(&bits, bdd.one()), Some(7));
        assert_eq!(bdd.max_value(&bits, bdd.zero()), None);
    }
}
