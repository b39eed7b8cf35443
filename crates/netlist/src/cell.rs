//! Standard cells: logic functions and a synthetic 65 nm-class library.
//!
//! The paper synthesizes its adders "with Synopsys Design Compiler in an
//! industrial 65 nm technology". We substitute a compact standard-cell
//! library whose *relative* delays and areas follow typical 65 nm general
//! purpose libraries (inverter-normalized): what matters for reproducing
//! timing-error behaviour is the path-depth distribution and load
//! dependence, not absolute picoseconds — the clock scale is anchored to the
//! synthesis constraint exactly as in the paper.

use std::fmt;

use isa_core::{PlaneAlgebra, WordPlanes};

/// Combinational standard-cell function.
///
/// Input ordering conventions are documented per variant; they matter for
/// the asymmetric cells ([`CellKind::Mux2`], [`CellKind::Ao21`], ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Constant logic 0 (tie-low), no inputs.
    Const0,
    /// Constant logic 1 (tie-high), no inputs.
    Const1,
    /// Buffer: `Y = A`.
    Buf,
    /// Inverter: `Y = !A`.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer, inputs `[d0, d1, sel]`: `Y = sel ? d1 : d0`.
    Mux2,
    /// AND-OR: inputs `[a, b, c]`, `Y = (a & b) | c`.
    Ao21,
    /// OR-AND: inputs `[a, b, c]`, `Y = (a | b) & c`.
    Oa21,
    /// AND-OR-Invert: inputs `[a, b, c]`, `Y = !((a & b) | c)`.
    Aoi21,
    /// OR-AND-Invert: inputs `[a, b, c]`, `Y = !((a | b) & c)`.
    Oai21,
    /// 3-input majority (full-adder carry): `Y = ab | ac | bc`.
    Maj3,
    /// 3-input AND.
    And3,
    /// 3-input OR.
    Or3,
    /// 3-input XOR (full-adder sum).
    Xor3,
}

/// All cell kinds, for library iteration and tests.
pub const ALL_CELL_KINDS: [CellKind; 19] = [
    CellKind::Const0,
    CellKind::Const1,
    CellKind::Buf,
    CellKind::Inv,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Mux2,
    CellKind::Ao21,
    CellKind::Oa21,
    CellKind::Aoi21,
    CellKind::Oai21,
    CellKind::Maj3,
    CellKind::And3,
    CellKind::Or3,
    CellKind::Xor3,
];

impl CellKind {
    /// Number of input pins.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0,
            CellKind::Buf | CellKind::Inv => 1,
            CellKind::And2
            | CellKind::Or2
            | CellKind::Nand2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Mux2
            | CellKind::Ao21
            | CellKind::Oa21
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::Maj3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Xor3 => 3,
        }
    }

    /// Evaluates the cell function in any [`PlaneAlgebra`]: `a`, `b` and
    /// `c` are the planes on input pins 0, 1 and 2 (in the pin order
    /// documented on each variant). Operands past the kind's arity are
    /// ignored, so callers may alias them to any plane.
    ///
    /// This is the one cell truth table. The instruction tape sweeps it
    /// over [`ChunkPlanes`](isa_core::ChunkPlanes) and
    /// [`WordPlanes`], [`Netlist::evaluate_in`](crate::graph::Netlist::evaluate_in)
    /// interprets the cell list through it, [`Self::eval_word`] is its
    /// word instance, and `isa-prove` runs it over BDD nodes.
    #[inline(always)]
    #[must_use]
    pub fn eval_in<A: PlaneAlgebra>(
        self,
        alg: &mut A,
        a: &A::Plane,
        b: &A::Plane,
        c: &A::Plane,
    ) -> A::Plane {
        match self {
            CellKind::Const0 => alg.zero(),
            CellKind::Const1 => alg.one(),
            CellKind::Buf => a.clone(),
            CellKind::Inv => alg.not(a),
            CellKind::And2 => alg.and(a, b),
            CellKind::Or2 => alg.or(a, b),
            CellKind::Nand2 => {
                let t = alg.and(a, b);
                alg.not(&t)
            }
            CellKind::Nor2 => {
                let t = alg.or(a, b);
                alg.not(&t)
            }
            CellKind::Xor2 => alg.xor(a, b),
            CellKind::Xnor2 => {
                let t = alg.xor(a, b);
                alg.not(&t)
            }
            CellKind::Mux2 => alg.mux(c, b, a),
            CellKind::Ao21 => {
                let t = alg.and(a, b);
                alg.or(&t, c)
            }
            CellKind::Oa21 => {
                let t = alg.or(a, b);
                alg.and(&t, c)
            }
            CellKind::Aoi21 => {
                let t = alg.and(a, b);
                let u = alg.or(&t, c);
                alg.not(&u)
            }
            CellKind::Oai21 => {
                let t = alg.or(a, b);
                let u = alg.and(&t, c);
                alg.not(&u)
            }
            CellKind::Maj3 => {
                let ab = alg.and(a, b);
                let ac = alg.and(a, c);
                let bc = alg.and(b, c);
                let t = alg.or(&ab, &ac);
                alg.or(&t, &bc)
            }
            CellKind::And3 => {
                let t = alg.and(a, b);
                alg.and(&t, c)
            }
            CellKind::Or3 => {
                let t = alg.or(a, b);
                alg.or(&t, c)
            }
            CellKind::Xor3 => {
                let t = alg.xor(a, b);
                alg.xor(&t, c)
            }
        }
    }

    /// [`Self::eval_in`] over 64 independent lanes ([`WordPlanes`]), for
    /// callers holding an arity-sized pin slice: bit `l` of every input
    /// word is lane `l`'s value, and bit `l` of the result is lane `l`'s
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::arity`].
    #[must_use]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "{self} expects {} inputs, got {}",
            self.arity(),
            inputs.len()
        );
        let pin = |i: usize| inputs.get(i).copied().unwrap_or(0);
        self.eval_in(&mut WordPlanes, &pin(0), &pin(1), &pin(2))
    }

    /// Library cell name (as emitted into SDF files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Const0 => "TIELO",
            CellKind::Const1 => "TIEHI",
            CellKind::Buf => "BUF",
            CellKind::Inv => "INV",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Ao21 => "AO21",
            CellKind::Oa21 => "OA21",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Maj3 => "MAJ3",
            CellKind::And3 => "AND3",
            CellKind::Or3 => "OR3",
            CellKind::Xor3 => "XOR3",
        }
    }

    /// Parses a library cell name as written by [`Self::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_CELL_KINDS.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Timing, area and energy characterization of one cell kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTiming {
    /// Intrinsic propagation delay in picoseconds (any input to output, at
    /// fanout 1).
    pub intrinsic_ps: f64,
    /// Additional delay per extra fanout load, in picoseconds.
    pub load_ps: f64,
    /// Cell area in equivalent NAND2 units.
    pub area: f64,
    /// Dynamic energy per output transition, in femtojoules (65 nm-class
    /// magnitudes; used by the activity-based energy model).
    pub energy_fj: f64,
}

/// A characterized standard-cell library.
///
/// # Examples
///
/// ```
/// use isa_netlist::cell::{CellKind, CellLibrary};
///
/// let lib = CellLibrary::industrial_65nm();
/// // An XOR is slower than a NAND in any sane library.
/// assert!(lib.timing(CellKind::Xor2).intrinsic_ps > lib.timing(CellKind::Nand2).intrinsic_ps);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    name: String,
    timings: Vec<CellTiming>,
}

impl CellLibrary {
    /// The synthetic 65 nm-class general-purpose library used throughout the
    /// reproduction.
    ///
    /// Delay ratios follow typical 65 nm GP characterization: FO1 inverter
    /// around 12 ps, NAND2 ~16 ps, XOR2 ~2.2x a NAND2, MUX2 ~1.7x, complex
    /// AOI/OAI slightly above NAND2. Load slope is a few ps per fanout.
    #[must_use]
    pub fn industrial_65nm() -> Self {
        let mut timings = vec![
            CellTiming {
                intrinsic_ps: 0.0,
                load_ps: 0.0,
                area: 0.0,
                energy_fj: 0.0,
            };
            ALL_CELL_KINDS.len()
        ];
        let mut set =
            |kind: CellKind, intrinsic_ps: f64, load_ps: f64, area: f64, energy_fj: f64| {
                timings[kind as usize] = CellTiming {
                    intrinsic_ps,
                    load_ps,
                    area,
                    energy_fj,
                };
            };
        set(CellKind::Const0, 0.0, 0.0, 0.5, 0.0);
        set(CellKind::Const1, 0.0, 0.0, 0.5, 0.0);
        set(CellKind::Buf, 14.0, 2.0, 1.0, 1.0);
        set(CellKind::Inv, 9.0, 2.5, 0.5, 0.6);
        set(CellKind::And2, 20.0, 2.5, 1.5, 1.4);
        set(CellKind::Or2, 21.0, 2.5, 1.5, 1.4);
        set(CellKind::Nand2, 13.0, 3.0, 1.0, 1.0);
        set(CellKind::Nor2, 15.0, 3.5, 1.0, 1.0);
        set(CellKind::Xor2, 29.0, 3.0, 2.5, 2.6);
        set(CellKind::Xnor2, 29.0, 3.0, 2.5, 2.6);
        set(CellKind::Mux2, 24.0, 3.0, 2.5, 2.2);
        set(CellKind::Ao21, 24.0, 3.0, 2.0, 1.8);
        set(CellKind::Oa21, 24.0, 3.0, 2.0, 1.8);
        set(CellKind::Aoi21, 17.0, 3.5, 1.5, 1.3);
        set(CellKind::Oai21, 17.0, 3.5, 1.5, 1.3);
        set(CellKind::Maj3, 27.0, 3.0, 3.0, 2.8);
        set(CellKind::And3, 25.0, 2.5, 2.0, 1.8);
        set(CellKind::Or3, 26.0, 2.5, 2.0, 1.8);
        set(CellKind::Xor3, 46.0, 3.5, 4.5, 4.4);
        Self {
            name: "synthetic-65nm-gp".to_owned(),
            timings,
        }
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Timing record of a cell kind.
    #[must_use]
    pub fn timing(&self, kind: CellKind) -> CellTiming {
        self.timings[kind as usize]
    }

    /// Nominal propagation delay of a cell driving `fanout` loads, in ps.
    ///
    /// A fanout of 0 (dangling) is charged like a fanout of 1.
    #[must_use]
    pub fn delay_ps(&self, kind: CellKind, fanout: usize) -> f64 {
        let t = self.timing(kind);
        t.intrinsic_ps + t.load_ps * fanout.max(1).saturating_sub(1) as f64
    }

    /// Area of a cell kind in NAND2-equivalent units.
    #[must_use]
    pub fn area(&self, kind: CellKind) -> f64 {
        self.timing(kind).area
    }

    /// Dynamic energy per output transition of a cell kind, in fJ.
    #[must_use]
    pub fn energy_fj(&self, kind: CellKind) -> f64 {
        self.timing(kind).energy_fj
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::industrial_65nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `kind.eval_word` on every input combination at once: lane `l`
    /// drives pin `p` with bit `p` of `l`; returns the first `2^arity`
    /// lanes' outputs.
    fn every_combination(kind: CellKind) -> Vec<bool> {
        let combos = 1u64 << kind.arity();
        let words: Vec<u64> = (0..kind.arity())
            .map(|pin| {
                (0..combos)
                    .filter(|lane| lane >> pin & 1 == 1)
                    .fold(0, |word, lane| word | 1 << lane)
            })
            .collect();
        let out = kind.eval_word(&words);
        (0..combos).map(|lane| out >> lane & 1 == 1).collect()
    }

    #[test]
    fn arity_matches_eval_expectations() {
        for kind in ALL_CELL_KINDS {
            let inputs = vec![0u64; kind.arity()];
            let _ = kind.eval_word(&inputs); // must not panic
        }
    }

    #[test]
    #[should_panic(expected = "expects 3 inputs")]
    fn eval_word_rejects_wrong_arity() {
        let _ = CellKind::Mux2.eval_word(&[0, 1]);
    }

    #[test]
    fn truth_tables_one_input() {
        use CellKind::*;
        assert_eq!(every_combination(Buf), [false, true]);
        assert_eq!(every_combination(Inv), [true, false]);
    }

    #[test]
    fn truth_tables_two_input() {
        use CellKind::*;
        let lanes = [And2, Or2, Nand2, Nor2, Xor2, Xnor2].map(every_combination);
        for (lane, (a, b)) in [(false, false), (true, false), (false, true), (true, true)]
            .into_iter()
            .enumerate()
        {
            let expected = [a & b, a | b, !(a & b), !(a | b), a ^ b, !(a ^ b)];
            for (got, want) in lanes.iter().zip(expected) {
                assert_eq!(got[lane], want, "lane {lane}");
            }
        }
    }

    #[test]
    fn truth_tables_three_input() {
        use CellKind::*;
        let kinds = [Mux2, Ao21, Oa21, Aoi21, Oai21, Maj3, And3, Or3, Xor3];
        let lanes = kinds.map(every_combination);
        for lane in 0..8usize {
            let a = lane & 1 != 0;
            let b = lane & 2 != 0;
            let c = lane & 4 != 0;
            let expected = [
                if c { b } else { a },
                (a & b) | c,
                (a | b) & c,
                !((a & b) | c),
                !((a | b) & c),
                (a & b) | (a & c) | (b & c),
                a & b & c,
                a | b | c,
                a ^ b ^ c,
            ];
            for ((kind, got), want) in kinds.iter().zip(&lanes).zip(expected) {
                assert_eq!(got[lane], want, "{kind} lane {lane}");
            }
        }
    }

    #[test]
    fn chunk_instance_matches_word_instance_elementwise() {
        use isa_core::ChunkPlanes;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCE11);
        for kind in ALL_CELL_KINDS {
            for _ in 0..4 {
                let pins: [[u64; 4]; 3] =
                    std::array::from_fn(|_| std::array::from_fn(|_| rng.gen()));
                let chunk = kind.eval_in(&mut ChunkPlanes::<4>, &pins[0], &pins[1], &pins[2]);
                for (j, &got) in chunk.iter().enumerate() {
                    let words = [pins[0][j], pins[1][j], pins[2][j]];
                    assert_eq!(
                        got,
                        kind.eval_word(&words[..kind.arity()]),
                        "{kind} element {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn constants_have_no_inputs() {
        assert_eq!(CellKind::Const0.eval_word(&[]), 0);
        assert_eq!(CellKind::Const1.eval_word(&[]), u64::MAX);
    }

    #[test]
    fn names_roundtrip() {
        for kind in ALL_CELL_KINDS {
            assert_eq!(CellKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CellKind::from_name("FLUXCAP"), None);
    }

    #[test]
    fn library_covers_all_kinds_with_positive_delay() {
        let lib = CellLibrary::industrial_65nm();
        for kind in ALL_CELL_KINDS {
            if matches!(kind, CellKind::Const0 | CellKind::Const1) {
                continue;
            }
            assert!(lib.timing(kind).intrinsic_ps > 0.0, "{kind} has no delay");
            assert!(lib.timing(kind).area > 0.0, "{kind} has no area");
            assert!(lib.energy_fj(kind) > 0.0, "{kind} has no switching energy");
        }
    }

    #[test]
    fn bigger_cells_burn_more_energy() {
        let lib = CellLibrary::industrial_65nm();
        assert!(lib.energy_fj(CellKind::Xor3) > lib.energy_fj(CellKind::Xor2));
        assert!(lib.energy_fj(CellKind::Xor2) > lib.energy_fj(CellKind::Inv));
        assert_eq!(lib.energy_fj(CellKind::Const0), 0.0);
    }

    #[test]
    fn fanout_increases_delay() {
        let lib = CellLibrary::industrial_65nm();
        let d1 = lib.delay_ps(CellKind::Nand2, 1);
        let d4 = lib.delay_ps(CellKind::Nand2, 4);
        assert!(d4 > d1);
        assert_eq!(lib.delay_ps(CellKind::Nand2, 0), d1);
    }

    #[test]
    fn relative_delay_ordering_is_sane() {
        let lib = CellLibrary::industrial_65nm();
        assert!(lib.timing(CellKind::Inv).intrinsic_ps < lib.timing(CellKind::Nand2).intrinsic_ps);
        assert!(lib.timing(CellKind::Nand2).intrinsic_ps < lib.timing(CellKind::And2).intrinsic_ps);
        assert!(lib.timing(CellKind::And2).intrinsic_ps < lib.timing(CellKind::Xor2).intrinsic_ps);
        assert!(lib.timing(CellKind::Xor3).intrinsic_ps > lib.timing(CellKind::Xor2).intrinsic_ps);
    }
}
