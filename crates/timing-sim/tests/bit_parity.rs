//! Lane-vs-scalar parity: every lane of the 64-lane timed replay
//! ([`TimedTapeCore`], the engine behind every gate-level `ysilver`) must
//! equal a scalar `ClockedSim` run bit-for-bit — at safe and overclocked
//! periods, over random netlists, random delays and random input
//! sequences, and over real adder streams dealt in lane segments. This is
//! the contract that pins the production path to the scalar oracle.

use isa_core::batch::LANES;
use isa_netlist::builders::{build_exact, isa, AdderTopology};
use isa_netlist::cell::{CellKind, CellLibrary};
use isa_netlist::graph::{Netlist, NetlistBuilder};
use isa_netlist::sta::StaReport;
use isa_netlist::tape::InstructionTape;
use isa_netlist::timing::{DelayAnnotation, VariationModel};
use isa_timing_sim::{
    run_clocked_batch_timed, scalar_segments, ClockedSim, TimedTape, TimedTapeCore,
};
use proptest::prelude::*;

/// Recipe for one random cell: kind selector plus input selectors.
type CellRecipe = (u8, u16, u16, u16);

/// Builds a random combinational netlist (same generator as the scalar
/// simulator's property suite).
fn build_random(n_inputs: usize, recipes: &[CellRecipe]) -> Netlist {
    let kinds = [
        CellKind::Inv,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Ao21,
        CellKind::Oai21,
        CellKind::Maj3,
        CellKind::Xor3,
    ];
    let mut b = NetlistBuilder::new("random");
    let mut nets: Vec<_> = (0..n_inputs).map(|i| b.input(format!("i{i}"))).collect();
    for &(k, s0, s1, s2) in recipes {
        let kind = kinds[k as usize % kinds.len()];
        let pick = |sel: u16, nets: &[isa_netlist::graph::NetId]| nets[sel as usize % nets.len()];
        let ins: Vec<_> = [s0, s1, s2][..kind.arity()]
            .iter()
            .map(|&s| pick(s, &nets))
            .collect();
        let out = b.cell(kind, &ins);
        nets.push(out);
    }
    let n_out = nets.len().min(8);
    for (i, &net) in nets[nets.len() - n_out..].iter().enumerate() {
        b.mark_output(net, format!("o{i}"));
    }
    b.finish().expect("random netlist is well-formed")
}

/// Packs one bool vector per lane into per-input plane words.
fn pack_input_words(vectors: &[Vec<bool>]) -> Vec<u64> {
    let pins = vectors[0].len();
    let mut words = vec![0u64; pins];
    for (l, v) in vectors.iter().enumerate() {
        for (p, &bit) in v.iter().enumerate() {
            if bit {
                words[p] |= 1u64 << l;
            }
        }
    }
    words
}

fn lane_vector(seed: u64, lane: usize, pins: usize) -> Vec<bool> {
    let mut x = seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..pins)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random netlists, random delays, random per-lane input sequences,
    /// periods from deep overclock to safe: every lane of the timed
    /// replay samples exactly what its private scalar clocked run samples
    /// — including unsettled (timing-erroneous) edges whose transitions
    /// stay in flight into later cycles.
    #[test]
    fn random_netlist_timed_lanes_match_scalar_clocked(
        recipes in prop::collection::vec(any::<CellRecipe>(), 1..50),
        seeds in prop::collection::vec(any::<u64>(), 1..6),
        delay_seed in any::<u64>(),
        period_frac in 0.05f64..1.5,
    ) {
        let nl = build_random(5, &recipes);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib)
            .perturbed(&VariationModel::new(0.08, delay_seed));
        let crit = StaReport::analyze(&nl, &ann).critical_ps().max(1.0);
        let period = crit * period_frac;
        let pins = nl.inputs().len();
        let tape = InstructionTape::compile(&nl);
        let program = TimedTape::new(&nl, &tape, &ann);

        let mut timed = TimedTapeCore::with_settled(&program, &tape, period, &vec![0; pins]);
        let mut scalars: Vec<ClockedSim<'_>> =
            (0..LANES).map(|_| ClockedSim::new(&nl, &ann, period)).collect();

        for (round, &seed) in seeds.iter().enumerate() {
            let vectors: Vec<Vec<bool>> =
                (0..LANES).map(|l| lane_vector(seed, l, pins)).collect();
            let sampled = timed.step_planes(&program, &pack_input_words(&vectors));
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let expect = scalar.step(&vectors[l]);
                for (o, &plane) in sampled.iter().enumerate() {
                    prop_assert_eq!(
                        plane >> l & 1,
                        expect >> o & 1,
                        "round {} lane {} output {} at {:.2}x crit", round, l, o, period_frac
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full timed stream runner vs scalar `ClockedSim` runs of each
    /// contiguous segment, on real adder netlists at safe and overclocked
    /// periods.
    #[test]
    fn clocked_stream_lanes_match_scalar_at_safe_and_overclocked(
        overclock in prop_oneof![Just(1.05f64), Just(0.7), Just(0.45), Just(0.3)],
        seed in any::<u64>(),
        n in 65usize..320,
        is_isa in any::<bool>(),
    ) {
        let adder = if is_isa {
            let cfg = isa_core::IsaConfig::new(32, 8, 0, 1, 4).unwrap();
            isa::build(&cfg, AdderTopology::Ripple).unwrap()
        } else {
            build_exact(16, AdderTopology::Ripple)
        };
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib)
            .perturbed(&VariationModel::new(0.05, seed));
        let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        let period = crit * overclock;
        let mask = (1u64 << adder.width()) - 1;
        let mut x = seed | 1;
        let inputs: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 32 & mask, x & mask)
            })
            .collect();

        let tape = InstructionTape::compile(adder.netlist());
        let program = TimedTape::new(adder.netlist(), &tape, &ann);
        let sampled = run_clocked_batch_timed(&adder, &program, &tape, period, &inputs);
        prop_assert_eq!(
            &sampled,
            &scalar_segments(&adder, &ann, period, &inputs),
            "at {:.2}x crit", overclock
        );
        if overclock > 1.0 {
            for (&(a, b), &y) in inputs.iter().zip(&sampled) {
                prop_assert_eq!(y, (a + b) & (mask << 1 | 1));
            }
        }
    }
}

#[test]
fn batch_packing_round_trip_through_adder_planes() {
    // Directed seam check: a stream one longer than a multiple of LANES
    // exercises the ragged final segment.
    let adder = build_exact(16, AdderTopology::Cla4);
    let lib = CellLibrary::industrial_65nm();
    let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
    let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
    let inputs: Vec<(u64, u64)> = (0..129u64)
        .map(|i| ((i * 509) & 0xFFFF, (i * 263) & 0xFFFF))
        .collect();
    let tape = InstructionTape::compile(adder.netlist());
    let program = TimedTape::new(adder.netlist(), &tape, &ann);
    let sampled = run_clocked_batch_timed(&adder, &program, &tape, crit + 1.0, &inputs);
    for (i, &(a, b)) in inputs.iter().enumerate() {
        assert_eq!(sampled[i], a + b, "cycle {i}");
    }
}
