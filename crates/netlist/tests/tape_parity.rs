//! Tape-vs-`evaluate_words` bit-identity battery: sampled width-32 grid
//! designs (plus exact adders across topologies) × random 64-lane planes,
//! checked at the scalar plane width and at two vector chunk widths
//! (`[u64; 4]`, the production [`CHUNK`](isa_netlist::tape::CHUNK), and
//! `[u64; 8]` — the executor is generic over the chunk width).

use isa_core::designs::enumerate_quadruples;
use isa_core::{ChunkPlanes, WordPlanes};
use isa_netlist::builders::{build_exact, isa, AdderTopology};
use isa_netlist::graph::Netlist;
use isa_netlist::tape::InstructionTape;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scalar path, then both chunk widths, against the graph interpreter.
fn check_tape_parity(netlist: &Netlist, seed: &mut u64, batteries: usize) {
    let tape = InstructionTape::compile(netlist);
    let pins = netlist.inputs().len();
    for _ in 0..batteries {
        let planes: Vec<u64> = (0..pins).map(|_| splitmix(seed)).collect();
        let expected = netlist.evaluate_words(&planes);

        let mut arena = Vec::new();
        tape.execute_into(&mut WordPlanes, &planes, &mut arena);
        assert_eq!(arena, expected, "{}: scalar tape diverged", netlist.name());

        check_chunked::<4>(netlist, &tape, seed);
        check_chunked::<8>(netlist, &tape, seed);
    }
}

fn check_chunked<const C: usize>(netlist: &Netlist, tape: &InstructionTape, seed: &mut u64) {
    let pins = netlist.inputs().len();
    let sets: Vec<Vec<u64>> = (0..C)
        .map(|_| (0..pins).map(|_| splitmix(seed)).collect())
        .collect();
    let chunks: Vec<[u64; C]> = (0..pins)
        .map(|i| std::array::from_fn(|j| sets[j][i]))
        .collect();
    let mut arena = Vec::new();
    tape.execute_into(&mut ChunkPlanes::<C>, &chunks, &mut arena);
    for (j, set) in sets.iter().enumerate() {
        let expected = netlist.evaluate_words(set);
        for (slot, (chunk, want)) in arena.iter().zip(&expected).enumerate() {
            assert_eq!(
                chunk[j],
                *want,
                "{}: chunk width {C} element {j} diverged at net {slot}",
                netlist.name()
            );
        }
    }
}

#[test]
fn tape_matches_evaluate_words_on_sampled_grid_designs() {
    let grid = enumerate_quadruples(32);
    assert!(!grid.is_empty());
    let mut seed = 0x5EED_7A9E_0000_0001u64;
    let mut sampled = 0usize;
    // Every 97th quadruple: ~deterministic spread over the grid without
    // simulating thousands of designs.
    for cfg in grid.iter().step_by(97) {
        let adder = isa::build(cfg, AdderTopology::Ripple).expect("grid design must build");
        check_tape_parity(adder.netlist(), &mut seed, 4);
        sampled += 1;
    }
    assert!(sampled >= 10, "expected a meaningful grid sample");
}

#[test]
fn tape_matches_evaluate_words_on_exact_topologies() {
    let mut seed = 0x5EED_7A9E_0000_0002u64;
    for width in [8, 16, 32] {
        for topology in [
            AdderTopology::Ripple,
            AdderTopology::Cla4,
            AdderTopology::BrentKung,
            AdderTopology::Sklansky,
            AdderTopology::KoggeStone,
        ] {
            let adder = build_exact(width, topology);
            check_tape_parity(adder.netlist(), &mut seed, 4);
        }
    }
}
