//! Property-based tests of the netlist substrate: every generated adder is
//! a correct adder, every ISA netlist matches the behavioural model, and
//! the timing machinery obeys its contracts.

use isa_core::{Adder, IsaConfig, SpeculativeAdder};
use isa_netlist::builders::{build_exact, isa, AdderTopology};
use isa_netlist::cell::CellLibrary;
use isa_netlist::sdf;
use isa_netlist::sta::StaReport;
use isa_netlist::synth::area_recovery;
use isa_netlist::timing::{DelayAnnotation, VariationModel};
use proptest::prelude::*;

fn topology_strategy() -> impl Strategy<Value = AdderTopology> {
    prop_oneof![
        Just(AdderTopology::Ripple),
        Just(AdderTopology::Cla4),
        Just(AdderTopology::CarrySkip(4)),
        Just(AdderTopology::CarrySelect(4)),
        Just(AdderTopology::BrentKung),
        Just(AdderTopology::Sklansky),
        Just(AdderTopology::KoggeStone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every topology at every supported width computes a + b exactly.
    #[test]
    fn all_topologies_add(
        topology in topology_strategy(),
        width in prop_oneof![Just(8u32), Just(16), Just(32)],
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        prop_assume!(topology.supports_width(width));
        let mask = (1u64 << width) - 1;
        let adder = build_exact(width, topology);
        prop_assert_eq!(adder.add(a & mask, b & mask), (a & mask) + (b & mask));
    }

    /// Gate-level ISA == behavioural ISA for arbitrary valid configs.
    #[test]
    fn isa_netlist_matches_behavioural(
        b_sz in prop_oneof![Just(8u32), Just(16)],
        s in 0u32..=4,
        c in 0u32..=2,
        r in 0u32..=6,
        a in any::<u64>(),
        x in any::<u64>(),
    ) {
        let cfg = IsaConfig::new(32, b_sz, s.min(b_sz), c.min(b_sz), r.min(b_sz)).unwrap();
        let behavioural = SpeculativeAdder::new(cfg);
        let gate = isa::build(&cfg, AdderTopology::Ripple).unwrap();
        let m = u32::MAX as u64;
        prop_assert_eq!(gate.add(a & m, x & m), behavioural.add(a & m, x & m));
    }

    /// STA critical delay is positive and grows monotonically when every
    /// delay is scaled up.
    #[test]
    fn sta_scales_with_delays(factor in 1.0f64..3.0) {
        let adder = build_exact(16, AdderTopology::BrentKung);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let base = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        let scaled_delays = ann.as_slice().iter().map(|d| d * factor).collect();
        let scaled = DelayAnnotation::from_delays(scaled_delays);
        let scaled_crit = StaReport::analyze(adder.netlist(), &scaled).critical_ps();
        prop_assert!(base > 0.0);
        prop_assert!((scaled_crit - base * factor).abs() < 1e-6);
    }

    /// Area recovery never exceeds the target and never speeds a cell up.
    #[test]
    fn area_recovery_contract(
        target in 250.0f64..600.0,
        max_factor in 1.0f64..2.5,
    ) {
        let adder = build_exact(16, AdderTopology::Sklansky);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let base_crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        prop_assume!(target >= base_crit);
        let recovered = area_recovery(adder.netlist(), &ann, target, max_factor);
        let crit = StaReport::analyze(adder.netlist(), &recovered).critical_ps();
        prop_assert!(crit <= target + 1e-6, "crit {crit} vs target {target}");
        for (r, n) in recovered.as_slice().iter().zip(ann.as_slice()) {
            prop_assert!(*r >= *n - 1e-9);
            prop_assert!(*r <= n * max_factor + 1e-9);
        }
        // Function unchanged.
        prop_assert_eq!(adder.add(0xABCD, 0x1234), 0xABCD + 0x1234);
    }

    /// SDF write/read round-trips any variation seed at milli-ps accuracy.
    #[test]
    fn sdf_roundtrip(seed in any::<u64>(), sigma in 0.0f64..0.1) {
        let adder = build_exact(8, AdderTopology::Ripple);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib)
            .perturbed(&VariationModel::new(sigma, seed));
        let text = sdf::write(adder.netlist(), &ann);
        let back = sdf::read(adder.netlist(), &text).unwrap();
        for (a, b) in ann.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    /// Variation is always within +-3 sigma multiplicatively.
    #[test]
    fn variation_bounds(seed in any::<u64>(), sigma in 0.0f64..0.2) {
        let adder = build_exact(8, AdderTopology::Cla4);
        let lib = CellLibrary::industrial_65nm();
        let nominal = DelayAnnotation::nominal(adder.netlist(), &lib);
        let varied = nominal.perturbed(&VariationModel::new(sigma, seed));
        for (v, n) in varied.as_slice().iter().zip(nominal.as_slice()) {
            prop_assert!(*v >= n * (1.0 - 3.0 * sigma) - 1e-9);
            prop_assert!(*v <= n * (1.0 + 3.0 * sigma) + 1e-9);
        }
    }

    /// The u64 packing holds lane 0 of the word evaluator's outputs.
    #[test]
    fn evaluate_outputs_packing(a in any::<u32>(), b in any::<u32>()) {
        let adder = build_exact(32, AdderTopology::KoggeStone);
        let pins = adder.input_values(a.into(), b.into());
        let words: Vec<u64> = pins.iter().map(|&v| u64::from(v)).collect();
        let values = adder.netlist().evaluate_words(&words);
        let packed = adder.netlist().evaluate_outputs_u64(&pins);
        for (i, net) in adder.netlist().outputs().iter().enumerate() {
            prop_assert_eq!(values[net.index()], (packed >> i) & 1);
        }
    }
}

mod word_level {
    use super::*;
    use isa_core::{pack_pairs, unpack_lanes, LANES};
    use isa_netlist::builders::CANDIDATE_TOPOLOGIES;
    use isa_netlist::InstructionTape;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Bit-sliced evaluation equals scalar evaluation in every lane, on
        /// both exact and ISA netlists.
        #[test]
        fn evaluate_words_matches_scalar_lanes(
            topology in topology_strategy(),
            seed in any::<u64>(),
        ) {
            prop_assume!(topology.supports_width(8));
            let cfg = IsaConfig::new(32, 8, 0, 1, 4).unwrap();
            let adders = [
                build_exact(32, topology),
                isa::build(&cfg, topology).unwrap(),
            ];
            let mut x = seed | 1;
            let pairs: Vec<(u64, u64)> = (0..LANES as u64)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 32, x & 0xFFFF_FFFF)
                })
                .collect();
            let mut input_planes = [0u64; 64];
            pack_pairs(32, &pairs, &mut input_planes);
            for adder in &adders {
                let values = adder.netlist().evaluate_words(&input_planes);
                let planes: Vec<u64> =
                    adder.netlist().outputs().iter().map(|n| values[n.index()]).collect();
                let mut lanes = [0u64; LANES];
                unpack_lanes(&planes, &mut lanes);
                for (l, &(a, b)) in pairs.iter().enumerate() {
                    prop_assert_eq!(lanes[l], adder.add(a, b), "lane {}", l);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// The production batch adder equals mapping `add` at every stream
        /// length up to 600: empty, ragged 64-lane tails, and one to three
        /// 256-pair (`LANES × CHUNK`) tape groups, on every candidate
        /// topology's 32-bit exact adder and an ISA netlist.
        #[test]
        fn add_batch_with_tape_matches_add(seed in any::<u64>()) {
            let cfg = IsaConfig::new(32, 8, 0, 1, 4).unwrap();
            let adders = CANDIDATE_TOPOLOGIES
                .iter()
                .map(|&topology| build_exact(32, topology))
                .chain([isa::build(&cfg, AdderTopology::Sklansky).unwrap()]);
            let mut x = seed | 1;
            let pairs: Vec<(u64, u64)> = (0..=600)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 32, x & 0xFFFF_FFFF)
                })
                .collect();
            for adder in adders {
                let tape = InstructionTape::compile(adder.netlist());
                let expected: Vec<u64> = pairs.iter().map(|&(a, b)| adder.add(a, b)).collect();
                for n in 0..=600 {
                    prop_assert_eq!(
                        adder.add_batch_with_tape(&tape, &pairs[..n]),
                        &expected[..n],
                        "{} at {} pairs",
                        adder.netlist().name(),
                        n
                    );
                }
            }
        }
    }
}
