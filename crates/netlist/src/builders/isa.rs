//! Gate-level Inexact Speculative Adder assembly (Fig. 1 of the paper).
//!
//! Each speculative path instantiates:
//!
//! * a **SPEC** carry speculator: a balanced carry-lookahead tree over the
//!   `S` operand bits below the path, whose group generate is the carry
//!   speculated at 0;
//! * a **sub-ADD**: any of the adder topologies from this crate, taking the
//!   speculated carry as carry-in;
//! * a **COMP** block: fault detection (`SPEC` vs previous sub-ADD
//!   carry-out; a fault is always a missed carry), a `C`-bit LSB increment
//!   chain with internal-overflow detection, and an `R`-bit reduction
//!   forcing the preceding sum's MSBs to ones.
//!
//! The produced netlist is bit-equivalent to
//! [`isa_core::SpeculativeAdder`] — an invariant enforced by this module's
//! tests, the cross-crate integration suite and the `prove` sweep.

use std::error::Error;
use std::fmt;

use isa_core::IsaConfig;

use crate::graph::{NetId, NetlistBuilder};

use super::{AdderNetlist, AdderTopology};

/// Error building an ISA netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaBuildError {
    /// The chosen sub-adder topology cannot implement the block width.
    IncompatibleTopology {
        /// The requested topology.
        topology: AdderTopology,
        /// The ISA block width it must implement.
        block_size: u32,
    },
}

impl fmt::Display for IsaBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaBuildError::IncompatibleTopology {
                topology,
                block_size,
            } => write!(
                f,
                "topology {} cannot implement {block_size}-bit blocks",
                topology.name()
            ),
        }
    }
}

impl Error for IsaBuildError {}

/// Balanced group-generate/propagate tree over LSB-first (g, p) pairs.
fn gp_tree(b: &mut NetlistBuilder, g: &[NetId], p: &[NetId]) -> (NetId, NetId) {
    debug_assert!(!g.is_empty() && g.len() == p.len());
    if g.len() == 1 {
        return (g[0], p[0]);
    }
    let mid = g.len() / 2;
    let (gl, pl) = gp_tree(b, &g[..mid], &p[..mid]);
    let (gh, ph) = gp_tree(b, &g[mid..], &p[mid..]);
    // (G, P) = (Gh | Ph·Gl, Ph·Pl)
    (b.ao21(ph, gl, gh), b.and2(ph, pl))
}

/// Builds the SPEC block: the speculated carry into the path starting at
/// `boundary`, the group generate `G` of the `s` bits below it (a window
/// that only propagates speculates 0). Returns `None` for `s = 0`, where
/// the carry is constant 0, letting the sub-adder drop its carry-in logic.
fn build_spec(
    b: &mut NetlistBuilder,
    a_bits: &[NetId],
    b_bits: &[NetId],
    boundary: usize,
    s: usize,
) -> Option<NetId> {
    if s == 0 {
        return None;
    }
    let window = boundary - s..boundary;
    let g: Vec<NetId> = window
        .clone()
        .map(|i| b.and2(a_bits[i], b_bits[i]))
        .collect();
    let p: Vec<NetId> = window.map(|i| b.xor2(a_bits[i], b_bits[i])).collect();
    Some(gp_tree(b, &g, &p).0)
}

/// Builds the gate-level ISA for a configuration, using `topology` for
/// every sub-ADD block.
///
/// # Errors
///
/// Returns [`IsaBuildError::IncompatibleTopology`] when the topology cannot
/// implement the block width.
pub fn build(cfg: &IsaConfig, topology: AdderTopology) -> Result<AdderNetlist, IsaBuildError> {
    let bsz = cfg.block_size();
    if !topology.supports_width(bsz) {
        return Err(IsaBuildError::IncompatibleTopology {
            topology,
            block_size: bsz,
        });
    }
    let width = cfg.width();
    let paths = cfg.num_paths() as usize;
    let bsz = bsz as usize;
    let c = cfg.correction() as usize;
    let r = cfg.reduction() as usize;

    // The `_g0` segment names the speculated carry. Every design
    // speculates at 0, but the name reaches netlint reports and exported
    // Verilog and SDF files, so it keeps the segment.
    let mut b = NetlistBuilder::new(format!(
        "isa_{}_{}_{}_{}_g0_w{width}_{}",
        cfg.block_size(),
        cfg.spec_size(),
        cfg.correction(),
        cfg.reduction(),
        topology.name()
    ));
    let a_bits = b.input_bus("a", width);
    let b_bits = b.input_bus("b", width);

    // Phase 1: SPEC + sub-ADD per path.
    let mut spec: Vec<Option<NetId>> = Vec::with_capacity(paths);
    let mut raw_sums: Vec<Vec<NetId>> = Vec::with_capacity(paths);
    let mut couts: Vec<NetId> = Vec::with_capacity(paths);
    for k in 0..paths {
        let lo = k * bsz;
        let cin = if k == 0 {
            None
        } else {
            build_spec(&mut b, &a_bits, &b_bits, lo, cfg.spec_size() as usize)
        };
        spec.push(cin);
        let (sums, cout) =
            topology.chain(&mut b, &a_bits[lo..lo + bsz], &b_bits[lo..lo + bsz], cin);
        raw_sums.push(sums);
        couts.push(cout);
    }

    // Phase 2: COMP per boundary — fault detect + C-bit correction. The
    // SPEC carry never exceeds the previous carry-out, so every fault is a
    // missed carry (+1, increment).
    let mut final_sums = raw_sums.clone();
    let mut forces: Vec<Option<NetId>> = vec![None; paths];
    for k in 1..paths {
        let prev_cout = couts[k - 1];
        // fault = spec XOR prev_cout (spec absent = constant 0).
        let fault = match spec[k] {
            None => prev_cout,
            Some(s) => b.xor2(s, prev_cout),
        };
        if c > 0 {
            let group: Vec<NetId> = raw_sums[k][..c].to_vec();
            // Internal-overflow detection: incrementing is impossible iff
            // the group is all ones.
            let blocked = b.reduce_tree(&group, |bb, l, r| bb.and2(l, r));
            let not_blocked = b.inv(blocked);
            let enable = b.and2(fault, not_blocked);
            // Increment chain: t propagates while the bit was 1.
            let mut t = enable;
            for i in 0..c {
                let raw = raw_sums[k][i];
                final_sums[k][i] = b.xor2(raw, t);
                if i + 1 < c {
                    t = b.and2(t, raw);
                }
            }
            if r > 0 {
                forces[k] = Some(b.and2(fault, blocked));
            }
        } else if r > 0 {
            forces[k] = Some(fault);
        }
        // c == 0 && r == 0: the error stands, no hardware.
    }

    // Phase 3: R-bit reduction forces the preceding sum's MSBs to ones
    // where the missed carry stands.
    for k in 1..paths {
        if let Some(force) = forces[k] {
            for slot in final_sums[k - 1][bsz - r..].iter_mut() {
                *slot = b.or2(*slot, force);
            }
        }
    }

    for (k, sums) in final_sums.iter().enumerate() {
        for (i, &s) in sums.iter().enumerate() {
            b.mark_output(s, format!("sum[{}]", k * bsz + i));
        }
    }
    b.mark_output(couts[paths - 1], format!("sum[{width}]"));

    Ok(AdderNetlist::from_netlist(
        b.finish().expect("ISA netlist is well-formed"),
        width,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::{paper_isa_configs, Adder, SpeculativeAdder};

    fn random_pairs(n: usize, width: u32) -> Vec<(u64, u64)> {
        let mask = (1u64 << width) - 1;
        let mut seed = 0x0123_4567_89AB_CDEFu64;
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed & mask, (seed >> 24).wrapping_mul(seed) & mask)
            })
            .collect()
    }

    #[test]
    fn matches_behavioural_model_for_all_paper_designs() {
        for cfg in paper_isa_configs() {
            let behavioural = SpeculativeAdder::new(cfg);
            let gate = build(&cfg, AdderTopology::Ripple).unwrap();
            for &(a, b) in &random_pairs(500, 32) {
                assert_eq!(
                    gate.add(a, b),
                    behavioural.add(a, b),
                    "cfg {cfg} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn topology_choice_does_not_change_function() {
        let cfg = IsaConfig::new(32, 8, 2, 1, 4).unwrap();
        let behavioural = SpeculativeAdder::new(cfg);
        for topology in [
            AdderTopology::Ripple,
            AdderTopology::Cla4,
            AdderTopology::CarrySkip(4),
            AdderTopology::CarrySelect(4),
            AdderTopology::BrentKung,
            AdderTopology::Sklansky,
            AdderTopology::KoggeStone,
        ] {
            let gate = build(&cfg, topology).unwrap();
            for &(a, b) in &random_pairs(200, 32) {
                assert_eq!(
                    gate.add(a, b),
                    behavioural.add(a, b),
                    "{} a={a:#x} b={b:#x}",
                    topology.name()
                );
            }
        }
    }

    #[test]
    fn corner_cases_match_behavioural() {
        let cfg = IsaConfig::new(32, 8, 0, 1, 4).unwrap();
        let behavioural = SpeculativeAdder::new(cfg);
        let gate = build(&cfg, AdderTopology::Cla4).unwrap();
        let m = u32::MAX as u64;
        for (a, b) in [
            (0, 0),
            (m, m),
            (m, 1),
            (0x0000_00FF, 1),
            (0x0000_01FF, 1),
            (0x0000_02FF, 1),
            (0x00FF_FFFF, 1),
            (0xFFFF_FFFF, 0),
            (0x8000_0000, 0x8000_0000),
        ] {
            assert_eq!(gate.add(a, b), behavioural.add(a, b), "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn incompatible_topology_is_rejected() {
        // Brent-Kung requires power-of-two blocks; 12-bit blocks are not.
        let cfg = IsaConfig::new(48, 12, 0, 0, 0).unwrap();
        let err = build(&cfg, AdderTopology::BrentKung).unwrap_err();
        assert!(matches!(err, IsaBuildError::IncompatibleTopology { .. }));
    }

    #[test]
    fn sixteen_bit_blocks_match_behavioural() {
        for quad in [(16u32, 7u32, 0u32, 8u32), (16, 2, 1, 6), (16, 1, 0, 2)] {
            let cfg = IsaConfig::new(32, quad.0, quad.1, quad.2, quad.3).unwrap();
            let behavioural = SpeculativeAdder::new(cfg);
            let gate = build(&cfg, AdderTopology::CarrySkip(4)).unwrap();
            for &(a, b) in &random_pairs(300, 32) {
                assert_eq!(gate.add(a, b), behavioural.add(a, b), "cfg {cfg}");
            }
        }
    }

    #[test]
    fn netlist_name_encodes_design() {
        let cfg = IsaConfig::new(32, 8, 0, 0, 4).unwrap();
        let gate = build(&cfg, AdderTopology::Ripple).unwrap();
        assert_eq!(gate.netlist().name(), "isa_8_0_0_4_g0_w32_ripple");
    }
}
