//! Gate-level adder generators.
//!
//! These play the role of Design Compiler's arithmetic architecture
//! library: several classic adder topologies with different area/delay
//! trade-offs ([`ripple`], [`prefix`] parallel-prefix families, [`blocks`]
//! carry-lookahead/skip/select), plus the Inexact Speculative Adder
//! assembly ([`isa`]) that stitches SPEC, sub-ADD and COMP blocks together
//! exactly as in Fig. 1 of the paper.

pub mod blocks;
pub mod isa;
pub mod prefix;
pub mod ripple;

use isa_core::batch::{pack_pairs, unpack_lanes, LANES};
use isa_core::ChunkPlanes;

use crate::graph::{NetId, Netlist, NetlistBuilder};
use crate::tape::InstructionTape;

/// An adder implementation choice — the architectural degree of freedom a
/// cost-driven synthesis explores under a timing constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdderTopology {
    /// Ripple-carry: smallest, slowest.
    Ripple,
    /// Chained flat 4-bit carry-lookahead groups.
    Cla4,
    /// Carry-skip with the given ripple block width.
    CarrySkip(u32),
    /// Carry-select with the given block width.
    CarrySelect(u32),
    /// Brent-Kung parallel prefix.
    BrentKung,
    /// Sklansky parallel prefix.
    Sklansky,
    /// Kogge-Stone parallel prefix: fastest, largest.
    KoggeStone,
}

/// All topologies a synthesis run considers, with representative block
/// sizes.
pub const CANDIDATE_TOPOLOGIES: [AdderTopology; 9] = [
    AdderTopology::Ripple,
    AdderTopology::CarrySkip(2),
    AdderTopology::CarrySkip(4),
    AdderTopology::CarrySelect(4),
    AdderTopology::CarrySelect(8),
    AdderTopology::Cla4,
    AdderTopology::BrentKung,
    AdderTopology::Sklansky,
    AdderTopology::KoggeStone,
];

impl AdderTopology {
    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            AdderTopology::Ripple => "ripple".to_owned(),
            AdderTopology::Cla4 => "cla4".to_owned(),
            AdderTopology::CarrySkip(k) => format!("carry_skip{k}"),
            AdderTopology::CarrySelect(k) => format!("carry_select{k}"),
            AdderTopology::BrentKung => "brent_kung".to_owned(),
            AdderTopology::Sklansky => "sklansky".to_owned(),
            AdderTopology::KoggeStone => "kogge_stone".to_owned(),
        }
    }

    /// Whether the topology can implement the given operand width.
    #[must_use]
    pub fn supports_width(&self, width: u32) -> bool {
        if width == 0 || width > 63 {
            return false;
        }
        match self {
            AdderTopology::Ripple | AdderTopology::Sklansky | AdderTopology::KoggeStone => true,
            AdderTopology::Cla4 => width.is_multiple_of(4),
            AdderTopology::CarrySkip(k) => *k >= 2 && width.is_multiple_of(*k) && width > *k,
            AdderTopology::CarrySelect(k) => *k >= 1 && width.is_multiple_of(*k) && width > *k,
            AdderTopology::BrentKung => width.is_power_of_two(),
        }
    }

    /// Builds the sum/carry chain of this topology over operand bit slices.
    ///
    /// # Panics
    ///
    /// Panics if the topology does not support the slice width (check with
    /// [`Self::supports_width`] first).
    pub(crate) fn chain(
        &self,
        b: &mut NetlistBuilder,
        a_bits: &[NetId],
        b_bits: &[NetId],
        cin: Option<NetId>,
    ) -> (Vec<NetId>, NetId) {
        match self {
            AdderTopology::Ripple => ripple::ripple_chain(b, a_bits, b_bits, cin),
            AdderTopology::Cla4 => blocks::cla4_chain(b, a_bits, b_bits, cin),
            AdderTopology::CarrySkip(k) => blocks::skip_chain(b, a_bits, b_bits, cin, *k as usize),
            AdderTopology::CarrySelect(k) => {
                blocks::select_chain(b, a_bits, b_bits, cin, *k as usize)
            }
            AdderTopology::BrentKung => {
                prefix::prefix_chain(b, prefix::PrefixScheme::BrentKung, a_bits, b_bits, cin)
            }
            AdderTopology::Sklansky => {
                prefix::prefix_chain(b, prefix::PrefixScheme::Sklansky, a_bits, b_bits, cin)
            }
            AdderTopology::KoggeStone => {
                prefix::prefix_chain(b, prefix::PrefixScheme::KoggeStone, a_bits, b_bits, cin)
            }
        }
    }
}

/// Builds a standalone exact adder of the given width and topology.
///
/// # Panics
///
/// Panics if the topology does not support the width.
#[must_use]
pub fn build_exact(width: u32, topology: AdderTopology) -> AdderNetlist {
    assert!(
        topology.supports_width(width),
        "{} cannot implement width {width}",
        topology.name()
    );
    let mut b = NetlistBuilder::new(format!("exact{width}_{}", topology.name()));
    let a_bits = b.input_bus("a", width);
    let b_bits = b.input_bus("b", width);
    let (sums, cout) = topology.chain(&mut b, &a_bits, &b_bits, None);
    b.mark_output_bus(&sums, "sum");
    b.mark_output(cout, format!("sum[{width}]"));
    AdderNetlist::from_netlist(b.finish().expect("exact adder is well-formed"), width)
}

/// A gate-level adder with its I/O convention attached.
///
/// Inputs are `a[0..width]` then `b[0..width]` (LSB first); outputs are
/// `sum[0..=width]` with the carry-out as the last bit, matching
/// [`isa_core::Adder`]'s behavioural convention.
#[derive(Debug, Clone, PartialEq)]
pub struct AdderNetlist {
    netlist: Netlist,
    width: u32,
}

impl AdderNetlist {
    /// Wraps a netlist that follows the adder I/O convention.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's I/O counts do not match `width`.
    #[must_use]
    pub fn from_netlist(netlist: Netlist, width: u32) -> Self {
        assert_eq!(
            netlist.inputs().len(),
            2 * width as usize,
            "adder of width {width} must have {} inputs",
            2 * width
        );
        assert_eq!(
            netlist.outputs().len(),
            width as usize + 1,
            "adder of width {width} must have {} outputs",
            width + 1
        );
        Self { netlist, width }
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Packs two operands into the netlist's primary-input ordering
    /// (`a[0..width]` then `b[0..width]`, the plane order of
    /// [`isa_core::pack_pairs`]).
    #[must_use]
    pub fn input_values(&self, a: u64, b: u64) -> Vec<bool> {
        let w = self.width;
        let mut values = Vec::with_capacity(2 * w as usize);
        for i in 0..w {
            values.push((a >> i) & 1 == 1);
        }
        for i in 0..w {
            values.push((b >> i) & 1 == 1);
        }
        values
    }

    /// Zero-delay functional addition (the netlist's settled output): lane
    /// 0 of [`Netlist::evaluate_words`], the scalar oracle of
    /// [`Self::add_batch_with_tape`].
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        self.netlist.evaluate_outputs_u64(&self.input_values(a, b))
    }

    /// Zero-delay functional addition of a whole operand stream through a
    /// precompiled [`InstructionTape`]: [`CHUNK`](crate::tape::CHUNK)
    /// 64-lane plane sets per topological sweep, so the op loop runs on
    /// 256-bit vectors. Bit-for-bit equal to mapping [`Self::add`] over
    /// `pairs`; this is the one batch adder production runs.
    ///
    /// # Panics
    ///
    /// Panics if the tape was not compiled from this adder's netlist.
    #[must_use]
    pub fn add_batch_with_tape(&self, tape: &InstructionTape, pairs: &[(u64, u64)]) -> Vec<u64> {
        use crate::tape::CHUNK;
        let w = self.width as usize;
        assert_eq!(tape.input_slots().len(), 2 * w, "tape/adder input mismatch");
        let mut out = vec![0u64; pairs.len()];
        let mut input_planes = vec![0u64; 2 * w];
        let mut chunk_in = vec![[0u64; CHUNK]; 2 * w];
        let mut arena: Vec<[u64; CHUNK]> = Vec::new();
        let mut planes = Vec::with_capacity(w + 1);
        // Up to CHUNK 64-lane groups travel through one sweep.
        for (group, sums) in pairs
            .chunks(LANES * CHUNK)
            .zip(out.chunks_mut(LANES * CHUNK))
        {
            chunk_in.fill([0; CHUNK]);
            for (j, chunk) in group.chunks(LANES).enumerate() {
                pack_pairs(self.width, chunk, &mut input_planes);
                for (lanes, &plane) in chunk_in.iter_mut().zip(&input_planes) {
                    lanes[j] = plane;
                }
            }
            tape.execute_into(&mut ChunkPlanes::<CHUNK>, &chunk_in, &mut arena);
            for (j, sums) in sums.chunks_mut(LANES).enumerate() {
                planes.clear();
                planes.extend(tape.output_slots().iter().map(|&s| arena[s as usize][j]));
                unpack_lanes(&planes, sums);
            }
        }
        out
    }
}

/// Generate/propagate pair for each bit: `g = a & b`, `p = a ^ b`.
pub(crate) fn pg_init(
    b: &mut NetlistBuilder,
    a_bits: &[NetId],
    b_bits: &[NetId],
) -> (Vec<NetId>, Vec<NetId>) {
    let g = a_bits
        .iter()
        .zip(b_bits)
        .map(|(&x, &y)| b.and2(x, y))
        .collect();
    let p = a_bits
        .iter()
        .zip(b_bits)
        .map(|(&x, &y)| b.xor2(x, y))
        .collect();
    (g, p)
}

/// Final sum bits from propagate signals and per-bit carries:
/// `sum_i = p_i ^ c_i` (`c_0` may be absent for a constant-0 carry-in).
pub(crate) fn sum_from_carries(
    b: &mut NetlistBuilder,
    p: &[NetId],
    carries: &[Option<NetId>],
) -> Vec<NetId> {
    p.iter()
        .zip(carries)
        .map(|(&pi, c)| match c {
            Some(ci) => b.xor2(pi, *ci),
            None => b.buf(pi),
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::AdderNetlist;

    /// Exhaustive check for narrow adders, randomized for wide ones.
    pub(crate) fn check_adder(adder: &AdderNetlist) {
        let w = adder.width();
        if w <= 6 {
            for a in 0..(1u64 << w) {
                for b in 0..(1u64 << w) {
                    assert_eq!(adder.add(a, b), a + b, "w={w} a={a} b={b}");
                }
            }
        } else {
            let mask = (1u64 << w) - 1;
            let mut seed = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..4000 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let a = seed & mask;
                let b = (seed >> 32).wrapping_mul(seed) & mask;
                assert_eq!(adder.add(a, b), a + b, "w={w} a={a:#x} b={b:#x}");
            }
            // Directed corners: carry chains and boundaries.
            for (a, b) in [
                (0, 0),
                (mask, 1),
                (mask, mask),
                (mask ^ 1, 1),
                (1u64 << (w - 1), 1u64 << (w - 1)),
                (0x5555_5555_5555_5555 & mask, 0xAAAA_AAAA_AAAA_AAAA & mask),
            ] {
                assert_eq!(adder.add(a, b), a + b, "w={w} a={a:#x} b={b:#x}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A netlist with `inputs` primary inputs and `outputs` primary
    /// outputs (each output reads the first input).
    fn shaped(inputs: usize, outputs: usize) -> Netlist {
        let mut b = NetlistBuilder::new("shape");
        let nets: Vec<NetId> = (0..inputs).map(|i| b.input(format!("in{i}"))).collect();
        for i in 0..outputs {
            let y = b.buf(nets[0]);
            b.mark_output(y, format!("sum[{i}]"));
        }
        b.finish().unwrap()
    }

    #[test]
    #[should_panic(expected = "must have 4 inputs")]
    fn from_netlist_rejects_a_wrong_input_count() {
        let _ = AdderNetlist::from_netlist(shaped(3, 3), 2);
    }

    #[test]
    #[should_panic(expected = "must have 3 outputs")]
    fn from_netlist_rejects_a_wrong_output_count() {
        let _ = AdderNetlist::from_netlist(shaped(4, 2), 2);
    }
}
