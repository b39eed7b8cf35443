//! The 64-lane batch format: 64 operand pairs per machine word.
//!
//! The combined structural+timing methodology needs millions of Monte-Carlo
//! adder evaluations per (design, clock, workload) cell. Bit-sliced
//! (SIMD-within-a-register) logic simulation evaluates 64 independent
//! operand pairs per gate pass by storing, for every single-bit signal, a
//! `u64` *plane* whose bit `l` is the signal's value in lane `l`. One
//! bitwise operation then advances all 64 lanes at once — the classic
//! throughput trick for gate-level Monte Carlo.
//!
//! This module is the one owner of that format; every batched runner in
//! the workspace goes through it:
//!
//! * [`transpose64`] turns 64 lane values into bit planes and back (the
//!   transpose is its own inverse);
//! * [`pack_pairs`] writes up to [`LANES`] operand pairs as `2·width`
//!   planes in an adder netlist's input order, `a[0..width]` then
//!   `b[0..width]`; [`unpack_lanes`] turns output planes back into lane
//!   values;
//! * [`LaneSchedule`] deals a stream to the lanes.
//!
//! ## Stream segmentation
//!
//! Timing errors depend on previous circuit state, so a *stream* cannot be
//! dealt out to lanes round-robin without destroying its cycle-to-cycle
//! transitions (a random-walk workload would degenerate into uniform
//! noise). Batched stream evaluation instead gives each lane one
//! **contiguous segment** of the stream ([`segment_len`]): lane `l` carries
//! cycles `l*seg .. (l+1)*seg`, so consecutive cycles stay consecutive
//! everywhere except the 63 segment seams, where a lane starts from the
//! circuit's reset state exactly like the scalar simulator's first cycle.
//! [`LaneSchedule`] answers every question a runner asks about that deal.

use crate::adder::MAX_WIDTH;

/// Number of independent simulation lanes per machine word.
pub const LANES: usize = 64;

/// Length of each lane's contiguous segment when a stream of `n` cycles is
/// dealt across [`LANES`] lanes: lane `l` carries stream positions
/// `l * segment_len(n) ..` (clipped to `n`).
///
/// Always at least 1, so `i % segment_len(n) == 0` identifies the positions
/// where a lane starts from the reset state.
#[must_use]
pub fn segment_len(n: usize) -> usize {
    n.div_ceil(LANES).max(1)
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `l` of word `j`
/// is what bit `j` of word `l` was. Lane values become bit planes and back
/// with the same call: six rounds of block swaps, each a fixed-shift pass
/// over word pairs that the compiler vectorizes.
#[inline]
pub fn transpose64(m: &mut [u64; 64]) {
    swap_blocks::<32>(m, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(m, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(m, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(m, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(m, 0x3333_3333_3333_3333);
    swap_blocks::<1>(m, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`]: swaps the `W`-bit blocks selected by
/// `mask` between every word `k` and word `k + W` of each `2W`-word group.
#[inline(always)]
fn swap_blocks<const W: usize>(m: &mut [u64; 64], mask: u64) {
    for group in m.chunks_exact_mut(2 * W) {
        let (lo, hi) = group.split_at_mut(W);
        for (a, b) in lo.iter_mut().zip(hi) {
            let t = ((*a >> W) ^ *b) & mask;
            *a ^= t << W;
            *b ^= t;
        }
    }
}

/// Packs up to [`LANES`] operand pairs into `planes`, one bit per lane:
/// `planes[i]` holds bit `i` of every lane's `a` and `planes[width + i]`
/// bit `i` of its `b` — an adder netlist's primary-input order. Operands
/// are masked to `width` bits (like [`Adder::add`](crate::Adder::add));
/// unused lanes hold zeros.
///
/// # Panics
///
/// Panics if `pairs` is empty or longer than [`LANES`], if `width` is zero
/// or exceeds [`MAX_WIDTH`], or if `planes` is not `2 * width` words long.
pub fn pack_pairs(width: u32, pairs: &[(u64, u64)], planes: &mut [u64]) {
    assert!(
        (1..=MAX_WIDTH).contains(&width),
        "batch width must be in 1..={MAX_WIDTH}, got {width}"
    );
    assert!(
        !pairs.is_empty() && pairs.len() <= LANES,
        "a batch holds 1..={LANES} pairs, got {}",
        pairs.len()
    );
    let w = width as usize;
    assert_eq!(
        planes.len(),
        2 * w,
        "plane buffer must hold {} words",
        2 * w
    );
    let mut a = [0u64; LANES];
    let mut b = [0u64; LANES];
    for ((a, b), &(pa, pb)) in a.iter_mut().zip(&mut b).zip(pairs) {
        *a = pa;
        *b = pb;
    }
    transpose64(&mut a);
    transpose64(&mut b);
    // Plane `i` holds bit `i` of every lane, so keeping the first `width`
    // planes is the masking.
    planes[..w].copy_from_slice(&a[..w]);
    planes[w..].copy_from_slice(&b[..w]);
}

/// Unpacks output planes into lane values: `lanes[l]` collects bit `l` of
/// every plane, plane `i` contributing bit `i`. The inverse of
/// [`pack_pairs`] for one operand's planes, over the first `lanes.len()`
/// lanes.
///
/// # Panics
///
/// Panics if more than 64 planes (values are `u64`s) or more than
/// [`LANES`] lanes are given.
pub fn unpack_lanes(planes: &[u64], lanes: &mut [u64]) {
    assert!(planes.len() <= 64, "at most 64 planes fit a u64 value");
    assert!(lanes.len() <= LANES, "at most {LANES} lanes per batch");
    let mut m = [0u64; 64];
    m[..planes.len()].copy_from_slice(planes);
    transpose64(&mut m);
    let n = lanes.len();
    lanes.copy_from_slice(&m[..n]);
}

/// How a stream of `len` positions is dealt to the [`LANES`] lanes of a
/// batched run: lane `l` carries the contiguous segment
/// `l * segment_len(len) ..` (clipped to `len`), one position per step.
///
/// At step `t` lane `l` carries position `l * seg + t` while that lies in
/// its segment; afterwards the lane is exhausted and holds its last pair.
/// Every segment's first position restarts its lane from reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSchedule {
    len: usize,
    seg: usize,
}

impl LaneSchedule {
    /// The deal of a stream of `len` positions.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            len,
            seg: segment_len(len),
        }
    }

    /// Steps a batched run of the stream takes: [`segment_len`], or 0 for
    /// an empty stream.
    #[must_use]
    pub fn steps(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.seg
        }
    }

    /// Number of positions lane `lane` carries (0 for lanes past the
    /// stream).
    #[must_use]
    pub fn lane_len(&self, lane: usize) -> usize {
        self.len.saturating_sub(lane * self.seg).min(self.seg)
    }

    /// The stream position lane `lane` carries at step `t`, or `None` once
    /// the lane is exhausted.
    #[must_use]
    pub fn position(&self, lane: usize, t: usize) -> Option<usize> {
        (t < self.lane_len(lane)).then(|| lane * self.seg + t)
    }

    /// Mask of the lanes that carry a position at step `t`: a prefix of
    /// the lanes, since every segment but the last is full.
    fn active(&self, t: usize) -> u64 {
        assert!(
            t < self.steps(),
            "step {t} of a {}-step schedule",
            self.steps()
        );
        match (self.len - t).div_ceil(self.seg) {
            lanes if lanes >= LANES => u64::MAX,
            lanes => (1u64 << lanes) - 1,
        }
    }

    /// Writes step `t`'s pairs into `lanes` and returns the mask of lanes
    /// that carry a position at that step. The other lanes keep what they
    /// hold, so a buffer stepped in order from the reset pair holds each
    /// exhausted lane's last pair (a lane past the stream keeps the reset
    /// pair).
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not the scheduled length or `t` is not below
    /// [`steps`](Self::steps).
    pub fn gather<T: Copy>(&self, stream: &[T], t: usize, lanes: &mut [T; LANES]) -> u64 {
        assert_eq!(stream.len(), self.len, "schedule/stream length mismatch");
        let active = self.active(t);
        let carried = active.count_ones() as usize;
        for (l, lane) in lanes[..carried].iter_mut().enumerate() {
            *lane = stream[l * self.seg + t];
        }
        active
    }

    /// Writes step `t`'s lane outputs back in stream order: `lanes[l]` goes
    /// to lane `l`'s position at step `t`, for every lane in `mask` that
    /// carries one.
    ///
    /// # Panics
    ///
    /// Panics like [`gather`](Self::gather).
    pub fn scatter<T: Copy>(&self, t: usize, lanes: &[T; LANES], mask: u64, out: &mut [T]) {
        assert_eq!(out.len(), self.len, "schedule/stream length mismatch");
        let mut m = mask & self.active(t);
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            out[l * self.seg + t] = lanes[l];
            m &= m - 1;
        }
    }

    /// The lane segments of `stream`, in stream order: each is one lane's
    /// positions, and each starts its lane from reset.
    pub fn segments<'a, T>(&self, stream: &'a [T]) -> std::slice::Chunks<'a, T> {
        assert_eq!(stream.len(), self.len, "schedule/stream length mismatch");
        stream.chunks(self.seg)
    }
}

/// Mask of lanes whose plane column contains a run of at least `k`
/// consecutive set bits: bit `l` of the result is set iff, reading bit `l`
/// of `planes[0..]` as lane `l`'s bit-vector (LSB plane first), some
/// window of `k` adjacent positions is all ones.
///
/// This is the plane-transposed run-length detector behind the
/// operand-adaptive timing classifier: with `planes` holding the per-bit
/// carry-propagate signals `p[i] = a[i] ^ b[i]`, the result flags every
/// lane whose operands sensitize a carry chain of `k` or more stages —
/// for all 64 lanes at once, in `O(width · log k)` word operations
/// (sliding-window AND by doubling).
///
/// `k == 0` matches every lane; `k > planes.len()` matches none.
///
/// Allocation-free (stack scratch): classification passes call this once
/// per analysis region per countdown level per stream step.
///
/// # Panics
///
/// Panics if more than 64 planes are given (bit-vectors fit a `u64`
/// position axis, like [`unpack_lanes`]).
#[must_use]
pub fn lanes_with_run_at_least(planes: &[u64], k: usize) -> u64 {
    assert!(planes.len() <= 64, "at most 64 planes per column");
    if k == 0 {
        return u64::MAX;
    }
    if k > planes.len() {
        return 0;
    }
    // windows[i] = AND of planes[i..i + m); grow m by doubling until m == k.
    let mut windows = [0u64; 64];
    windows[..planes.len()].copy_from_slice(planes);
    let mut len = planes.len();
    let mut m = 1usize;
    while m < k {
        let step = m.min(k - m);
        len -= step;
        for i in 0..len {
            windows[i] &= windows[i + step];
        }
        m += step;
    }
    windows[..len].iter().fold(0u64, |acc, &w| acc | w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift words.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    #[test]
    fn transpose_is_the_bitwise_definition_and_an_involution() {
        for seed in [0xC0FF_EE00u64, 1, 0x9E37_79B9_7F4A_7C15] {
            let mut m = [0u64; 64];
            m.copy_from_slice(&words(seed, 64));
            let original = m;
            transpose64(&mut m);
            for (j, &word) in m.iter().enumerate() {
                for (l, &row) in original.iter().enumerate() {
                    assert_eq!((word >> l) & 1, (row >> j) & 1, "bit {l} of word {j}");
                }
            }
            transpose64(&mut m);
            assert_eq!(m, original);
        }
    }

    #[test]
    fn pack_then_unpack_round_trips_every_width_and_lane_count() {
        // Full-range operands, so the masking to `width` is exercised too.
        // Under Miri a sample of widths stands for the full range.
        let raw = words(0x5EED, 2 * LANES);
        let widths: Vec<u32> = if cfg!(miri) {
            vec![1, 2, 31, 32, 33, MAX_WIDTH]
        } else {
            (1..=MAX_WIDTH).collect()
        };
        for width in widths {
            let w = width as usize;
            let mask = (1u64 << width) - 1;
            let mut planes = vec![0u64; 2 * w];
            for lanes in 1..=LANES {
                let pairs: Vec<(u64, u64)> =
                    (0..lanes).map(|l| (raw[2 * l], raw[2 * l + 1])).collect();
                pack_pairs(width, &pairs, &mut planes);
                let mut a = [u64::MAX; LANES];
                let mut b = [u64::MAX; LANES];
                unpack_lanes(&planes[..w], &mut a);
                unpack_lanes(&planes[w..], &mut b);
                for (l, (&x, &y)) in a.iter().zip(&b).enumerate() {
                    let (pa, pb) = pairs
                        .get(l)
                        .map_or((0, 0), |&(pa, pb)| (pa & mask, pb & mask));
                    assert_eq!((x, y), (pa, pb), "width {width}, {lanes} lanes, lane {l}");
                }
            }
        }
    }

    #[test]
    fn pack_matches_the_bitwise_layout() {
        let mut planes = [0u64; 16];
        pack_pairs(8, &[(0xFF, 0x0F), (0x01, 0x80)], &mut planes);
        // Plane 0 (LSB of a): both lanes have a=1.
        assert_eq!(planes[0], 0b11);
        // Plane 7 of a: lane 0 has bit 7 of 0xFF, lane 1 of 0x01 does not.
        assert_eq!(planes[7], 0b01);
        // Plane 7 of b: only lane 1's 0x80.
        assert_eq!(planes[8 + 7], 0b10);
        let mut sums = [0u64; 2];
        unpack_lanes(&planes[..8], &mut sums);
        assert_eq!(sums, [0xFF, 0x01]);
    }

    #[test]
    #[should_panic(expected = "1..=64 pairs")]
    fn oversized_pack_is_rejected() {
        pack_pairs(8, &vec![(0, 0); LANES + 1], &mut [0; 16]);
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn width_64_is_rejected() {
        // MAX_WIDTH is 63: the width+1-bit result must fit a u64.
        pack_pairs(64, &[(1, 2)], &mut [0; 128]);
    }

    #[test]
    fn segment_len_covers_all_lanes() {
        assert_eq!(segment_len(0), 1);
        assert_eq!(segment_len(1), 1);
        assert_eq!(segment_len(64), 1);
        assert_eq!(segment_len(65), 2);
        assert_eq!(segment_len(10_000), 157);
    }

    /// Checks one stream length against the schedule's contract: every
    /// position dealt exactly once, each lane's positions running on from
    /// its seam one per step, exhausted lanes holding their last position,
    /// the scatter the inverse of the deal, and seams exactly where
    /// `i % segment_len(n) == 0`. `stream` is `0..n`; `out` is scratch of
    /// at least `n` entries.
    fn check_schedule(stream: &[u32], out: &mut [u32]) {
        let n = stream.len();
        let out = &mut out[..n];
        out.fill(u32::MAX);
        let schedule = LaneSchedule::new(n);
        let seg = segment_len(n);
        let seams: Vec<u32> = stream.iter().copied().step_by(seg).collect();
        assert_eq!(schedule.steps(), if n == 0 { 0 } else { seg }, "n={n}");
        let mut lanes = [u32::MAX; LANES];
        let mut dealt = 0;
        for t in 0..schedule.steps() {
            let held = lanes;
            let active = schedule.gather(stream, t, &mut lanes);
            let k = active.count_ones() as usize;
            let prefix = if k == LANES { u64::MAX } else { (1 << k) - 1 };
            assert_eq!(active, prefix, "n={n} t={t}: active lanes are a prefix");
            assert_eq!(
                lanes[k..],
                held[k..],
                "n={n} t={t}: an exhausted lane moved"
            );
            if t == 0 {
                assert_eq!(lanes[..k], seams[..], "n={n}: lanes start at the seams");
            } else {
                for l in 0..k {
                    assert!(lanes[l] == held[l] + 1, "n={n} t={t}: lane {l} skipped");
                }
            }
            dealt += k;
            schedule.scatter(t, &lanes, u64::MAX, out);
        }
        // `dealt` positions went out and every slot came back holding its
        // own index: each position was dealt exactly once.
        assert_eq!(dealt, n, "n={n}");
        assert_eq!(out, stream, "n={n}: scatter is not the identity");
        let segment_starts: Vec<u32> = schedule.segments(stream).map(|s| s[0]).collect();
        assert_eq!(segment_starts, seams, "n={n}");
        for l in 0..LANES {
            let len = schedule.lane_len(l);
            let start = seams.get(l).map_or(0, |&s| s as usize);
            assert_eq!(
                schedule.position(l, 0),
                (len > 0).then_some(start),
                "n={n} lane {l}"
            );
            assert_eq!(schedule.position(l, len), None, "n={n} lane {l}");
        }
    }

    #[test]
    fn schedule_deals_each_position_once_and_restarts_at_seams() {
        // Under Miri a sample of lengths (ragged and exact tails, one and
        // many steps) stands for the full range.
        let max = 20_000u32;
        let stream: Vec<u32> = (0..max).collect();
        let mut out = vec![0u32; max as usize];
        let lengths: Vec<usize> = if cfg!(miri) {
            vec![0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 4097]
        } else {
            (0..=max as usize).collect()
        };
        for n in lengths {
            check_schedule(&stream[..n], &mut out);
        }
    }

    #[test]
    fn scatter_writes_only_masked_active_lanes() {
        let schedule = LaneSchedule::new(130); // seg 3, lanes 0..=43
        let mut out = vec![0u8; 130];
        schedule.scatter(2, &[1u8; LANES], 0b101, &mut out);
        // Lane 0 step 2 is position 2; lane 2 step 2 is position 8.
        let written: Vec<usize> = (0..130).filter(|&i| out[i] == 1).collect();
        assert_eq!(written, vec![2, 8]);
        // Lane 43 carries position 129 at step 0 only.
        assert_eq!(schedule.lane_len(43), 1);
        assert_eq!(schedule.position(43, 1), None);
        assert_eq!(schedule.lane_len(44), 0);
    }

    /// Scalar reference: longest run of set bits in the low `n` bits.
    fn longest_run(value: u64, n: usize) -> usize {
        let mut best = 0;
        let mut cur = 0;
        for i in 0..n {
            if (value >> i) & 1 == 1 {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        best
    }

    #[test]
    fn run_detector_matches_scalar_reference() {
        // 64 lanes of pseudo-random 20-bit columns, every window size.
        let n = 20usize;
        let planes = words(0x1234_5678_9ABC_DEF0, n);
        // Transpose back per lane for the reference.
        let mut lanes = [0u64; LANES];
        unpack_lanes(&planes, &mut lanes);
        for k in 0..=n + 1 {
            let mask = lanes_with_run_at_least(&planes, k);
            for (l, &v) in lanes.iter().enumerate() {
                assert_eq!(
                    mask >> l & 1 == 1,
                    longest_run(v, n) >= k,
                    "lane {l} k {k} value {v:#x}"
                );
            }
        }
    }

    #[test]
    fn run_detector_edges() {
        assert_eq!(lanes_with_run_at_least(&[], 0), u64::MAX);
        assert_eq!(lanes_with_run_at_least(&[], 1), 0);
        assert_eq!(lanes_with_run_at_least(&[0b101], 1), 0b101);
        assert_eq!(lanes_with_run_at_least(&[0b101], 2), 0);
    }
}
