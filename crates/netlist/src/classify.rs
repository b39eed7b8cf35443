//! Operand-adaptive timing safety classification for overclocked adders.
//!
//! An overclocking error is a rare event: it needs an operand pair (and
//! circuit history) that sensitizes a path longer than the clock period.
//! This module proves — per 64-lane batch step, with word operations only —
//! that most lanes *cannot* violate timing, so a batched simulator can give
//! them a single functional plane evaluation and spend event-driven
//! simulation only on the unsafe minority (`isa-timing-sim`'s filtered
//! runner).
//!
//! The hard contract is conservatism: the classifier may call a safe lane
//! unsafe (costing only speed), but must never call a truly-violating lane
//! safe (which would change results). Everything below is therefore an
//! *upper bound* on when switching activity can die out, built from the
//! same integer-femtosecond cell delays the event simulator uses
//! ([`ps_to_fs`]), so analytical path sums compare exactly against event
//! times.
//!
//! Three bounds compose (all per lane, all word ops at runtime):
//!
//! 1. **Static critical delay** (`crit_fs`): every commit caused by an
//!    input edge happens within the longest combinational path from a
//!    changed input — event chains follow topological paths. If the period
//!    exceeds the critical delay, *no* lane can ever violate (tier-0).
//! 2. **Per-pin exposure**: the longest path from each primary input pin
//!    to any output, summed in integer femtoseconds over the quantized
//!    cell delays (a backward pass over the cell list). A lane's
//!    activity from one edge dies within the worst exposure among its
//!    *changed* pins, whatever the previous state — unchanged pins start
//!    no chains.
//! 3. **Carry-chain run bound** (`bound_fs[L]`): a run-limited arrival
//!    analysis specialised to the two carry structures the generators
//!    emit, both resting on the same controlling-value ("floating mode")
//!    argument anchored at primary inputs:
//!
//!    * **ripple chains** — MAJ3 cells whose two data inputs are the
//!      primary operand bits `a[i]`, `b[i]`. When the *new* vector has
//!      `p[i] = a[i] ^ b[i] = 0`, the MAJ3 output is pinned by its
//!      settled controlling pair within one cell delay, independent of
//!      the carry input — carries propagate at most along runs of
//!      `p = 1`, so chain cells take the worst run-limited window of
//!      stage delays instead of the full rippled arrival;
//!    * **prefix (group-PG) networks** — cells *semantically typed* as
//!      group propagate/generate over a bit span: `xor2`/`and2` of a
//!      primary pair are `P`/`G` of one bit, `and2` of two adjacent `P`s
//!      is their union's `P`, and `ao21(Ph, Gl, Gh)` with adjacent spans
//!      is the union's `G` (the identities hold whatever the builder
//!      meant, so typing cannot be wrong). A span wider than the longest
//!      propagate run must contain a `p = 0`, so its group `P` settles
//!      to 0 — which pins the AND above it, and reduces the `G` combine
//!      (and the carry-in term `G | P·cin`) to its *high* half, cutting
//!      off the deep low-side cone. That is how log-depth adders get
//!      operand-adaptive bounds below their static critical delay.
//!
//!    `bound_fs[L]` is the worst settle time over all vectors whose
//!    longest propagate run *within any analysis region* is at most `L`.
//!    Untyped logic (COMP, muxes, sum XORs) keeps its full static
//!    arrival, which keeps the bound sound for every topology.
//!
//! The multi-cycle bookkeeping (events from an earlier edge still in
//! flight at the next one) is a per-lane countdown of clock periods,
//! maintained from the same bounds; see [`StreamClassifier::step`].
//! Conservatism is pinned by exhaustive 8-bit tests and 32-bit
//! filtered-vs-bit-sliced parity tests at every figure clock point.

use isa_core::{lanes_with_run_at_least, LANES};

use crate::builders::AdderNetlist;
use crate::cell::CellKind;
use crate::graph::Netlist;
use crate::timing::{ps_to_fs, DelayAnnotation};

/// Per-design (netlist + die annotation) classifier artifacts, period
/// independent: build once per synthesized design, then derive a
/// [`StreamClassifier`] per (clock period, stream).
#[derive(Debug, Clone)]
pub struct LaneClassifier {
    width: usize,
    crit_fs: u64,
    /// Primary input pins in [`isa_core::pack_pairs`] order (`a[0..w]`
    /// then `b[0..w]`) sorted by descending exposure: `(plane index,
    /// exposure_fs)`.
    pins_by_exposure: Vec<(u32, u64)>,
    /// `bound_fs[L]`: settle bound for new vectors whose longest
    /// **in-chain** propagate run is at most `L` (length `width + 1`).
    bound_fs: Vec<u64>,
    /// Maximal contiguous operand-position intervals covered by detected
    /// chains, `start..end`. Runs of `p = 1` only lengthen a carry chain
    /// while they stay inside one span (chains break at block boundaries,
    /// where the carry comes from non-chain logic at static arrival), so
    /// the runtime run criterion measures runs per span, not globally.
    run_regions: Vec<(usize, usize)>,
    /// Detected ripple carry-chain cells (diagnostics / tests).
    chain_cells: usize,
    /// Nets the prefix detector typed as a group **propagate** over a bit
    /// span, `(net, start..end)` — the spans whose zero-group-P pinning
    /// the bound DP relies on. Kept for the `isa-netlint` audit, which
    /// re-verifies each claim semantically against the netlist.
    p_spans: Vec<(crate::graph::NetId, (usize, usize))>,
    /// Nets typed as a group **generate** over a bit span (audit only —
    /// `G` spans never constrain the vector class).
    g_spans: Vec<(crate::graph::NetId, (usize, usize))>,
}

impl LaneClassifier {
    /// Builds the classifier for an adder netlist under one delay
    /// annotation (the die sample the simulator will run with).
    ///
    /// # Panics
    ///
    /// Panics if the annotation does not cover the netlist.
    #[must_use]
    pub fn build(adder: &AdderNetlist, annotation: &DelayAnnotation) -> Self {
        let netlist = adder.netlist();
        assert_eq!(
            annotation.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            annotation.len(),
            netlist.cell_count()
        );
        let width = adder.width() as usize;
        let delays_fs: Vec<u64> = annotation.as_slice().iter().map(|&d| ps_to_fs(d)).collect();

        // Forward arrivals and critical delay, in exact femtoseconds.
        let arrival_fs = arrivals_fs(netlist, &delays_fs);
        let crit_fs = netlist
            .outputs()
            .iter()
            .map(|n| arrival_fs[n.index()])
            .max()
            .unwrap_or(0);

        // Backward exposure per net, then per primary input pin.
        let exposure_fs = exposures_fs(netlist, &delays_fs);
        let mut pins_by_exposure: Vec<(u32, u64)> = netlist
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, exposure_fs[n.index()]))
            .collect();
        pins_by_exposure.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // Carry-structure detection + run-limited bound table.
        let chain_pos = detect_chain_cells(netlist, width);
        let chain_cells = chain_pos.iter().flatten().count();
        let prefix = detect_prefix_spans(netlist, width);
        let regions = run_regions(netlist, &chain_pos, &prefix);
        let bound_fs = (0..=width)
            .map(|l| run_limited_bound_fs(netlist, &delays_fs, &chain_pos, &prefix, l))
            .collect::<Vec<u64>>();
        debug_assert!(bound_fs.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(
            bound_fs[width], crit_fs,
            "unrestricted runs must recover the static critical delay"
        );

        let collect_spans = |spans: &[Option<(usize, usize)>]| {
            spans
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|span| (crate::graph::NetId::from_index(i), span)))
                .collect::<Vec<_>>()
        };
        let p_spans = collect_spans(&prefix.p_span);
        let g_spans = collect_spans(&prefix.g_span);

        Self {
            width,
            crit_fs,
            pins_by_exposure,
            bound_fs,
            run_regions: regions,
            chain_cells,
            p_spans,
            g_spans,
        }
    }

    /// Operand width the classifier was built for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The nets typed as group *propagate* signals, with their claimed bit
    /// spans `start..end`. Every zero-group-P pinning step in the bound DP
    /// presupposes these typings; `isa-netlint` re-proves each one
    /// semantically (the net must equal `AND of p[i]` over its span on a
    /// word-evaluation battery).
    #[must_use]
    pub fn typed_p_spans(&self) -> &[(crate::graph::NetId, (usize, usize))] {
        &self.p_spans
    }

    /// The nets typed as group *generate* signals, with their claimed bit
    /// spans `start..end` (see [`Self::typed_p_spans`]).
    #[must_use]
    pub fn typed_g_spans(&self) -> &[(crate::graph::NetId, (usize, usize))] {
        &self.g_spans
    }

    /// The static critical delay in femtoseconds — any strictly longer
    /// clock period is timing-safe for every lane and every history.
    #[must_use]
    pub fn critical_fs(&self) -> u64 {
        self.crit_fs
    }

    /// Settle bound (fs) for vectors with longest propagate run `<= L`.
    ///
    /// # Panics
    ///
    /// Panics if `run_len` exceeds the operand width.
    #[must_use]
    pub fn bound_fs(&self, run_len: usize) -> u64 {
        self.bound_fs[run_len]
    }

    /// Number of ripple carry-chain cells the bound table is specialised
    /// to (zero for prefix/CLA-only netlists, which fall back to the
    /// exposure and critical bounds).
    #[must_use]
    pub fn chain_cells(&self) -> usize {
        self.chain_cells
    }

    /// The operand-position spans of the detected (linked) carry chains;
    /// the run criterion measures propagate runs within these.
    #[must_use]
    pub fn run_regions(&self) -> &[(usize, usize)] {
        &self.run_regions
    }

    /// Starts per-stream classification state for one clock period: lanes
    /// begin in the circuit's reset state (all-zero inputs, settled), like
    /// both the scalar and the bit-sliced simulator.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive/finite.
    #[must_use]
    pub fn stream_classifier(&self, period_ps: f64) -> StreamClassifier {
        assert!(
            period_ps.is_finite() && period_ps > 0.0,
            "period must be positive"
        );
        let period_fs = ps_to_fs(period_ps).max(1);
        // Pins that can keep a lane busy across at least one full period;
        // pins below the period contribute countdown 0 and need no scan.
        let pin_ks: Vec<(u32, u32)> = self
            .pins_by_exposure
            .iter()
            .take_while(|&&(_, exp)| exp / period_fs >= 1)
            .map(|&(pin, exp)| (pin, (exp / period_fs) as u32))
            .collect();
        // The smallest run length whose bound reaches the period: lanes
        // containing such a run in some region are not proven to settle
        // within one period by the run criterion (0 = every lane, None =
        // even a full-width run settles). Only the one-period level
        // matters: the run bound never carries across edges (see `step`),
        // so deeper horizons would be computed and then discarded.
        let run_window = self.bound_fs.iter().position(|&b| b >= period_fs);
        StreamClassifier {
            width: self.width,
            pin_ks,
            run_window,
            run_regions: self.run_regions.clone(),
            prev_a: vec![0; self.width],
            prev_b: vec![0; self.width],
            p_scratch: vec![0; self.width],
            countdown: [0; LANES],
        }
    }
}

/// Per-(period, stream) classification state: previous operand planes and
/// the per-lane settle countdown.
#[derive(Debug, Clone)]
pub struct StreamClassifier {
    width: usize,
    /// `(plane index, periods-to-settle)` for pins whose exposure spans at
    /// least one period, exposure-descending.
    pin_ks: Vec<(u32, u32)>,
    /// One-period run window (see `stream_classifier`).
    run_window: Option<usize>,
    /// Chain position spans the run criterion scans (runs crossing a span
    /// boundary split — carries do not chain across blocks).
    run_regions: Vec<(usize, usize)>,
    prev_a: Vec<u64>,
    prev_b: Vec<u64>,
    p_scratch: Vec<u64>,
    /// Per-lane count of upcoming clock edges at which earlier activity
    /// may still be in flight (0 = settled at the next edge).
    countdown: [u32; LANES],
}

impl StreamClassifier {
    /// Classifies one batch step: the new operand planes are applied at
    /// this clock edge, and the returned mask has bit `l` set iff lane `l`
    /// is **proven safe** — its sampled outputs at the next edge equal the
    /// settled (functional) outputs of the new operands, so the lane needs
    /// no event simulation this step.
    ///
    /// Safety requires both:
    ///
    /// * every earlier edge's activity dies before this step's *sampling*
    ///   edge (countdown at most 1 — in-flight events may still commit
    ///   during this period, but none at or after the sample, so the
    ///   queue holds only no-op events when the outputs are read), and
    /// * this edge's activity dies within one period, by the cheaper of
    ///   the changed-pin exposure bound and the propagate-run bound (the
    ///   run bound's pinning is anchored at primary inputs, which never
    ///   glitch, so it holds against leftover in-flight events too).
    ///
    /// The countdown is then advanced: a step whose activity dies within
    /// its period (either criterion) leaves nothing behind; otherwise the
    /// *exposure* bound alone caps how many further edges the activity can
    /// span — a run bound beyond one period is not carried across edges,
    /// because the next edge may re-sensitize a chain that the run
    /// argument assumed blocked (in-flight carries can traverse positions
    /// whose propagate bit the new vector flips to 1, bounded only by the
    /// topological path — the exposure).
    ///
    /// # Panics
    ///
    /// Panics if the plane counts differ from the operand width.
    pub fn step(&mut self, a_planes: &[u64], b_planes: &[u64]) -> u64 {
        let w = self.width;
        assert_eq!(a_planes.len(), w, "expected {w} a-planes");
        assert_eq!(b_planes.len(), w, "expected {w} b-planes");

        // Exposure criterion: periods-to-settle of the worst changed pin.
        // Pins are scanned in descending exposure, so a lane's first hit is
        // its maximum; lanes never hit (unchanged, or only sub-period pins
        // changed) settle within the period.
        let mut k_exp = [0u32; LANES];
        let mut assigned = 0u64;
        for &(pin, k) in &self.pin_ks {
            let p = pin as usize;
            let changed = if p < w {
                self.prev_a[p] ^ a_planes[p]
            } else {
                self.prev_b[p - w] ^ b_planes[p - w]
            };
            let mut newly = changed & !assigned;
            if newly == 0 {
                continue;
            }
            assigned |= newly;
            while newly != 0 {
                k_exp[newly.trailing_zeros() as usize] = k;
                newly &= newly - 1;
            }
            if assigned == u64::MAX {
                break;
            }
        }

        // Run criterion: lanes whose new propagate vector contains the
        // one-period run window inside some analysis region are not
        // run-proven to settle this period. Runs are measured per region —
        // a propagate run crossing a block boundary does not lengthen any
        // single carry chain.
        let run_unsafe = match self.run_window {
            None => 0,
            Some(0) => u64::MAX,
            Some(window) => {
                for i in 0..w {
                    self.p_scratch[i] = a_planes[i] ^ b_planes[i];
                }
                self.run_regions
                    .iter()
                    .filter(|&&(s, e)| e - s >= window)
                    .fold(0u64, |acc, &(s, e)| {
                        acc | lanes_with_run_at_least(&self.p_scratch[s..e], window)
                    })
            }
        };

        let mut safe = 0u64;
        for (l, (count, &k)) in self.countdown.iter_mut().zip(&k_exp).enumerate() {
            let settles_now = k == 0 || run_unsafe >> l & 1 == 0;
            // countdown <= 1: old activity commits, if at all, strictly
            // before this step's sample edge. A safe step always leaves
            // countdown 0 behind (see below), so an unsafe run following
            // a safe step still starts from a fully settled launch edge —
            // the invariant the filtered runner's seeding relies on.
            if *count <= 1 && settles_now {
                safe |= 1u64 << l;
            }
            // Within-period settlement leaves nothing in flight; otherwise
            // only the path-attributed exposure bound survives the next
            // edge (see the method docs).
            let carry_over = if settles_now { 0 } else { k };
            *count = count.saturating_sub(1).max(carry_over);
        }

        self.prev_a.copy_from_slice(a_planes);
        self.prev_b.copy_from_slice(b_planes);
        safe
    }
}

/// Forward STA in integer femtoseconds (cells are in topological order).
fn arrivals_fs(netlist: &Netlist, delays_fs: &[u64]) -> Vec<u64> {
    let mut arrival = vec![0u64; netlist.net_count()];
    for (index, cell) in netlist.cells().iter().enumerate() {
        let input_arrival = cell
            .inputs
            .iter()
            .map(|n| arrival[n.index()])
            .max()
            .unwrap_or(0);
        arrival[cell.output.index()] = input_arrival + delays_fs[index];
    }
    arrival
}

/// Backward pass: longest path (fs) from each net to any primary output.
fn exposures_fs(netlist: &Netlist, delays_fs: &[u64]) -> Vec<u64> {
    let mut exposure = vec![0u64; netlist.net_count()];
    for index in (0..netlist.cell_count()).rev() {
        let cell = &netlist.cells()[index];
        let through = delays_fs[index] + exposure[cell.output.index()];
        for input in &cell.inputs {
            if through > exposure[input.index()] {
                exposure[input.index()] = through;
            }
        }
    }
    exposure
}

/// Detects ripple carry-chain cells: MAJ3 whose data pair are the primary
/// operand bits `a[i]` and `b[i]` of the same position `i`. Returns, per
/// cell, `Some((bit position, carry input net))`.
///
/// Only this exact shape admits the pinning argument (the controlling
/// pair settles at the edge itself because it is primary); anything else
/// conservatively keeps its full static arrival.
fn detect_chain_cells(netlist: &Netlist, width: usize) -> Vec<Option<(usize, u32)>> {
    // Map primary-input nets to their pin index.
    let mut pin_of_net = vec![usize::MAX; netlist.net_count()];
    for (i, n) in netlist.inputs().iter().enumerate() {
        pin_of_net[n.index()] = i;
    }
    netlist
        .cells()
        .iter()
        .map(|cell| {
            if cell.kind != CellKind::Maj3 {
                return None;
            }
            // Find the primary pair (a[i], b[i]); the remaining input is
            // the carry.
            for (x, y, c) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)] {
                let px = pin_of_net[cell.inputs[x].index()];
                let py = pin_of_net[cell.inputs[y].index()];
                if px == usize::MAX || py == usize::MAX {
                    continue;
                }
                let (lo, hi) = (px.min(py), px.max(py));
                if lo < width && hi == lo + width {
                    return Some((lo, cell.inputs[c].index() as u32));
                }
            }
            None
        })
        .collect()
}

/// Maximal contiguous operand-position intervals of *linked* chain cells:
/// a span runs from a chain head (carry input driven by non-chain logic —
/// a SPEC block, skip mux, or the LSB half-adder) through every successor
/// whose carry input is the chain cell one position below. Positions that
/// are merely adjacent but not carry-linked (block boundaries) start a
/// new span. Where several chain cells share a position (carry-select's
/// two sub-chains) the position counts as linked if any of them is —
/// the longer span only over-approximates runs, which is conservative.
fn linked_run_regions(
    netlist: &Netlist,
    chain_pos: &[Option<(usize, u32)>],
) -> Vec<(usize, usize)> {
    let mut pos_of_out = vec![usize::MAX; netlist.net_count()];
    for (index, cp) in chain_pos.iter().enumerate() {
        if let Some((pos, _)) = cp {
            pos_of_out[netlist.cells()[index].output.index()] = *pos;
        }
    }
    // (position, linked-to-previous-position) per chain cell.
    let mut cells: Vec<(usize, bool)> = chain_pos
        .iter()
        .flatten()
        .map(|&(pos, carry)| {
            let prev = pos_of_out[carry as usize];
            (pos, prev != usize::MAX && prev + 1 == pos)
        })
        .collect();
    cells.sort_unstable();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (pos, linked) in cells {
        if let Some(last) = spans.last_mut() {
            if last.1 == pos + 1 {
                continue; // same position: a parallel sub-chain, covered
            }
            if last.1 == pos && linked {
                last.1 = pos + 1; // carry-linked continuation
                continue;
            }
        }
        spans.push((pos, pos + 1)); // gap or unlinked adjacency: new chain
    }
    spans
}

/// Per-net group-propagate / group-generate typing of prefix (group-PG)
/// networks, derived from cell semantics alone:
///
/// * `xor2(a[i], b[i])` computes `P[i, i+1)`, `and2(a[i], b[i])`
///   computes `G[i, i+1)`;
/// * `and2` of two `P`s over adjacent spans computes their union's `P`;
/// * `ao21(Ph, Gl, Gh)` — `(Ph & Gl) | Gh` — with `Ph`/`Gh` over the
///   high span and `Gl` over the adjacent low span computes the union's
///   `G`.
///
/// Each rule is a boolean identity over the typed operands, so a match
/// *proves* the net's function: mistyping is impossible, untyped cells
/// are merely unoptimized.
#[derive(Debug, Clone)]
struct PrefixSpans {
    /// `P[a, b)` span per net.
    p_span: Vec<Option<(usize, usize)>>,
    /// `G[a, b)` span per net.
    g_span: Vec<Option<(usize, usize)>>,
}

fn detect_prefix_spans(netlist: &Netlist, width: usize) -> PrefixSpans {
    let mut pin_of_net = vec![usize::MAX; netlist.net_count()];
    for (i, n) in netlist.inputs().iter().enumerate() {
        pin_of_net[n.index()] = i;
    }
    let primary_pos = |net: crate::graph::NetId| -> Option<usize> {
        let pin = pin_of_net[net.index()];
        (pin != usize::MAX).then(|| if pin < width { pin } else { pin - width })
    };
    let mut spans = PrefixSpans {
        p_span: vec![None; netlist.net_count()],
        g_span: vec![None; netlist.net_count()],
    };
    for cell in netlist.cells() {
        let out = cell.output.index();
        match cell.kind {
            CellKind::Xor2 | CellKind::And2 => {
                let (x, y) = (cell.inputs[0], cell.inputs[1]);
                if let (Some(px), Some(py)) = (primary_pos(x), primary_pos(y)) {
                    // A primary pair (a[i], b[i]) is a P/G leaf.
                    if px == py && pin_of_net[x.index()] != pin_of_net[y.index()] {
                        if cell.kind == CellKind::Xor2 {
                            spans.p_span[out] = Some((px, px + 1));
                        } else {
                            spans.g_span[out] = Some((px, px + 1));
                        }
                    }
                } else if cell.kind == CellKind::And2 {
                    // P-combine over adjacent spans, either operand order.
                    if let (Some(s1), Some(s2)) = (spans.p_span[x.index()], spans.p_span[y.index()])
                    {
                        if s1.1 == s2.0 {
                            spans.p_span[out] = Some((s1.0, s2.1));
                        } else if s2.1 == s1.0 {
                            spans.p_span[out] = Some((s2.0, s1.1));
                        }
                    }
                }
            }
            CellKind::Ao21 => {
                // (in0 & in1) | in2 with in0 = Ph, in2 = Gh over one span.
                let (ph, gl, gh) = (cell.inputs[0], cell.inputs[1], cell.inputs[2]);
                if let (Some(hp), Some(hg)) = (spans.p_span[ph.index()], spans.g_span[gh.index()]) {
                    if hp == hg {
                        if let Some(lg) = spans.g_span[gl.index()] {
                            if lg.1 == hp.0 {
                                spans.g_span[out] = Some((lg.0, hp.1));
                            }
                        }
                        // in1 not a matching G (e.g. an external carry-in):
                        // the cell still computes G | P·cin over the span,
                        // which the DP exploits, but the output has no
                        // group typing.
                    }
                }
            }
            _ => {}
        }
    }
    spans
}

/// The operand-position regions the runtime run criterion scans: every
/// typed group-**propagate** span and every linked ripple-chain span,
/// merged into maximal intervals wherever they overlap
/// (adjacent-but-disjoint regions stay separate — a propagate run
/// crossing, say, an ISA block boundary lengthens no carry structure).
///
/// Only `P` spans matter: every pinning claim in the bound DP has the
/// form "this group `P`'s span is wider than `L`, so it contains a
/// `p = 0` and settles to 0" — `G` spans never constrain the vector
/// class (a `G` node typed across a speculative boundary, like the
/// carry-in combine `G | P·spec`, is semantically real but pins
/// nothing). Each `P` span and each chain position lies inside one
/// region, so "no run of `p = 1` longer than `L` inside any region"
/// implies every claim's precondition.
fn run_regions(
    netlist: &Netlist,
    chain_pos: &[Option<(usize, u32)>],
    prefix: &PrefixSpans,
) -> Vec<(usize, usize)> {
    let mut regions = linked_run_regions(netlist, chain_pos);
    for span in prefix.p_span.iter().flatten() {
        regions.push(*span);
    }
    regions.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (s, e) in regions {
        match merged.last_mut() {
            // Strict overlap (not mere adjacency) merges.
            Some(last) if s < last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Modified STA: settle bound over all new vectors whose longest
/// propagate run *within any analysis region* is at most `max_run`, with
/// arbitrary previous state.
///
/// Ripple chain cells take the worst run-limited window (dynamic
/// programme over the trailing-run length `r`): `r = 0` means `p = 0` at
/// this position — the output is pinned one cell delay after the edge;
/// `r >= 1` means the output follows the carry input, whose own bound is
/// the predecessor's `r - 1` entry (or the full static arrival where the
/// carry comes from non-chain logic, e.g. a SPEC block or a skip mux).
///
/// Typed prefix cells use span pinning: a group `P` over a span wider
/// than `max_run` must contain a `p = 0` and settles to 0, so an AND
/// above it settles as soon as that input does, and an
/// `ao21(Ph, x, Gh)` — `G | P·x`, the combine and the carry-in form
/// alike — reduces to `Gh`, dropping the (deep) `x` cone.
///
/// All other cells use plain `max(inputs) + delay`.
fn run_limited_bound_fs(
    netlist: &Netlist,
    delays_fs: &[u64],
    chain_pos: &[Option<(usize, u32)>],
    prefix: &PrefixSpans,
    max_run: usize,
) -> u64 {
    let span_is_zero = |span: Option<(usize, usize)>| span.is_some_and(|(s, e)| e - s > max_run);
    let mut arrival = vec![0u64; netlist.net_count()];
    // Trailing-run DP vectors, stored per chain-cell output net.
    let mut dp: Vec<Option<Vec<u64>>> = vec![None; netlist.net_count()];
    for (index, cell) in netlist.cells().iter().enumerate() {
        let d = delays_fs[index];
        let out = cell.output.index();
        if let Some((_, carry_net)) = chain_pos[index] {
            let carry = carry_net as usize;
            let mut v = vec![0u64; max_run + 1];
            v[0] = d;
            for r in 1..=max_run {
                v[r] = d + dp[carry]
                    .as_ref()
                    .map_or(arrival[carry], |prev| prev[r - 1]);
            }
            arrival[out] = v.iter().copied().max().unwrap_or(d);
            dp[out] = Some(v);
            continue;
        }
        let static_arrival = cell
            .inputs
            .iter()
            .map(|n| arrival[n.index()])
            .max()
            .unwrap_or(0)
            + d;
        arrival[out] = match cell.kind {
            // AND with a group-P operand whose span exceeds the run
            // limit: that operand is a settled controlling 0 — the
            // output pins to 0 one delay after it, whatever the other
            // operand does.
            CellKind::And2 => cell
                .inputs
                .iter()
                .filter(|n| span_is_zero(prefix.p_span[n.index()]))
                .map(|n| arrival[n.index()] + d)
                .chain([static_arrival])
                .min()
                .unwrap_or(static_arrival),
            // (x & y) | z with x or y a zero group-P: the AND term is a
            // settled 0, so the cell reduces to z — cutting off the other
            // AND operand's (deep) cone. This covers both the prefix
            // combine (z = Gh) and the carry-in form G | P·cin.
            CellKind::Ao21 => {
                let z = cell.inputs[2].index();
                cell.inputs[..2]
                    .iter()
                    .filter(|n| span_is_zero(prefix.p_span[n.index()]))
                    .map(|n| arrival[n.index()].max(arrival[z]) + d)
                    .chain([static_arrival])
                    .min()
                    .unwrap_or(static_arrival)
            }
            _ => static_arrival,
        };
    }
    netlist
        .outputs()
        .iter()
        .map(|n| arrival[n.index()])
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build_exact, AdderTopology};
    use crate::cell::CellLibrary;
    use crate::sta::StaReport;

    fn ripple(width: u32) -> (AdderNetlist, DelayAnnotation) {
        let adder = build_exact(width, AdderTopology::Ripple);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        (adder, ann)
    }

    #[test]
    fn ripple_chain_is_fully_detected() {
        let (adder, ann) = ripple(16);
        let cls = LaneClassifier::build(&adder, &ann);
        // One MAJ3 per bit except the half-adder LSB.
        assert_eq!(cls.chain_cells(), 15);
    }

    #[test]
    fn bound_table_is_monotone_and_recovers_critical() {
        let (adder, ann) = ripple(16);
        let cls = LaneClassifier::build(&adder, &ann);
        let sta = StaReport::analyze(adder.netlist(), &ann);
        assert_eq!(cls.critical_fs(), ps_to_fs(sta.critical_ps()));
        assert!(cls.bound_fs(0) < cls.bound_fs(8));
        assert!(cls.bound_fs(8) < cls.bound_fs(16));
        assert_eq!(cls.bound_fs(16), cls.critical_fs());
        // Short runs must cost far less than the full chain.
        assert!(cls.bound_fs(2) < cls.critical_fs() / 2);
    }

    #[test]
    fn ripple_spans_cover_the_whole_chain() {
        let (adder, ann) = ripple(16);
        let cls = LaneClassifier::build(&adder, &ann);
        // The LSB half-adder's P/G leaves plus one linked chain from the
        // half-adder's successor to the top.
        assert_eq!(cls.run_regions(), &[(0, 1), (1, 16)]);
    }

    #[test]
    fn isa_blocks_break_chains_at_boundaries() {
        use crate::builders::isa;
        use isa_core::IsaConfig;
        let cfg = IsaConfig::new(32, 8, 2, 0, 4).unwrap();
        let adder = isa::build(&cfg, AdderTopology::Ripple).unwrap();
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let cls = LaneClassifier::build(&adder, &ann);
        // Four ripple blocks (plus the LSB half-adder's leaf region);
        // carries enter each block from SPEC (or the half-adder), so no
        // region crosses a block boundary — a propagate run spanning two
        // blocks never flags a lane.
        assert!(cls.run_regions().len() >= 4);
        for &(s, e) in cls.run_regions() {
            assert_eq!(s / 8, (e - 1) / 8, "region {s}..{e} crosses a block");
        }
        // A full-width propagate run therefore costs only a block-length
        // chain: the bound saturates at the in-block maximum.
        assert_eq!(cls.bound_fs(8), cls.bound_fs(32));
    }

    #[test]
    fn prefix_adder_gets_span_pinned_bounds() {
        let adder = build_exact(16, AdderTopology::KoggeStone);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let cls = LaneClassifier::build(&adder, &ann);
        // No ripple chains — but the group-PG typing still yields
        // run-limited bounds below the static critical delay.
        assert_eq!(cls.chain_cells(), 0);
        assert!(cls.bound_fs(0) < cls.critical_fs());
        assert!(cls.bound_fs(0) <= cls.bound_fs(8));
        assert_eq!(cls.bound_fs(16), cls.critical_fs());
        // The whole operand range is one analysis region: runs anywhere
        // can lengthen prefix spans.
        assert_eq!(cls.run_regions(), &[(0, 16)]);
    }

    #[test]
    fn safe_period_classifies_everything_safe() {
        let (adder, ann) = ripple(8);
        let cls = LaneClassifier::build(&adder, &ann);
        let period_ps = (cls.critical_fs() + 1) as f64 / 1000.0;
        let mut stream = cls.stream_classifier(period_ps);
        let pairs: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 37, i * 91)).collect();
        let mut planes = [0u64; 16];
        isa_core::pack_pairs(8, &pairs, &mut planes);
        assert_eq!(stream.step(&planes[..8], &planes[8..]), u64::MAX);
    }

    #[test]
    fn deep_overclock_flags_long_runs_unsafe_but_not_idle_lanes() {
        let (adder, ann) = ripple(16);
        let cls = LaneClassifier::build(&adder, &ann);
        // Period between the short-run bound and the full critical delay.
        let period_fs = (cls.bound_fs(2) + cls.critical_fs()) / 2;
        let mut stream = cls.stream_classifier(period_fs as f64 / 1000.0);
        // Lane 0: full-length carry chain (0xFFFF + 1). Lane 1: no carries.
        // Lane 2: unchanged from reset (0, 0).
        let pairs = [(0xFFFFu64, 1u64), (0x0F0F, 0x0000), (0, 0)];
        let mut planes = [0u64; 32];
        isa_core::pack_pairs(16, &pairs, &mut planes);
        let safe = stream.step(&planes[..16], &planes[16..]);
        assert_eq!(safe & 1, 0, "full propagate run must be unsafe");
        assert_eq!(safe >> 1 & 1, 1, "carry-free operands are safe");
        assert_eq!(safe >> 2 & 1, 1, "an idle lane starts no activity");
    }

    #[test]
    fn countdown_keeps_lane_unsafe_after_a_violating_step() {
        let (adder, ann) = ripple(16);
        let cls = LaneClassifier::build(&adder, &ann);
        // Deep overclock: a third of the critical delay, so a full carry
        // wave spans three periods — it may still commit at or after the
        // *next* step's sample edge, which must therefore stay unsafe
        // even though that step itself is idle.
        let period_fs = cls.critical_fs() / 3 + 1;
        let mut stream = cls.stream_classifier(period_fs as f64 / 1000.0);
        let hot = [(0xFFFFu64, 1u64)];
        let mut planes = [0u64; 32];
        isa_core::pack_pairs(16, &hot, &mut planes);
        let (a, b) = planes.split_at(16);
        assert_eq!(stream.step(a, b) & 1, 0);
        // Same operands again: no new activity, but the old carry wave
        // can outlive this step's sample edge.
        assert_eq!(
            stream.step(a, b) & 1,
            0,
            "lane must stay unsafe while earlier activity can reach the sample"
        );
        // Two more idle edges: the first still overlaps the wave's last
        // possible in-flight commits, but they die before its sample edge.
        assert_eq!(stream.step(a, b) & 1, 1);
        assert_eq!(stream.step(a, b) & 1, 1);
    }
}
