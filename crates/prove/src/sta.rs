//! False-path-aware settle bounds by exact symbolic timed simulation.
//!
//! Topological STA assumes every path can propagate a transition; paths
//! that are never sensitized (false paths) make its critical delay
//! pessimistic. Classic floating-mode sensitization checks are *unsound*
//! against a transport-delay simulator (glitches can travel paths that a
//! static analysis rules out), so this module does the exact thing
//! instead: a **symbolic timed simulation** over one clock cycle.
//!
//! Each primary input `i` gets two variables — `old_i` (the settled value
//! from the previous cycle) and `new_i` (this cycle's value) — and every
//! net carries a *waveform*: an initial function of the old variables plus
//! a compressed event list `(t_fs, function)` in the same femtosecond grid
//! and per-cell `ps_to_fs` quantisation as the event-driven simulator.
//! Transport semantics `out(t) = f(in(t - d))` are applied cell by cell in
//! topological order; a segment is dropped the moment its function node
//! equals its predecessor's, which is exact thanks to canonicity.
//!
//! The **proven settle bound** is the last event time over all *live* nets
//! (dead logic never influences an output, and every live net's settling
//! is needed for the settled-state induction across cycles): for any
//! `(old, new)` pair, every live net is provably quiescent from that time
//! on. It is sound by construction and never exceeds the topological bound
//! in the same grid; on budget bailouts the analysis degrades to exactly
//! the topological bound.

use isa_netlist::timing::ps_to_fs;
use isa_netlist::{DelayAnnotation, NetDriver, Netlist};

use crate::bdd::{Bdd, Ref};

/// Budget knobs for the symbolic simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaOptions {
    /// Bail out once any net's waveform carries more events than this.
    pub max_events_per_net: usize,
    /// Bail out once the BDD store exceeds this many nodes.
    pub max_nodes: usize,
}

impl Default for StaOptions {
    fn default() -> Self {
        Self {
            max_events_per_net: 512,
            max_nodes: 4_000_000,
        }
    }
}

/// Result of a symbolic settle-bound analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicSta {
    /// Proven settle bound: every live net is quiescent from this time on,
    /// for every `(old, new)` input pair. Never exceeds
    /// [`Self::topo_crit_fs`].
    pub proven_crit_fs: u64,
    /// Topological settle bound over the live nets in the same
    /// femtosecond quantisation (per-cell [`ps_to_fs`]).
    pub topo_crit_fs: u64,
    /// True iff the symbolic simulation completed within budget; `false`
    /// means [`Self::proven_crit_fs`] fell back to the topological bound.
    pub exact: bool,
    /// True iff every live net's waveform was re-proved consistent: the
    /// initial segment equals the net's function of the old inputs and the
    /// final segment equals its function of the new inputs. Vacuously true
    /// on a budget bailout.
    pub functions_verified: bool,
}

impl SymbolicSta {
    /// Femtoseconds of topological pessimism eliminated by the proof.
    #[must_use]
    pub fn tightening_fs(&self) -> u64 {
        self.topo_crit_fs - self.proven_crit_fs
    }
}

#[derive(Debug, Clone)]
struct Wave {
    initial: Ref,
    /// `(time_fs, function)` ascending; each function differs from its
    /// predecessor (and the first from `initial`).
    events: Vec<(u64, Ref)>,
}

impl Wave {
    fn constant(f: Ref) -> Self {
        Self {
            initial: f,
            events: Vec::new(),
        }
    }

    fn value_at(&self, t: u64) -> Ref {
        match self.events.iter().rev().find(|&&(et, _)| et <= t) {
            Some(&(_, f)) => f,
            None => self.initial,
        }
    }

    fn last_value(&self) -> Ref {
        self.events.last().map_or(self.initial, |&(_, f)| f)
    }

    fn last_event_fs(&self) -> u64 {
        self.events.last().map_or(0, |&(t, _)| t)
    }
}

/// Runs the symbolic timed simulation of one clock cycle.
///
/// # Panics
///
/// Panics if the annotation length differs from the cell count.
#[must_use]
pub fn analyze_settle(
    netlist: &Netlist,
    annotation: &DelayAnnotation,
    options: &StaOptions,
) -> SymbolicSta {
    assert_eq!(
        annotation.len(),
        netlist.cell_count(),
        "annotation/netlist mismatch"
    );
    let n_in = netlist.inputs().len();
    let delays_fs: Vec<u64> = (0..netlist.cell_count())
        .map(|c| ps_to_fs(annotation.delay_ps(isa_netlist::CellId::from_index(c))))
        .collect();
    let live = netlist.live_nets();

    // Topological arrivals over live nets in the same quantisation.
    let mut arrival = vec![0u64; netlist.net_count()];
    for (c, cell) in netlist.cells().iter().enumerate() {
        let in_max = cell
            .inputs
            .iter()
            .map(|n| arrival[n.index()])
            .max()
            .unwrap_or(0);
        arrival[cell.output.index()] = in_max + delays_fs[c];
    }
    let topo_crit_fs = (0..netlist.net_count())
        .filter(|&i| live[i])
        .map(|i| arrival[i])
        .max()
        .unwrap_or(0);
    let fallback = |verified: bool| SymbolicSta {
        proven_crit_fs: topo_crit_fs,
        topo_crit_fs,
        exact: false,
        functions_verified: verified,
    };

    // Variable order: adder netlists declare inputs as a[0..w] then
    // b[0..w]; interleave the operands (a_i, b_i adjacent, LSB first) so
    // carry-chain functions stay linear, then interleave old/new within
    // each pin. For odd input counts fall back to declaration order — the
    // order affects cost only, never soundness.
    let pin_pos = |i: usize| -> u32 {
        if n_in.is_multiple_of(2) {
            let half = n_in / 2;
            if i < half {
                2 * i as u32
            } else {
                2 * (i - half) as u32 + 1
            }
        } else {
            i as u32
        }
    };
    let mut bdd = Bdd::new(2 * n_in as u32);
    let old_vars: Vec<Ref> = (0..n_in).map(|i| bdd.var(2 * pin_pos(i))).collect();
    let new_vars: Vec<Ref> = (0..n_in).map(|i| bdd.var(2 * pin_pos(i) + 1)).collect();

    let mut waves: Vec<Wave> = vec![Wave::constant(bdd.zero()); netlist.net_count()];
    for (i, net) in netlist.inputs().iter().enumerate() {
        waves[net.index()] = Wave {
            initial: old_vars[i],
            events: vec![(0, new_vars[i])],
        };
    }

    let mut times: Vec<u64> = Vec::new();
    // Pin values of the cell at hand; pins past its arity keep a stale
    // value, which `eval_in` ignores.
    let mut ins = [bdd.zero(); 3];
    for (c, cell) in netlist.cells().iter().enumerate() {
        if bdd.num_nodes() > options.max_nodes {
            return fallback(true);
        }
        let d = delays_fs[c];
        times.clear();
        for net in &cell.inputs {
            times.extend(waves[net.index()].events.iter().map(|&(t, _)| t + d));
        }
        times.sort_unstable();
        times.dedup();

        for (pin, n) in ins.iter_mut().zip(&cell.inputs) {
            *pin = waves[n.index()].initial;
        }
        let initial = cell.kind.eval_in(&mut bdd, &ins[0], &ins[1], &ins[2]);
        let mut wave = Wave::constant(initial);
        for &t in &times {
            for (pin, n) in ins.iter_mut().zip(&cell.inputs) {
                *pin = waves[n.index()].value_at(t - d);
            }
            let f = cell.kind.eval_in(&mut bdd, &ins[0], &ins[1], &ins[2]);
            if f != wave.last_value() {
                wave.events.push((t, f));
            }
        }
        if wave.events.len() > options.max_events_per_net {
            return fallback(true);
        }
        waves[cell.output.index()] = wave;
    }

    let proven_crit_fs = (0..netlist.net_count())
        .filter(|&i| live[i])
        .map(|i| waves[i].last_event_fs())
        .max()
        .unwrap_or(0);

    // Re-proof: initial segments must be the old-input functions, final
    // segments the new-input functions — ties the waveform algebra back to
    // the plain functional semantics.
    let old_fns = netlist.evaluate_in(&mut bdd, &old_vars);
    let new_fns = netlist.evaluate_in(&mut bdd, &new_vars);
    let functions_verified = (0..netlist.net_count())
        .filter(|&i| {
            live[i]
                && !matches!(
                    netlist.driver(isa_netlist::NetId::from_index(i)),
                    NetDriver::Input
                )
        })
        .all(|i| waves[i].initial == old_fns[i] && waves[i].last_value() == new_fns[i]);

    debug_assert!(proven_crit_fs <= topo_crit_fs, "proof exceeds topology");
    SymbolicSta {
        proven_crit_fs,
        topo_crit_fs,
        exact: true,
        functions_verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::{build_exact, AdderTopology, CellLibrary};

    fn nominal(nl: &Netlist) -> DelayAnnotation {
        DelayAnnotation::nominal(nl, &CellLibrary::industrial_65nm())
    }

    /// Brute-force transport-delay event simulation of one input change,
    /// returning the last time any live net changes value.
    ///
    /// Under transport delay a net's value at `t` is its cell function of
    /// its inputs at `t - d`, so it can change only at an instant `p` that
    /// sums the cell delays along some input-to-net path (inputs switch at
    /// 0). The net has settled at `p` when `p` is the latest instant with
    /// a value at `p - 1` that differs from the final one, so only those
    /// instants are evaluated, latest first.
    fn brute_force_settle(
        nl: &Netlist,
        delays_fs: &[u64],
        old: &[bool],
        new: &[bool],
        live: &[bool],
    ) -> u64 {
        // Value of net `i` at time `t` under transport semantics, fully
        // determined recursively.
        fn value(
            nl: &Netlist,
            delays: &[u64],
            old: &[bool],
            new: &[bool],
            net: usize,
            t: i64,
        ) -> bool {
            match nl.driver(isa_netlist::NetId::from_index(net)) {
                NetDriver::Input => {
                    let pin = nl.inputs().iter().position(|n| n.index() == net).unwrap();
                    if t >= 0 {
                        new[pin]
                    } else {
                        old[pin]
                    }
                }
                NetDriver::Cell(c) => {
                    let cell = nl.cell(c);
                    let d = delays[c.index()] as i64;
                    let ins: Vec<u64> = cell
                        .inputs
                        .iter()
                        .map(|n| u64::from(value(nl, delays, old, new, n.index(), t - d)))
                        .collect();
                    cell.kind.eval_word(&ins) & 1 == 1
                }
            }
        }
        // Path-delay sums per net, ascending, in list (topological) order.
        let mut instants: Vec<Vec<u64>> = vec![Vec::new(); nl.net_count()];
        for input in nl.inputs() {
            instants[input.index()].push(0);
        }
        for (c, cell) in nl.cells().iter().enumerate() {
            let mut sums: Vec<u64> = cell
                .inputs
                .iter()
                .flat_map(|n| instants[n.index()].iter().map(|&p| p + delays_fs[c]))
                .collect();
            sums.sort_unstable();
            sums.dedup();
            instants[cell.output.index()] = sums;
        }
        let mut settle = 0u64;
        for (net, &is_live) in live.iter().enumerate().take(nl.net_count()) {
            if !is_live {
                continue;
            }
            let Some(&last) = instants[net].last() else {
                continue; // a constant never changes
            };
            let fin = value(nl, delays_fs, old, new, net, last as i64);
            if let Some(&p) = instants[net]
                .iter()
                .rev()
                .find(|&&p| p > 0 && value(nl, delays_fs, old, new, net, p as i64 - 1) != fin)
            {
                settle = settle.max(p);
            }
        }
        settle
    }

    #[test]
    fn proven_bound_is_sound_and_no_worse_than_topological() {
        let adder = build_exact(4, AdderTopology::Ripple);
        let nl = adder.netlist();
        let ann = nominal(nl);
        let sta = analyze_settle(nl, &ann, &StaOptions::default());
        assert!(sta.exact);
        assert!(sta.functions_verified);
        assert!(sta.proven_crit_fs <= sta.topo_crit_fs);

        let delays_fs: Vec<u64> = (0..nl.cell_count())
            .map(|c| ps_to_fs(ann.delay_ps(isa_netlist::CellId::from_index(c))))
            .collect();
        let live = nl.live_nets();
        // The symbolic bound must dominate the true settle time of every
        // concrete transition pair (soundness, checked by brute force).
        let mut worst = 0u64;
        for case in 0u32..64 {
            let dec = |v: u32| (0..8).map(|i| v >> i & 1 == 1).collect::<Vec<bool>>();
            let old = dec(case.wrapping_mul(0x9E37).rotate_left(3));
            let new = dec(case.wrapping_mul(0x85EB).rotate_left(7));
            let settle = brute_force_settle(nl, &delays_fs, &old, &new, &live);
            assert!(
                settle <= sta.proven_crit_fs,
                "case {case}: settle {settle} > proven {}",
                sta.proven_crit_fs
            );
            worst = worst.max(settle);
        }
        assert!(worst > 0, "test must exercise real transitions");
    }

    #[test]
    fn tiny_budget_falls_back_to_topological() {
        let adder = build_exact(8, AdderTopology::KoggeStone);
        let nl = adder.netlist();
        let ann = nominal(nl);
        let tight = StaOptions {
            max_events_per_net: 1,
            max_nodes: usize::MAX,
        };
        let sta = analyze_settle(nl, &ann, &tight);
        assert!(!sta.exact);
        assert_eq!(sta.proven_crit_fs, sta.topo_crit_fs);
    }

    #[test]
    fn select_topology_admits_false_paths() {
        // Carry-select pre-computes both branches and muxes: the mux's
        // select ripple is often provably unable to glitch the full
        // topological depth. On it and on the ripple and prefix seed
        // topologies, the proof must complete, re-verify its endpoint
        // functions, and never exceed the topological bound.
        for topology in [
            AdderTopology::Ripple,
            AdderTopology::Sklansky,
            AdderTopology::CarrySelect(4),
        ] {
            let adder = build_exact(16, topology);
            let nl = adder.netlist();
            let ann = nominal(nl);
            let sta = analyze_settle(nl, &ann, &StaOptions::default());
            assert!(sta.exact, "{topology:?}");
            assert!(sta.functions_verified, "{topology:?}");
            assert!(sta.proven_crit_fs <= sta.topo_crit_fs, "{topology:?}");
            assert!(sta.proven_crit_fs > 0, "{topology:?}");
        }
    }
}
