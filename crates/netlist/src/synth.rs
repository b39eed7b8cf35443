//! Cost-driven mini-synthesis: topology selection under a timing constraint.
//!
//! Stands in for Synopsys Design Compiler's arithmetic synthesis: among the
//! candidate adder architectures it picks the **smallest** implementation
//! whose STA meets the clock-period constraint, then applies *area
//! recovery* — a bounded uniform delay derate that models the downsizing a
//! commercial tool performs on positive-slack designs (cells are swapped
//! for smaller, slower variants until slack is nearly zero or the minimum
//! size is reached). This is what makes every design "fit the 0.3 ns timing
//! constraint" tightly, as in the paper, while keeping each topology's
//! path-sensitization character.

use std::error::Error;
use std::fmt;

use isa_core::IsaConfig;

use crate::builders::{self, AdderNetlist, AdderTopology, CANDIDATE_TOPOLOGIES};
use crate::cell::CellLibrary;
use crate::sta::StaReport;
use crate::timing::DelayAnnotation;

/// Fraction of the clock period area recovery aims the arrival times at
/// (99 % of the constraint).
const RECOVERY_TARGET_FRACTION: f64 = 0.99;

/// Area recovery's maximum per-cell slow-down factor (the minimum cell
/// size / HVT-swap limit).
const RECOVERY_MAX_FACTOR: f64 = 1.60;

/// Synthesis options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SynthesisOptions {
    /// Slack-based area recovery (see [`area_recovery`]), aiming every
    /// path at 99 % of the period with cells slowed by at most 1.6×;
    /// `false` keeps nominal (fastest) cell sizing, i.e. the design
    /// retains its natural slack.
    pub recover_area: bool,
}

impl SynthesisOptions {
    /// Area recovery enabled — models a design *constrained at* the clock
    /// period, which commercial flows downsize until every endpoint sits
    /// at the slack wall. The paper's exact adder ("also constrained at
    /// 0.3 ns") is synthesized this way.
    #[must_use]
    pub fn paper() -> Self {
        Self { recover_area: true }
    }
}

/// Slack-based area recovery: slows each cell by its available path slack,
/// bounded by `max_factor` overall, so that every path's arrival approaches
/// `target_ps` — the post-synthesis "slack wall" of a constrained design.
///
/// Each pass computes, per cell, the worst path through it
/// (`arrival(output) + worst_downstream(output)`) and scales the cell by
/// `target / worst_path_through`: every cell on a path sees a
/// `worst_path_through` at least as long as that path, so no pass can push
/// any path beyond the target, and iterating converges shared-cone subpaths
/// onto the wall exactly like repeated downsizing steps in a commercial
/// flow.
#[must_use]
pub fn area_recovery(
    netlist: &crate::graph::Netlist,
    annotation: &DelayAnnotation,
    target_ps: f64,
    max_factor: f64,
) -> DelayAnnotation {
    let original = annotation.as_slice().to_vec();
    let mut current = annotation.clone();
    for _pass in 0..12 {
        let sta = StaReport::analyze(netlist, &current);
        // Backward pass: worst remaining delay from each net to any output.
        let downstream = StaReport::downstream_ps(netlist, &current);
        let mut changed = false;
        let delays: Vec<f64> = netlist
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let id = crate::graph::CellId::from_index(i);
                let worst_through = sta.arrival_ps(cell.output) + downstream[cell.output.index()];
                let pass_factor = if worst_through > 0.0 {
                    (target_ps / worst_through).max(1.0)
                } else {
                    1.0
                };
                // The cumulative slow-down per cell is capped (minimum cell
                // size / HVT-swap limit).
                let new_delay = (current.delay_ps(id) * pass_factor).min(original[i] * max_factor);
                if new_delay > current.delay_ps(id) * 1.005 {
                    changed = true;
                }
                new_delay
            })
            .collect();
        current = DelayAnnotation::from_delays(delays);
        if !changed {
            break;
        }
    }
    current
}

/// A synthesized design: netlist + chosen topology + timing annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesized {
    /// The gate-level adder.
    pub adder: AdderNetlist,
    /// The selected topology.
    pub topology: AdderTopology,
    /// Area in NAND2-equivalent units.
    pub area: f64,
    /// Critical delay after area recovery, in picoseconds.
    pub critical_ps: f64,
    /// The (possibly derated) per-instance delay annotation.
    pub annotation: DelayAnnotation,
}

/// Synthesis failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// No candidate topology meets the constraint; reports the fastest.
    NoFeasibleTopology {
        /// Name of the design being synthesized.
        design: String,
        /// The requested period in picoseconds.
        period_ps: f64,
        /// Best achievable critical delay.
        best_ps: f64,
        /// Topology achieving it.
        best_topology: AdderTopology,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoFeasibleTopology {
                design,
                period_ps,
                best_ps,
                best_topology,
            } => write!(
                f,
                "{design}: no topology meets {period_ps} ps (best: {} at {best_ps:.1} ps)",
                best_topology.name()
            ),
        }
    }
}

impl Error for SynthesisError {}

/// One synthesis candidate, characterized by area and critical delay.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    adder: AdderNetlist,
    topology: AdderTopology,
    area: f64,
    critical_ps: f64,
    annotation: DelayAnnotation,
}

fn characterize<F>(build: F, topology: AdderTopology, lib: &CellLibrary) -> Option<Candidate>
where
    F: FnOnce(AdderTopology) -> Option<AdderNetlist>,
{
    let adder = build(topology)?;
    let annotation = DelayAnnotation::nominal(adder.netlist(), lib);
    let sta = StaReport::analyze(adder.netlist(), &annotation);
    Some(Candidate {
        area: adder.netlist().area(lib),
        critical_ps: sta.critical_ps(),
        adder,
        topology,
        annotation,
    })
}

fn pick(
    design: &str,
    candidates: Vec<Candidate>,
    period_ps: f64,
    options: &SynthesisOptions,
) -> Result<Synthesized, SynthesisError> {
    assert!(!candidates.is_empty(), "no applicable topology candidates");
    let feasible = candidates
        .iter()
        .filter(|c| c.critical_ps <= period_ps)
        .min_by(|a, b| {
            a.area
                .total_cmp(&b.area)
                .then(a.critical_ps.total_cmp(&b.critical_ps))
        })
        .cloned();
    let Some(chosen) = feasible else {
        let best = candidates
            .into_iter()
            .min_by(|a, b| a.critical_ps.total_cmp(&b.critical_ps))
            .expect("non-empty candidates");
        return Err(SynthesisError::NoFeasibleTopology {
            design: design.to_owned(),
            period_ps,
            best_ps: best.critical_ps,
            best_topology: best.topology,
        });
    };

    let (annotation, critical_ps) = if options.recover_area {
        let recovered = area_recovery(
            chosen.adder.netlist(),
            &chosen.annotation,
            RECOVERY_TARGET_FRACTION * period_ps,
            RECOVERY_MAX_FACTOR,
        );
        let crit = StaReport::analyze(chosen.adder.netlist(), &recovered).critical_ps();
        (recovered, crit)
    } else {
        (chosen.annotation, chosen.critical_ps)
    };
    Ok(Synthesized {
        adder: chosen.adder,
        topology: chosen.topology,
        area: chosen.area,
        critical_ps,
        annotation,
    })
}

/// Synthesizes an exact adder of `width` bits against a clock period.
///
/// # Errors
///
/// Returns [`SynthesisError::NoFeasibleTopology`] when even the fastest
/// architecture misses the constraint.
pub fn synthesize_exact(
    width: u32,
    period_ps: f64,
    lib: &CellLibrary,
    options: &SynthesisOptions,
) -> Result<Synthesized, SynthesisError> {
    let candidates: Vec<Candidate> = CANDIDATE_TOPOLOGIES
        .iter()
        .filter(|t| t.supports_width(width))
        .filter_map(|&t| {
            characterize(
                |topology| Some(builders::build_exact(width, topology)),
                t,
                lib,
            )
        })
        .collect();
    pick(&format!("exact{width}"), candidates, period_ps, options)
}

/// Synthesizes an Inexact Speculative Adder against a clock period,
/// choosing one sub-adder topology uniformly for all blocks (the paper's
/// designs use regular structures).
///
/// # Errors
///
/// Returns [`SynthesisError::NoFeasibleTopology`] when even the fastest
/// sub-adder architecture misses the constraint.
pub fn synthesize_isa(
    cfg: &IsaConfig,
    period_ps: f64,
    lib: &CellLibrary,
    options: &SynthesisOptions,
) -> Result<Synthesized, SynthesisError> {
    let candidates: Vec<Candidate> = CANDIDATE_TOPOLOGIES
        .iter()
        .filter(|t| t.supports_width(cfg.block_size()))
        .filter_map(|&t| characterize(|topology| builders::isa::build(cfg, topology).ok(), t, lib))
        .collect();
    pick(&format!("isa{cfg}"), candidates, period_ps, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::paper_isa_configs;

    const PERIOD: f64 = 300.0;

    #[test]
    fn exact_32_meets_the_paper_constraint() {
        let lib = CellLibrary::industrial_65nm();
        let synth =
            synthesize_exact(32, PERIOD, &lib, &SynthesisOptions::paper()).expect("feasible");
        assert!(synth.critical_ps <= PERIOD, "{}", synth.critical_ps);
        // Area recovery should bring it close to the constraint.
        assert!(
            synth.critical_ps >= 0.75 * PERIOD,
            "exact adder left too much slack: {:.1} ps ({})",
            synth.critical_ps,
            synth.topology.name()
        );
    }

    #[test]
    fn every_paper_isa_meets_the_constraint() {
        let lib = CellLibrary::industrial_65nm();
        for cfg in paper_isa_configs() {
            let synth = synthesize_isa(&cfg, PERIOD, &lib, &SynthesisOptions::paper())
                .unwrap_or_else(|e| panic!("{cfg}: {e}"));
            assert!(synth.critical_ps <= PERIOD, "{cfg}: {}", synth.critical_ps);
        }
    }

    #[test]
    fn synthesized_isa_is_functionally_the_behavioural_model() {
        use isa_core::{Adder, SpeculativeAdder};
        let lib = CellLibrary::industrial_65nm();
        let cfg = IsaConfig::new(32, 8, 0, 0, 4).unwrap();
        let synth = synthesize_isa(&cfg, PERIOD, &lib, &SynthesisOptions::paper()).unwrap();
        let behavioural = SpeculativeAdder::new(cfg);
        let mut seed = 7u64;
        for _ in 0..300 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (a, b) = (seed >> 32, seed & 0xFFFF_FFFF);
            assert_eq!(synth.adder.add(a, b), behavioural.add(a, b));
        }
    }

    #[test]
    fn impossible_constraint_reports_best_effort() {
        let lib = CellLibrary::industrial_65nm();
        let err = synthesize_exact(32, 50.0, &lib, &SynthesisOptions::default()).unwrap_err();
        match err {
            SynthesisError::NoFeasibleTopology {
                best_ps, period_ps, ..
            } => {
                assert_eq!(period_ps, 50.0);
                assert!(best_ps > 50.0);
            }
        }
    }

    #[test]
    fn loose_constraint_selects_cheap_topology() {
        let lib = CellLibrary::industrial_65nm();
        // At a very loose constraint, ripple (minimal area) must win.
        let synth = synthesize_exact(16, 10_000.0, &lib, &SynthesisOptions::default()).unwrap();
        assert_eq!(synth.topology, AdderTopology::Ripple);
    }

    #[test]
    fn tight_constraint_selects_faster_topology_than_loose() {
        let lib = CellLibrary::industrial_65nm();
        let loose = synthesize_exact(32, 10_000.0, &lib, &SynthesisOptions::default()).unwrap();
        let tight = synthesize_exact(32, PERIOD, &lib, &SynthesisOptions::default()).unwrap();
        assert!(tight.area > loose.area, "speed must cost area");
    }

    #[test]
    fn derate_never_violates_the_constraint() {
        let lib = CellLibrary::industrial_65nm();
        for period in [280.0, 300.0, 350.0, 500.0] {
            let synth =
                synthesize_exact(32, period, &lib, &SynthesisOptions::paper()).expect("feasible");
            assert!(synth.critical_ps <= period, "period {period}");
        }
    }

    #[test]
    fn derate_is_bounded_by_max_factor() {
        let lib = CellLibrary::industrial_65nm();
        let nominal = synthesize_exact(16, 5_000.0, &lib, &SynthesisOptions::default()).unwrap();
        let derated = synthesize_exact(16, 5_000.0, &lib, &SynthesisOptions::paper()).unwrap();
        assert_eq!(nominal.topology, derated.topology);
        let factor = derated.critical_ps / nominal.critical_ps;
        assert!(factor <= 1.60 + 1e-9, "factor {factor}");
    }

    #[test]
    fn area_recovery_pushes_every_endpoint_toward_the_wall() {
        use crate::sta::StaReport;
        let lib = CellLibrary::industrial_65nm();
        let synth = synthesize_exact(32, PERIOD, &lib, &SynthesisOptions::default()).unwrap();
        let target = 0.99 * PERIOD;
        let recovered = area_recovery(synth.adder.netlist(), &synth.annotation, target, 50.0);
        let sta = StaReport::analyze(synth.adder.netlist(), &recovered);
        // No output may exceed the target...
        assert!(sta.critical_ps() <= target + 1e-6, "{}", sta.critical_ps());
        // ...and with a generous factor cap, every output with a non-trivial
        // cone should sit near the slack wall. (Single-gate LSB cones are
        // capped by the factor limit in practice; with 50x they reach it
        // too, except sum[0] which is one XOR deep.)
        let arrivals = sta.output_arrivals_ps(synth.adder.netlist());
        let near_wall = arrivals.iter().filter(|a| **a >= 0.80 * target).count();
        assert!(
            near_wall >= arrivals.len() - 2,
            "only {near_wall}/{} outputs reached the wall",
            arrivals.len()
        );
    }

    #[test]
    fn area_recovery_respects_max_factor_cap() {
        let lib = CellLibrary::industrial_65nm();
        let synth = synthesize_exact(32, PERIOD, &lib, &SynthesisOptions::default()).unwrap();
        let recovered = area_recovery(
            synth.adder.netlist(),
            &synth.annotation,
            0.99 * PERIOD,
            1.25,
        );
        for (r, n) in recovered.as_slice().iter().zip(synth.annotation.as_slice()) {
            assert!(*r <= n * 1.25 + 1e-9);
            assert!(*r >= *n - 1e-9, "recovery must never speed a cell up");
        }
    }

    #[test]
    fn area_recovery_preserves_function() {
        let lib = CellLibrary::industrial_65nm();
        let synth = synthesize_exact(16, PERIOD, &lib, &SynthesisOptions::paper()).unwrap();
        // Delays changed, logic did not.
        assert_eq!(synth.adder.add(1234, 4321), 5555);
        assert_eq!(synth.adder.add(0xFFFF, 1), 0x10000);
    }

    #[test]
    fn block_size_drives_subadder_architecture_choice() {
        // 8-bit blocks are loose enough for the cheapest (ripple-class)
        // sub-adder, while 16-bit blocks force a faster architecture —
        // that architectural difference (not the raw critical delay, which
        // area recovery pushes toward the constraint for everyone) is what
        // later differentiates their timing-error sensitization.
        let lib = CellLibrary::industrial_65nm();
        let opts = SynthesisOptions::default(); // no derate: raw structure speed
        let isa8 = synthesize_isa(
            &IsaConfig::new(32, 8, 0, 0, 4).unwrap(),
            PERIOD,
            &lib,
            &opts,
        )
        .unwrap();
        let isa16 = synthesize_isa(
            &IsaConfig::new(32, 16, 2, 0, 4).unwrap(),
            PERIOD,
            &lib,
            &opts,
        )
        .unwrap();
        assert_eq!(
            isa8.topology,
            AdderTopology::Ripple,
            "8-bit blocks should afford the cheapest sub-adder"
        );
        assert_ne!(
            isa16.topology,
            AdderTopology::Ripple,
            "16-bit ripple blocks cannot meet 300 ps"
        );
        assert!(isa8.area < isa16.area);
    }
}
