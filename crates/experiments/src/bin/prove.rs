//! Symbolic proof sweep: proves every design in the space instead of
//! sampling it.
//!
//! For the twelve seed designs at their native 32 bits plus the full
//! non-overlapping quadruple grid at `--width` (default 16), each design
//! is built through the same `DesignContext::try_build` gate the
//! experiments use, then handed to [`isa_prove`]:
//!
//! - **Equivalence**: the synthesized netlist's output functions are
//!   proven identical to the behavioural spec over all `2^(2W)` operand
//!   pairs (a refutation carries a concrete counterexample).
//! - **False-path STA**: the symbolic settle-bound analysis runs on the
//!   die's delay annotation; the sweep records how far the proven bound
//!   tightens the topological one, and re-checks the analysis' own
//!   soundness obligations (proven ≤ topological, waveform endpoints
//!   functionally verified).
//! - **Exact moments**: the model-counted error distribution's zero
//!   count, `Σe` and `Σe²` must equal those of the per-bit moment program
//!   the explorer uses ([`isa_core::DesignAnalysis`]). This check covers
//!   every listed design, feasible or not, since the arithmetic does not
//!   depend on synthesis; the seeds' exact RMS is reported.
//! - **Energy**: on every feasible design, the 64-lane activity sweep
//!   behind [`measure_clocked_batch`] must bill exactly the transitions
//!   and dynamic energy (to the bit) of scalar `GateLevelSim` runs of its
//!   lane segments, over 256 uniform cycles at the safe clock and at 0.6×
//!   the die's critical delay.
//!
//! This sweep is the one place the equivalence and settle-bound proofs
//! run. Synthesis-infeasible grid points skip the proofs and the energy
//! check (a feasibility boundary, not a proof failure). Any failed proof,
//! moment or energy mismatch, or panic prints the finding and the sweep
//! exits with status 1 — the CI gate asserting the whole space is
//! *proven*, not sampled. Failures are listed in design order at any
//! `--threads`. Sibling of the `netlint` sweep (`isa-netlint-sweep/v1`),
//! which runs the sampled per-build checks; this bin writes
//! `isa-prove-sweep/v1`.

use std::fmt::Write as _;
use std::time::Instant;

use isa_core::{paper_designs, Design, DesignAnalysis};
use isa_engine::{BuildError, DesignContext, ExperimentConfig};
use isa_experiments::{arg_value, cli_args, engine_from_args, sweep, write_output};
use isa_netlist::CellLibrary;
use isa_prove::{analyze_settle, check_equivalence, ErrorDistribution, StaOptions};
use isa_timing_sim::{measure_activity, measure_clocked_batch, ps_to_fs, scalar_segment_commits};
use isa_workloads::{take_pairs, UniformWorkload};

/// Cycles of the energy check: four steps of 64 lanes.
const ENERGY_CYCLES: usize = 256;

/// One design's outcome.
struct Outcome {
    /// Exact structural error RMS from the model counts.
    rms: f64,
    /// How the moment program disagrees with the model counts, if it does.
    moment_mismatch: Option<String>,
    /// The proofs; `None` when synthesis is infeasible.
    proved: Option<Proved>,
}

/// One feasible design's proof outcome.
#[derive(Default)]
struct Proved {
    /// The STA hit its budget and fell back to the topological bound.
    fallback: bool,
    /// The energy check ran (the design passed lint).
    energy_checked: bool,
    tightening_fs: u64,
    /// One line per failed proof.
    findings: Vec<String>,
}

#[derive(Default)]
struct SweepStats {
    /// Designs whose moments were cross-checked.
    moments_checked: usize,
    /// Designs whose batched energy was checked against scalar lanes.
    energy_checked: usize,
    checked: usize,
    infeasible: usize,
    /// STA budget bailouts (sound fallback to the topological bound).
    fallbacks: usize,
    /// Designs whose proven bound strictly tightens the topological one.
    tightened: usize,
    max_tightening_fs: u64,
    /// `(design label, finding)` for every failed proof or moment
    /// mismatch.
    failures: Vec<(String, String)>,
    /// Per-seed-design exact RMS lines for the summary.
    seed_rms: Vec<(String, f64)>,
}

/// Cross-checks one design's moments, then builds it and runs both
/// proofs on it.
fn check(design: Design, config: &ExperimentConfig) -> Outcome {
    let counted = *ErrorDistribution::analyze_with_pmf_cap(&design, 0).moments();
    let program = DesignAnalysis::analyze(&design);
    let triple = |m: &DesignAnalysis| (m.zero_count(), m.sum_error(), m.sum_squared_error());
    Outcome {
        rms: counted.rms_error(),
        moment_mismatch: (program != counted).then(|| {
            format!(
                "moment program (zero count, sum e, sum e^2) = {:?}, BDD counts {:?}",
                triple(&program),
                triple(&counted)
            )
        }),
        proved: prove(design, config),
    }
}

/// Builds one design and runs both proofs on it; `None` when synthesis is
/// infeasible.
fn prove(design: Design, config: &ExperimentConfig) -> Option<Proved> {
    let mut proved = Proved::default();
    let ctx = match DesignContext::try_build(design, config) {
        Ok(ctx) => ctx,
        Err(BuildError::Synthesis(_)) => return None,
        Err(BuildError::Lint(report)) => {
            proved
                .findings
                .push(format!("failed lint:\n{}", report.render()));
            return Some(proved);
        }
    };

    let equiv = check_equivalence(&design, &ctx.synthesized.adder);
    if !equiv.equivalent {
        let (a, b) = equiv.counterexample.unwrap_or((0, 0));
        proved.findings.push(format!(
            "equivalence refuted on output bit {}: a={a:#x}, b={b:#x}",
            equiv.failing_output.unwrap_or(0)
        ));
    }

    let sta = analyze_settle(
        ctx.synthesized.adder.netlist(),
        &ctx.annotation,
        &StaOptions::default(),
    );
    proved.fallback = !sta.exact;
    if sta.proven_crit_fs > sta.topo_crit_fs {
        proved.findings.push(format!(
            "proven settle bound {} fs exceeds topological {} fs",
            sta.proven_crit_fs, sta.topo_crit_fs
        ));
    }
    if sta.exact && !sta.functions_verified {
        proved
            .findings
            .push("waveform endpoints diverge from functional semantics".to_owned());
    }
    proved.tightening_fs = sta.tightening_fs();

    let inputs = take_pairs(
        UniformWorkload::new(design.width(), config.workload_seed ^ 0xE6E),
        ENERGY_CYCLES,
    );
    let overclocked_ps = 0.6 * sta.topo_crit_fs as f64 / 1000.0;
    for period_ps in [config.period_ps, overclocked_ps] {
        if let Some(finding) = energy_mismatch(&ctx, &inputs, period_ps) {
            proved.findings.push(finding);
        }
    }
    proved.energy_checked = true;
    Some(proved)
}

/// Compares [`measure_clocked_batch`] with [`measure_activity`] over the
/// scalar lane-segment commits ([`scalar_segment_commits`]); a finding
/// unless the transitions and the dynamic energy's bits agree.
fn energy_mismatch(ctx: &DesignContext, inputs: &[(u64, u64)], period_ps: f64) -> Option<String> {
    let lib = CellLibrary::industrial_65nm();
    let adder = &ctx.synthesized.adder;
    let netlist = adder.netlist();
    let period_fs = ps_to_fs(period_ps);
    let counts = scalar_segment_commits(adder, &ctx.annotation, period_fs, inputs);
    let scalar = measure_activity(&counts, inputs.len() as u64 * period_fs, netlist, &lib);
    let batch = measure_clocked_batch(adder, &ctx.annotation, period_ps, inputs, &lib);
    let same = batch.transitions == scalar.transitions
        && batch.dynamic_fj.to_bits() == scalar.dynamic_fj.to_bits();
    (!same).then(|| {
        format!(
            "energy at {period_ps:.1} ps: batch bills {} transitions ({} fJ), \
             scalar lanes {} ({} fJ)",
            batch.transitions, batch.dynamic_fj, scalar.transitions, scalar.dynamic_fj
        )
    })
}

fn main() {
    let args = cli_args("prove [--seeds-only] [--width N] [--threads N] [--json PATH]");
    // The moment cross-check counts at most 32-bit designs.
    let width = sweep::width_arg(&args, 16, DesignAnalysis::MAX_WIDTH);
    let seeds_only = args.iter().any(|a| a == "--seeds-only");
    let engine = engine_from_args(&args);
    let designs = sweep::designs(width, seeds_only);
    eprintln!(
        "prove: proving {} designs ({}) on {} thread(s)",
        designs.len(),
        sweep::scope(width, seeds_only),
        engine.threads()
    );

    let config = ExperimentConfig::default();
    let seeds = paper_designs();
    let started = Instant::now();
    let outcomes = sweep::map(&engine, &config, &designs, |design| check(design, &config));

    let mut stats = SweepStats::default();
    for (design, outcome) in designs.iter().zip(outcomes) {
        let label = design.to_string();
        match outcome {
            Ok(outcome) => {
                stats.moments_checked += 1;
                if seeds.contains(design) {
                    stats.seed_rms.push((label.clone(), outcome.rms));
                }
                if let Some(mismatch) = outcome.moment_mismatch {
                    stats.failures.push((label.clone(), mismatch));
                }
                let Some(proved) = outcome.proved else {
                    stats.infeasible += 1;
                    continue;
                };
                stats.checked += 1;
                stats.energy_checked += usize::from(proved.energy_checked);
                stats.fallbacks += usize::from(proved.fallback);
                if proved.tightening_fs > 0 {
                    stats.tightened += 1;
                    stats.max_tightening_fs = stats.max_tightening_fs.max(proved.tightening_fs);
                }
                for finding in proved.findings {
                    stats.failures.push((label.clone(), finding));
                }
            }
            // A panicking design proved nothing: it counts as a failure only.
            Err(panic) => stats.failures.push((label, format!("panicked: {panic}"))),
        }
    }
    stats.seed_rms.sort_by(|a, b| a.0.cmp(&b.0));
    for (design, finding) in &stats.failures {
        eprintln!("prove: FAIL {design}: {finding}");
    }
    for (design, rms) in &stats.seed_rms {
        println!("prove: seed {design}: exact structural RMS {rms:.6e}");
    }
    println!(
        "prove: {} proven, {} infeasible skipped, {} failed proof(s); \
         moments cross-checked against the BDD on {} design(s); \
         energy checked against scalar lanes on {} design(s); \
         false-path tightening on {} design(s) (max {:.1} ps), {} STA budget fallback(s); \
         wall {:.2}s",
        stats.checked,
        stats.infeasible,
        stats.failures.len(),
        stats.moments_checked,
        stats.energy_checked,
        stats.tightened,
        stats.max_tightening_fs as f64 / 1000.0,
        stats.fallbacks,
        started.elapsed().as_secs_f64()
    );

    if let Some(path) = arg_value::<String>(&args, "json") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"schema\": \"isa-prove-sweep/v1\",");
        let _ = writeln!(json, "  \"width\": {width},");
        let _ = writeln!(json, "  \"seeds_only\": {seeds_only},");
        let _ = writeln!(json, "  \"proven\": {},", stats.checked);
        let _ = writeln!(json, "  \"infeasible\": {},", stats.infeasible);
        let _ = writeln!(json, "  \"moments_checked\": {},", stats.moments_checked);
        let _ = writeln!(json, "  \"energy_checked\": {},", stats.energy_checked);
        let _ = writeln!(json, "  \"failed_proofs\": {},", stats.failures.len());
        let _ = writeln!(json, "  \"tightened_designs\": {},", stats.tightened);
        let _ = writeln!(
            json,
            "  \"max_tightening_ps\": {},",
            stats.max_tightening_fs as f64 / 1000.0
        );
        let _ = writeln!(json, "  \"sta_fallbacks\": {},", stats.fallbacks);
        json.push_str("  \"seed_rms\": {");
        for (i, (design, rms)) in stats.seed_rms.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(json, "\n    \"{design}\": {rms}");
        }
        json.push_str("\n  },\n");
        json.push_str("  \"failures\": [");
        for (i, (design, finding)) in stats.failures.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(json, "\n    {{\"design\": \"{design}\", \"finding\": ");
            isa_obs::json::escape_into(finding, &mut json);
            json.push('}');
        }
        json.push_str("\n  ]\n}\n");
        write_output(&path, &json);
    }

    if !stats.failures.is_empty() {
        std::process::exit(1);
    }
}
