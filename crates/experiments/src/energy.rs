//! Energy-efficiency characterization of the twelve designs.
//!
//! The ISA designs come from an energy-efficiency study (the paper's
//! reference \[17\]); this experiment reproduces that style of comparison on
//! our substrate: dynamic + leakage energy per addition from simulated
//! switching activity, area, delay, and the resulting energy-delay product,
//! against each design's structural accuracy.

use isa_core::{structural_errors, Design};
use isa_engine::{Engine, ExperimentConfig, ExperimentPlan};
use isa_netlist::cell::CellLibrary;
use isa_timing_sim::measure_clocked_batch;
use isa_workloads::{take_pairs, UniformWorkload};

use crate::report::{sci, Table};

/// One design's energy row.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Design label.
    pub design: String,
    /// Area in NAND2-equivalent units.
    pub area: f64,
    /// Critical delay in ps.
    pub critical_ps: f64,
    /// Total energy per addition, femtojoules.
    pub energy_per_op_fj: f64,
    /// Dynamic fraction of the energy.
    pub dynamic_fraction: f64,
    /// Mean committed transitions per addition.
    pub transitions_per_op: f64,
    /// Structural RMS relative error, percent (accuracy cost of the
    /// savings).
    pub rms_re_struct_pct: f64,
    /// Energy-delay product, fJ x ns.
    pub edp_fj_ns: f64,
}

/// The full energy table.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyTable {
    /// Rows in figure order.
    pub rows: Vec<EnergyRow>,
    /// Cycles simulated per design.
    pub cycles: usize,
}

/// Runs the energy characterization at the safe clock on a shared engine
/// for an explicit design list: per-design activity simulations are
/// spread over the engine's workers and reuse its memoized synthesis
/// artifacts.
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    cycles: usize,
) -> EnergyTable {
    let inputs = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0xE6E),
        cycles,
    );
    let plan = ExperimentPlan::new(config.clone())
        .designs(designs.iter().copied())
        .cprs([0.0])
        .workload("uniform-energy", inputs);
    let rows = engine.map(&plan, |unit| {
        let lib = CellLibrary::industrial_65nm();
        let ctx = unit.context();
        let n = unit.inputs.len();
        // Switching-activity simulation at the safe clock on the 64-lane
        // activity sweep, whose per-net commit counts already sum
        // transitions over lanes; leakage is charged over the
        // sequential-equivalent span (n x period). Energy needs the *full*
        // per-net switching activity, glitches included, which the
        // filtered fast path never materializes for timing-safe lanes.
        let report = measure_clocked_batch(
            &ctx.synthesized.adder,
            &ctx.annotation,
            unit.config.period_ps,
            unit.inputs,
            &lib,
        );
        let structural = structural_errors(ctx.gold.as_ref(), unit.inputs.iter().copied());
        let energy_per_op = report.per_op_fj(n as u64);
        EnergyRow {
            design: ctx.label(),
            area: ctx.synthesized.area,
            critical_ps: ctx.synthesized.critical_ps,
            energy_per_op_fj: energy_per_op,
            dynamic_fraction: report.dynamic_fj / report.total_fj().max(f64::MIN_POSITIVE),
            transitions_per_op: report.transitions as f64 / unit.inputs.len() as f64,
            rms_re_struct_pct: structural.re_struct.rms() * 100.0,
            edp_fj_ns: energy_per_op * ctx.synthesized.critical_ps / 1000.0,
        }
    });
    EnergyTable { rows, cycles }
}

impl EnergyTable {
    /// Renders the energy-efficiency table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "area".into(),
            "crit(ps)".into(),
            "fJ/op".into(),
            "dyn%".into(),
            "tog/op".into(),
            "EDP(fJ*ns)".into(),
            "RMS REs(%)".into(),
        ]);
        for r in &self.rows {
            table.push_row(vec![
                r.design.clone(),
                format!("{:.0}", r.area),
                format!("{:.1}", r.critical_ps),
                format!("{:.1}", r.energy_per_op_fj),
                format!("{:.1}", r.dynamic_fraction * 100.0),
                format!("{:.1}", r.transitions_per_op),
                format!("{:.1}", r.edp_fj_ns),
                sci(r.rms_re_struct_pct),
            ]);
        }
        format!(
            "Energy efficiency at the safe clock ({} cycles per design)\n{}",
            self.cycles,
            table.render()
        )
    }

    /// CSV export.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "area".into(),
            "critical_ps".into(),
            "energy_per_op_fj".into(),
            "dynamic_fraction".into(),
            "transitions_per_op".into(),
            "edp_fj_ns".into(),
            "rms_re_struct_pct".into(),
        ]);
        for r in &self.rows {
            table.push_row(vec![
                r.design.clone(),
                format!("{}", r.area),
                format!("{}", r.critical_ps),
                format!("{}", r.energy_per_op_fj),
                format!("{}", r.dynamic_fraction),
                format!("{}", r.transitions_per_op),
                format!("{}", r.edp_fj_ns),
                format!("{}", r.rms_re_struct_pct),
            ]);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::{Design, IsaConfig};

    #[test]
    fn isa_beats_exact_on_energy() {
        let config = ExperimentConfig::default();
        let designs = [
            Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
            Design::Exact { width: 32 },
        ];
        let table = run_on(&Engine::new(), &config, &designs, 300);
        let isa = &table.rows[0];
        let exact = &table.rows[1];
        assert!(
            isa.energy_per_op_fj < exact.energy_per_op_fj,
            "ISA {:.1} fJ vs exact {:.1} fJ",
            isa.energy_per_op_fj,
            exact.energy_per_op_fj
        );
        assert!(isa.edp_fj_ns < exact.edp_fj_ns);
        assert!(
            isa.rms_re_struct_pct > 0.0,
            "the energy is bought with accuracy"
        );
    }

    #[test]
    fn energy_components_are_sane() {
        let config = ExperimentConfig::default();
        let designs = [Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).unwrap())];
        let table = run_on(&Engine::new(), &config, &designs, 200);
        let row = &table.rows[0];
        assert!(row.energy_per_op_fj > 0.0);
        assert!(row.dynamic_fraction > 0.0 && row.dynamic_fraction < 1.0);
        assert!(row.transitions_per_op > 10.0, "adders toggle a lot");
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 2);
    }
}
