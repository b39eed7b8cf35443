//! Fig. 10 reproduction: bit-level-equivalent internal error distribution
//! of one overclocked ISA — by default (8,0,0,4) at 15 % CPR, the paper's
//! best-balanced configuration.
//!
//! Structural errors are translated into equivalent bit positions (the set
//! bits of |E_struct|), timing errors are physical bit flips (sampled vs
//! settled). The paper's observations to reproduce: the LSB path is
//! error-free, structural peaks sit slightly *left* of the block
//! boundaries (reduction rewrites the preceding sum's MSBs), and timing
//! errors are irregular and concentrated on the compensation logic rather
//! than the global MSBs.

use isa_core::error::arithmetic_error;
use isa_core::{Adder, BitErrorDistribution, Design, ExactAdder, Substrate};
use isa_engine::{Engine, ExperimentConfig, ExperimentPlan, GateLevelSubstrate};

use crate::report::Table;

/// The Fig. 10 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Report {
    /// Design label.
    pub design: String,
    /// Clock-period reduction used.
    pub cpr: f64,
    /// Structural errors by bit-position equivalent.
    pub structural: BitErrorDistribution,
    /// Timing errors by flipped bit position.
    pub timing: BitErrorDistribution,
}

/// Runs the distribution experiment for a design and CPR (the paper's is
/// ISA (8,0,0,4) at 15 % CPR) on a shared engine: one gate-level run of
/// the plan, whose streams fill the two per-bit distributions —
/// `E_struct = ygold − ydiamond` by bit-position equivalent, and the bits
/// where `ysilver` differs from `ygold`.
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    design: Design,
    cpr: f64,
    cycles: usize,
) -> Fig10Report {
    let plan = ExperimentPlan::new(config.clone())
        .designs([design])
        .cprs([cpr])
        .cycles(cycles);
    let gate = GateLevelSubstrate::new(engine.cache(), config.clone());
    let (structural, timing) = engine
        .map(&plan, |unit| {
            let silvers = gate.run_batch(&unit.design, unit.clock_ps, unit.inputs);
            let golds = unit.context().gold.add_batch(unit.inputs);
            let exact = ExactAdder::new(design.width());
            let mut structural = BitErrorDistribution::new(design.width() + 1);
            let mut timing = BitErrorDistribution::new(design.width() + 1);
            for ((&(a, b), &gold), &silver) in unit.inputs.iter().zip(&golds).zip(&silvers) {
                structural.record_arithmetic(arithmetic_error(gold, exact.add(a, b)));
                timing.record_flips(silver, gold);
            }
            (structural, timing)
        })
        .pop()
        .expect("single-design plan yields one run");
    Fig10Report {
        design: design.to_string(),
        cpr,
        structural,
        timing,
    }
}

impl Fig10Report {
    /// Renders the per-position rates as a table plus an ASCII bar chart.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fig. 10: bit-level-equivalent error distribution, ISA {} at {:.0}% CPR ({} cycles)\n",
            self.design,
            self.cpr * 100.0,
            self.structural.cycles()
        );
        let s_rates = self.structural.rates();
        let t_rates = self.timing.rates();
        let peak = s_rates
            .iter()
            .chain(&t_rates)
            .fold(0.0f64, |m, &r| m.max(r))
            .max(1e-9);
        let mut table = Table::new(vec![
            "bit".into(),
            "structural".into(),
            "timing".into(),
            "chart (s=structural, t=timing)".into(),
        ]);
        for (i, (s, t)) in s_rates.iter().zip(&t_rates).enumerate() {
            let bar = |r: f64| ((r / peak) * 30.0).round() as usize;
            let mut chart = String::new();
            chart.push_str(&"s".repeat(bar(*s)));
            chart.push('|');
            chart.push_str(&"t".repeat(bar(*t)));
            table.push_row(vec![
                format!("{i}"),
                format!("{s:.5}"),
                format!("{t:.5}"),
                chart,
            ]);
        }
        out.push_str(&table.render());
        out
    }

    /// CSV with one row per bit position.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "bit".into(),
            "structural_rate".into(),
            "timing_rate".into(),
        ]);
        let s = self.structural.rates();
        let t = self.timing.rates();
        for (i, (sv, tv)) in s.iter().zip(&t).enumerate() {
            table.push_row(vec![format!("{i}"), format!("{sv}"), format!("{tv}")]);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    /// The paper's Fig. 10 point: ISA (8,0,0,4) at 15 % CPR.
    fn paper_point(config: &ExperimentConfig, cycles: usize) -> Fig10Report {
        let design = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        run_on(&Engine::new(), config, design, 0.15, cycles)
    }

    #[test]
    fn structural_distribution_matches_paper_shape() {
        let config = ExperimentConfig::default();
        let report = paper_point(&config, 4000);
        let s = report.structural.rates();

        // The first speculative path (bits 0..8 minus the reduction overlap
        // of the next path) uses the true carry-in: bits 0..4 error-free.
        for (i, rate) in s.iter().enumerate().take(4) {
            assert_eq!(*rate, 0.0, "bit {i} of the LSB path must be clean");
        }
        // Structural peaks sit below the block boundaries (reduction
        // rewrites bits 4..8, 12..16, 20..24), not on the boundaries'
        // upper side.
        let left_of_16: f64 = s[12..16].iter().sum();
        let right_of_16: f64 = s[16..20].iter().sum();
        assert!(
            left_of_16 > right_of_16,
            "peaks must be left-shifted: {left_of_16} vs {right_of_16}"
        );
        // Errors exist at all three boundaries.
        assert!(s[4..8].iter().sum::<f64>() > 0.0);
        assert!(s[12..16].iter().sum::<f64>() > 0.0);
        assert!(s[20..24].iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn timing_errors_do_not_concentrate_on_global_msbs() {
        let config = ExperimentConfig::default();
        let report = paper_point(&config, 4000);
        let t = report.timing.rates();
        let msb_mass: f64 = t[28..33].iter().sum();
        let total: f64 = t.iter().sum();
        if total > 0.0 {
            assert!(
                msb_mass / total < 0.5,
                "ISA timing errors must be distributed, not MSB-bound: {msb_mass}/{total}"
            );
        }
    }

    #[test]
    fn render_and_csv_cover_all_positions() {
        let config = ExperimentConfig::default();
        let report = paper_point(&config, 500);
        let text = report.render();
        assert!(text.contains("Fig. 10"));
        assert_eq!(report.to_csv().lines().count(), 1 + 33);
    }
}
