//! Declarative experiment plans: what to run.
//!
//! A plan is the cross product `designs × cprs × workloads` under one
//! [`ExperimentConfig`]; [`Engine::run`](crate::Engine::run) evaluates
//! every unit on the gate level. Build it fluently:
//!
//! ```
//! use isa_core::{Design, IsaConfig};
//! use isa_engine::{ExperimentConfig, ExperimentPlan};
//!
//! let plan = ExperimentPlan::new(ExperimentConfig::default())
//!     .designs([Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())])
//!     .cprs([0.10])
//!     .cycles(1_000);
//! assert_eq!((plan.design_list().len(), plan.cpr_list().len()), (1, 1));
//! ```

use std::sync::Arc;

use isa_core::{paper_designs, Design};
use isa_workloads::{take_pairs, UniformWorkload};

use crate::context::ExperimentConfig;

/// One named input stream of a plan.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Name used in reports (e.g. `"uniform"`).
    pub name: String,
    /// Materialized cycle-ordered operand pairs, shared across runs.
    pub inputs: Arc<Vec<(u64, u64)>>,
}

/// A declarative description of one experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// Shared evaluation settings (safe period, die sample, seeds).
    pub config: ExperimentConfig,
    pub(crate) designs: Vec<Design>,
    pub(crate) cprs: Vec<f64>,
    pub(crate) workloads: Vec<WorkloadSpec>,
    pub(crate) cycles: usize,
}

impl ExperimentPlan {
    /// Creates a plan with the paper's defaults: all twelve designs, the
    /// configuration's CPRs, a uniform workload of 10 000 cycles seeded
    /// from `config.workload_seed`.
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        let cprs = config.cprs.clone();
        Self {
            config,
            designs: paper_designs(),
            cprs,
            workloads: Vec::new(),
            cycles: 10_000,
        }
    }

    /// Replaces the design list.
    #[must_use]
    pub fn designs(mut self, designs: impl IntoIterator<Item = Design>) -> Self {
        self.designs = designs.into_iter().collect();
        self
    }

    /// Replaces the clock-period-reduction list. A CPR of `0.0` runs at the
    /// safe clock.
    #[must_use]
    pub fn cprs(mut self, cprs: impl IntoIterator<Item = f64>) -> Self {
        self.cprs = cprs.into_iter().collect();
        self
    }

    /// Appends a named, pre-materialized workload. When no workload is
    /// added the plan defaults to `cycles` uniform pairs seeded from
    /// `config.workload_seed`.
    #[must_use]
    pub fn workload(mut self, name: impl Into<String>, inputs: Vec<(u64, u64)>) -> Self {
        self.workloads.push(WorkloadSpec {
            name: name.into(),
            inputs: Arc::new(inputs),
        });
        self
    }

    /// Sets the default uniform workload's cycle count (ignored once an
    /// explicit workload is added).
    #[must_use]
    pub fn cycles(mut self, cycles: usize) -> Self {
        self.cycles = cycles;
        self
    }

    /// The workloads the plan will actually run (explicit ones, or the
    /// default uniform stream).
    #[must_use]
    pub fn resolved_workloads(&self) -> Vec<WorkloadSpec> {
        if self.workloads.is_empty() {
            vec![WorkloadSpec {
                name: "uniform".to_owned(),
                inputs: Arc::new(take_pairs(
                    UniformWorkload::new(
                        self.designs.iter().map(Design::width).max().unwrap_or(32),
                        self.config.workload_seed,
                    ),
                    self.cycles,
                )),
            }]
        } else {
            self.workloads.clone()
        }
    }

    /// The design list.
    #[must_use]
    pub fn design_list(&self) -> &[Design] {
        &self.designs
    }

    /// The CPR list.
    #[must_use]
    pub fn cpr_list(&self) -> &[f64] {
        &self.cprs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    #[test]
    fn defaults_cover_the_paper_matrix() {
        let plan = ExperimentPlan::new(ExperimentConfig::default());
        assert_eq!(plan.design_list().len(), 12);
        assert_eq!(plan.cpr_list().len(), 3);
        let workloads = plan.resolved_workloads();
        assert_eq!(workloads.len(), 1);
        assert_eq!(workloads[0].name, "uniform");
        assert_eq!(workloads[0].inputs.len(), 10_000);
    }

    #[test]
    fn builder_replaces_axes() {
        let plan = ExperimentPlan::new(ExperimentConfig::default())
            .designs([Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap())])
            .cprs([0.15])
            .workload("walk", vec![(1, 2), (3, 4)])
            .workload("ones", vec![(u64::MAX, 1)]);
        assert_eq!(plan.design_list().len(), 1);
        assert_eq!(plan.cpr_list(), &[0.15]);
        let workloads = plan.resolved_workloads();
        assert_eq!(workloads.len(), 2);
        assert_eq!(workloads[1].name, "ones");
    }

    #[test]
    fn default_workload_is_deterministic() {
        let a = ExperimentPlan::new(ExperimentConfig::default()).resolved_workloads();
        let b = ExperimentPlan::new(ExperimentConfig::default()).resolved_workloads();
        assert_eq!(a[0].inputs, b[0].inputs);
    }
}
