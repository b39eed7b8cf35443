//! Design-space exploration pipeline (extension): Pareto search over the
//! combined structural × timing × workload space.
//!
//! Wraps [`isa_explore`] in the repo's pipeline conventions: a settings
//! struct fed from CLI flags, a report with `render()` / `to_csv()`, and a
//! `run_on(&Engine, ...)` entry point sharing the engine's memoized
//! synthesis artifacts with every other pipeline. The CSV lists *every
//! candidate the search characterized* — pruned ones included, with their
//! tier-A bound — plus front membership, so the golden check pins the
//! whole two-tier evaluation, not just the survivors.

use std::sync::Arc;

use isa_apps::kernel_by_name;
use isa_engine::{Engine, ExperimentConfig, GATE_BACKEND_LABEL};
use isa_explore::{
    explore, CandidateEval, EvalMode, EvalSettings, Query, SearchOutcome, SearchSettings, SpaceSpec,
};
use isa_workloads::{named_stream, STREAM_NAMES};

use crate::report::Table;

/// The space presets [`ExploreSettings::space_spec`] resolves.
pub const SPACES: [&str; 3] = ["paper", "compact", "full"];

/// Everything one exploration run needs (the `explore` bin's flag set).
#[derive(Debug, Clone)]
pub struct ExploreSettings {
    /// Space preset, one of [`SPACES`].
    pub space: String,
    /// Stream workload length in cycles.
    pub cycles: usize,
    /// Stream workload name (one of [`STREAM_NAMES`]) — ignored when a
    /// kernel is selected.
    pub workload: String,
    /// Application kernel name (e.g. `conv2d-sobel`); switches the error
    /// objective to negated PSNR.
    pub kernel: Option<String>,
    /// Kernel input scale factor.
    pub scale: usize,
    /// Prune candidates a certain or measured reference dominates.
    pub prefilter: bool,
    /// Cycles of the per-design energy characterization.
    pub energy_cycles: usize,
    /// Optional quality-constrained query: minimum quality in dB.
    pub min_quality_db: Option<f64>,
    /// Optional query clock cap in picoseconds.
    pub max_clock_ps: Option<f64>,
}

impl Default for ExploreSettings {
    fn default() -> Self {
        let eval = EvalSettings::default();
        Self {
            space: "paper".to_owned(),
            cycles: 10_000,
            workload: "uniform".to_owned(),
            kernel: None,
            scale: 1,
            prefilter: eval.prefilter,
            energy_cycles: eval.energy_cycles,
            min_quality_db: None,
            max_clock_ps: None,
        }
    }
}

impl ExploreSettings {
    /// Resolves the space preset.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on an unknown preset.
    #[must_use]
    pub fn space_spec(&self) -> SpaceSpec {
        match self.space.as_str() {
            "paper" => SpaceSpec::paper(),
            "compact" => SpaceSpec::compact(),
            "full" => SpaceSpec::full(32),
            other => panic!("unknown --space {other:?} ({})", SPACES.join("|")),
        }
    }

    /// The tier-A/B evaluation settings.
    fn eval_settings(&self) -> EvalSettings {
        EvalSettings {
            prefilter: self.prefilter,
            energy_cycles: self.energy_cycles,
        }
    }

    /// Builds the evaluation mode (kernel if selected, stream otherwise).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on an unknown kernel or workload name.
    #[must_use]
    pub fn eval_mode(&self, config: &ExperimentConfig) -> EvalMode {
        if let Some(name) = &self.kernel {
            let kernel = kernel_by_name(name, self.scale, config.workload_seed)
                .unwrap_or_else(|| panic!("unknown --kernel {name:?}"));
            return EvalMode::Kernel {
                kernel: Arc::from(kernel),
            };
        }
        let inputs = named_stream(&self.workload, 32, config.workload_seed, self.cycles)
            .unwrap_or_else(|| {
                panic!(
                    "unknown --workload {:?} ({})",
                    self.workload,
                    STREAM_NAMES.join("|")
                )
            });
        EvalMode::Stream {
            name: self.workload.clone(),
            inputs: Arc::new(inputs),
        }
    }
}

/// The exploration report: the raw outcome plus the settings that shaped
/// it.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The search outcome (candidates, front, counters).
    pub outcome: SearchOutcome,
    /// The settings used.
    pub settings: ExploreSettings,
}

/// Runs an exploration on a shared engine (memoized synthesis artifacts,
/// tier-B scoring parallel across its workers).
#[must_use]
pub fn run_on(
    engine: &Engine,
    config: &ExperimentConfig,
    settings: &ExploreSettings,
) -> ExploreReport {
    let outcome = explore(
        engine,
        config.clone(),
        &settings.space_spec(),
        settings.eval_mode(config),
        settings.eval_settings(),
        SearchSettings::default(),
    );
    ExploreReport {
        outcome,
        settings: settings.clone(),
    }
}

/// Formats an optional float (`""` for pruned candidates).
fn opt(value: Option<f64>) -> String {
    value.map_or_else(String::new, |v| format!("{v}"))
}

impl ExploreReport {
    /// The query the settings encode, if any.
    #[must_use]
    pub fn query(&self) -> Option<Query> {
        self.settings.min_quality_db.map(|min_quality_db| Query {
            min_quality_db,
            max_clock_ps: self.settings.max_clock_ps,
        })
    }

    /// Renders the front, the search summary, the thesis witness and the
    /// query answer.
    #[must_use]
    pub fn render(&self) -> String {
        let stats = &self.outcome.stats;
        let mut out = format!(
            "Design-space exploration: {} space ({} points), workload {} \
             ({GATE_BACKEND_LABEL} backend)\n\
             candidates {} | pruned by a certain or measured reference {} | simulated {} | \
             infeasible {} | assumption-1 violations {} (min error - bound {})\n",
            self.settings.space,
            stats.space_points,
            self.outcome.workload,
            stats.considered,
            stats.pruned,
            stats.simulated,
            stats.infeasible,
            stats.assumption1_violations,
            self.outcome
                .min_bound_margin()
                .map_or_else(|| "n/a".to_owned(), |m| format!("{m:.3e}")),
        );

        let mut table = Table::new(vec![
            "point".into(),
            "error".into(),
            "clock(ps)".into(),
            "fJ/op".into(),
            "quality(dB)".into(),
            "class".into(),
        ]);
        for entry in self.outcome.front.entries() {
            let eval = self
                .outcome
                .evaluated
                .iter()
                .find(|e| e.point.id() == entry.key)
                .expect("front entries come from evaluated candidates");
            let class = if eval.point.is_combined() {
                "combined"
            } else if eval.point.is_pure_structural() {
                "structural"
            } else if eval.point.is_pure_overclocking() {
                "overclocked"
            } else {
                "baseline"
            };
            table.push_row(vec![
                eval.point.label(),
                format!("{:.3e}", entry.objectives.error),
                format!("{:.1}", entry.objectives.delay_ps),
                format!("{:.2}", entry.objectives.energy_fj),
                format!("{:.1}", eval.quality_db.unwrap_or(f64::NAN)),
                class.into(),
            ]);
        }
        out.push_str(&format!("Pareto front ({} points):\n", table.len()));
        out.push_str(&table.render());

        match self.outcome.thesis_witness() {
            Some(w) => out.push_str(&format!(
                "combined-errors thesis: {} ({:.1} dB) strictly dominates every measured \
                 pure configuration at its quality level ({} structural, {} overclocked)\n",
                w.combined.label(),
                w.quality_db,
                w.dominated_structural,
                w.dominated_overclocking,
            )),
            None => {
                out.push_str("combined-errors thesis: no witnessing combined point in this space\n")
            }
        }

        if let Some(query) = self.query() {
            let cap = query
                .max_clock_ps
                .map_or_else(String::new, |c| format!(" at clock <= {c} ps"));
            match self.outcome.cheapest(&query) {
                Some(e) => out.push_str(&format!(
                    "query: cheapest >= {} dB{cap}: {} ({:.2} fJ/op, {:.1} ps, {:.1} dB)\n",
                    query.min_quality_db,
                    e.point.label(),
                    e.energy_fj,
                    e.clock_ps,
                    e.quality_db.unwrap_or(f64::NAN),
                )),
                None => out.push_str(&format!(
                    "query: no configuration meets >= {} dB{cap}\n",
                    query.min_quality_db,
                )),
            }
        }
        out
    }

    /// CSV export: one row per characterized candidate, in space order.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "design".into(),
            "cpr".into(),
            "clock_ps".into(),
            "workload".into(),
            "backend".into(),
            "area".into(),
            "die_critical_ps".into(),
            "timing_safe".into(),
            "energy_fj".into(),
            "model_error".into(),
            "exact_struct_rms".into(),
            "pruned".into(),
            "error".into(),
            "quality_db".into(),
            "on_front".into(),
        ]);
        for e in &self.outcome.evaluated {
            let on_front = self
                .outcome
                .front
                .entries()
                .iter()
                .any(|f| f.key == e.point.id());
            table.push_row(vec![
                e.point.design.to_string(),
                format!("{}", e.point.cpr),
                format!("{}", e.clock_ps),
                self.outcome.workload.clone(),
                GATE_BACKEND_LABEL.to_owned(),
                format!("{}", e.area),
                format!("{}", e.die_critical_ps),
                format!("{}", e.timing_safe),
                format!("{}", e.energy_fj),
                format!("{}", e.model_error),
                format!("{}", e.exact_struct_rms),
                format!("{}", e.pruned),
                opt(e.error),
                opt(e.quality_db),
                format!("{on_front}"),
            ]);
        }
        table.to_csv()
    }

    /// The evaluated candidate for a front key, if any (test helper).
    #[must_use]
    pub fn candidate(&self, id: &str) -> Option<&CandidateEval> {
        self.outcome.evaluated.iter().find(|e| e.point.id() == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_settings() -> ExploreSettings {
        ExploreSettings {
            cycles: 800,
            energy_cycles: 128,
            ..ExploreSettings::default()
        }
    }

    #[test]
    fn defaults_are_the_library_defaults() {
        let settings = ExploreSettings::default();
        assert_eq!(settings.eval_settings(), EvalSettings::default());
    }

    #[test]
    fn paper_space_report_is_deterministic_and_complete() {
        let engine = Engine::with_threads(1);
        let config = ExperimentConfig::default();
        let a = run_on(&engine, &config, &small_settings());
        let b = run_on(&engine, &config, &small_settings());
        assert_eq!(a.to_csv(), b.to_csv(), "same settings, same bytes");
        // 48 candidates characterized (12 designs × 4 clocks).
        assert_eq!(a.outcome.stats.considered, 48);
        assert_eq!(a.to_csv().lines().count(), 1 + 48);
        assert!(a.render().contains("Pareto front"));
        assert!(a.outcome.thesis_witness().is_some());
    }

    #[test]
    fn query_rendering_names_the_cheapest_candidate() {
        let engine = Engine::with_threads(1);
        let config = ExperimentConfig::default();
        let settings = ExploreSettings {
            min_quality_db: Some(30.0),
            max_clock_ps: Some(285.0),
            ..small_settings()
        };
        let report = run_on(&engine, &config, &settings);
        let text = report.render();
        assert!(text.contains("query: cheapest >= 30 dB"), "{text}");
    }

    #[test]
    fn kernel_mode_scores_psnr() {
        let engine = Engine::with_threads(1);
        let config = ExperimentConfig::default();
        let settings = ExploreSettings {
            kernel: Some("conv2d-sobel".to_owned()),
            space: "paper".to_owned(),
            ..small_settings()
        };
        let report = run_on(&engine, &config, &settings);
        assert_eq!(report.outcome.workload, "conv2d-sobel");
        // Kernel-mode error objective is negated PSNR.
        for e in &report.outcome.evaluated {
            if let (Some(err), Some(q)) = (e.error, e.quality_db) {
                assert_eq!(err, -q);
            }
        }
    }
}
