//! The `--width` check, design list and worker pool shared by the
//! `netlint` and `prove` sweep binaries.

use std::collections::HashSet;
use std::sync::Arc;

use isa_core::{enumerate_quadruples, paper_designs, Design, IsaConfig};
use isa_engine::{Engine, ExperimentConfig, WorkloadSpec};

use crate::{arg_value, cli_error};

/// The grid width a sweep covers: `--width W`, or `default` without the
/// flag. A width outside `1..=IsaConfig::MAX_WIDTH` has no grid, so it
/// exits through [`cli_error`] before any work instead of sweeping the
/// seeds alone.
#[must_use]
pub fn width_arg(args: &[String], default: u32) -> u32 {
    let width = arg_value(args, "width").unwrap_or(default);
    if !(1..=IsaConfig::MAX_WIDTH).contains(&width) {
        cli_error(format_args!(
            "--width: must be in 1..={}, got {width}",
            IsaConfig::MAX_WIDTH
        ));
    }
    width
}

/// The designs a sweep covers: the twelve paper designs at their native
/// 32 bits, then, unless `seeds_only`, every non-overlapping quadruple at
/// `width` whose label is not a seed's.
#[must_use]
pub fn designs(width: u32, seeds_only: bool) -> Vec<Design> {
    let mut designs = paper_designs();
    if !seeds_only {
        let seeds: HashSet<String> = designs.iter().map(ToString::to_string).collect();
        designs.extend(
            enumerate_quadruples(width)
                .into_iter()
                .map(Design::Isa)
                .filter(|d| !seeds.contains(&d.to_string())),
        );
    }
    designs
}

/// Describes [`designs`]`(width, seeds_only)` for progress output.
#[must_use]
pub fn scope(width: u32, seeds_only: bool) -> String {
    if seeds_only {
        "12 seed designs".to_owned()
    } else {
        format!("12 seeds + the non-overlapping quadruple grid at width {width}")
    }
}

/// Maps `f` over `designs` on the engine's worker pool
/// ([`Engine::try_map_points`]). Results come back in design order at any
/// thread count; a point whose `f` panics yields `Err` with the panic
/// message, and the other points still complete.
pub fn map<T, F>(
    engine: &Engine,
    config: &ExperimentConfig,
    designs: &[Design],
    f: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(Design) -> T + Sync,
{
    let points: Vec<(Design, f64)> = designs.iter().map(|&d| (d, 0.0)).collect();
    let no_workload = WorkloadSpec {
        name: String::new(),
        inputs: Arc::default(),
    };
    engine.try_map_points(config, &points, &no_workload, |unit| f(unit.design))
}
