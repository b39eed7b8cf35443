//! Workload-sensitivity study: timing errors under uniform, correlated,
//! DSP-tone and accumulation input streams (extension).
//!
//! Usage: `workloads [--cycles N] [--cpr PCT] [--csv PATH] [--threads N]`

use isa_core::{Design, IsaConfig};
use isa_experiments::{
    arg_value, engine_from_args, workload_sensitivity, write_output, ExperimentConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cycles = arg_value(&args, "cycles").unwrap_or(5_000);
    let cpr = arg_value::<f64>(&args, "cpr").unwrap_or(10.0) / 100.0;
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let designs = [
        Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).expect("valid")),
        Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).expect("valid")),
        Design::Exact { width: 32 },
    ];
    let report = workload_sensitivity::run_on(&engine, &config, &designs, cpr, cycles);
    print!("{}", report.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
