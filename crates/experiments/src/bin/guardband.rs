//! Compares guardband-reduction strategies: exact+Razor recovery, raw
//! overclocked ISA, and ISA with predictor-guided replay (extension).
//!
//! Usage: `guardband [--cycles N] [--csv PATH] [--threads N]`

use isa_core::IsaConfig;
use isa_experiments::{arg_value, engine_from_args, guardband, write_output, ExperimentConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cycles = arg_value(&args, "cycles").unwrap_or(5_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let isa = IsaConfig::new(32, 8, 0, 0, 4).expect("valid design");
    let report = guardband::run_on(&engine, &config, isa, cycles);
    print!("{}", report.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
