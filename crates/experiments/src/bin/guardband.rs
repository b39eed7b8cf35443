//! Compares guardband-reduction strategies: exact+Razor recovery, raw
//! overclocked ISA, and ISA with predictor-guided replay (extension).

use isa_core::IsaConfig;
use isa_experiments::{
    arg_value, cli_args, count_arg, engine_from_args, guardband, write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args("guardband [--cycles N] [--csv PATH] [--threads N]");
    let cycles = count_arg(&args, "cycles").unwrap_or(5_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let isa = IsaConfig::new(32, 8, 0, 0, 4).expect("valid design");
    let report = guardband::run_on(&engine, &config, isa, cycles);
    print!("{}", report.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
