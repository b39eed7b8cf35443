//! Regenerates Fig. 10 (bit-level error distribution of ISA (8,0,0,4) at
//! 15% CPR).

use isa_core::{Design, IsaConfig};
use isa_experiments::{
    arg_value, cli_args, count_arg, engine_from_args, fig10, write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args("fig10 [--cycles N] [--csv PATH] [--threads N]");
    let cycles = count_arg(&args, "cycles").unwrap_or(100_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let design = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).expect("paper design is valid"));
    let report = fig10::run_on(&engine, &config, design, 0.15, cycles);
    print!("{}", report.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
