//! Regenerates the energy-efficiency characterization (extension: the
//! paper's reference \[17\] comparison style, from simulated activity).
//!
//! Usage: `energy_table [--cycles N] [--csv PATH] [--threads N]`

use isa_experiments::{arg_value, energy, engine_from_args, write_output, ExperimentConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cycles = arg_value(&args, "cycles").unwrap_or(5_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let table = energy::run_on(&engine, &config, &isa_core::paper_designs(), cycles);
    print!("{}", table.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &table.to_csv());
    }
}
