//! Regenerates the energy-efficiency characterization (extension: the
//! paper's reference \[17\] comparison style, from simulated activity).

use isa_experiments::{
    arg_value, cli_args, count_arg, energy, engine_from_args, write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args("energy_table [--cycles N] [--csv PATH] [--threads N]");
    let cycles = count_arg(&args, "cycles").unwrap_or(5_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let table = energy::run_on(&engine, &config, &isa_core::paper_designs(), cycles);
    print!("{}", table.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &table.to_csv());
    }
}
