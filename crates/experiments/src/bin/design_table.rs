//! Regenerates the Section V.A design characterization table.

use isa_experiments::{
    arg_value, cli_args, count_arg, design_table, engine_from_args, write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args("design_table [--samples N] [--csv PATH] [--threads N]");
    let samples = count_arg(&args, "samples").unwrap_or(1_000_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let table = design_table::run_on(&engine, &config, &isa_core::paper_designs(), samples);
    print!("{}", table.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &table.to_csv());
    }
}
