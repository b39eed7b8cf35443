//! Regenerates Fig. 8 (AVPE per design at 5/10/15% CPR).
//!
//! Usage: `fig8 [--train N] [--test N] [--csv PATH] [--threads N]`

use isa_experiments::{arg_value, engine_from_args, prediction, write_output, ExperimentConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let train = arg_value(&args, "train").unwrap_or(8_000);
    let test = arg_value(&args, "test").unwrap_or(4_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let report = prediction::run_on(&engine, &config, &isa_core::paper_designs(), train, test);
    print!("{}", report.render_fig8());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
