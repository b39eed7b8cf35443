//! Regenerates Fig. 8 (AVPE per design at 5/10/15% CPR).

use isa_experiments::{
    arg_value, cli_args, count_arg, engine_from_args, prediction, write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args("fig8 [--train N] [--test N] [--csv PATH] [--threads N]");
    let train = count_arg(&args, "train").unwrap_or(8_000);
    let test = count_arg(&args, "test").unwrap_or(4_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let report = prediction::run_on(&engine, &config, &isa_core::paper_designs(), train, test);
    print!("{}", report.render_fig8());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
