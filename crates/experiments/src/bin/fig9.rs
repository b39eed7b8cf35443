//! Regenerates Figs. 9a/b/c (structural/timing/joint relative-error RMS).

use isa_experiments::{
    arg_value, cli_args, count_arg, engine_from_args, fig9, write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args("fig9 [--cycles N] [--csv PATH] [--threads N]");
    let cycles = count_arg(&args, "cycles").unwrap_or(50_000);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let report = fig9::run_on(&engine, &config, &isa_core::paper_designs(), cycles);
    print!("{}", report.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
