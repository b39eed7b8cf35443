//! Workload-sensitivity study: timing errors under uniform, correlated,
//! DSP-tone and accumulation input streams (extension).

use isa_core::{Design, IsaConfig};
use isa_experiments::{
    arg_value, cli_args, cli_error, count_arg, engine_from_args, workload_sensitivity,
    write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args("workloads [--cycles N] [--cpr PCT] [--csv PATH] [--threads N]");
    let cycles = count_arg(&args, "cycles").unwrap_or(5_000);
    let cpr_pct = arg_value::<f64>(&args, "cpr").unwrap_or(10.0);
    if !(cpr_pct.is_finite() && cpr_pct < 100.0) {
        cli_error(format_args!(
            "--cpr: must be a finite percentage below 100, got {cpr_pct}"
        ));
    }
    let cpr = cpr_pct / 100.0;
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
