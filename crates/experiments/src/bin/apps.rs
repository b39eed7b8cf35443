//! Application-quality sweep: PSNR/SNR of real kernels (FIR, 2-D
//! convolution, dot product, histogram) vs clock, per adder design
//! (extension).

use isa_core::{Design, IsaConfig};
use isa_experiments::{
    apps_quality, arg_value, cli_args, cli_error, count_arg, engine_from_args, write_output,
    ExperimentConfig,
};

fn main() {
    let args = cli_args("apps [--scale N] [--csv PATH] [--threads N]");
    let scale = count_arg(&args, "scale").unwrap_or(4);
    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let quadruples = [(8, 0, 0, 4), (16, 2, 1, 6)];
    let mut designs = Vec::new();
    for (b, s, c, r) in quadruples {
        match IsaConfig::new(32, b, s, c, r) {
            Ok(cfg) => designs.push(Design::Isa(cfg)),
            Err(e) => cli_error(format_args!("bad quadruple ({b},{s},{c},{r}): {e}")),
        }
    }
    designs.push(Design::Exact { width: 32 });
    let report = apps_quality::run_on(&engine, &config, &designs, &apps_quality::APP_CPRS, scale);
    print!("{}", report.render());
    if let Some(path) = arg_value::<String>(&args, "csv") {
        write_output(&path, &report.to_csv());
    }
}
