//! Runs the complete reproduction: design table, Figs. 7-10, writing CSVs
//! under `results/`.
//!
//! One engine is shared by every pipeline, so the twelve designs are
//! synthesized exactly once and all (design × CPR × workload) runs spread
//! across the machine.

use std::time::Instant;

use isa_core::{paper_designs, Design, IsaConfig};
use isa_experiments::{
    apps_quality, arg_value, cli_args, count_arg, design_table, energy, engine_from_args, explore,
    fig10, fig9, guardband, prediction, workload_sensitivity, write_output, ExperimentConfig,
};

fn main() {
    let args = cli_args(
        "all_figures [--cycles N] [--train N] [--test N] [--samples N] \
         [--outdir DIR] [--threads N]",
    );
    let cycles = count_arg(&args, "cycles").unwrap_or(50_000);
    let train = count_arg(&args, "train").unwrap_or(8_000);
    let test = count_arg(&args, "test").unwrap_or(4_000);
    let samples = count_arg(&args, "samples").unwrap_or(1_000_000);
    let outdir: String = arg_value(&args, "outdir").unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&outdir).expect("create output directory");

    let config = ExperimentConfig::default();
    let engine = engine_from_args(&args);
    let designs = paper_designs();
    let started = Instant::now();
    eprintln!(
        "synthesizing the twelve designs ({} workers)...",
        engine.threads()
    );
    engine.prewarm(&designs, &config);

    eprintln!("design table ({samples} behavioural samples)...");
    let table = design_table::run_on(&engine, &config, &designs, samples);
    print!("{}", table.render());
    write_output(&format!("{outdir}/design_table.csv"), &table.to_csv());

    eprintln!("fig 9 ({cycles} gate-level cycles per design/CPR)...");
    let f9 = fig9::run_on(&engine, &config, &designs, cycles);
    print!("{}", f9.render());
    write_output(&format!("{outdir}/fig9.csv"), &f9.to_csv());

    eprintln!("figs 7+8 (train {train} / test {test})...");
    let pred = prediction::run_on(&engine, &config, &designs, train, test);
    print!("{}", pred.render_fig7());
    print!("{}", pred.render_fig8());
    write_output(&format!("{outdir}/fig7_fig8.csv"), &pred.to_csv());

    eprintln!("fig 10 ({} cycles)...", cycles * 2);
    let isa_8004 = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).expect("valid design"));
    let f10 = fig10::run_on(&engine, &config, isa_8004, 0.15, cycles * 2);
    print!("{}", f10.render());
    write_output(&format!("{outdir}/fig10.csv"), &f10.to_csv());

    let extension_cycles = (cycles / 5).max(1_000);
    eprintln!("energy table ({extension_cycles} cycles, extension)...");
    let en = energy::run_on(&engine, &config, &designs, extension_cycles);
    print!("{}", en.render());
    write_output(&format!("{outdir}/energy.csv"), &en.to_csv());

    eprintln!("guardband strategy comparison ({extension_cycles} cycles, extension)...");
    let isa = IsaConfig::new(32, 8, 0, 0, 4).expect("valid design");
    let gb = guardband::run_on(&engine, &config, isa, extension_cycles);
    print!("{}", gb.render());
    write_output(&format!("{outdir}/guardband.csv"), &gb.to_csv());

    eprintln!("workload sensitivity ({extension_cycles} cycles, extension)...");
    let ws = workload_sensitivity::run_on(&engine, &config, &designs, 0.10, extension_cycles);
    print!("{}", ws.render());
    write_output(&format!("{outdir}/workload_sensitivity.csv"), &ws.to_csv());

    let apps_scale = (cycles / 12_500).max(1);
    eprintln!("application quality (scale {apps_scale}, extension)...");
    let apps_designs = [
        isa_8004,
        Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).expect("valid design")),
        Design::Exact { width: 32 },
    ];
    let aq = apps_quality::run_on(
        &engine,
        &config,
        &apps_designs,
        &apps_quality::APP_CPRS,
        apps_scale,
    );
    print!("{}", aq.render());
    write_output(&format!("{outdir}/apps_quality.csv"), &aq.to_csv());

    let explore_cycles = (cycles / 5).max(1_000);
    eprintln!("design-space exploration ({explore_cycles} cycles per survivor, extension)...");
    let ex = explore::run_on(
        &engine,
        &config,
        &explore::ExploreSettings {
            cycles: explore_cycles,
            ..explore::ExploreSettings::default()
        },
    );
    print!("{}", ex.render());
    write_output(&format!("{outdir}/explore.csv"), &ex.to_csv());

    eprintln!(
        "done in {:.1}s ({} workers); CSVs in {outdir}/",
        started.elapsed().as_secs_f64(),
        engine.threads()
    );
}
