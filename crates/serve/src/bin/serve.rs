//! `isa-serve` — the resident quality/Pareto query daemon.
//!
//! Reads line-delimited JSON requests from stdin (or a Unix socket with
//! `--socket`) and writes one response line per request, in request
//! order. See README.md ("isa-serve") for the protocol and ARCHITECTURE.md
//! for the degradation/robustness design.
//!
//! Usage:
//!
//! ```text
//! isa-serve [--store DIR] [--threads N] [--workers N] [--queue-cap N]
//!           [--sim-budget ADDS] [--artifact-cap N] [--socket PATH]
//!           [--metrics-file PATH] [--metrics-period-ms N] [--trace PATH]
//!           [--quiet]
//! ```
//!
//! * `--store DIR` — content-addressed on-disk result store (off by
//!   default; strongly recommended for repeated traffic);
//! * `--threads N` — worker threads for intra-request fan-out (default:
//!   the available parallelism);
//! * `--workers N` — concurrent request evaluations (default 2);
//! * `--queue-cap N` — admission bound; overflow is shed with a
//!   retriable error (default 64);
//! * `--sim-budget ADDS` — per-request simulation budget in additions;
//!   costlier requests are answered from the exact structural bound with
//!   `degraded:true` (default: unlimited);
//! * `--artifact-cap N` — synthesized-design LRU capacity (default 64);
//! * `--socket PATH` — serve a Unix socket instead of stdin/stdout;
//! * `--metrics-file PATH` — atomically rewrite a Prometheus-style text
//!   exposition of every metric on a period (plus once at exit);
//! * `--metrics-period-ms N` — exposition rewrite period (default 2000);
//! * `--trace PATH` — append structured JSONL span events (fold with
//!   `trace-summary PATH`).
//!
//! A count (`--threads`, `--workers`, `--queue-cap`, `--artifact-cap`,
//! `--metrics-period-ms`) of 0 is a usage error (exit 2), not a 1.
//!
//! Observability is strictly out-of-band: response bytes are identical
//! with or without `--metrics-file`/`--trace` (the chaos battery pins
//! this).
//!
//! Fault injection for chaos testing is env-gated: set
//! `ISA_SERVE_FAULTS=seed=42,store_read=64,torn=256,panic=8,slow=16`.

use std::io;
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;

use isa_engine::ExperimentConfig;
use isa_serve::{serve_lines, FaultPlan, ServeConfig, Service};

fn usage() -> ! {
    eprintln!(
        "usage: isa-serve [--store DIR] [--threads N] [--workers N] [--queue-cap N] \
         [--sim-budget ADDS] [--artifact-cap N] [--socket PATH] \
         [--metrics-file PATH] [--metrics-period-ms N] [--trace PATH] [--quiet]"
    );
    exit(2);
}

/// `--name value` lookup; exits with usage on a malformed value.
fn arg<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let Some(raw) = args.get(i + 1) else {
        eprintln!("error: {name} needs a value");
        usage();
    };
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: bad value {raw:?} for {name}");
            usage();
        }
    }
}

/// A count flag, `default` without it; exits with usage on 0, which the
/// service would otherwise run as 1.
fn count_arg<T: FromStr + From<u8> + PartialEq>(args: &[String], name: &str, default: T) -> T {
    let value = arg(args, name).unwrap_or(default);
    if value == T::from(0) {
        eprintln!("error: {name}: must be at least 1, got 0");
        usage();
    }
    value
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let known = [
        "--store",
        "--threads",
        "--workers",
        "--queue-cap",
        "--sim-budget",
        "--artifact-cap",
        "--socket",
        "--metrics-file",
        "--metrics-period-ms",
        "--trace",
        "--quiet",
    ];
    for a in &args {
        if a.starts_with("--") && !known.contains(&a.as_str()) {
            eprintln!("error: unknown flag {a:?}");
            usage();
        }
    }

    let threads = count_arg(
        &args,
        "--threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let artifact_cap = count_arg(&args, "--artifact-cap", 64);
    let workers: usize = count_arg(&args, "--workers", 2);
    let queue_cap: usize = count_arg(&args, "--queue-cap", 64);
    let metrics_period_ms: u64 = count_arg(&args, "--metrics-period-ms", 2000);

    let quiet = args.iter().any(|a| a == "--quiet");
    let logger = isa_obs::Logger::new("isa-serve").quiet(quiet);

    let faults = match FaultPlan::from_env() {
        Ok(plan) => {
            if plan.is_armed() {
                logger.warn("fault injection ARMED via ISA_SERVE_FAULTS");
            }
            plan
        }
        Err(e) => {
            eprintln!("error: ISA_SERVE_FAULTS: {e}");
            exit(2);
        }
    };

    let cfg = ServeConfig {
        threads,
        artifact_cap,
        sim_budget: arg(&args, "--sim-budget"),
        store_dir: arg::<String>(&args, "--store").map(Into::into),
        config: ExperimentConfig::default(),
        faults,
        quiet,
    };
    let socket: Option<String> = arg(&args, "--socket");
    let metrics_file: Option<String> = arg(&args, "--metrics-file");
    let trace_file: Option<String> = arg(&args, "--trace");

    if let Some(path) = &trace_file {
        if let Err(e) = isa_obs::trace::install_file(std::path::Path::new(path)) {
            eprintln!("error: cannot open trace file {path}: {e}");
            exit(1);
        }
    }

    let service = match Service::new(cfg) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("error: cannot open result store: {e}");
            exit(1);
        }
    };

    // Periodic exposition rewrites; dropping the flusher at exit performs
    // one final write, so short stdin sessions still leave a fresh file.
    let _flusher = metrics_file.map(|path| {
        let producer = Arc::clone(&service);
        isa_obs::export::Flusher::spawn(
            std::path::PathBuf::from(path),
            std::time::Duration::from_millis(metrics_period_ms),
            move || {
                let merged = producer
                    .registry()
                    .snapshot()
                    .merge(isa_obs::global().snapshot());
                isa_obs::export::render(&merged)
            },
        )
    });

    let result = match socket {
        #[cfg(unix)]
        Some(path) => {
            logger.info(&format!("listening on {path}"));
            isa_serve::serve_unix(&service, std::path::Path::new(&path), workers, queue_cap)
        }
        #[cfg(not(unix))]
        Some(_) => {
            eprintln!("error: --socket requires a Unix platform");
            exit(2);
        }
        None => {
            let stdin = io::stdin();
            serve_lines(&service, stdin.lock(), io::stdout(), workers, queue_cap)
        }
    };
    isa_obs::trace::flush();
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}
