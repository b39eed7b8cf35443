//! Protocol-level smoke tests: quality answers match a direct engine
//! computation, cheapest answers are Pareto-consistent, and the two
//! transports (line session, Unix socket) serve the same bytes.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use isa_core::{structural_errors, Adder as _, Design, IsaConfig, Substrate as _};
use isa_engine::{Engine, ExperimentConfig, GateLevelSubstrate};
use isa_serve::{serve_lines, Json, ServeConfig, Service};
use isa_workloads::{take_pairs, UniformWorkload};

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "isa-serve-smoke-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn service() -> Arc<Service> {
    Arc::new(
        Service::new(ServeConfig {
            threads: 2,
            quiet: true,
            ..ServeConfig::default()
        })
        .expect("service"),
    )
}

/// The service's stream quality answer equals the same numbers computed
/// directly on the engine with the same configuration — the service is a
/// front end, not a second implementation.
#[test]
fn stream_quality_matches_direct_computation() {
    let svc = service();
    let cycles = 600usize;
    let cpr = 0.2f64;
    let design = Design::Isa("(8,2,1,4)".parse::<IsaConfig>().unwrap());
    let response = svc.answer_line(&format!(
        r#"{{"id":1,"op":"quality","design":"(8,2,1,4)","cpr":{cpr},"workload":"uniform","cycles":{cycles}}}"#
    ));
    let v = Json::parse(&response).unwrap();
    assert_eq!(
        v.get("status").and_then(Json::as_str),
        Some("ok"),
        "{response}"
    );
    let result = v.get("result").unwrap();

    // Direct computation with an independent engine.
    let config = ExperimentConfig::default();
    let engine = Engine::with_threads(1);
    let substrate = GateLevelSubstrate::new(engine.cache(), config.clone());
    let inputs = take_pairs(UniformWorkload::new(32, config.workload_seed), cycles);
    let ctx = engine.try_context(&design, &config).unwrap();
    let clock_ps = config.clock_ps(cpr);
    let silvers = substrate.run_batch(&design, clock_ps, &inputs);
    let golds = ctx.gold.add_batch(&inputs);
    let exact = isa_core::ExactAdder::new(32);
    let mut stats = isa_core::CombinedErrorStats::new();
    for ((&(a, b), &silver), &gold) in inputs.iter().zip(&silvers).zip(&golds) {
        stats.push(&isa_core::OutputTriple::new(exact.add(a, b), gold, silver));
    }
    let (s_pct, t_pct, j_pct) = stats.rms_re_percent();

    let served = |k: &str| result.get(k).and_then(Json::as_f64).unwrap().to_bits();
    assert_eq!(served("rms_re_struct_pct"), s_pct.to_bits());
    assert_eq!(served("rms_re_timing_pct"), t_pct.to_bits());
    assert_eq!(served("rms_re_joint_pct"), j_pct.to_bits());
    assert_eq!(served("clock_ps"), clock_ps.to_bits());
}

/// The degraded tier equals the exact structural model, bit for bit.
#[test]
fn degraded_tier_matches_structural_model() {
    let svc = Arc::new(
        Service::new(ServeConfig {
            threads: 1,
            sim_budget: Some(1),
            quiet: true,
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    let response = svc.answer_line(
        r#"{"id":1,"op":"quality","design":"(8,2,1,4)","cpr":0.3,"workload":"uniform","cycles":400}"#,
    );
    let v = Json::parse(&response).unwrap();
    assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true));
    let result = v.get("result").unwrap();

    let config = ExperimentConfig::default();
    let design = Design::Isa("(8,2,1,4)".parse::<IsaConfig>().unwrap());
    let inputs = take_pairs(UniformWorkload::new(32, config.workload_seed), 400);
    let gold = design.behavioural();
    let stats = structural_errors(gold.as_ref(), inputs.iter().copied());
    let (s_pct, _, _) = stats.rms_re_percent();
    assert_eq!(
        result
            .get("rms_re_struct_pct")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        s_pct.to_bits()
    );
    // No synthesis happened for a degraded stream answer.
    assert_eq!(svc.counters().computed.get(), 0);
}

/// The cheapest answer is Pareto-consistent with the per-design quality
/// answers the same service gives: the winner meets the floor, and no
/// strictly cheaper paper design does.
#[test]
fn cheapest_is_consistent_with_quality_answers() {
    let svc = service();
    let floor_db = 25.0;
    let response = svc.answer_line(&format!(
        r#"{{"id":1,"op":"cheapest","min_quality_db":{floor_db},"cpr":0.1,"workload":"uniform","cycles":500}}"#
    ));
    let v = Json::parse(&response).unwrap();
    assert_eq!(
        v.get("status").and_then(Json::as_str),
        Some("ok"),
        "{response}"
    );
    let result = v.get("result").unwrap();
    let winner = result
        .get("design")
        .and_then(Json::as_str)
        .expect("a winner")
        .to_owned();
    let winner_area = result.get("area").and_then(Json::as_f64).unwrap();
    let feasible = result.get("feasible").and_then(Json::as_u64).unwrap();
    assert!(feasible >= 1);

    // Re-ask quality for every design; recompute the winner independently.
    let config = ExperimentConfig::default();
    let engine = Engine::with_threads(1);
    let mut best: Option<(String, f64)> = None;
    for design in isa_core::paper_designs() {
        let q = svc.answer_line(&format!(
            r#"{{"id":2,"op":"quality","design":"{design}","cpr":0.1,"workload":"uniform","cycles":500}}"#
        ));
        let qv = Json::parse(&q).unwrap();
        if qv.get("status").and_then(Json::as_str) != Some("ok") {
            continue;
        }
        let db = qv
            .get("result")
            .and_then(|r| r.get("quality_db"))
            .and_then(Json::to_db)
            .unwrap();
        if db < floor_db {
            continue;
        }
        let area = engine
            .try_context(&design, &config)
            .unwrap()
            .synthesized
            .area;
        let better = match &best {
            None => true,
            Some((label, best_area)) => {
                area < *best_area || (area == *best_area && design.to_string() < *label)
            }
        };
        if better {
            best = Some((design.to_string(), area));
        }
    }
    let (expect_design, expect_area) = best.expect("at least one feasible design");
    assert_eq!(winner, expect_design);
    assert_eq!(winner_area.to_bits(), expect_area.to_bits());
}

/// One line session over `serve_lines`: ordering, id echo, and malformed
/// lines answered in place.
#[test]
fn line_session_answers_in_order() {
    let svc = service();
    let input = concat!(
        "{\"id\":\"a\",\"op\":\"ping\"}\n",
        "\n",
        "{\"id\":\"b\",\"op\":\"quality\",\"design\":\"8,2,1,4\",\"cpr\":0.0,\"workload\":\"uniform\",\"cycles\":300}\n",
        "not json at all\n",
        "{\"id\":\"d\",\"op\":\"ping\"}\n",
    );
    let mut output = Vec::new();
    serve_lines(&svc, input.as_bytes(), &mut output, 3, 16).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(
        lines.len(),
        4,
        "blank lines are skipped, bad lines answered"
    );
    assert!(lines[0].starts_with("{\"id\":\"a\""));
    assert!(lines[1].starts_with("{\"id\":\"b\""));
    assert!(lines[2].contains("\"status\":\"error\""));
    assert!(lines[3].starts_with("{\"id\":\"d\""));
}

/// A nesting-bomb line gets one error line in place: the session
/// survives, and the answers around it are byte-identical to the same
/// script without it.
#[test]
fn nesting_bomb_line_is_answered_in_place() {
    let svc = service();
    let session = |input: String| -> Vec<String> {
        let mut output = Vec::new();
        serve_lines(&svc, input.as_bytes(), &mut output, 2, 16).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    };
    let before = "{\"id\":1,\"op\":\"quality\",\"design\":\"8,2,1,4\",\"cpr\":0.1,\"workload\":\"uniform\",\"cycles\":300}\n";
    let after = "{\"id\":3,\"op\":\"ping\"}\n";
    // Deep enough to overflow a recursive parser, short enough to pass
    // the 64 KiB line cap and reach the nesting check.
    let bomb = "[".repeat(60_000);
    let with_bomb = session(format!("{before}{bomb}\n{after}"));
    let without = session(format!("{before}{after}"));
    assert_eq!(with_bomb.len(), 3, "one response line per request line");
    assert!(
        with_bomb[1].contains("\"status\":\"error\"") && with_bomb[1].contains("nesting"),
        "{}",
        with_bomb[1]
    );
    assert_eq!(without.len(), 2);
    assert_eq!(with_bomb[0], without[0]);
    assert_eq!(with_bomb[2], without[1]);
}

/// A line that cannot be a request — not UTF-8, or over the 64 KiB cap —
/// gets one error line in its own slot (`id` null, not retriable) and the
/// session goes on: the answers around it are byte-identical to the
/// script without it. A final unterminated over-long line gets one error
/// line and the session ends cleanly.
#[test]
fn unreadable_lines_are_answered_in_place() {
    let svc = service();
    let session = |input: &[u8]| -> Vec<String> {
        let mut output = Vec::new();
        serve_lines(&svc, input, &mut output, 2, 16).expect("session ends cleanly");
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    };
    let first: &[u8] = b"{\"id\":1,\"op\":\"ping\"}\n";
    let last: &[u8] = b"{\"id\":4,\"op\":\"ping\"}\n";
    let not_utf8: &[u8] = b"{\"id\":2,\"op\":\"pi\xffng\"}\n";
    let mut long = vec![b'x'; 100 * 1024];
    long.push(b'\n');
    let with_bad = session(&[first, not_utf8, &long, last].concat());
    let without = session(&[first, last].concat());
    assert_eq!(with_bad.len(), 4, "one response line per request line");
    assert_eq!(without.len(), 2);
    assert_eq!(with_bad[0], without[0]);
    assert_eq!(with_bad[3], without[1]);
    for (line, cause) in [(&with_bad[1], "UTF-8"), (&with_bad[2], "longer than")] {
        assert!(
            line.starts_with("{\"id\":null,\"status\":\"error\",\"retriable\":false")
                && line.contains(cause),
            "{line}"
        );
    }

    let unterminated = vec![b'y'; 1 << 20];
    let tail = session(&[first, &unterminated].concat());
    assert_eq!(tail.len(), 2);
    assert_eq!(tail[0], without[0]);
    assert!(tail[1].contains("longer than"), "{}", tail[1]);
}

/// The Unix socket transport serves the same bytes as an in-process
/// line session.
#[cfg(unix)]
#[test]
fn unix_socket_serves_identical_bytes() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;

    let svc = service();
    let script = [
        r#"{"id":1,"op":"ping"}"#,
        r#"{"id":2,"op":"quality","design":"8,2,1,4","cpr":0.1,"workload":"uniform","cycles":300}"#,
    ];
    let mut direct = Vec::new();
    for line in &script {
        direct.push(svc.answer_line(line));
    }

    let path = temp_path("socket");
    {
        let svc = Arc::clone(&svc);
        let path = path.clone();
        std::thread::spawn(move || {
            let _ = isa_serve::serve_unix(&svc, &path, 2, 8);
        });
    }
    // The listener binds asynchronously; retry the connect briefly.
    let mut stream = None;
    for _ in 0..100 {
        match UnixStream::connect(&path) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut stream = stream.expect("connect to isa-serve socket");
    for line in &script {
        writeln!(stream, "{line}").unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let reader = BufReader::new(&stream);
    let got: Vec<String> = reader.lines().map(Result::unwrap).collect();
    assert_eq!(got, direct, "socket transport diverged from direct answers");
    let _ = fs::remove_file(&path);
}
