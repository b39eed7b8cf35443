//! Observability acceptance tests.
//!
//! Two contracts are pinned here:
//!
//! 1. **Exact counts** — a fixed mixed 13-request script produces exact,
//!    deterministic metric counts (requests, store hits/misses,
//!    coalesced, computed, degraded, shed) in the `metrics` snapshot and
//!    the `stats` payload. Coalescing is made deterministic with an
//!    always-firing SlowEval fault (the leader stalls inside its compute,
//!    after registering the in-flight slot) plus polling the
//!    `serve.inflight` gauge before submitting the duplicate.
//! 2. **Exposition schema** — the merged service + global registry after
//!    that script renders to a Prometheus-style file that the strict
//!    parser accepts after an atomic write and reread, listing the
//!    simulation and store counters.
//! 3. **Out-of-band observability** — response bytes are byte-identical
//!    with tracing enabled or disabled, hot or cold, and the emitted
//!    trace is well-formed JSONL that the profiler can fold.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isa_serve::{FaultPlan, FaultPoint, Frontend, Json, ServeConfig, Service};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "isa-serve-metrics-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Extracts `result` from an ok response line.
fn result_of(response: &str) -> Json {
    let value = Json::parse(response).expect("well-formed response");
    assert_eq!(
        value.get("status").and_then(Json::as_str),
        Some("ok"),
        "{response}"
    );
    value
        .get("result")
        .cloned()
        .expect("ok responses carry a result")
}

/// Reads one counter out of a `metrics` snapshot payload.
fn metric_counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing from metrics snapshot"))
}

#[test]
fn mixed_script_reports_exact_metric_counts() {
    let store_dir = temp_dir("counts");
    let svc = Arc::new(
        Service::new(ServeConfig {
            threads: 2,
            sim_budget: Some(2000),
            store_dir: Some(store_dir.clone()),
            // Every compute stalls 400ms at entry — after the leader has
            // registered its in-flight slot — so the coalescing window
            // below is wide and deterministic.
            faults: FaultPlan::seeded(1)
                .with_rate(FaultPoint::SlowEval, 256)
                .with_slow_ms(400),
            quiet: true,
            ..ServeConfig::default()
        })
        .expect("open store"),
    );

    let a_1000 = r#"{"op":"quality","id":2,"design":"(8,2,1,4)","cpr":0.1,"workload":"uniform","cycles":1000}"#;
    let b_1000 = r#"{"op":"quality","id":4,"design":"(8,1,1,4)","cpr":0.1,"workload":"uniform","cycles":1000}"#;
    let a_5000 = r#"{"op":"quality","id":5,"design":"(8,2,1,4)","cpr":0.1,"workload":"uniform","cycles":5000}"#;
    let dot =
        r#"{"op":"quality","id":6,"design":"(8,2,1,4)","cpr":0.1,"workload":"dot","scale":1}"#;
    let b_5000 = r#"{"op":"quality","id":7,"design":"(8,1,1,4)","cpr":0.1,"workload":"uniform","cycles":5000}"#;

    // Lines 1–6, serial: ping; compute; store hit; compute; degrade
    // (5000 cycles over the 2000-add budget); kernel compute.
    let _ = svc.answer_line(r#"{"op":"ping","id":1}"#);
    let first = svc.answer_line(a_1000);
    let again = svc.answer_line(a_1000);
    assert_eq!(first, again, "store hit must serve identical bytes");
    let _ = svc.answer_line(b_1000);
    let degraded = svc.answer_line(a_5000);
    assert!(degraded.contains("\"degraded\":true"), "{degraded}");
    let _ = svc.answer_line(dot);

    // Lines 7+8: a deterministic coalesce on an over-budget key (degraded
    // answers are never stored, so the duplicate cannot be a store hit).
    // The leader is known in flight once the gauge reads 1; it then
    // stalls 400ms, giving the duplicate its coalescing window.
    let (leader_response, dup_response) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| svc.answer_line(b_5000));
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.registry().snapshot().gauge("serve.inflight") != Some(1) {
            assert!(Instant::now() < deadline, "leader never registered");
            std::thread::sleep(Duration::from_millis(2));
        }
        let dup = svc.answer_line(b_5000);
        (leader.join().expect("leader thread"), dup)
    });
    assert_eq!(
        result_of(&leader_response),
        result_of(&dup_response),
        "coalesced duplicate must receive the leader's answer"
    );

    // Lines 9+10: one admitted ping, one deterministically shed (single
    // gated worker, queue capacity 1 — the second submission overflows
    // before the gate opens).
    let mut frontend = Frontend::new(Arc::clone(&svc), 1, 1);
    frontend.submit(r#"{"op":"ping","id":9}"#);
    frontend.submit(r#"{"op":"ping","id":10}"#);
    let responses = frontend.finish();
    assert!(responses[0].contains("pong"), "{}", responses[0]);
    assert!(
        responses[1].contains("\"retriable\":true"),
        "{}",
        responses[1]
    );

    // Line 11: the stats op — its JSON shape and counts, pinned exactly.
    // (requests counts stats itself: 8 serial lines + 1 admitted ping +
    // this one; the shed line never reached the service.)
    let stats = result_of(&svc.answer_line(r#"{"op":"stats","id":11}"#));
    for (field, want) in [
        ("requests", 10.0),
        ("store_hits", 1.0),
        ("store_misses", 6.0),
        ("store_corrupt", 0.0),
        ("store_read_errors", 0.0),
        ("store_write_errors", 0.0),
        ("coalesced", 1.0),
        ("computed", 3.0),
        ("degraded", 2.0),
        ("shed", 1.0),
        ("eval_panics", 0.0),
        ("artifacts_resident", 2.0),
        ("store_records", 3.0),
    ] {
        assert_eq!(
            stats.get(field).and_then(Json::as_f64),
            Some(want),
            "stats field {field}"
        );
    }

    // Line 12: one more ping; line 13: the metrics op (counted in
    // `requests` before its own snapshot is taken).
    let _ = svc.answer_line(r#"{"op":"ping","id":12}"#);
    let metrics = result_of(&svc.answer_line(r#"{"op":"metrics","id":13}"#));
    assert_eq!(metrics.get("kind").and_then(Json::as_str), Some("metrics"));
    for (name, want) in [
        ("serve.requests", 12),
        ("serve.store_hits", 1),
        ("serve.store_misses", 6),
        ("serve.coalesced", 1),
        ("serve.computed", 3),
        ("serve.degraded", 2),
        ("serve.shed", 1),
        ("serve.eval_panics", 0),
        // The service's scoped cache: designs (8,2,1,4) and (8,1,1,4)
        // built once each; the kernel query reused (8,2,1,4). Degraded
        // answers build nothing.
        ("engine.cache.misses", 2),
        ("engine.cache.evictions", 0),
        ("engine.cache.failed_builds", 0),
    ] {
        assert_eq!(metric_counter(&metrics, name), want, "{name}");
    }

    // Gauges are back to rest; per-request latency histograms saw every
    // answered line except the in-progress metrics op itself.
    let gauges = metrics
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .unwrap();
    assert_eq!(
        gauges.get("serve.inflight").and_then(Json::as_f64),
        Some(0.0)
    );
    assert_eq!(
        gauges.get("serve.queue_depth").and_then(Json::as_f64),
        Some(0.0)
    );
    let request_hist = metrics
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("serve.request_ns"))
        .expect("request_ns histogram");
    assert_eq!(
        request_hist.get("count").and_then(Json::as_f64),
        Some(11.0),
        "12 answered lines minus the metrics op still in flight"
    );

    // The merged snapshot also carries the process-global backend
    // counters (other tests share them, so only monotonicity is pinned).
    assert!(metric_counter(&metrics, "sim.filtered.runs") >= 1);
    assert!(metric_counter(&metrics, "sim.filtered.cycles") >= 1);

    // The exposition schema check: render the merged registry, publish
    // it atomically, reread it, and parse it strictly.
    let merged = svc
        .registry()
        .snapshot()
        .merge(isa_obs::global().snapshot());
    let exposition_path = temp_dir("exposition").with_extension("prom");
    isa_obs::export::write_atomic(
        &exposition_path,
        isa_obs::export::render(&merged).as_bytes(),
    )
    .expect("write exposition");
    let reread = std::fs::read_to_string(&exposition_path).expect("reread exposition");
    let parsed = isa_obs::export::parse(&reread).expect("exposition passes the schema check");
    for name in [
        "sim.filtered.cycles",
        "serve.store_hits",
        "serve.store_misses",
    ] {
        assert!(
            parsed
                .counters
                .contains_key(&isa_obs::export::exposition_name(name)),
            "exposition lacks {name}"
        );
    }
    assert_eq!(
        parsed.counters[&isa_obs::export::exposition_name("serve.store_hits")],
        1.0
    );

    let _ = std::fs::remove_file(&exposition_path);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn tracing_is_out_of_band_for_response_bytes() {
    let script = [
        r#"{"op":"quality","id":1,"design":"(8,2,1,4)","cpr":0.1,"workload":"uniform","cycles":400}"#,
        r#"{"op":"quality","id":2,"design":"(8,1,1,4)","cpr":0.1,"workload":"uniform","cycles":400}"#,
        r#"{"op":"quality","id":3,"design":"(8,2,1,4)","cpr":0.1,"workload":"uniform","cycles":5000}"#,
        r#"{"op":"quality","id":4,"design":"(8,2,1,4)","cpr":0.1,"workload":"dot","scale":1}"#,
        r#"{"op":"ping","id":5}"#,
    ];
    let run = |svc: &Service| -> Vec<String> {
        script.iter().map(|line| svc.answer_line(line)).collect()
    };
    let config = |store: Option<PathBuf>| ServeConfig {
        threads: 2,
        sim_budget: Some(500),
        store_dir: store,
        quiet: true,
        ..ServeConfig::default()
    };

    // Baseline: no store, tracing disabled.
    let plain = Service::new(config(None)).expect("plain service");
    let baseline = run(&plain);

    // Traced: same script against a fresh service with the span sink
    // installed and a store attached — cold pass, then a hot pass served
    // from the store. Every response vector must be byte-identical.
    let store_dir = temp_dir("trace");
    let trace_path = temp_dir("jsonl").with_extension("jsonl");
    isa_obs::trace::install_file(&trace_path).expect("create trace file");
    let traced = Service::new(config(Some(store_dir.clone()))).expect("traced service");
    let cold = run(&traced);
    let hot = run(&traced);
    isa_obs::trace::uninstall();

    assert_eq!(baseline, cold, "tracing must not change response bytes");
    assert_eq!(baseline, hot, "hot answers must match cold bytes");
    assert!(traced.counters().store_hits.get() >= 3, "hot pass hit");

    // The trace itself is well-formed JSONL the profiler can fold, and
    // covers the request lifecycle. (The sink is process-global, so
    // spans from concurrently running tests may appear too — only
    // presence is asserted.)
    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    let events = isa_obs::profile::parse_trace(&text).expect("well-formed trace");
    let has = |name: &str| events.iter().any(|e| e.name == name);
    assert!(has("serve.request"), "missing serve.request spans");
    assert!(has("serve.store.get"), "missing serve.store.get spans");
    assert!(has("serve.eval"), "missing serve.eval spans");
    assert!(
        has("engine.cache.build"),
        "missing engine.cache.build spans"
    );
    let rows = isa_obs::profile::fold(&events);
    assert!(!rows.is_empty());
    let table = isa_obs::profile::render_table(&rows);
    assert!(table.contains("serve.request"), "{table}");

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_file(&trace_path);
}
