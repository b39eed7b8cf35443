//! The `serve` workload: the release `isa-serve` daemon on a Unix socket
//! with a fresh, empty result store, driven by two closed-loop client
//! connections (one request in flight each) over a seeded Zipf(1.0)
//! trace.
//!
//! About 90 % of requests repeat an earlier key and hit the store, so the
//! median measures the read and protocol path; the first occurrences
//! miss, write the store, simulate and rebuild designs evicted from the
//! 64-entry artifact LRU, so the tail measures that path.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use isa_engine::{Engine, ExperimentConfig, ExperimentPlan};
use isa_obs::Json;
use isa_serve::proto::quality_key;
use isa_serve::store::fnv1a64;
use isa_serve::{parse_request, FaultPlan, Request, ResultStore};
use isa_workloads::{take_pairs, RandomWalkWorkload, SineWorkload, UniformWorkload};

use crate::child::{cpu_s, peak_rss_mb, read_trace, span_durations_ms, Report};
use crate::gen::{
    rng, sample_indices, serve_pool, serve_trace, Kind, ServeRequest, SERVE_SIM_BUDGET,
};
use crate::stats::{median, percentile_with_tail};

/// Sampled synthesis-feasible designs added to the twelve paper designs.
pub const POOL_EXTRA: usize = 180;
/// Requests per rep.
pub const REQUESTS: usize = 20_000;
const CLIENTS: usize = 2;

/// The seeded request trace of one run.
#[must_use]
pub fn requests(seed: u64) -> Vec<ServeRequest> {
    serve_trace(seed, &serve_pool(seed, POOL_EXTRA), REQUESTS)
}

/// A running daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon in `dir` and waits for its first `ping` answer;
    /// returns it with the CPU seconds the daemon spent from spawn to
    /// that answer and the pinged connection.
    fn start(bin: &Path, dir: &Path, trace: bool) -> Result<(Self, f64, Conn), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut cmd = Command::new(bin);
        cmd.current_dir(dir)
            .args(["--socket", "s.sock", "--store", "store", "--threads", "1"])
            .args(["--sim-budget", &SERVE_SIM_BUDGET.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if trace {
            cmd.args(["--trace", "trace.jsonl"]);
        }
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let daemon = Self {
            child,
            socket: dir.join("s.sock"),
        };
        let stream = loop {
            match UnixStream::connect(&daemon.socket) {
                Ok(s) => break s,
                Err(_) if started.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("daemon socket never came up: {e}")),
            }
        };
        let mut conn = Conn::new(stream)?;
        let pong = conn.ask("{\"op\":\"ping\",\"id\":\"ping\"}")?;
        if !pong.contains("\"pong\"") {
            return Err(format!("unexpected ping answer {pong}"));
        }
        let setup = daemon.cpu_s()?;
        Ok((daemon, setup, conn))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn cpu_s(&self) -> Result<f64, String> {
        cpu_s(Some(self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One closed-loop client connection.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Self, String> {
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            writer: stream,
            reader: BufReader::new(reader),
        })
    }

    fn connect(path: &Path) -> Result<Self, String> {
        Self::new(UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?)
    }

    /// Sends one line and waits for its answer.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut answer = String::new();
        match self.reader.read_line(&mut answer) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(answer.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One client's (request index, latency ms, response) records.
type ClientLog = Vec<(usize, f64, String)>;

/// The outcome of one rep: the report plus what the checks and the
/// layer figures need.
pub struct Rep {
    pub report: Report,
    pub responses: Vec<String>,
    pub latencies_ms: Vec<f64>,
    pub counters: BTreeMap<String, f64>,
    pub events: Vec<isa_obs::profile::SpanEvent>,
    pub dir: PathBuf,
}

/// The `result` payload of a response line, if it is `ok`.
fn ok_payload(response: &str) -> Option<&str> {
    let at = response.find(",\"status\":\"ok\",\"degraded\":")?;
    let rest = &response[at..];
    Some(&rest[rest.find(",\"result\":")? + 10..rest.len() - 1])
}

/// One cold daemon session over the whole trace.
///
/// # Errors
///
/// Returns a message when the daemon cannot be started or driven.
pub fn run(bin: &Path, dir: &Path, requests: &[ServeRequest], trace: bool) -> Result<Rep, String> {
    let (daemon, setup_s, first) = Daemon::start(bin, dir, trace)?;
    let mut conns = vec![first];
    for _ in 1..CLIENTS {
        conns.push(Conn::connect(&daemon.socket)?);
    }

    let n = requests.len();
    let cpu_before = daemon.cpu_s()?;
    let started = Instant::now();
    let results: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(n / CLIENTS + 1);
                    for i in (c..n).step_by(CLIENTS) {
                        let sent = Instant::now();
                        let answer = conn.ask(&requests[i].line(i))?;
                        out.push((i, sent.elapsed().as_secs_f64() * 1e3, answer));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = daemon.cpu_s()? - cpu_before;

    let mut responses = vec![String::new(); n];
    let mut latencies_ms = vec![0.0; n];
    for part in results {
        for (i, ms, answer) in part? {
            latencies_ms[i] = ms;
            responses[i] = answer;
        }
    }

    let metrics = conns[0].ask("{\"op\":\"metrics\",\"id\":\"m\"}")?;
    let counters = parse_counters(&metrics)?;
    let peak = peak_rss_mb(&daemon.pid())?;
    drop(conns);
    drop(daemon);

    let failed = responses.iter().filter(|r| ok_payload(r).is_none()).count();
    let mut digest_text = String::new();
    for r in &responses {
        digest_text.push_str(r);
        digest_text.push('\n');
    }
    let events = if trace {
        read_trace(&dir.join("trace.jsonl"))
    } else {
        Vec::new()
    };
    Ok(Rep {
        report: Report {
            setup_s,
            cpu_s,
            wall_s,
            peak_rss_mb: peak,
            digest: format!("{:016x}", fnv1a64(digest_text.as_bytes())),
            attempted: n as u64,
            failed: failed as u64,
            ..Report::default()
        },
        responses,
        latencies_ms,
        counters,
        events,
        dir: dir.to_owned(),
    })
}

/// Extra cold starts per rep, so set-up time is a median of several.
///
/// # Errors
///
/// Returns a message when a daemon cannot be started.
pub fn extra_setups(bin: &Path, dir: &Path, count: usize) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|i| {
            let d = dir.join(format!("setup{i}"));
            let (daemon, setup, conn) = Daemon::start(bin, &d, false)?;
            drop(conn);
            drop(daemon);
            let _ = std::fs::remove_dir_all(&d);
            Ok(setup)
        })
        .collect()
}

fn parse_counters(metrics: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = Json::parse(metrics).map_err(|e| format!("metrics answer: {e}"))?;
    let Some(Json::Obj(fields)) = v
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get("counters"))
    else {
        return Err(format!("metrics answer without counters: {metrics}"));
    };
    Ok(fields
        .iter()
        .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
        .collect())
}

/// End-to-end figures of a rep: client-side latency percentiles and
/// throughput.
pub fn end_to_end(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("qps", rep.latencies_ms.len() as f64 / rep.report.wall_s);
    if let Some(p50) = median(&rep.latencies_ms) {
        out.insert("latency_p50_ms", p50);
    }
    if let Some(p99) = percentile_with_tail(&rep.latencies_ms, 99.0) {
        out.insert("latency_p99_ms", p99);
    }
    out
}

/// Output checks of one rep: every response `ok`, and repeated keys
/// answered with byte-identical payloads.
pub fn check_rep(rep: &Rep, requests: &[ServeRequest]) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(bad) = rep.responses.iter().find(|r| ok_payload(r).is_none()) {
        problems.push(format!(
            "{} non-ok responses; first: {bad}",
            rep.report.failed
        ));
    }
    let mut first: HashMap<&str, &str> = HashMap::new();
    for (req, resp) in requests.iter().zip(&rep.responses) {
        let Some(payload) = ok_payload(resp) else {
            continue;
        };
        let seen = first.entry(req.body.as_str()).or_insert(payload);
        if *seen != payload {
            problems.push(format!("request {} answered with two payloads", req.body));
            break;
        }
    }
    problems
}

/// The operand stream the service evaluates a named stream workload on.
fn stream_inputs(name: &str, seed: u64, cycles: usize) -> Vec<(u64, u64)> {
    match name {
        "uniform" => take_pairs(UniformWorkload::new(32, seed), cycles),
        "walk" => take_pairs(RandomWalkWorkload::new(32, 4096, seed), cycles),
        "sine" => take_pairs(SineWorkload::new(32, 0.013, 0.029, 0.05, seed), cycles),
        other => unreachable!("the trace has no {other} stream"),
    }
}

/// At least `count` seeded stream-quality answers must equal the same
/// query run through a fresh `Engine`'s plan executor.
pub fn check_against_engine(
    seed: u64,
    rep: &Rep,
    requests: &[ServeRequest],
    count: usize,
) -> Vec<String> {
    let config = ExperimentConfig::default();
    let engine = Engine::with_threads(1);
    let candidates: Vec<usize> = (0..requests.len())
        .filter(|&i| matches!(requests[i].kind, Kind::Stream(..)))
        .collect();
    let mut problems = Vec::new();
    let picks = sample_indices(&mut rng(seed, 0xC4E), candidates.len(), count);
    for &p in &picks {
        let i = candidates[p];
        let Kind::Stream(design, cpr, workload) = requests[i].kind else {
            unreachable!("filtered to stream requests");
        };
        let stream = stream_inputs(
            workload,
            config.workload_seed,
            crate::gen::SERVE_CYCLES as usize,
        );
        let plan = ExperimentPlan::new(config.clone())
            .designs([design])
            .cprs([cpr])
            .workload(workload, stream);
        let run = &engine.run(&plan)[0];
        let (s, t, j) = run.stats.rms_re_percent();
        let want = [
            ("rms_re_struct_pct", s),
            ("rms_re_timing_pct", t),
            ("rms_re_joint_pct", j),
            ("timing_error_rate", run.timing_error_rate()),
        ];
        let got = ok_payload(&rep.responses[i]).and_then(|p| Json::parse(p).ok());
        let matches = got.as_ref().is_some_and(|g| {
            want.iter()
                .all(|(k, v)| g.get(k).and_then(Json::as_f64) == Some(*v))
        });
        if !matches {
            problems.push(format!(
                "request {i} ({design} @ {cpr} on {workload}) differs from the direct engine answer"
            ));
        }
    }
    if picks.len() < count {
        problems.push(format!("only {} checkable stream keys", picks.len()));
    }
    problems
}

/// Layer figures of a traced rep, plus isolated protocol and store costs.
pub fn layers(untraced: &Rep, traced: &Rep, requests: &[ServeRequest]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let c = |k: &str| traced.counters.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.insert(
        "serve.store_hit_ratio".into(),
        ratio(
            c("serve.store_hits"),
            c("serve.store_hits") + c("serve.store_misses"),
        ),
    );
    for name in ["computed", "degraded"] {
        out.insert(format!("serve.{name}"), c(&format!("serve.{name}")));
    }
    out.insert(
        "engine.cache_hit_ratio".into(),
        ratio(
            c("engine.cache.hits"),
            c("engine.cache.hits") + c("engine.cache.misses"),
        ),
    );
    out.insert("engine.cache_evictions".into(), c("engine.cache.evictions"));
    if let Some(v) = median(&span_durations_ms(&traced.events, "engine.cache.build")) {
        out.insert("engine.cache_build_ms_p50".into(), v);
    }
    if let Some(v) = median(&span_durations_ms(&traced.events, "serve.eval")) {
        out.insert("serve.eval_ms_p50".into(), v);
    }

    // Client-side split on the untraced rep: a key's first occurrence
    // misses the (initially empty) store, later ones hit it.
    let mut seen = std::collections::HashSet::new();
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for (req, ms) in requests.iter().zip(&untraced.latencies_ms) {
        if seen.insert(req.body.as_str()) || req.kind == Kind::OverBudget {
            miss.push(*ms);
        } else {
            hit.push(*ms);
        }
    }
    if let Some(v) = median(&hit) {
        out.insert("serve.hit_latency_p50_ms".into(), v);
    }
    if let Some(v) = median(&miss) {
        out.insert("serve.miss_latency_p50_ms".into(), v);
    }
    if let Some(v) = percentile_with_tail(&miss, 99.0) {
        out.insert("serve.miss_latency_p99_ms".into(), v);
    }
    for (k, v) in end_to_end(untraced) {
        out.insert(format!("serve.{k}"), v);
    }

    // Protocol parse over every request line.
    let lines: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i))
        .collect();
    let t = Instant::now();
    for line in &lines {
        let _ = std::hint::black_box(parse_request(line));
    }
    out.insert(
        "serve.parse_us".into(),
        t.elapsed().as_secs_f64() * 1e6 / lines.len() as f64,
    );

    // Store reads against the store the traced rep filled, and writes
    // into a fresh one.
    let config = ExperimentConfig::default();
    let faults = FaultPlan::none();
    let mut stored: Vec<(String, String)> = Vec::new();
    let mut keys_seen = std::collections::HashSet::new();
    for (line, resp) in lines.iter().zip(&traced.responses) {
        if let (Ok(env), Some(payload)) = (parse_request(line), ok_payload(resp)) {
            if let Request::Quality(q) = env.request {
                let key = quality_key(&q, &config);
                if !resp.contains("\"degraded\":true") && keys_seen.insert(key.clone()) {
                    stored.push((key, payload.to_owned()));
                }
            }
        }
    }
    if let Ok(store) = ResultStore::open(traced.dir.join("store")) {
        let t = Instant::now();
        for (key, _) in &stored {
            let _ = std::hint::black_box(store.get(key, &faults));
        }
        out.insert(
            "serve.store_get_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / stored.len().max(1) as f64,
        );
    }
    let put_dir = traced.dir.join("put-store");
    if let Ok(store) = ResultStore::open(&put_dir) {
        let sample = &stored[..stored.len().min(500)];
        let t = Instant::now();
        for (key, payload) in sample {
            let _ = std::hint::black_box(store.put(key, payload, &faults));
        }
        out.insert(
            "serve.store_put_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64,
        );
    }
    let _ = std::fs::remove_dir_all(&put_dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_payload_extracts_the_result_object() {
        let line = r#"{"id":3,"status":"ok","degraded":false,"result":{"kind":"stream","x":1}}"#;
        assert_eq!(ok_payload(line), Some(r#"{"kind":"stream","x":1}"#));
        let err = r#"{"id":3,"status":"error","retriable":false,"error":"no"}"#;
        assert_eq!(ok_payload(err), None);
    }

    #[test]
    fn request_lines_parse_as_the_service_reads_them() {
        let pool = crate::gen::serve_pool(2, 10);
        for (i, r) in serve_trace(2, &pool, 300).iter().enumerate() {
            let env = parse_request(&r.line(i)).expect("generated requests parse");
            assert_eq!(env.id, Json::Num(i as f64));
            if let Kind::Stream(design, cpr, _) = r.kind {
                let Request::Quality(q) = env.request else {
                    panic!("stream requests are quality queries");
                };
                assert_eq!((q.design, q.cpr), (design, cpr));
            }
        }
    }
}
