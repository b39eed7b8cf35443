//! The resident evaluation service.
//!
//! [`Service`] is the synchronous, testable core: it answers one request
//! at a time ([`Service::answer_line`]) through a tiered ladder —
//!
//! 1. **hot store hit** — the canonical key is looked up in the on-disk
//!    [`ResultStore`]; a validated record is served byte-identically;
//! 2. **simulation** — a miss is computed on the shared [`Engine`]
//!    (bounded-LRU artifact cache, filtered 64-lane backend) and, on
//!    success, persisted for the next process;
//! 3. **exact analytical bound** — when the request's *cost* exceeds the
//!    configured simulation budget, the service answers from the exact
//!    structural error model alone (no synthesis, no gate-level
//!    simulation) with `degraded:true`.
//!
//! Degradation is decided by an **admission-time cost budget** (stream
//! cycles, or kernel addition counts), *not* a wall-clock deadline: a
//! timer-based tier choice would make the same query answer differently
//! depending on machine load, violating the service's core guarantee
//! that the same query yields byte-identical bytes, hot or cold. The
//! budget is the deterministic proxy for a deadline — callers size it to
//! their latency target once, offline.
//!
//! Identical in-flight queries (same canonical key) **coalesce**: the
//! first requester computes, every concurrent duplicate waits on the
//! same slot and receives the same rendered payload. Evaluations run
//! under `catch_unwind`, so a panicking evaluation (or an injected one)
//! fails that request with a retriable error instead of the process.
//!
//! [`Frontend`] adds the concurrency spine: a bounded admission queue
//! (overflow is shed deterministically with a retriable error — see
//! [`crate::queue`]), a worker pool, and an in-order response buffer so
//! a request script always produces the same response byte stream.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use isa_obs::{Counter, Gauge, Histogram, Json, Logger, Registry};

use isa_core::{combine_errors, paper_designs, structural_errors, Design, Substrate as _};
use isa_engine::{
    ArtifactCache, Engine, ExperimentConfig, GateLevelSubstrate, WorkloadSpec, GATE_BACKEND_LABEL,
};
use isa_metrics::snr_db_of_rms_pct;
use isa_workloads::named_stream;

use crate::faults::{FaultPlan, FaultPoint};
use crate::proto::{
    cheapest_key, error_response, ok_response, parse_request, quality_key, CheapestQuery, Envelope,
    QualityQuery, Request, WorkloadSel,
};
use crate::store::{ResultStore, StoreGet};

/// Service configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// Worker threads for intra-request fan-out (the cheapest-design
    /// candidate sweep).
    pub threads: usize,
    /// Artifact-cache LRU capacity (built design contexts resident at
    /// once).
    pub artifact_cap: usize,
    /// Simulation cost budget per request, in additions (stream cycles or
    /// kernel adds); `None` = unlimited (tier 3 never used).
    pub sim_budget: Option<u64>,
    /// Result-store directory; `None` disables persistence.
    pub store_dir: Option<PathBuf>,
    /// The experiment configuration every answer is computed under.
    pub config: ExperimentConfig,
    /// Fault-injection plan (chaos tests; [`FaultPlan::none`] in
    /// production).
    pub faults: FaultPlan,
    /// Suppress stderr logging.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            artifact_cap: 64,
            sim_budget: None,
            store_dir: None,
            config: ExperimentConfig::default(),
            faults: FaultPlan::none(),
            quiet: false,
        }
    }
}

/// Monotonic service counters (the `stats` op; diagnostics only, never
/// part of a stored payload). Each field is a shared handle into the
/// service's [`Registry`] under `serve.*`, so the same numbers surface
/// through the `metrics` op and the Prometheus-style exposition.
#[derive(Debug)]
pub struct Counters {
    /// Requests received (including malformed ones).
    pub requests: Counter,
    /// Store lookups that served a validated record.
    pub store_hits: Counter,
    /// Store lookups that found nothing.
    pub store_misses: Counter,
    /// Store records that failed validation (recomputed, rewritten).
    pub store_corrupt: Counter,
    /// Store reads that failed with I/O errors (treated as misses).
    pub store_read_errors: Counter,
    /// Store writes that failed (answer served anyway).
    pub store_write_errors: Counter,
    /// Requests that waited on an identical in-flight computation.
    pub coalesced: Counter,
    /// Full simulations executed.
    pub computed: Counter,
    /// Degraded (analytical-bound) answers served.
    pub degraded: Counter,
    /// Requests shed at the admission queue.
    pub shed: Counter,
    /// Evaluations that panicked (isolated to their request).
    pub eval_panics: Counter,
}

impl Counters {
    fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            store_hits: registry.counter("serve.store_hits"),
            store_misses: registry.counter("serve.store_misses"),
            store_corrupt: registry.counter("serve.store_corrupt"),
            store_read_errors: registry.counter("serve.store_read_errors"),
            store_write_errors: registry.counter("serve.store_write_errors"),
            coalesced: registry.counter("serve.coalesced"),
            computed: registry.counter("serve.computed"),
            degraded: registry.counter("serve.degraded"),
            shed: registry.counter("serve.shed"),
            eval_panics: registry.counter("serve.eval_panics"),
        }
    }
}

/// Per-stage latency histograms of the request lifecycle (`serve.*_ns`),
/// plus the live gauges: admission → coalesce → store → eval → respond.
#[derive(Debug)]
struct StageMetrics {
    /// Whole `answer_line` wall time.
    request_ns: Histogram,
    /// Submission-to-worker-pickup wait in the admission queue.
    admission_wait_ns: Histogram,
    /// Wait endured by coalesced duplicates for their leader's answer.
    coalesce_wait_ns: Histogram,
    /// Result-store lookup latency.
    store_get_ns: Histogram,
    /// Leader compute time (simulate or degrade).
    eval_ns: Histogram,
    /// Response write+flush latency.
    respond_ns: Histogram,
    /// Jobs admitted but not yet picked up by a worker.
    queue_depth: Gauge,
    /// Evaluation keys currently in flight (leaders holding a slot).
    inflight: Gauge,
}

impl StageMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            request_ns: registry.histogram("serve.request_ns"),
            admission_wait_ns: registry.histogram("serve.admission_wait_ns"),
            coalesce_wait_ns: registry.histogram("serve.coalesce_wait_ns"),
            store_get_ns: registry.histogram("serve.store_get_ns"),
            eval_ns: registry.histogram("serve.eval_ns"),
            respond_ns: registry.histogram("serve.respond_ns"),
            queue_depth: registry.gauge("serve.queue_depth"),
            inflight: registry.gauge("serve.inflight"),
        }
    }
}

/// One finished answer: the result payload (the bytes inside `result:`),
/// whether it was degraded, and whether it is eligible for the store.
#[derive(Debug, Clone)]
struct Answer {
    payload: String,
    degraded: bool,
    storeable: bool,
}

/// `Ok` = a served answer; `Err` = `(retriable, message)`.
type QResult = Result<Answer, (bool, String)>;

/// A computation slot shared by coalesced requests.
#[derive(Debug, Default)]
struct InFlight {
    done: Mutex<Option<QResult>>,
    ready: Condvar,
}

/// Pre-computed reference data of one kernel workload.
struct KernelData {
    kernel: Box<dyn isa_apps::Kernel>,
    reference: isa_apps::KernelRun,
    peak: u64,
}

/// Memoized deterministic input streams, keyed by `(workload, cycles)`.
type StreamCache = Mutex<HashMap<(String, u64), Arc<Vec<(u64, u64)>>>>;

/// The synchronous service core. Wrap in an [`Arc`] and drive it from
/// [`Frontend`]/[`serve_lines`] (or call [`Service::answer_line`]
/// directly in tests).
pub struct Service {
    cfg: ServeConfig,
    engine: Engine,
    substrate: GateLevelSubstrate,
    store: Option<ResultStore>,
    inflight: Mutex<HashMap<String, Arc<InFlight>>>,
    streams: StreamCache,
    kernels: Mutex<HashMap<(String, u64), Arc<KernelData>>>,
    registry: Registry,
    counters: Counters,
    stages: StageMetrics,
    logger: Logger,
}

impl Service {
    /// Builds a service: a shared bounded-LRU artifact cache, the
    /// filtered gate-level substrate over it, and (optionally) the
    /// on-disk result store.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directory cannot be created.
    pub fn new(cfg: ServeConfig) -> io::Result<Self> {
        let registry = Registry::new();
        let cache = Arc::new(ArtifactCache::bounded_in(cfg.artifact_cap, &registry));
        let engine = Engine::with_cache(cfg.threads, Arc::clone(&cache));
        let substrate = GateLevelSubstrate::new(engine.cache(), cfg.config.clone());
        let store = match &cfg.store_dir {
            Some(dir) => Some(ResultStore::open(dir)?),
            None => None,
        };
        let counters = Counters::new(&registry);
        let stages = StageMetrics::new(&registry);
        let logger = Logger::new("isa-serve").quiet(cfg.quiet);
        Ok(Self {
            cfg,
            engine,
            substrate,
            store,
            inflight: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            kernels: Mutex::new(HashMap::new()),
            registry,
            counters,
            stages,
            logger,
        })
    }

    /// The service counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The service's metric registry (`serve.*` plus its artifact cache's
    /// `engine.cache.*`). Process-wide metrics — the engine run totals,
    /// the filtered backend — live in [`isa_obs::global`]; the `metrics`
    /// op merges both views.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The configuration answers are computed under.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg.config
    }

    fn log(&self, msg: &str) {
        self.logger.warn(msg);
    }

    /// Answers one request line with one response line (no trailing
    /// newline). Never panics: malformed requests and failed evaluations
    /// become error responses.
    #[must_use]
    pub fn answer_line(&self, line: &str) -> String {
        let _span = isa_obs::span("serve.request");
        let started = Instant::now();
        self.counters.requests.inc();
        let response = match parse_request(line) {
            Ok(envelope) => self.answer(&envelope),
            Err((id, msg)) => error_response(&id, false, &msg),
        };
        self.stages.request_ns.observe_since(started);
        response
    }

    /// Answers one parsed request.
    #[must_use]
    pub fn answer(&self, envelope: &Envelope) -> String {
        let id = &envelope.id;
        match &envelope.request {
            Request::Ping => ok_response(id, false, "{\"kind\":\"pong\"}"),
            Request::Stats => ok_response(id, false, &self.stats_payload()),
            Request::Metrics => ok_response(id, false, &self.metrics_payload()),
            Request::Quality(query) => match self.quality_answer(query) {
                Ok(answer) => ok_response(id, answer.degraded, &answer.payload),
                Err((retriable, msg)) => error_response(id, retriable, &msg),
            },
            Request::Cheapest(query) => match self.cheapest_answer(query) {
                Ok(answer) => ok_response(id, answer.degraded, &answer.payload),
                Err((retriable, msg)) => error_response(id, retriable, &msg),
            },
        }
    }

    /// Answers a quality query through the full ladder (store, coalesce,
    /// compute-or-degrade).
    fn quality_answer(&self, query: &QualityQuery) -> QResult {
        let key = quality_key(query, &self.cfg.config);
        self.answer_keyed(&key, || self.compute_quality(query))
    }

    /// Answers a cheapest query through the same ladder.
    fn cheapest_answer(&self, query: &CheapestQuery) -> QResult {
        let key = cheapest_key(query, &self.cfg.config);
        self.answer_keyed(&key, || self.compute_cheapest(query))
    }

    /// The ladder shared by every evaluation op: hot store hit →
    /// coalesced compute → (inside `compute`) simulate or degrade.
    fn answer_keyed(&self, key: &str, compute: impl FnOnce() -> QResult) -> QResult {
        if let Some(store) = &self.store {
            let _span = isa_obs::span("serve.store.get");
            let lookup_started = Instant::now();
            let got = store.get(key, &self.cfg.faults);
            self.stages.store_get_ns.observe_since(lookup_started);
            match got {
                Ok(StoreGet::Hit(payload)) => {
                    self.counters.store_hits.inc();
                    return Ok(Answer {
                        payload,
                        degraded: false,
                        storeable: false,
                    });
                }
                Ok(StoreGet::Miss) => self.counters.store_misses.inc(),
                Ok(StoreGet::Corrupt(reason)) => {
                    self.counters.store_corrupt.inc();
                    self.log(&format!(
                        "corrupt store record for {key}: {reason}; recomputing"
                    ));
                }
                Err(e) => {
                    self.counters.store_read_errors.inc();
                    self.log(&format!("store read failed for {key}: {e}; recomputing"));
                }
            }
        }

        // Coalesce identical in-flight keys onto one computation.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().expect("inflight lock");
            match inflight.get(key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(InFlight::default());
                    inflight.insert(key.to_owned(), Arc::clone(&flight));
                    self.stages.inflight.inc();
                    (flight, true)
                }
            }
        };
        if !leader {
            self.counters.coalesced.inc();
            let _span = isa_obs::span("serve.coalesce.wait");
            let wait_started = Instant::now();
            let mut done = flight.done.lock().expect("inflight slot lock");
            while done.is_none() {
                done = flight.ready.wait(done).expect("inflight slot lock");
            }
            self.stages.coalesce_wait_ns.observe_since(wait_started);
            return done.clone().expect("checked above");
        }

        let result = {
            let _span = isa_obs::span("serve.eval");
            let eval_started = Instant::now();
            let result = compute();
            self.stages.eval_ns.observe_since(eval_started);
            result
        };
        if let (Ok(answer), Some(store)) = (&result, &self.store) {
            if answer.storeable {
                if let Err(e) = store.put(key, &answer.payload, &self.cfg.faults) {
                    self.counters.store_write_errors.inc();
                    self.log(&format!(
                        "store write failed for {key}: {e}; serving anyway"
                    ));
                }
            }
        }
        *flight.done.lock().expect("inflight slot lock") = Some(result.clone());
        flight.ready.notify_all();
        self.inflight.lock().expect("inflight lock").remove(key);
        self.stages.inflight.dec();
        result
    }

    /// The cost of a query in additions — the deterministic degradation
    /// currency (see the module docs for why this is not a wall clock).
    fn query_cost(&self, workload: &WorkloadSel) -> u64 {
        match workload {
            WorkloadSel::Stream { cycles, .. } => *cycles,
            WorkloadSel::Kernel { name, scale } => self.kernel_data(name, *scale).reference.adds,
        }
    }

    /// Computes a quality answer: full simulation within budget, exact
    /// analytical bound beyond it.
    fn compute_quality(&self, query: &QualityQuery) -> QResult {
        if self.cfg.faults.fires(FaultPoint::SlowEval) {
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.faults.slow_ms()));
        }
        let cost = self.query_cost(&query.workload);
        if self.cfg.sim_budget.is_some_and(|budget| cost > budget) {
            self.counters.degraded.inc();
            return Ok(Answer {
                payload: self.degraded_payload(query),
                degraded: true,
                storeable: false,
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.simulate_quality(query)));
        match outcome {
            Ok(Ok(payload)) => {
                self.counters.computed.inc();
                Ok(Answer {
                    payload,
                    degraded: false,
                    storeable: true,
                })
            }
            Ok(Err(msg)) => Err((false, msg)),
            Err(payload) => {
                self.counters.eval_panics.inc();
                let msg = isa_engine::panic_message(payload.as_ref());
                self.log(&format!("evaluation panicked (isolated): {msg}"));
                Err((true, format!("evaluation panicked: {msg}")))
            }
        }
    }

    /// Tier 2: the full gate-level evaluation of one quality query.
    /// `Err` = the design cannot be built (non-retriable).
    fn simulate_quality(&self, query: &QualityQuery) -> Result<String, String> {
        if self.cfg.faults.fires(FaultPoint::EvalPanic) {
            panic!("injected evaluation fault");
        }
        let config = &self.cfg.config;
        let clock_ps = config.clock_ps(query.cpr);
        // Feasibility first, so infeasible designs produce a clean
        // BuildError instead of a panic deep inside the substrate.
        let ctx = self
            .engine
            .try_context(&query.design, config)
            .map_err(|e| e.to_string())?;
        match &query.workload {
            WorkloadSel::Stream { name, cycles } => {
                let inputs = self.stream_inputs(name, *cycles);
                let silvers = self.substrate.run_batch(&query.design, clock_ps, &inputs);
                let golds = ctx.gold.add_batch(&inputs);
                let stats = combine_errors(query.design.width(), &inputs, &golds, &silvers);
                let (s_pct, t_pct, j_pct) = stats.rms_re_percent();
                Ok(stream_payload(
                    query,
                    clock_ps,
                    &[
                        ("rms_re_struct_pct", Json::Num(s_pct)),
                        ("rms_re_timing_pct", Json::Num(t_pct)),
                        ("rms_re_joint_pct", Json::Num(j_pct)),
                        ("timing_error_rate", Json::Num(stats.e_timing.error_rate())),
                        ("quality_db", Json::from_db(snr_db_of_rms_pct(j_pct))),
                    ],
                ))
            }
            WorkloadSel::Kernel { name, scale } => {
                let data = self.kernel_data(name, *scale);
                let run = isa_apps::run_on_substrate(
                    data.kernel.as_ref(),
                    &self.substrate,
                    &query.design,
                    clock_ps,
                );
                let stats = isa_apps::score(&data.reference, &run);
                let behavioural = isa_apps::run_behavioural(data.kernel.as_ref(), &query.design);
                let ceiling = isa_apps::score(&data.reference, &behavioural);
                Ok(kernel_payload(
                    query,
                    clock_ps,
                    &data,
                    &[
                        ("psnr_db", Json::from_db(stats.psnr_db(data.peak))),
                        ("snr_db", Json::from_db(stats.snr_db())),
                        ("max_abs_error", Json::Num(stats.max_abs_error() as f64)),
                        (
                            "structural_psnr_db",
                            Json::from_db(ceiling.psnr_db(data.peak)),
                        ),
                    ],
                ))
            }
        }
    }

    /// Tier 3: the exact analytical (structural-only) bound — no
    /// synthesis, no gate-level simulation, just the behavioural model.
    /// Timing-dependent fields are `null`: the bound excludes timing
    /// error by construction, and pretending it were zero would assert a
    /// falsehood.
    fn degraded_payload(&self, query: &QualityQuery) -> String {
        let config = &self.cfg.config;
        let clock_ps = config.clock_ps(query.cpr);
        match &query.workload {
            WorkloadSel::Stream { name, cycles } => {
                let inputs = self.stream_inputs(name, *cycles);
                let gold = query.design.behavioural();
                let stats = structural_errors(gold.as_ref(), inputs.iter().copied());
                let (s_pct, _, _) = stats.rms_re_percent();
                stream_payload(
                    query,
                    clock_ps,
                    &[
                        ("bound", Json::Str("structural-exact".to_owned())),
                        ("rms_re_struct_pct", Json::Num(s_pct)),
                        ("rms_re_timing_pct", Json::Null),
                        ("rms_re_joint_pct", Json::Null),
                        ("timing_error_rate", Json::Null),
                        ("quality_db", Json::from_db(snr_db_of_rms_pct(s_pct))),
                    ],
                )
            }
            WorkloadSel::Kernel { name, scale } => {
                let data = self.kernel_data(name, *scale);
                let behavioural = isa_apps::run_behavioural(data.kernel.as_ref(), &query.design);
                let ceiling = isa_apps::score(&data.reference, &behavioural);
                kernel_payload(
                    query,
                    clock_ps,
                    &data,
                    &[
                        ("bound", Json::Str("structural-exact".to_owned())),
                        ("psnr_db", Json::from_db(ceiling.psnr_db(data.peak))),
                        ("snr_db", Json::from_db(ceiling.snr_db())),
                        ("max_abs_error", Json::Num(ceiling.max_abs_error() as f64)),
                        (
                            "structural_psnr_db",
                            Json::from_db(ceiling.psnr_db(data.peak)),
                        ),
                    ],
                )
            }
        }
    }

    /// Computes a cheapest-design answer: every paper design is scored at
    /// the query's (cpr, workload) through the regular quality ladder
    /// (each score coalesces and persists on its own), in parallel with
    /// per-candidate panic isolation; the minimum-area design meeting the
    /// floor wins, ties broken by label.
    ///
    /// Note the candidate sweep needs each *feasible* design's area, so
    /// synthesis still runs for meeting candidates even when their scores
    /// were degraded; the budget governs simulation volume, and synthesis
    /// is bounded by the fixed candidate set (and the artifact LRU).
    fn compute_cheapest(&self, query: &CheapestQuery) -> QResult {
        if self.cfg.faults.fires(FaultPoint::SlowEval) {
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.faults.slow_ms()));
        }
        let config = &self.cfg.config;
        let clock_ps = config.clock_ps(query.cpr);
        let candidates = paper_designs();
        let points: Vec<(Design, f64)> = candidates.iter().map(|d| (*d, query.cpr)).collect();
        let spec = WorkloadSpec {
            name: query.workload.name().to_owned(),
            inputs: Arc::new(Vec::new()),
        };
        let answers = self.engine.try_map_points(config, &points, &spec, |unit| {
            self.quality_answer(&QualityQuery {
                design: unit.design,
                cpr: unit.cpr,
                workload: query.workload.clone(),
            })
        });

        let mut degraded = false;
        let mut errors = 0u64;
        let mut feasible: Vec<(Design, f64)> = Vec::new();
        for (design, outcome) in candidates.iter().zip(answers) {
            match outcome {
                Ok(Ok(answer)) => {
                    degraded |= answer.degraded;
                    let Some(db) = payload_quality_db(&answer.payload) else {
                        errors += 1;
                        continue;
                    };
                    if db >= query.min_quality_db {
                        feasible.push((*design, db));
                    }
                }
                // Non-retriable: the design cannot be built — simply not
                // a feasible candidate, not a service error.
                Ok(Err((false, _))) => {}
                Ok(Err((true, _))) | Err(_) => errors += 1,
            }
        }

        let mut cheapest: Option<(Design, f64, f64)> = None;
        for (design, db) in &feasible {
            let area = match self.engine.try_context(design, config) {
                Ok(ctx) => ctx.synthesized.area,
                Err(_) => continue,
            };
            let better = match &cheapest {
                None => true,
                Some((best, _, best_area)) => {
                    area < *best_area
                        || (area == *best_area && design.to_string() < best.to_string())
                }
            };
            if better {
                cheapest = Some((*design, *db, area));
            }
        }

        let mut fields = vec![
            ("kind", Json::Str("cheapest".to_owned())),
            ("min_quality_db", Json::Num(query.min_quality_db)),
            ("cpr", Json::Num(query.cpr)),
            ("clock_ps", Json::Num(clock_ps)),
            ("workload", Json::Str(query.workload.name().to_owned())),
            ("candidates", Json::Num(candidates.len() as f64)),
            ("feasible", Json::Num(feasible.len() as f64)),
            ("errors", Json::Num(errors as f64)),
        ];
        match &cheapest {
            Some((design, db, area)) => {
                fields.push(("design", Json::Str(design.to_string())));
                fields.push(("area", Json::Num(*area)));
                fields.push(("quality_db", Json::from_db(*db)));
            }
            None => {
                fields.push(("design", Json::Null));
                fields.push(("area", Json::Null));
                fields.push(("quality_db", Json::Null));
            }
        }
        Ok(Answer {
            payload: render_fields(&fields),
            degraded,
            // A panicked candidate would make the aggregate depend on the
            // fault, and a degraded one on the budget: only complete,
            // fully simulated sweeps are persisted.
            storeable: !degraded && errors == 0,
        })
    }

    /// The deterministic operand stream of a named stream workload
    /// (memoized; the memo is cleared past a small bound so pathological
    /// request mixes cannot hoard memory).
    fn stream_inputs(&self, name: &str, cycles: u64) -> Arc<Vec<(u64, u64)>> {
        let key = (name.to_owned(), cycles);
        {
            let streams = self.streams.lock().expect("stream memo lock");
            if let Some(inputs) = streams.get(&key) {
                return Arc::clone(inputs);
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        let inputs = Arc::new(
            named_stream(name, 32, self.cfg.config.workload_seed, cycles as usize)
                .unwrap_or_else(|| unreachable!("workload {name:?} rejected at parse time")),
        );
        let mut streams = self.streams.lock().expect("stream memo lock");
        if streams.len() >= 8 && !streams.contains_key(&key) {
            streams.clear();
        }
        streams.insert(key, Arc::clone(&inputs));
        inputs
    }

    /// The memoized kernel + exact reference of a kernel workload.
    fn kernel_data(&self, name: &str, scale: u64) -> Arc<KernelData> {
        let key = (name.to_owned(), scale);
        {
            let kernels = self.kernels.lock().expect("kernel memo lock");
            if let Some(data) = kernels.get(&key) {
                return Arc::clone(data);
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        let kernel = isa_apps::kernel_by_name(name, scale as usize, self.cfg.config.workload_seed)
            .unwrap_or_else(|| unreachable!("kernel {name:?} rejected at parse time"));
        let reference = isa_apps::run_exact(kernel.as_ref());
        let peak = reference.output.iter().copied().max().unwrap_or(0).max(1);
        let data = Arc::new(KernelData {
            kernel,
            reference,
            peak,
        });
        let mut kernels = self.kernels.lock().expect("kernel memo lock");
        if kernels.len() >= 16 && !kernels.contains_key(&key) {
            kernels.clear();
        }
        kernels.insert(key, Arc::clone(&data));
        data
    }

    /// The `stats` payload (non-deterministic; never stored).
    fn stats_payload(&self) -> String {
        let c = &self.counters;
        let load = |counter: &Counter| Json::Num(counter.get() as f64);
        render_fields(&[
            ("kind", Json::Str("stats".to_owned())),
            ("requests", load(&c.requests)),
            ("store_hits", load(&c.store_hits)),
            ("store_misses", load(&c.store_misses)),
            ("store_corrupt", load(&c.store_corrupt)),
            ("store_read_errors", load(&c.store_read_errors)),
            ("store_write_errors", load(&c.store_write_errors)),
            ("coalesced", load(&c.coalesced)),
            ("computed", load(&c.computed)),
            ("degraded", load(&c.degraded)),
            ("shed", load(&c.shed)),
            ("eval_panics", load(&c.eval_panics)),
            (
                "artifacts_resident",
                Json::Num(self.engine.cache().len() as f64),
            ),
            (
                "store_records",
                match &self.store {
                    Some(store) => Json::Num(store.record_count().unwrap_or(0) as f64),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The `metrics` payload: the full registry snapshot — this service's
    /// `serve.*` and `engine.cache.*` merged with the process-global
    /// `engine.*` / `sim.filtered.*` — as one JSON object
    /// (non-deterministic; never stored).
    fn metrics_payload(&self) -> String {
        let merged = self.registry.snapshot().merge(isa_obs::global().snapshot());
        Json::Obj(vec![
            ("kind".to_owned(), Json::Str("metrics".to_owned())),
            (
                "metrics".to_owned(),
                isa_obs::export::snapshot_json(&merged),
            ),
        ])
        .render()
    }
}

/// Renders an ordered field list as one JSON object.
fn render_fields(fields: &[(&str, Json)]) -> String {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    )
    .render()
}

/// Shared header + variable tail of a stream-quality payload.
fn stream_payload(query: &QualityQuery, clock_ps: f64, tail: &[(&str, Json)]) -> String {
    let WorkloadSel::Stream { name, cycles } = &query.workload else {
        unreachable!("stream payload for a stream workload");
    };
    let mut fields = vec![
        ("kind", Json::Str("stream".to_owned())),
        ("design", Json::Str(query.design.to_string())),
        ("cpr", Json::Num(query.cpr)),
        ("clock_ps", Json::Num(clock_ps)),
        ("workload", Json::Str(name.clone())),
        ("cycles", Json::Num(*cycles as f64)),
        ("backend", Json::Str(GATE_BACKEND_LABEL.to_owned())),
    ];
    fields.extend_from_slice(tail);
    render_fields(&fields)
}

/// Shared header + variable tail of a kernel-quality payload.
fn kernel_payload(
    query: &QualityQuery,
    clock_ps: f64,
    data: &KernelData,
    tail: &[(&str, Json)],
) -> String {
    let WorkloadSel::Kernel { name, scale } = &query.workload else {
        unreachable!("kernel payload for a kernel workload");
    };
    let mut fields = vec![
        ("kind", Json::Str("kernel".to_owned())),
        ("design", Json::Str(query.design.to_string())),
        ("cpr", Json::Num(query.cpr)),
        ("clock_ps", Json::Num(clock_ps)),
        ("kernel", Json::Str(name.clone())),
        ("scale", Json::Num(*scale as f64)),
        ("backend", Json::Str(GATE_BACKEND_LABEL.to_owned())),
        ("outputs", Json::Num(data.reference.output.len() as f64)),
        ("adds", Json::Num(data.reference.adds as f64)),
    ];
    fields.extend_from_slice(tail);
    render_fields(&fields)
}

/// Extracts the comparable quality figure from a quality payload
/// (`quality_db` for streams, `psnr_db` for kernels).
fn payload_quality_db(payload: &str) -> Option<f64> {
    let value = Json::parse(payload).ok()?;
    value
        .get("quality_db")
        .or_else(|| value.get("psnr_db"))
        .and_then(Json::to_db)
}

// ---------------------------------------------------------------------------
// Frontend: bounded admission, worker pool, in-order responses.
// ---------------------------------------------------------------------------

/// One admitted job: its submission sequence number, raw line, and
/// admission timestamp (for the queue-wait histogram).
struct Job {
    seq: u64,
    line: String,
    admitted: Instant,
}

/// The in-order response buffer: responses are inserted under their
/// submission sequence number and emitted strictly in that order, so a
/// request script always yields the same response byte stream regardless
/// of worker interleaving.
#[derive(Debug, Default)]
struct OutBuf {
    state: Mutex<OutState>,
    avail: Condvar,
}

#[derive(Debug, Default)]
struct OutState {
    slots: BTreeMap<u64, String>,
    next_emit: u64,
    submitted: u64,
    sealed: bool,
}

impl OutBuf {
    fn note_submission(&self) {
        self.state.lock().expect("outbuf lock").submitted += 1;
    }

    fn insert(&self, seq: u64, response: String) {
        let mut state = self.state.lock().expect("outbuf lock");
        state.slots.insert(seq, response);
        drop(state);
        self.avail.notify_all();
    }

    /// Marks the submission stream complete (no further sequence numbers).
    fn seal(&self) {
        let mut state = self.state.lock().expect("outbuf lock");
        state.sealed = true;
        drop(state);
        self.avail.notify_all();
    }

    /// Blocks for the next in-order response; `None` once sealed and
    /// fully drained.
    fn pop_next(&self) -> Option<String> {
        let mut state = self.state.lock().expect("outbuf lock");
        loop {
            let next = state.next_emit;
            if let Some(response) = state.slots.remove(&next) {
                state.next_emit += 1;
                return Some(response);
            }
            if state.sealed && state.next_emit >= state.submitted {
                return None;
            }
            state = self.avail.wait(state).expect("outbuf lock");
        }
    }
}

/// A gate workers wait behind until [`Frontend::start`].
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    bell: Condvar,
}

impl Gate {
    fn wait_open(&self) {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.bell.wait(open).expect("gate lock");
        }
    }

    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.bell.notify_all();
    }
}

/// The concurrent front end over a [`Service`]: a bounded admission
/// queue, a worker pool (held behind a start gate so tests can submit a
/// whole script before any work begins, making shedding exactly
/// reproducible), and the in-order reorder buffer.
pub struct Frontend {
    service: Arc<Service>,
    queue: Arc<crate::queue::BoundedQueue<Job>>,
    out: Arc<OutBuf>,
    gate: Arc<Gate>,
    handles: Vec<JoinHandle<()>>,
    seq: u64,
}

impl Frontend {
    /// Spawns `workers` worker threads over the service with a
    /// `queue_cap`-bounded admission queue. Workers idle behind the start
    /// gate until [`Frontend::start`].
    #[must_use]
    pub fn new(service: Arc<Service>, workers: usize, queue_cap: usize) -> Self {
        let queue = Arc::new(crate::queue::BoundedQueue::<Job>::new(queue_cap));
        let out = Arc::new(OutBuf::default());
        let gate = Arc::new(Gate::default());
        let handles = (0..workers.max(1))
            .map(|_| {
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                let out = Arc::clone(&out);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait_open();
                    while let Some(job) = queue.pop() {
                        service.stages.queue_depth.dec();
                        service.stages.admission_wait_ns.observe_since(job.admitted);
                        let response = service.answer_line(&job.line);
                        out.insert(job.seq, response);
                    }
                })
            })
            .collect();
        Self {
            service,
            queue,
            out,
            gate,
            handles,
            seq: 0,
        }
    }

    /// Opens the worker gate (idempotent).
    pub fn start(&self) {
        self.gate.open();
    }

    /// Submits one request line: admitted to the queue, or — when the
    /// queue is at capacity — shed on the spot with a retriable error
    /// response in the request's output slot.
    pub fn submit(&mut self, line: &str) {
        let seq = self.seq;
        self.seq += 1;
        self.out.note_submission();
        let job = Job {
            seq,
            line: line.to_owned(),
            admitted: Instant::now(),
        };
        match self.queue.try_push(job) {
            Ok(()) => self.service.stages.queue_depth.inc(),
            Err(job) => {
                self.service.counters.shed.inc();
                let id = Json::parse(&job.line)
                    .ok()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Json::Null);
                self.out.insert(
                    job.seq,
                    error_response(&id, true, "service overloaded: admission queue full, retry"),
                );
            }
        }
    }

    /// Answers a line that cannot be a request (over-long, or not UTF-8)
    /// in its own output slot without admitting it: `id` null and not
    /// retriable, since resending the same bytes cannot succeed.
    fn reject(&mut self, cause: &str) {
        let seq = self.seq;
        self.seq += 1;
        self.out.note_submission();
        self.service.counters.requests.inc();
        self.out
            .insert(seq, error_response(&Json::Null, false, cause));
    }

    /// Opens the gate (if still closed), stops admissions, joins the
    /// workers and seals the reorder buffer — without consuming any
    /// responses, so a concurrent drainer (the [`serve_lines`] writer
    /// thread) receives every one. Popping here instead would race that
    /// thread for the responses and silently drop whatever it won.
    fn shutdown(&mut self) {
        self.start();
        self.queue.close();
        for handle in self.handles.drain(..) {
            handle.join().expect("serve worker");
        }
        self.out.seal();
    }

    /// Finishes the session: opens the gate (if still closed), stops
    /// admissions, drains the workers and returns every response in
    /// submission order.
    #[must_use]
    pub fn finish(mut self) -> Vec<String> {
        self.shutdown();
        let mut responses = Vec::new();
        while let Some(response) = self.out.pop_next() {
            responses.push(response);
        }
        responses
    }
}

/// Longest request line read, in bytes (line terminator excluded). A
/// longer line is answered with an error and skipped up to its newline,
/// so no line can make the reader buffer without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads the next request line (the last one may lack its newline),
/// buffering at most [`MAX_LINE_BYTES`]. `Ok(None)` at end of input;
/// `Ok(Some(Err(cause)))` for a line that cannot be a request, whose
/// remaining bytes have been consumed so the next read starts on the
/// following line.
fn read_request_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
) -> io::Result<Option<Result<String, &'static str>>> {
    buf.clear();
    let mut overlong = false;
    let mut read_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !read_any {
                return Ok(None);
            }
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let content = &chunk[..newline.unwrap_or(chunk.len())];
        if !overlong {
            overlong = buf.len() + content.len() > MAX_LINE_BYTES;
            if overlong {
                buf.clear();
            } else {
                buf.extend_from_slice(content);
            }
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            // Strip the `\r` of a CRLF terminator, as `BufRead::lines` does.
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            break;
        }
    }
    if overlong {
        return Ok(Some(Err("request line longer than 65536 bytes")));
    }
    Ok(Some(match std::str::from_utf8(buf) {
        Ok(line) => Ok(line.to_owned()),
        Err(_) => Err("request line is not valid UTF-8"),
    }))
}

/// Serves a line-delimited session: requests read from `reader`, ordered
/// responses written (and flushed) to `writer` as they become available.
/// Returns at end of input, after every admitted request is answered.
///
/// A line longer than 64 KiB or not valid UTF-8 gets one error response
/// in its own slot, and the session goes on with the next line.
///
/// # Errors
///
/// Returns the first reader/writer I/O error.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    service: &Arc<Service>,
    mut reader: R,
    mut writer: W,
    workers: usize,
    queue_cap: usize,
) -> io::Result<()> {
    let mut frontend = Frontend::new(Arc::clone(service), workers, queue_cap);
    frontend.start();
    let out = Arc::clone(&frontend.out);
    let respond_ns = Arc::clone(service);
    std::thread::scope(|scope| {
        let writer_handle = scope.spawn(move || -> io::Result<()> {
            while let Some(response) = out.pop_next() {
                let write_started = Instant::now();
                writeln!(writer, "{response}")?;
                writer.flush()?;
                respond_ns.stages.respond_ns.observe_since(write_started);
            }
            Ok(())
        });
        let mut read_error = None;
        let mut buf = Vec::new();
        loop {
            match read_request_line(&mut reader, &mut buf) {
                Ok(None) => break,
                Ok(Some(Ok(line))) => {
                    if !line.trim().is_empty() {
                        frontend.submit(&line);
                    }
                }
                Ok(Some(Err(cause))) => frontend.reject(cause),
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
        }
        frontend.shutdown();
        let write_result = writer_handle.join().expect("serve writer");
        match read_error {
            Some(e) => Err(e),
            None => write_result,
        }
    })
}

/// Serves connections on a Unix domain socket, one session thread per
/// connection, forever. Intended for the `isa-serve --socket` daemon
/// mode; tests and CI drive stdin instead.
///
/// # Errors
///
/// Returns the bind error; per-connection errors are logged and do not
/// stop the accept loop.
#[cfg(unix)]
pub fn serve_unix(
    service: &Arc<Service>,
    path: &std::path::Path,
    workers: usize,
    queue_cap: usize,
) -> io::Result<()> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let service = Arc::clone(service);
                let peer = stream.try_clone();
                std::thread::spawn(move || {
                    let result = match peer {
                        Ok(read_half) => serve_lines(
                            &service,
                            io::BufReader::new(read_half),
                            stream,
                            workers,
                            queue_cap,
                        ),
                        Err(e) => Err(e),
                    };
                    if let Err(e) = result {
                        service.log(&format!("connection error: {e}"));
                    }
                });
            }
            Err(e) => {
                service.log(&format!("accept error: {e}"));
            }
        }
    }
    Ok(())
}
