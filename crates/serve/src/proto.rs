//! The line-delimited JSON request/response protocol.
//!
//! One request per line in, one response per line out. Requests carry an
//! optional `id` (any JSON value) that is echoed verbatim in the
//! response, so clients can correlate over the ordered stream.
//!
//! ## Requests
//!
//! ```text
//! {"op":"quality","id":1,"design":"(8,1,1,4)","cpr":0.10,
//!  "workload":"uniform","cycles":10000}
//! {"op":"quality","id":2,"design":"(8,1,1,4)","cpr":0.10,
//!  "workload":"fir","scale":1}
//! {"op":"cheapest","id":3,"min_quality_db":30,"cpr":0.10,
//!  "workload":"uniform","cycles":10000}
//! {"op":"stats","id":4}
//! {"op":"metrics","id":5}
//! {"op":"ping","id":6}
//! ```
//!
//! Stream workloads (`uniform`, `walk`, `sine`, `accumulate`) take
//! `cycles` (default 10000); kernel workloads (`fir`, `conv2d-blur`,
//! `conv2d-sobel`, `dot`, `histogram`) take `scale` (default 1).
//!
//! ## Responses
//!
//! ```text
//! {"id":1,"status":"ok","degraded":false,"result":{...}}
//! {"id":9,"status":"error","retriable":true,"error":"..."}
//! ```
//!
//! `degraded:true` marks an answer computed from the exact analytical
//! structural bound instead of gate-level simulation (over budget); the
//! result then excludes timing error entirely and its quality figure is
//! the structural ceiling. Degraded answers are never persisted.
//!
//! ## Canonical keys
//!
//! Every evaluation query maps to a single-line canonical key that folds
//! in **all** determinism-relevant configuration (design, cpr bits,
//! workload, cycles/scale, safe period bits, variation sigma bits, both
//! seeds, gate-level path). Identical keys coalesce in flight and
//! share one store record; float fields are keyed by their exact bit
//! patterns so "the same query" means bit-identical configuration.

use std::str::FromStr;

use isa_apps::kernels::KERNEL_NAMES;
use isa_core::{Design, IsaConfig};
use isa_engine::{ExperimentConfig, GATE_BACKEND_LABEL};
use isa_obs::Json;
use isa_workloads::STREAM_NAMES;

/// What a quality query evaluates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSel {
    /// A named operand stream of `cycles` pairs.
    Stream {
        /// One of [`STREAM_NAMES`].
        name: String,
        /// Stream length in cycles.
        cycles: u64,
    },
    /// A named application kernel at a size scale.
    Kernel {
        /// One of [`KERNEL_NAMES`].
        name: String,
        /// Kernel size multiplier (1 = the standard size).
        scale: u64,
    },
}

impl WorkloadSel {
    /// The workload's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            WorkloadSel::Stream { name, .. } | WorkloadSel::Kernel { name, .. } => name,
        }
    }

    /// The canonical-key fragment for this workload.
    #[must_use]
    pub fn key_fragment(&self) -> String {
        match self {
            WorkloadSel::Stream { name, cycles } => format!("workload={name} cycles={cycles}"),
            WorkloadSel::Kernel { name, scale } => format!("kernel={name} scale={scale}"),
        }
    }
}

/// A parsed quality query.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityQuery {
    /// The design under evaluation.
    pub design: Design,
    /// Clock-period reduction (0.0 = safe clock).
    pub cpr: f64,
    /// The workload.
    pub workload: WorkloadSel,
}

/// A parsed cheapest-design query (the Pareto question: the minimum-area
/// paper design meeting a quality floor at a clock).
#[derive(Debug, Clone, PartialEq)]
pub struct CheapestQuery {
    /// The quality floor in dB.
    pub min_quality_db: f64,
    /// Clock-period reduction every candidate is evaluated at.
    pub cpr: f64,
    /// The workload candidates are scored on.
    pub workload: WorkloadSel,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one (design, cpr, workload) point.
    Quality(QualityQuery),
    /// Find the cheapest paper design meeting a quality floor.
    Cheapest(CheapestQuery),
    /// Service counters (non-deterministic; never stored).
    Stats,
    /// Full metric-registry snapshot — counters, gauges and latency
    /// histograms — merged across the service and the process-global
    /// registry (non-deterministic; never stored).
    Metrics,
    /// Liveness probe.
    Ping,
}

/// A request plus its echoed correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The client's `id`, echoed verbatim (absent → `null`).
    pub id: Json,
    /// The request proper.
    pub request: Request,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns `(id, message)` — the id (if one could be recovered) plus a
/// human-readable parse error, so the caller can still address the error
/// response.
pub fn parse_request(line: &str) -> Result<Envelope, (Json, String)> {
    let value = Json::parse(line).map_err(|e| (Json::Null, format!("bad JSON: {e}")))?;
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    let fail = |msg: String| (id.clone(), msg);
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing \"op\"".to_owned()))?;
    let request = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "quality" => {
            let design = parse_design(&value).map_err(&fail)?;
            let cpr = parse_cpr(&value).map_err(&fail)?;
            let workload = parse_workload(&value).map_err(&fail)?;
            Request::Quality(QualityQuery {
                design,
                cpr,
                workload,
            })
        }
        "cheapest" => {
            let min_quality_db = value
                .get("min_quality_db")
                .and_then(Json::as_f64)
                .ok_or_else(|| fail("missing numeric \"min_quality_db\"".to_owned()))?;
            let cpr = parse_cpr(&value).map_err(&fail)?;
            let workload = parse_workload(&value).map_err(&fail)?;
            Request::Cheapest(CheapestQuery {
                min_quality_db,
                cpr,
                workload,
            })
        }
        other => return Err(fail(format!("unknown op {other:?}"))),
    };
    Ok(Envelope { id, request })
}

fn parse_design(value: &Json) -> Result<Design, String> {
    let text = value
        .get("design")
        .and_then(Json::as_str)
        .ok_or("missing string \"design\" (a quadruple like \"(8,1,1,4)\" or \"exact\")")?;
    if text == "exact" {
        return Ok(Design::Exact { width: 32 });
    }
    // Both spellings are accepted — "(8,2,1,4)" and "8,2,1,4" — and fold
    // to the same canonical key, because keys carry the design's Display
    // form, not the request text.
    let canonical;
    let quadruple = if text.starts_with('(') {
        text
    } else {
        canonical = format!("({text})");
        &canonical
    };
    IsaConfig::from_str(quadruple)
        .map(Design::Isa)
        .map_err(|e| format!("bad design {text:?}: {e}"))
}

fn parse_cpr(value: &Json) -> Result<f64, String> {
    let cpr = value
        .get("cpr")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"cpr\"")?;
    if !(0.0..1.0).contains(&cpr) {
        return Err(format!("cpr {cpr} outside [0,1)"));
    }
    Ok(cpr)
}

fn parse_workload(value: &Json) -> Result<WorkloadSel, String> {
    let name = value
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("missing string \"workload\"")?;
    if STREAM_NAMES.contains(&name) {
        let cycles = match value.get("cycles") {
            None => 10_000,
            Some(v) => v
                .as_u64()
                .ok_or("\"cycles\" must be a non-negative integer")?,
        };
        if cycles == 0 {
            return Err("\"cycles\" must be positive".to_owned());
        }
        if cycles > 100_000_000 {
            return Err("\"cycles\" above the 1e8 service limit".to_owned());
        }
        Ok(WorkloadSel::Stream {
            name: name.to_owned(),
            cycles,
        })
    } else if KERNEL_NAMES.contains(&name) {
        let scale = match value.get("scale") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or("\"scale\" must be a non-negative integer")?,
        };
        if !(1..=64).contains(&scale) {
            return Err("\"scale\" must be in 1..=64".to_owned());
        }
        Ok(WorkloadSel::Kernel {
            name: name.to_owned(),
            scale,
        })
    } else {
        Err(format!(
            "unknown workload {name:?} (streams: {STREAM_NAMES:?}; kernels: {KERNEL_NAMES:?})"
        ))
    }
}

/// The configuration fragment shared by every canonical key: all fields
/// of [`ExperimentConfig`] that influence an answer, floats by bit
/// pattern. The trailing `backend=filtered tape=true` names the one
/// gate-level path; it stays in the key so stores written when the
/// simulation engine was selectable keep hitting.
#[must_use]
pub fn config_key_fragment(config: &ExperimentConfig) -> String {
    format!(
        "period={:016x} sigma={:016x} vseed={:016x} wseed={:016x} backend={GATE_BACKEND_LABEL} tape=true",
        config.period_ps.to_bits(),
        config.variation_sigma.to_bits(),
        config.variation_seed,
        config.workload_seed,
    )
}

/// The canonical key of a quality query under a configuration.
#[must_use]
pub fn quality_key(query: &QualityQuery, config: &ExperimentConfig) -> String {
    format!(
        "quality/v1 design={} cpr={:016x} {} {}",
        query.design,
        query.cpr.to_bits(),
        query.workload.key_fragment(),
        config_key_fragment(config)
    )
}

/// The canonical key of a cheapest query under a configuration.
#[must_use]
pub fn cheapest_key(query: &CheapestQuery, config: &ExperimentConfig) -> String {
    format!(
        "cheapest/v1 min_db={:016x} cpr={:016x} {} {}",
        query.min_quality_db.to_bits(),
        query.cpr.to_bits(),
        query.workload.key_fragment(),
        config_key_fragment(config)
    )
}

/// Renders a success response line (no trailing newline).
#[must_use]
pub fn ok_response(id: &Json, degraded: bool, result_payload: &str) -> String {
    let mut out = String::with_capacity(result_payload.len() + 64);
    out.push_str("{\"id\":");
    id.render_into(&mut out);
    out.push_str(",\"status\":\"ok\",\"degraded\":");
    out.push_str(if degraded { "true" } else { "false" });
    out.push_str(",\"result\":");
    out.push_str(result_payload);
    out.push('}');
    out
}

/// Renders an error response line (no trailing newline). `retriable`
/// distinguishes transient conditions (shed load, injected faults,
/// panicked evaluations) from permanent ones (parse errors, infeasible
/// designs).
#[must_use]
pub fn error_response(id: &Json, retriable: bool, message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 64);
    out.push_str("{\"id\":");
    id.render_into(&mut out);
    out.push_str(",\"status\":\"error\",\"retriable\":");
    out.push_str(if retriable { "true" } else { "false" });
    out.push_str(",\"error\":");
    isa_obs::json::escape_into(message, &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stream_quality_request() {
        let env = parse_request(
            r#"{"op":"quality","id":7,"design":"(8,1,1,4)","cpr":0.1,"workload":"uniform","cycles":5000}"#,
        )
        .unwrap();
        assert_eq!(env.id, Json::Num(7.0));
        let Request::Quality(q) = env.request else {
            panic!("wrong op");
        };
        assert_eq!(q.design.to_string(), "(8,1,1,4)");
        assert_eq!(q.cpr, 0.1);
        assert_eq!(
            q.workload,
            WorkloadSel::Stream {
                name: "uniform".to_owned(),
                cycles: 5000
            }
        );
    }

    #[test]
    fn parses_kernel_and_cheapest_requests() {
        let env = parse_request(r#"{"op":"quality","design":"exact","cpr":0.15,"workload":"fir"}"#)
            .unwrap();
        let Request::Quality(q) = env.request else {
            panic!("wrong op");
        };
        assert_eq!(q.design, Design::Exact { width: 32 });
        assert_eq!(
            q.workload,
            WorkloadSel::Kernel {
                name: "fir".to_owned(),
                scale: 1
            }
        );

        let env = parse_request(
            r#"{"op":"cheapest","id":"c1","min_quality_db":30,"cpr":0.1,"workload":"uniform"}"#,
        )
        .unwrap();
        let Request::Cheapest(c) = env.request else {
            panic!("wrong op");
        };
        assert_eq!(c.min_quality_db, 30.0);
        assert_eq!(env.id, Json::Str("c1".to_owned()));
    }

    #[test]
    fn rejects_malformed_requests_with_recovered_id() {
        let cases = [
            (r#"{"id":3}"#, "missing \"op\""),
            (r#"{"op":"quality","id":3}"#, "missing string \"design\""),
            (
                r#"{"op":"quality","id":3,"design":"(9,0,0,0)","cpr":0.1,"workload":"uniform"}"#,
                "bad design",
            ),
            (
                r#"{"op":"quality","id":3,"design":"exact","cpr":1.5,"workload":"uniform"}"#,
                "outside",
            ),
            (
                r#"{"op":"quality","id":3,"design":"exact","cpr":0.1,"workload":"nope"}"#,
                "unknown workload",
            ),
            (
                r#"{"op":"quality","id":3,"design":"exact","cpr":0.1,"workload":"uniform","cycles":0}"#,
                "positive",
            ),
        ];
        for (line, want) in cases {
            let (id, msg) = parse_request(line).unwrap_err();
            assert_eq!(id, Json::Num(3.0), "id recovered for {line}");
            assert!(msg.contains(want), "{line}: {msg}");
        }
    }

    #[test]
    fn keys_fold_in_the_whole_configuration() {
        let config = ExperimentConfig::default();
        let q = QualityQuery {
            design: Design::Exact { width: 32 },
            cpr: 0.1,
            workload: WorkloadSel::Stream {
                name: "uniform".to_owned(),
                cycles: 1000,
            },
        };
        let base = quality_key(&q, &config);
        assert!(!base.contains('\n'));
        let other_seed = ExperimentConfig {
            workload_seed: 1,
            ..config.clone()
        };
        assert_ne!(base, quality_key(&q, &other_seed));
        let other_cpr = QualityQuery {
            cpr: 0.1 + 1e-12,
            ..q.clone()
        };
        assert_ne!(
            base,
            quality_key(&other_cpr, &config),
            "bit-exact cpr keying"
        );
        assert_eq!(base, quality_key(&q.clone(), &config.clone()));
    }

    #[test]
    fn default_key_fragment_matches_existing_stores() {
        // Stores written before the gate-level path became fixed keyed
        // every record with this exact fragment; it must not drift, or
        // every existing store turns cold.
        assert_eq!(
            config_key_fragment(&ExperimentConfig::default()),
            "period=4072c00000000000 sigma=3fa999999999999a vseed=000000000d1e5a3d \
             wseed=000000005eedcafe backend=filtered tape=true"
        );
    }

    #[test]
    fn response_rendering_is_exact() {
        assert_eq!(
            ok_response(&Json::Num(1.0), false, "{\"x\":1}"),
            r#"{"id":1,"status":"ok","degraded":false,"result":{"x":1}}"#
        );
        assert_eq!(
            error_response(&Json::Null, true, "queue full"),
            r#"{"id":null,"status":"error","retriable":true,"error":"queue full"}"#
        );
    }
}
