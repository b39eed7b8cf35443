//! The measured child process: one cold run of one workload, reported as
//! a single JSON line on stdout.
//!
//! Every rep runs in a fresh process so caches start cold, as users pay
//! them. The parent aggregates the reports.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use isa_obs::profile::{fold, parse_trace, SpanEvent};
use isa_obs::Json;

/// What one child run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// CPU seconds of the set-up.
    pub setup_s: f64,
    /// CPU seconds of the fixed work after set-up.
    pub cpu_s: f64,
    /// Wall seconds of the same work.
    pub wall_s: f64,
    /// Wall seconds from the end of the work to the report (traced
    /// figures runs), so the parent can subtract them from the process
    /// lifetime it measures.
    pub tail_s: f64,
    pub peak_rss_mb: f64,
    /// Digest of the workload's outputs; must repeat for a seed.
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (messages).
    pub problems: Vec<String>,
    /// Named per-layer figures (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// When the work ended; sets `tail_s` just before the report prints.
    pub work_end: Option<Instant>,
}

impl Report {
    #[must_use]
    pub fn to_json(&self) -> Json {
        let num = |v: f64| Json::Num(v);
        Json::Obj(vec![
            ("setup_s".into(), num(self.setup_s)),
            ("cpu_s".into(), num(self.cpu_s)),
            ("wall_s".into(), num(self.wall_s)),
            ("tail_s".into(), num(self.tail_s)),
            ("peak_rss_mb".into(), num(self.peak_rss_mb)),
            ("digest".into(), Json::Str(self.digest.clone())),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            (
                "problems".into(),
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "layers".into(),
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report line written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a complete report.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = Json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("child report lacks {k:?}"))
        };
        let problems = match v.get("problems") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|p| p.as_str().map(str::to_owned))
                .collect(),
            _ => return Err("child report lacks \"problems\"".into()),
        };
        let layers = match v.get("layers") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => return Err("child report lacks \"layers\"".into()),
        };
        Ok(Self {
            setup_s: num("setup_s")?,
            cpu_s: num("cpu_s")?,
            wall_s: num("wall_s")?,
            tail_s: num("tail_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            digest: v
                .get("digest")
                .and_then(Json::as_str)
                .ok_or("child report lacks \"digest\"")?
                .to_owned(),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            problems,
            layers,
            work_end: None,
        })
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, over every thread, living or exited) of
/// process `pid`, or of this process for `None`, in seconds.
///
/// Unlike wall time, CPU time leaves out the time the process waits for
/// the CPU or for I/O, so the timed metrics count CPU seconds.
///
/// # Errors
///
/// Returns a message when the process's CPU clock cannot be read.
pub fn cpu_s(pid: Option<u32>) -> Result<f64, String> {
    let mut clock = CLOCK_PROCESS_CPUTIME_ID;
    if let Some(pid) = pid {
        let pid = i32::try_from(pid).map_err(|e| format!("pid {pid}: {e}"))?;
        // SAFETY: `clock` is a valid out-pointer for the call.
        if unsafe { clock_getcpuclockid(pid, &mut clock) } != 0 {
            return Err(format!("no CPU clock for process {pid}"));
        }
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, properly aligned out-pointer for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err("cannot read a CPU clock".into());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds `f` takes in this process: (seconds, result).
pub fn cpu_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = cpu_s(None).expect("own CPU clock");
    let out = std::hint::black_box(f());
    (cpu_s(None).expect("own CPU clock") - t, out)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/<pid>/status` is unreadable.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Installs a JSONL span sink at `path` for the benchmark's own spans
/// (and the program's, where it has them).
pub fn start_trace(path: &Path) {
    isa_obs::trace::install_file(path).expect("create trace file");
}

/// Stops tracing and reads back the span events written to `path`. A
/// torn final line (a killed writer) is dropped.
#[must_use]
pub fn read_trace(path: &Path) -> Vec<SpanEvent> {
    isa_obs::trace::uninstall();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let complete = match text.rfind('\n') {
        Some(end) => &text[..=end],
        None => "",
    };
    parse_trace(complete).unwrap_or_default()
}

/// Total time of every span name, in seconds.
#[must_use]
pub fn span_totals_s(events: &[SpanEvent]) -> BTreeMap<String, f64> {
    fold(events)
        .into_iter()
        .map(|row| (row.name, row.total_us as f64 / 1e6))
        .collect()
}

/// Durations (ms) of every span called `name`.
#[must_use]
pub fn span_durations_ms(events: &[SpanEvent], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.dur_us as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (spent, _) = cpu_once(|| (0..2_000_000u64).map(|x| x ^ (x >> 3)).sum::<u64>());
        assert!(spent > 0.0);
        let mut child = std::process::Command::new("sleep")
            .arg("1")
            .spawn()
            .unwrap();
        let theirs = cpu_s(Some(child.id()));
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(theirs.unwrap() < 0.5);
    }

    fn event(name: &str, id: u64, parent: Option<u64>, dur_us: u64) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            id,
            parent,
            thread: 1,
            start_us: 0,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = [
            event("stage", 1, None, 1000),
            event("engine.run", 2, Some(1), 600),
            event("engine.cache.build", 3, Some(2), 250),
            event("stage", 4, None, 500),
        ];
        let total = span_totals_s(&events);
        assert!((total["stage"] - 1500e-6).abs() < 1e-12);
        let own: BTreeMap<String, u64> = fold(&events)
            .into_iter()
            .map(|r| (r.name, r.self_us))
            .collect();
        assert_eq!(own["stage"], 900);
        assert_eq!(own["engine.run"], 350);
        assert_eq!(own["engine.cache.build"], 250);
        assert_eq!(span_durations_ms(&events, "stage"), vec![1.0, 0.5]);
    }

    #[test]
    fn torn_trace_tail_is_dropped() {
        let dir = std::env::temp_dir().join(format!("isa-ledger-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"thread\":1,\"start_us\":0,\"dur_us\":5}\n{\"kind\":\"sp",
        )
        .unwrap();
        let events = read_trace(&path);
        assert_eq!(events.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_round_trips() {
        let mut r = Report {
            setup_s: 0.25,
            cpu_s: 4.25,
            wall_s: 4.5,
            tail_s: 0.5,
            peak_rss_mb: 80.5,
            digest: "abc".into(),
            attempted: 9,
            failed: 1,
            problems: vec!["x".into()],
            layers: BTreeMap::new(),
            work_end: None,
        };
        r.layers.insert("k".into(), 1.5);
        let back = Report::parse(&r.to_json().render()).unwrap();
        assert_eq!(back.digest, "abc");
        assert_eq!(back.layers["k"], 1.5);
        assert_eq!((back.cpu_s, back.tail_s), (4.25, 0.5));
        assert_eq!(back.failed, 1);
        assert_eq!(back.problems, vec!["x".to_owned()]);
    }
}
