//! Metric export: Prometheus-style text exposition (render + strict
//! parse + atomic file write), a signal-free periodic flusher, and the
//! JSON form served by the `metrics` op.
//!
//! Metric names mangle as `serve.request_ns` → `isa_serve_request_ns`
//! (an `isa_` prefix, separators to underscores). Histograms expose the
//! conventional cumulative `_bucket{le="…"}` series plus `_sum` and
//! `_count`; bucket edges are the registry's log₂ edges in nanoseconds.
//!
//! [`parse`] is deliberately strict — it is the schema check that
//! `isa-serve`'s metrics test runs on a written exposition file: unknown
//! line shapes, samples without a `# TYPE`, non-cumulative buckets, or a
//! `+Inf` bucket disagreeing with `_count` are all errors.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{bucket_upper_edge, HistogramSnapshot, Snapshot};

/// Mangles a registry metric name into an exposition name.
#[must_use]
pub fn exposition_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("isa_");
    for c in name.chars() {
        out.push(match c {
            '.' | '-' => '_',
            c => c,
        });
    }
    out
}

/// Renders a snapshot as Prometheus-style text exposition.
#[must_use]
pub fn render(snapshot: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = exposition_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = exposition_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let name = exposition_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, count) in hist.buckets.iter().enumerate() {
            cumulative += count;
            match bucket_upper_edge(i) {
                Some(edge) => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{edge}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
    out
}

/// One parsed histogram from an exposition file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParsedHistogram {
    /// `(upper_edge, cumulative_count)` pairs in file order; the last
    /// edge is `+Inf` (`f64::INFINITY`).
    pub buckets: Vec<(f64, f64)>,
    /// The `_sum` sample.
    pub sum: f64,
    /// The `_count` sample.
    pub count: f64,
}

/// A parsed, validated exposition file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exposition {
    /// Counter samples by exposition name.
    pub counters: BTreeMap<String, f64>,
    /// Gauge samples by exposition name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram series by exposition base name.
    pub histograms: BTreeMap<String, ParsedHistogram>,
}

fn valid_exposition_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_sample_value(text: &str, line_no: usize) -> Result<f64, String> {
    let value: f64 = text
        .parse()
        .map_err(|_| format!("line {line_no}: invalid sample value {text:?}"))?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(format!("line {line_no}: non-finite sample value {text:?}"))
    }
}

/// Parses and validates a text exposition produced by [`render`].
///
/// # Errors
///
/// Returns a message naming the first offending line for malformed
/// lines, samples missing a `# TYPE`, histograms with non-cumulative or
/// unordered buckets, or a `+Inf` bucket disagreeing with `_count`.
#[allow(clippy::too_many_lines)]
pub fn parse(text: &str) -> Result<Exposition, String> {
    #[derive(Default)]
    struct RawHistogram {
        buckets: Vec<(f64, f64)>,
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut counters = BTreeMap::new();
    let mut gauges = BTreeMap::new();
    let mut raw_hists: BTreeMap<String, RawHistogram> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if words.next() != Some("TYPE") {
                return Err(format!(
                    "line {line_no}: only '# TYPE' comments are emitted"
                ));
            }
            let name = words
                .next()
                .ok_or(format!("line {line_no}: TYPE without a metric name"))?;
            let kind = words
                .next()
                .ok_or(format!("line {line_no}: TYPE without a kind"))?;
            if words.next().is_some() {
                return Err(format!("line {line_no}: trailing words after TYPE"));
            }
            if !valid_exposition_name(name) {
                return Err(format!("line {line_no}: invalid metric name {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {line_no}: unknown metric kind {kind:?}"));
            }
            if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                return Err(format!("line {line_no}: duplicate TYPE for {name}"));
            }
            continue;
        }

        // A sample: `name value` or `name_bucket{le="edge"} value`.
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or(format!("line {line_no}: malformed sample line"))?;
        let value = parse_sample_value(value_part, line_no)?;
        if let Some((name, labels)) = name_part.split_once('{') {
            let base = name
                .strip_suffix("_bucket")
                .ok_or(format!("line {line_no}: labels on a non-bucket sample"))?;
            let edge_text = labels
                .strip_prefix("le=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
                .ok_or(format!("line {line_no}: malformed bucket labels"))?;
            let edge = if edge_text == "+Inf" {
                f64::INFINITY
            } else {
                edge_text
                    .parse::<f64>()
                    .map_err(|_| format!("line {line_no}: bad bucket edge {edge_text:?}"))?
            };
            if types.get(base).map(String::as_str) != Some("histogram") {
                return Err(format!(
                    "line {line_no}: bucket sample for non-histogram {base:?}"
                ));
            }
            if value < 0.0 {
                return Err(format!("line {line_no}: negative bucket count"));
            }
            raw_hists
                .entry(base.to_owned())
                .or_default()
                .buckets
                .push((edge, value));
            continue;
        }
        if !valid_exposition_name(name_part) {
            return Err(format!("line {line_no}: invalid metric name {name_part:?}"));
        }
        if let Some(base) = name_part.strip_suffix("_sum") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                let slot = &mut raw_hists.entry(base.to_owned()).or_default().sum;
                if slot.replace(value).is_some() {
                    return Err(format!("line {line_no}: duplicate _sum for {base}"));
                }
                continue;
            }
        }
        if let Some(base) = name_part.strip_suffix("_count") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                let slot = &mut raw_hists.entry(base.to_owned()).or_default().count;
                if slot.replace(value).is_some() {
                    return Err(format!("line {line_no}: duplicate _count for {base}"));
                }
                continue;
            }
        }
        match types.get(name_part).map(String::as_str) {
            Some("counter") => {
                if value < 0.0 {
                    return Err(format!("line {line_no}: negative counter {name_part}"));
                }
                if counters.insert(name_part.to_owned(), value).is_some() {
                    return Err(format!("line {line_no}: duplicate sample for {name_part}"));
                }
            }
            Some("gauge") => {
                if gauges.insert(name_part.to_owned(), value).is_some() {
                    return Err(format!("line {line_no}: duplicate sample for {name_part}"));
                }
            }
            Some(kind) => {
                return Err(format!(
                    "line {line_no}: bare sample for {kind} metric {name_part}"
                ));
            }
            None => {
                return Err(format!(
                    "line {line_no}: sample without a TYPE: {name_part}"
                ));
            }
        }
    }

    let mut histograms = BTreeMap::new();
    for (base, raw) in raw_hists {
        let sum = raw.sum.ok_or(format!("histogram {base} missing _sum"))?;
        let count = raw
            .count
            .ok_or(format!("histogram {base} missing _count"))?;
        if raw.buckets.is_empty() {
            return Err(format!("histogram {base} has no buckets"));
        }
        let mut prev_edge = f64::NEG_INFINITY;
        let mut prev_count = 0.0f64;
        for &(edge, cumulative) in &raw.buckets {
            if edge <= prev_edge {
                return Err(format!("histogram {base}: bucket edges not increasing"));
            }
            if cumulative < prev_count {
                return Err(format!("histogram {base}: bucket counts not cumulative"));
            }
            prev_edge = edge;
            prev_count = cumulative;
        }
        let (last_edge, last_count) = *raw.buckets.last().expect("non-empty");
        if last_edge != f64::INFINITY {
            return Err(format!("histogram {base}: missing +Inf bucket"));
        }
        if last_count != count {
            return Err(format!(
                "histogram {base}: +Inf bucket {last_count} != _count {count}"
            ));
        }
        histograms.insert(
            base,
            ParsedHistogram {
                buckets: raw.buckets,
                sum,
                count,
            },
        );
    }
    // Every declared metric must have appeared.
    for (name, kind) in &types {
        let present = match kind.as_str() {
            "counter" => counters.contains_key(name),
            "gauge" => gauges.contains_key(name),
            _ => histograms.contains_key(name),
        };
        if !present {
            return Err(format!("declared {kind} {name} has no samples"));
        }
    }
    Ok(Exposition {
        counters,
        gauges,
        histograms,
    })
}

/// Writes `contents` to `path` atomically, so readers never observe a
/// torn file: the bytes go to a temp file beside the target (named per
/// call from the process id and a process-wide counter, so concurrent
/// writers never share one), are synced, and the temp file is renamed
/// over `path`. On any failure the temp file is removed.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(contents)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// The JSON form of a snapshot (the `metrics` serve op). Histograms
/// carry their derived `count`, approximate `sum`, and the non-empty
/// buckets as `[upper_edge_ns | "inf", count]` pairs.
#[must_use]
pub fn snapshot_json(snapshot: &Snapshot) -> Json {
    let hist_json = |h: &HistogramSnapshot| {
        let buckets: Vec<Json> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, count)| *count > 0)
            .map(|(i, &count)| {
                let edge = bucket_upper_edge(i)
                    .map_or(Json::Str("inf".to_owned()), |e| Json::Num(e as f64));
                Json::Arr(vec![edge, Json::Num(count as f64)])
            })
            .collect();
        Json::Obj(vec![
            ("count".to_owned(), Json::Num(h.count() as f64)),
            ("sum_ns".to_owned(), Json::Num(h.sum as f64)),
            ("buckets".to_owned(), Json::Arr(buckets)),
        ])
    };
    Json::Obj(vec![
        (
            "counters".to_owned(),
            Json::Obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "gauges".to_owned(),
            Json::Obj(
                snapshot
                    .gauges
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_owned(),
            Json::Obj(
                snapshot
                    .histograms
                    .iter()
                    .map(|(name, h)| (name.clone(), hist_json(h)))
                    .collect(),
            ),
        ),
    ])
}

/// A background thread re-rendering and atomically rewriting an
/// exposition file on a fixed period — the signal-free alternative to
/// SIGUSR1-style dump triggers. Dropping the flusher performs one final
/// write and joins the thread.
pub struct Flusher {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Flusher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flusher").finish_non_exhaustive()
    }
}

impl Flusher {
    /// Spawns the flusher: writes `produce()` to `path` immediately,
    /// then every `period` until dropped. Write errors are ignored
    /// (metrics are best-effort by design; they must never take the
    /// service down).
    #[must_use]
    pub fn spawn(
        path: PathBuf,
        period: Duration,
        produce: impl Fn() -> String + Send + 'static,
    ) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (lock, bell) = &*shared;
            loop {
                let _ = write_atomic(&path, produce().as_bytes());
                let deadline = Instant::now() + period;
                let mut stopped = lock.lock().expect("flusher lock");
                loop {
                    if *stopped {
                        let _ = write_atomic(&path, produce().as_bytes());
                        return;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = bell
                        .wait_timeout(stopped, deadline - now)
                        .expect("flusher lock");
                    stopped = guard;
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        let (lock, bell) = &*self.stop;
        *lock.lock().expect("flusher lock") = true;
        bell.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("serve.requests").add(12);
        reg.gauge("serve.queue_depth").set(-2);
        let h = reg.histogram("serve.request_ns");
        h.observe(0);
        h.observe(900);
        h.observe(u64::MAX);
        reg
    }

    #[test]
    fn render_parse_round_trip() {
        let text = render(&sample_registry().snapshot());
        let parsed = parse(&text).expect("own exposition must validate");
        assert_eq!(parsed.counters.get("isa_serve_requests"), Some(&12.0));
        assert_eq!(parsed.gauges.get("isa_serve_queue_depth"), Some(&-2.0));
        let h = parsed.histograms.get("isa_serve_request_ns").unwrap();
        assert_eq!(h.count, 3.0);
        assert_eq!(h.buckets.last(), Some(&(f64::INFINITY, 3.0)));
    }

    #[test]
    fn tampered_expositions_are_rejected() {
        let text = render(&sample_registry().snapshot());
        // A sample with no TYPE.
        assert!(parse("orphan 3\n").is_err());
        // Break cumulativity: raise the first cumulative bucket above
        // its successor (1,1,… becomes 2,1,…).
        let broken = text.replacen("\"} 1\n", "\"} 2\n", 1);
        assert_ne!(broken, text, "expected a cumulative-1 bucket line");
        assert!(parse(&broken).is_err(), "non-cumulative buckets accepted");
        // +Inf bucket disagreeing with _count.
        let broken = text.replace("_count 3", "_count 4");
        assert!(parse(&broken).is_err(), "count mismatch accepted");
        // A negative counter.
        let broken = text.replace("isa_serve_requests 12", "isa_serve_requests -1");
        assert!(parse(&broken).is_err(), "negative counter accepted");
        // An unknown comment shape.
        assert!(parse("# HELP x y\n").is_err());
    }

    #[test]
    fn atomic_write_replaces_the_file() {
        let path = std::env::temp_dir().join(format!(
            "isa-obs-export-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        write_atomic(&path, b"first\n").unwrap();
        write_atomic(&path, b"second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_atomic_write_leaves_no_temp_file() {
        let parent = std::env::temp_dir().join(format!(
            "isa-obs-export-dir-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let target = parent.join("target");
        std::fs::create_dir_all(&target).unwrap();
        // A directory cannot be renamed over by a file.
        assert!(write_atomic(&target, b"x").is_err());
        let left: Vec<_> = std::fs::read_dir(&parent)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["target"]);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn flusher_writes_and_finalizes() {
        let reg = Registry::new();
        let requests = reg.counter("f.requests");
        let path = std::env::temp_dir().join(format!(
            "isa-obs-flusher-{}-{:?}.prom",
            std::process::id(),
            std::thread::current().id()
        ));
        let snap_path = path.clone();
        {
            let flusher = Flusher::spawn(snap_path, Duration::from_secs(3600), move || {
                render(&reg.snapshot())
            });
            // The initial write happens before the first sleep; poll for it.
            let mut seen = false;
            for _ in 0..200 {
                if path.exists() {
                    seen = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(seen, "flusher never performed its initial write");
            requests.add(7);
            drop(flusher); // final write on drop
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse(&text).expect("flusher output validates");
        assert_eq!(parsed.counters.get("isa_f_requests"), Some(&7.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_parseable() {
        let snap = sample_registry().snapshot();
        let rendered = snapshot_json(&snap).render();
        let v = Json::parse(&rendered).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(Json::as_u64),
            Some(12)
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("serve.request_ns"))
            .unwrap();
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(3));
    }
}
