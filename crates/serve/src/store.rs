//! Content-addressed on-disk store of finished query results.
//!
//! Every finished (non-degraded) answer is persisted as one small record
//! file so repeated traffic is a lookup, not a simulation — across
//! process restarts, not just within one. The store is deliberately
//! paranoid:
//!
//! * **addressing** — the record file name is the FNV-1a 64 hash of the
//!   query's canonical key; the full key is stored *inside* the record
//!   and compared on read, so a hash collision reads as a miss, never as
//!   a wrong answer;
//! * **integrity** — the payload carries its length and its own FNV-1a 64
//!   checksum; any byte flip, truncation or header damage is detected and
//!   reported as [`StoreGet::Corrupt`] (the service logs it, recomputes,
//!   and rewrites — a corrupt record is *never* served);
//! * **atomicity** — writes go to a temp file in the same directory and
//!   are published by `rename`, so a crash mid-write leaves either the
//!   old record or none, not a torn one. (The fault injector can still
//!   plant a torn record on purpose to prove the read side heals.)
//!
//! ## Record format (`isa-serve-store/v1`)
//!
//! ```text
//! isa-serve-store/v1\n
//! key=<canonical query key>\n
//! len=<payload length in bytes>\n
//! fnv=<FNV-1a 64 of payload, 16 hex digits>\n
//! \n
//! <payload bytes>
//! ```
//!
//! The payload is the rendered result JSON (response-envelope free, so
//! the same bytes serve every requester of the same key).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::faults::{FaultPlan, FaultPoint};

/// Outcome of a store lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreGet {
    /// A validated record: the stored payload.
    Hit(String),
    /// No record for this key.
    Miss,
    /// A record exists but failed validation (reason attached); the
    /// caller must recompute and overwrite.
    Corrupt(String),
}

/// The on-disk result store rooted at one directory.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The record path for a canonical key.
    #[must_use]
    pub fn record_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.rec", fnv1a64(key.as_bytes())))
    }

    /// Looks up a key, validating the record end to end.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error for anything other than
    /// not-found (injected store-read faults surface here too).
    pub fn get(&self, key: &str, faults: &FaultPlan) -> io::Result<StoreGet> {
        if faults.fires(FaultPoint::StoreRead) {
            return Err(io::Error::other("injected store read fault"));
        }
        let path = self.record_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(StoreGet::Miss),
            Err(e) => return Err(e),
        };
        Ok(validate_record(&bytes, key))
    }

    /// Persists a payload under a key via temp-file + rename.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (injected store-write faults
    /// surface here too). An injected torn write *succeeds* from the
    /// caller's point of view but leaves a truncated record, modelling a
    /// filesystem that lied about durability; the read side detects it.
    pub fn put(&self, key: &str, payload: &str, faults: &FaultPlan) -> io::Result<()> {
        if faults.fires(FaultPoint::StoreWrite) {
            return Err(io::Error::other("injected store write fault"));
        }
        let record = encode_record(key, payload);
        let len = if faults.fires(FaultPoint::TornWrite) {
            faults.torn_len(record.len())
        } else {
            record.len()
        };
        isa_obs::export::write_atomic(&self.record_path(key), &record.as_bytes()[..len])
    }

    /// Number of record files currently on disk (diagnostics only).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory is unreadable.
    pub fn record_count(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "rec") {
                n += 1;
            }
        }
        Ok(n)
    }
}

/// Encodes one record (see the module docs for the format).
#[must_use]
pub fn encode_record(key: &str, payload: &str) -> String {
    assert!(
        !key.contains('\n'),
        "canonical keys are single-line by construction"
    );
    format!(
        "isa-serve-store/v1\nkey={key}\nlen={}\nfnv={:016x}\n\n{payload}",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
}

/// Validates raw record bytes against the expected key.
#[must_use]
pub fn validate_record(bytes: &[u8], key: &str) -> StoreGet {
    let corrupt = |reason: &str| StoreGet::Corrupt(reason.to_owned());
    let Ok(text) = std::str::from_utf8(bytes) else {
        return corrupt("record is not UTF-8");
    };
    let Some(rest) = text.strip_prefix("isa-serve-store/v1\n") else {
        return corrupt("bad magic");
    };
    let Some((key_line, rest)) = rest.split_once('\n') else {
        return corrupt("truncated header (key)");
    };
    let Some(stored_key) = key_line.strip_prefix("key=") else {
        return corrupt("malformed key line");
    };
    if stored_key != key {
        return corrupt("key mismatch (hash collision or corruption)");
    }
    let Some((len_line, rest)) = rest.split_once('\n') else {
        return corrupt("truncated header (len)");
    };
    let Some(len) = len_line
        .strip_prefix("len=")
        .and_then(|v| v.parse::<usize>().ok())
    else {
        return corrupt("malformed len line");
    };
    let Some((fnv_line, rest)) = rest.split_once('\n') else {
        return corrupt("truncated header (fnv)");
    };
    let Some(expect_fnv) = fnv_line
        .strip_prefix("fnv=")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
    else {
        return corrupt("malformed fnv line");
    };
    let Some(payload) = rest.strip_prefix('\n') else {
        return corrupt("missing header/payload separator");
    };
    if payload.len() != len {
        return corrupt("payload length mismatch");
    }
    if fnv1a64(payload.as_bytes()) != expect_fnv {
        return corrupt("payload checksum mismatch");
    }
    StoreGet::Hit(payload.to_owned())
}

/// FNV-1a 64-bit hash (the store's addressing and checksum hash).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "isa-serve-store-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn put_get_round_trips() {
        let dir = temp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let faults = FaultPlan::none();
        assert_eq!(store.get("k1", &faults).unwrap(), StoreGet::Miss);
        store.put("k1", "{\"x\":1}", &faults).unwrap();
        assert_eq!(
            store.get("k1", &faults).unwrap(),
            StoreGet::Hit("{\"x\":1}".to_owned())
        );
        assert_eq!(store.record_count().unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_mismatch_reads_as_corrupt_not_wrong_answer() {
        // Plant a valid record under the *file name* of another key.
        let dir = temp_dir("collision");
        let store = ResultStore::open(&dir).unwrap();
        let record = encode_record("other-key", "payload");
        fs::write(store.record_path("my-key"), record).unwrap();
        match store.get("my-key", &FaultPlan::none()).unwrap() {
            StoreGet::Corrupt(reason) => assert!(reason.contains("key mismatch"), "{reason}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_is_detected_on_read() {
        let dir = temp_dir("torn");
        let store = ResultStore::open(&dir).unwrap();
        let torn = FaultPlan::seeded(11).with_rate(FaultPoint::TornWrite, 256);
        store.put("k", "some payload bytes", &torn).unwrap();
        match store.get("k", &FaultPlan::none()).unwrap() {
            StoreGet::Corrupt(_) | StoreGet::Miss => {}
            StoreGet::Hit(p) => panic!("torn record served: {p:?}"),
        }
        // Healing: a clean rewrite over the torn record is served again.
        store
            .put("k", "some payload bytes", &FaultPlan::none())
            .unwrap();
        assert_eq!(
            store.get("k", &FaultPlan::none()).unwrap(),
            StoreGet::Hit("some payload bytes".to_owned())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_read_fault_is_an_io_error() {
        let dir = temp_dir("readfault");
        let store = ResultStore::open(&dir).unwrap();
        let faults = FaultPlan::seeded(1).with_rate(FaultPoint::StoreRead, 256);
        assert!(store.get("k", &faults).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
