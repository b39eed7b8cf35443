//! `isa-serve`'s usage contract: an unknown flag and a count of 0 are
//! rejected with exit status 2 and an `error:` line before the service
//! starts, never run as a silently substituted 1.

use std::process::{Command, Stdio};

/// Runs `isa-serve` with `args` and stdin closed, asserting exit status 2
/// and a stderr line `error: {expected}`.
fn assert_usage_error(args: &[&str], expected: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_isa-serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run isa-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.lines().any(|l| l == format!("error: {expected}")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn zero_counts_are_usage_errors() {
    for flag in [
        "--threads",
        "--workers",
        "--queue-cap",
        "--artifact-cap",
        "--metrics-period-ms",
    ] {
        assert_usage_error(&[flag, "0"], &format!("{flag}: must be at least 1, got 0"));
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    assert_usage_error(&["--thread", "2"], "unknown flag \"--thread\"");
}
