//! The experiment binaries' usage contract: an unknown flag or name and an
//! out-of-range value are rejected with exit status 2 and an
//! `error: --flag` line before any work, never a panic or a silently
//! substituted default.

use std::process::Command;

/// Runs `bin` with `args`, asserting exit status 2 and a stderr line
/// starting with `error: {flag}`.
fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with(&format!("error: {flag}"))),
        "{args:?}: {stderr}"
    );
}

#[test]
fn unknown_names_are_usage_errors() {
    for flag in ["--space", "--strategy", "--workload", "--kernel"] {
        assert_usage_error(env!("CARGO_BIN_EXE_explore"), &[flag, "bogus"], flag);
    }
}

#[test]
fn unknown_flags_and_out_of_range_values_are_usage_errors() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig10"),
        &["--cycles", "10", "--thread", "2"],
        "--thread",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_guardband"),
        &["--cycles", "0"],
        "--cycles",
    );
    assert_usage_error(env!("CARGO_BIN_EXE_workloads"), &["--cpr", "100"], "--cpr");
}
