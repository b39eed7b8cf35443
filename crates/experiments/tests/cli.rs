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
    for flag in ["--space", "--workload", "--kernel"] {
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
    // The explorer evaluates every point: an old command line naming a
    // search strategy or its knobs fails before any work.
    for (flag, value) in [
        ("--strategy", "exhaustive"),
        ("--seed", "7"),
        ("--budget", "400"),
        ("--population", "48"),
        ("--generations", "24"),
    ] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_explore"),
            &[flag, value],
            &format!("{flag}: unknown flag"),
        );
    }
    assert_usage_error(
        env!("CARGO_BIN_EXE_guardband"),
        &["--cycles", "0"],
        "--cycles",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_explore"),
        &["--energy-cycles", "0"],
        "--energy-cycles",
    );
    for bin in [
        env!("CARGO_BIN_EXE_fig9"),
        env!("CARGO_BIN_EXE_explore"),
        env!("CARGO_BIN_EXE_netlint"),
    ] {
        assert_usage_error(bin, &["--threads", "0"], "--threads");
    }
    // No quadruple grid exists at these widths.
    for bin in [env!("CARGO_BIN_EXE_netlint"), env!("CARGO_BIN_EXE_prove")] {
        for width in ["0", "64", "65"] {
            assert_usage_error(bin, &["--width", width], "--width");
        }
    }
    // The exact moments `prove` cross-checks stop at 32 bits.
    for width in ["33", "63"] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_prove"),
            &["--width", width],
            &format!("--width: must be in 1..=32, got {width}"),
        );
    }
    assert_usage_error(env!("CARGO_BIN_EXE_workloads"), &["--cpr", "100"], "--cpr");
    // A query the explorer cannot answer fails before any work.
    let explore = env!("CARGO_BIN_EXE_explore");
    assert_usage_error(explore, &["--min-quality", "nan"], "--min-quality");
    for clock in ["-5", "nan"] {
        let args = ["--min-quality", "30", "--max-clock", clock];
        assert_usage_error(explore, &args, "--max-clock");
    }
    assert_usage_error(explore, &["--max-clock", "280"], "--max-clock");
}
