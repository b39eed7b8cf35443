//! The `explore` binary's usage contract: an unknown name is rejected with
//! exit status 2 and an `error: --flag` line, never a panic.

use std::process::Command;

#[test]
fn unknown_names_are_usage_errors() {
    for flag in ["--space", "--strategy", "--workload", "--kernel"] {
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args([flag, "bogus"])
            .output()
            .expect("run explore");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(&format!("error: {flag}"))),
            "{flag}: {stderr}"
        );
    }
}
