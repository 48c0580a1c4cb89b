//! The command-line tools reject a bad `--grid` with an `error:` line
//! and a failing exit code instead of panicking.

use std::process::Command;

/// Runs `bin` with `args` and asserts it failed cleanly on `--grid`.
fn assert_rejects_grid(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must fail: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: --grid:"),
        "{args:?} must print an error line: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn azul_solve_rejects_a_bad_grid() {
    for side in ["0", "257", "banana"] {
        assert_rejects_grid(
            env!("CARGO_BIN_EXE_azul"),
            &[
                "solve", "--suite", "tmt_sym", "--scale", "tiny", "--grid", side,
            ],
        );
    }
}

#[test]
fn azul_report_rejects_a_bad_grid() {
    for side in ["0", "257", "banana"] {
        assert_rejects_grid(
            env!("CARGO_BIN_EXE_azul-report"),
            &[
                "--suite", "tmt_sym", "--scale", "tiny", "--quiet", "--grid", side,
            ],
        );
    }
}
