//! `azul-serve` rejects a bad `--grid` with an `error:` line and a
//! failing exit code instead of panicking.

use std::process::Command;

#[test]
fn azul_serve_rejects_a_bad_grid() {
    for side in ["0", "257", "banana"] {
        let out = Command::new(env!("CARGO_BIN_EXE_azul-serve"))
            .args(["--requests", "1", "--quiet", "--grid", side])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--grid {side}: {stderr}");
        assert!(
            stderr.starts_with("error: --grid:"),
            "--grid {side} must print an error line: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--grid {side}: {stderr}");
    }
}
