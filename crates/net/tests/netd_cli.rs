//! Command-line validation of the `netd` binary, run as a child process.

use std::process::Command;

#[test]
fn zero_max_conns_is_a_usage_error_not_a_panic() {
    // A zero cap would refuse the daemon's own loopback catalog
    // connection; it must be rejected before binding.
    let out = Command::new(env!("CARGO_BIN_EXE_netd"))
        .args(["--addr", "127.0.0.1:0", "--max-conns", "0", "--demo", "8"])
        .output()
        .expect("netd runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("--max-conns"), "stderr: {stderr}");
}
