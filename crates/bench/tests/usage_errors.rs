//! Bad input to an experiment binary is a usage error: `error: ...`
//! plus a usage line on stderr and exit status 2, never a silent
//! fallback to a default. Each case sets the child's environment
//! through `Command::env`; the test process's own stays untouched.

use std::process::Command;

/// Runs a paper binary with `args` and one extra environment variable
/// and asserts it fails as a usage error mentioning `needle`.
fn expect_usage_error(args: &[&str], var: Option<(&str, &str)>, needle: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig5_nonpreempt_hist"));
    cmd.args(args).env_remove("TAICHI_TRACE");
    if let Some((k, v)) = var {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn paper binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {var:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(stderr.contains("usage: fig5_nonpreempt_hist"), "{stderr}");
}

#[test]
fn bad_knobs_and_unknown_flags_exit_with_usage() {
    expect_usage_error(&[], Some(("TAICHI_SEED", "junk")), "TAICHI_SEED");
    expect_usage_error(&[], Some(("TAICHI_WORKERS", "0")), "TAICHI_WORKERS=0");
    expect_usage_error(&[], Some(("TAICHI_WORKERS", "many")), "TAICHI_WORKERS");
    expect_usage_error(&[], Some(("TAICHI_FAULTS", "ipi_drop=2")), "TAICHI_FAULTS");
    expect_usage_error(&["--policy", "taichi"], None, "--policy");
}
