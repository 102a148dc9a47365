//! Bad input to an experiment binary is a usage error: `error: ...`
//! plus a usage line on stderr and exit status 2, never a silent
//! fallback to a default. Each case sets the child's environment
//! through `Command::env`; the test process's own stays untouched.

use std::path::Path;
use std::process::Command;

const FIG5: &str = env!("CARGO_BIN_EXE_fig5_nonpreempt_hist");
const BENCH_ENGINE: &str = env!("CARGO_BIN_EXE_bench_engine");
const EXT_TENANTS: &str = env!("CARGO_BIN_EXE_ext_tenants");
const EXT_FLEET: &str = env!("CARGO_BIN_EXE_ext_fleet");

/// Runs the binary at `bin` with `args` and one extra environment
/// variable and asserts it fails as a usage error mentioning `needle`.
fn expect_usage_error(bin: &str, args: &[&str], var: Option<(&str, &str)>, needle: &str) {
    let name = Path::new(bin).file_stem().unwrap().to_string_lossy();
    let mut cmd = Command::new(bin);
    cmd.args(args).env_remove("TAICHI_TRACE");
    if let Some((k, v)) = var {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {var:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(stderr.contains(&format!("usage: {name}")), "{stderr}");
}

#[test]
fn bad_knobs_and_unknown_flags_exit_with_usage() {
    expect_usage_error(FIG5, &[], Some(("TAICHI_SEED", "junk")), "TAICHI_SEED");
    expect_usage_error(FIG5, &[], Some(("TAICHI_WORKERS", "0")), "TAICHI_WORKERS=0");
    expect_usage_error(
        FIG5,
        &[],
        Some(("TAICHI_WORKERS", "many")),
        "TAICHI_WORKERS",
    );
    expect_usage_error(
        FIG5,
        &[],
        Some(("TAICHI_FAULTS", "ipi_drop=2")),
        "TAICHI_FAULTS",
    );
    expect_usage_error(FIG5, &["--policy", "taichi"], None, "--policy");
    expect_usage_error(BENCH_ENGINE, &["--quick", "--chek"], None, "--chek");
    expect_usage_error(EXT_TENANTS, &["--tenants", "1"], None, "--tenants 1");
    expect_usage_error(EXT_TENANTS, &["--aggressor", "0"], None, "--aggressor 0");
    expect_usage_error(
        EXT_TENANTS,
        &["--weights", "3:1:5", "--horizon-ms", "2"],
        None,
        "--weights 3:1:5",
    );
    expect_usage_error(
        EXT_TENANTS,
        &["--tenants", "2", "--weights", "3:1:5"],
        None,
        "--weights 3:1:5",
    );
    expect_usage_error(
        EXT_TENANTS,
        &["--tenants", "3", "--aggressor", "3"],
        None,
        "--aggressor 3",
    );
    expect_usage_error(
        EXT_FLEET,
        &["--epochs", "12", "--storm", "99"],
        None,
        "--storm off",
    );
    expect_usage_error(EXT_FLEET, &["--epochs", "3"], None, "--storm off");
}

#[test]
fn fig5_warns_once_that_it_writes_no_trace() {
    // fig5 draws routine lengths and builds no machine: a trace request
    // is one warning line, not an error, so a traced suite run goes on.
    let dump = std::env::temp_dir().join(format!("fig5-trace-{}.tsv", std::process::id()));
    let requests: [(&[&str], Option<&Path>); 2] = [(&["--trace"], None), (&[], Some(&dump))];
    for (args, path) in requests {
        let mut cmd = Command::new(FIG5);
        cmd.args(args).env_remove("TAICHI_TRACE");
        if let Some(p) = path {
            cmd.env("TAICHI_TRACE", p);
        }
        let out = cmd.output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} {path:?}: {stderr}");
        let warnings: Vec<_> = stderr
            .lines()
            .filter(|l| l.starts_with("warning:"))
            .collect();
        assert_eq!(warnings.len(), 1, "{args:?} {path:?}: {stderr}");
        assert!(warnings[0].contains("no trace"), "{stderr}");
        assert!(!dump.exists(), "fig5 wrote a trace to {}", dump.display());
    }
}
