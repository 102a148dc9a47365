//! The `paper_suite` workload: the fifteen paper table and figure
//! binaries, run one after another as child processes — the time a user
//! waits to regenerate every figure.
//!
//! Each binary runs in its own working directory under
//! `target/benchmark/paper/`, with an environment that carries only
//! `TAICHI_SEED` and `TAICHI_WORKERS=2`. One operation is one binary; it
//! fails on a non-zero exit, a missing CSV, or (at the default seed) a
//! CSV whose digest differs from the committed one.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::digests;
use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::{fnv64, median};

/// The paper binaries, in the order a pass runs them.
pub const BINARIES: [&str; 15] = [
    "table1_granularity",
    "table2_virt_compare",
    "table5_rtt",
    "fig2_motivation",
    "fig3_dp_util_cdf",
    "fig5_nonpreempt_hist",
    "fig6_io_breakdown",
    "fig11_cp_concurrency",
    "fig12_hybrid_net",
    "fig13_hybrid_storage",
    "fig14_dp_overhead",
    "fig15_mysql",
    "fig16_nginx",
    "fig17_vm_startup",
    "disc8_dp_boost",
];

/// Sweep workers each binary may use.
const WORKERS: &str = "2";

/// Builds `bins` (paper binaries) in release mode, or confirms they are
/// up to date, from the repository root; returns each one's path.
pub fn build(bins: &[&'static str]) -> Result<BTreeMap<&'static str, PathBuf>, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args([
        "build",
        "--release",
        "--quiet",
        "--message-format=json-render-diagnostics",
        "-p",
        "taichi-bench",
    ]);
    for b in bins {
        cmd.args(["--bin", b]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building the paper binaries failed ({})",
            out.status
        ));
    }
    let mut found = BTreeMap::new();
    let key = "\"executable\":\"";
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Some(at) = line.find(key) else { continue };
        let path = PathBuf::from(line[at + key.len()..].split('"').next().unwrap_or_default());
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        if let Some(&name) = bins.iter().find(|&&b| b == stem) {
            found.insert(name, path);
        }
    }
    match bins.iter().find(|b| !found.contains_key(*b)) {
        Some(missing) => Err(format!("cargo reported no executable for {missing}")),
        None => Ok(found),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("paper_suite reads each child's peak RSS through 64-bit Linux wait4");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (kB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reaps `child` and returns its exit status and peak RSS in kB.
fn wait_with_rss(child: Child) -> std::io::Result<(ExitStatus, u64)> {
    use std::os::unix::process::ExitStatusExt;
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and `usage`
        // has the kernel's `struct rusage` layout on this target (the
        // compile_error above rules out any other); `pid` is this
        // process's own child, not yet reaped — `Child` is consumed,
        // so std cannot wait on it too.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok((
        ExitStatus::from_raw(status),
        u64::try_from(usage.maxrss).unwrap_or(0),
    ))
}

/// One binary's run.
struct BinaryRun {
    ok: bool,
    wall: Duration,
    rss_kb: u64,
}

fn run_binary(name: &str, exe: &Path, seed: u64, dir: &Path) -> Result<BinaryRun, String> {
    let io = |e: std::io::Error| format!("{name}: {e}");
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(io)?;
    }
    fs::create_dir_all(dir).map_err(io)?;
    let stdout = File::create(dir.join("stdout.txt")).map_err(io)?;
    let stderr = File::create(dir.join("stderr.txt")).map_err(io)?;
    let start = Instant::now();
    let child = Command::new(exe)
        .current_dir(dir)
        .env_clear()
        .env("TAICHI_SEED", seed.to_string())
        .env("TAICHI_WORKERS", WORKERS)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(io)?;
    let (status, rss_kb) = wait_with_rss(child).map_err(io)?;
    let wall = start.elapsed();
    let csv_path = dir.join("target/experiments").join(format!("{name}.csv"));
    let csv = fs::read(&csv_path).unwrap_or_default();
    let mut ok = status.success();
    if !ok {
        eprintln!(
            "paper_suite: {name} exited with {status}; see {}",
            dir.display()
        );
    } else if csv.iter().filter(|&&b| b == b'\n').count() < 2 {
        eprintln!(
            "paper_suite: {name} wrote no CSV rows to {}",
            csv_path.display()
        );
        ok = false;
    } else {
        ok = digests::matches(seed, "paper_suite", name, fnv64(&csv));
    }
    Ok(BinaryRun { ok, wall, rss_kb })
}

/// Runs whole passes of the suite until `seconds` have passed (at least
/// one pass). Like `cargo run --bin <name>`, every binary is preceded by
/// cargo's up-to-date check of it: that check is the set-up, and a pass
/// is the sum of the binaries' own run times.
pub fn run(
    out_dir: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<(), String> {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut per_binary: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rss_kb = 0;
    while passes.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let pass = spans.open("suite", None);
        let mut pass_s = 0.0;
        for name in BINARIES {
            let (built, setup) = spans.time("cargo_build", pass.id(), || build(&[name]));
            setups.push(setup.as_secs_f64());
            let span = spans.open(name, pass.id());
            let dir = out_dir.join("paper").join(name);
            let r = run_binary(name, &built?[name], seed, &dir)?;
            spans.close(span);
            report.tally(r.ok);
            rss_kb = rss_kb.max(r.rss_kb);
            pass_s += r.wall.as_secs_f64();
            per_binary
                .entry(name)
                .or_default()
                .push(r.wall.as_secs_f64());
        }
        spans.close(pass);
        passes.push(pass_s);
    }

    if traced {
        for (name, walls) in &per_binary {
            report.set(&format!("bench.{name}_s"), median(walls));
        }
    } else {
        report.set("wall_s", median(&passes));
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    }
    Ok(())
}
