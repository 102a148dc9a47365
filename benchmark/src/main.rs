//! `benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload harvest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--workload`, this process measures that workload and prints
//! one JSON result line last. Without it, or with `--repeat`, it runs
//! each selected workload in a child process of its own (so peak RSS
//! is per workload) and prints medians and quartiles. See README.md.

mod cli;
mod digests;
mod engine;
mod metrics;
mod probes;
mod rack;
mod spans;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use cli::{Args, Stop, Workload, USAGE};
use engine::Engine;
use metrics::{json_line, Parsed, Report, END_TO_END, PER_LAYER};
use spans::Spans;
use taichi_sim::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Working files of every run, relative to the repository root.
const OUT_DIR: &str = "target/benchmark";

fn main() {
    let argv = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned());
    let args = match cli::parse(argv, std::env::vars_os()) {
        Ok(a) => a,
        Err(Stop::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(Stop::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.single() {
        measure(&args)
    } else {
        orchestrate(&args)
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Measures one workload in this process and prints its result line.
fn measure(args: &Args) -> Result<(), String> {
    let workload = args.workload.expect("a single run names its workload");
    if !Path::new("crates/bench/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/bench/Cargo.toml not found)".into());
    }
    let out = Path::new(OUT_DIR);
    fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    // Unmeasured: the first run of any workload in a fresh checkout
    // builds everything the benchmark runs.
    suite::build(&suite::BINARIES)?;

    let mut report = Report::default();
    let mut spans = Spans::new(args.trace);
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    match workload {
        Workload::Harvest => engine::run(
            Engine::Harvest,
            seed,
            seconds,
            traced,
            &mut report,
            &mut spans,
        ),
        Workload::DpSaturated => engine::run(
            Engine::DpSaturated,
            seed,
            seconds,
            traced,
            &mut report,
            &mut spans,
        ),
        Workload::FleetRack => rack::run(seed, seconds, traced, &mut report, &mut spans),
        Workload::PaperSuite => suite::run(out, seed, seconds, traced, &mut report, &mut spans)?,
    }
    if traced {
        probes::run(&mut report, &mut spans);
        let path = out.join(format!("{}.spans.tsv", workload.name()));
        fs::write(&path, spans.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
    } else if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", peak_rss_mb()?);
    }
    println!("{}", report.to_json(traced));
    Ok(())
}

fn run_child(exe: &Path, args: &Args, workload: Workload) -> Result<Parsed, String> {
    let out = Command::new(exe)
        .args(args.child_flags(workload))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{} run exited with {}",
            workload.name(),
            out.status
        ));
    }
    metrics::parse_json(line).ok_or_else(|| format!("{} printed no result line", workload.name()))
}

/// Runs every selected workload `--repeat` times in child processes,
/// alternating the order, then prints each metric's median and
/// quartiles. An end-to-end spread above its bound, or a per-layer
/// count that differs between repeats, fails the command.
fn orchestrate(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut selected: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut runs: BTreeMap<&str, Vec<Parsed>> = BTreeMap::new();
    for r in 0..args.repeat {
        for &w in &selected {
            let run = run_child(&exe, args, w)?;
            eprintln!(
                "{} #{}: attempted {}, failed {}",
                w.name(),
                r + 1,
                run.attempted,
                run.failed
            );
            runs.entry(w.name()).or_default().push(run);
        }
        selected.reverse();
    }

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut flags = 0;
    let mut summary = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for (workload, runs) in &runs {
        for run in runs {
            attempted += run.attempted;
            failed += run.failed;
            correct &= run.correct;
        }
        for m in list {
            let values: Vec<f64> = runs.iter().map(|r| r.values[m.name]).collect();
            let median = stats::median(&values);
            let better = match m.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            };
            let mut line = format!(
                "{workload:<13} {:<34} {median:>14.6} {:<6} ({better} is better)",
                m.name, m.unit
            );
            if let Some((q1, q3)) = stats::quartiles(&values) {
                let spread = (q3 - q1) / median.abs().max(f64::MIN_POSITIVE);
                line += &format!(" q1 {q1:.6} q3 {q3:.6} spread {:.1}%", spread * 100.0);
                if m.bound.is_some_and(|b| spread > b) {
                    line += "  SPREAD ABOVE BOUND";
                    flags += 1;
                }
            }
            if m.unit == "count" && values.iter().any(|&v| v != values[0]) {
                line += "  COUNTS DIFFER BETWEEN REPEATS";
                flags += 1;
            }
            println!("{line}");
            summary.push((format!("{workload}.{}", m.name), median, m.unit));
        }
    }
    println!(
        "{}",
        json_line(correct && flags == 0, attempted, failed, summary)
    );
    if flags > 0 {
        return Err(format!("{flags} metric check(s) failed"));
    }
    Ok(())
}
