//! Fleet-scale throughput and footprint benchmark: machine-epochs/sec,
//! wall time, allocation traffic, and resident memory per machine for
//! a 1024-machine rack run under the pooled epoch-parallel driver.
//!
//! This binary maintains the repo's committed fleet perf trajectory,
//! `BENCH_fleet.json` at the **repository root** (the fleet analogue of
//! `bench_engine`'s `BENCH_engine.json`):
//!
//! - the `"baseline"` block is the frozen before-numbers — the
//!   pre-pooling sequential driver (one channel message per
//!   machine-epoch, hot footprint profile, per-epoch plan allocation)
//!   at 1024 machines x 8 epochs — and is **preserved verbatim** when
//!   the file already exists, so the trajectory survives re-runs;
//! - the `"current"` block is rewritten on every run with fresh
//!   measurements plus the resulting speedup and footprint ratios.
//!
//! A copy also lands in `target/experiments/` so CI can upload it as an
//! artifact without touching the working tree.
//!
//! Flags:
//!
//! - `--quick`: a smaller rack (128 machines x 6 epochs) sized for a
//!   CI smoke job — machine-epochs/sec is per-machine-normalized, so
//!   the regression gate is meaningful at either scale;
//! - `--check`: exit non-zero when machine-epochs/sec falls below 70%
//!   of the committed baseline — generous (the pooled driver normally
//!   clears the sequential baseline even on one core) but still a real
//!   regression tripwire on shared CI runners;
//! - `--sequential`: measure the sequential reference driver instead.
//!
//! The allocation figures come from the counting global allocator
//! ([`taichi_sim::alloc::CountingAlloc`]) installed in this binary:
//! `alloc_bytes_per_machine` is cumulative allocator traffic over the
//! whole run divided by the machine count, and
//! `resident_bytes_per_machine` is the simulator's own accounting of
//! per-machine backing storage (event slab, wheel chunks, rings) at
//! the final epoch boundary. Peak RSS is read from `/proc/self/status`
//! where available. None of these memory numbers are identity-compared
//! — they vary by backend, profile, and run.

use std::fmt::Write as _;
use std::path::PathBuf;

use taichi_bench::{peak_rss_kb, results_dir, usage_error, Knobs};
use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_sim::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Extracts `"key": { ... }` (balanced braces) from `text`, including
/// the key itself — enough JSON awareness to carry the committed
/// baseline block forward without a parser dependency.
fn extract_block<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let start = text.find(key)?;
    let open = start + text[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[start..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Pulls `"key": <number>` out of a JSON block.
fn number_of(block: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = block.find(&tag)?;
    let num = block[at + tag.len()..]
        .trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .next()?;
    num.parse().ok()
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    const USAGE: &str = "[--quick] [--check] [--sequential]";
    let (knobs, args) = Knobs::init_with_args(USAGE);
    if let Some(a) = args
        .iter()
        .find(|a| !["--quick", "--check", "--sequential"].contains(&a.as_str()))
    {
        usage_error(USAGE, &format!("unknown argument {a:?}"));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let sequential = args.iter().any(|a| a == "--sequential");

    // The acceptance configuration: a thousand-machine rack with
    // churn and a mid-run startup storm (so the post-storm compaction
    // path is always exercised and measured).
    let mut cfg = FleetConfig {
        machines: 1024,
        epochs: 8,
        churn_per_epoch: 2.0,
        storm_epoch: Some(4),
        storm_vms_per_machine: 2,
        ..FleetConfig::default()
    };
    if quick {
        cfg.machines = 128;
        cfg.epochs = 6;
    }
    let driver = if sequential {
        FleetDriver::Sequential
    } else {
        FleetDriver::EpochParallel {
            workers: knobs.workers,
        }
    };

    println!(
        "bench_fleet: {} machines x {} epochs ({:?}, storm {:?})",
        cfg.machines, cfg.epochs, driver, cfg.storm_epoch
    );

    let before = alloc::snapshot();
    let start = std::time::Instant::now();
    let result = run(&cfg, driver);
    let wall = start.elapsed().as_secs_f64();
    let delta = alloc::snapshot().since(before);

    if result.violation_count > 0 {
        for v in &result.violations {
            eprintln!("invariant violated: {v}");
        }
        std::process::exit(1);
    }

    let machines = cfg.machines as u64;
    let machine_epochs = (cfg.machines * cfg.epochs) as f64;
    let meps = machine_epochs / wall.max(1e-9);
    let alloc_bytes_per_machine = delta.bytes / machines;
    let resident_per_machine = result.resident_bytes / machines;
    let rss_kb = peak_rss_kb();

    println!(
        "wall {wall:.2} s  {meps:.0} machine-epochs/s  ({} packets, {} events)",
        result.rack.packets(),
        result.epochs.iter().map(|r| r.events).sum::<u64>(),
    );
    println!(
        "alloc traffic: {} events, {} B/machine cumulative; resident {} B/machine \
         (slab hwm {} slots, ring hwm {} pkts)",
        delta.allocation_events(),
        alloc_bytes_per_machine,
        resident_per_machine,
        result.slab_high_watermark,
        result.ring_high_watermark,
    );
    if let Some(kb) = rss_kb {
        println!("peak rss: {kb} kB total, {} kB/machine", kb / machines);
    }

    // ---- Assemble the trajectory file. ----

    let root_path = repo_root().join("BENCH_fleet.json");
    let existing = std::fs::read_to_string(&root_path).unwrap_or_default();
    let baseline_block = match extract_block(&existing, "\"baseline\"") {
        Some(b) => b.to_string(),
        None => {
            // No committed baseline: freeze this run's numbers as the
            // trajectory start. (The committed file's baseline is the
            // pre-pooling sequential driver; this fallback only fires
            // if that file is deleted.)
            let mut b = String::from("\"baseline\": {\n    \"driver\": \"sequential\",\n");
            let _ = write!(
                b,
                "    \"note\": \"frozen from a fresh run ({} machines x {} epochs)\",\n    \
                 \"machines\": {},\n    \"epochs\": {},\n    \"wall_s\": {:.2},\n    \
                 \"machine_epochs_per_sec\": {:.0},\n    \"peak_rss_kb\": {},\n    \
                 \"peak_rss_kb_per_machine\": {}\n  }}",
                cfg.machines,
                cfg.epochs,
                cfg.machines,
                cfg.epochs,
                wall,
                meps,
                rss_kb.unwrap_or(0),
                rss_kb.unwrap_or(0) / machines,
            );
            b
        }
    };

    let baseline_meps = number_of(&baseline_block, "machine_epochs_per_sec");
    let baseline_rss_per_machine = number_of(&baseline_block, "peak_rss_kb_per_machine");
    let speedup = baseline_meps.map(|b| meps / b).unwrap_or(f64::NAN);
    let rss_ratio = match (baseline_rss_per_machine, rss_kb) {
        (Some(b), Some(kb)) if kb > 0 => b / (kb / machines) as f64,
        _ => f64::NAN,
    };

    let mut current = String::from("\"current\": {\n");
    let _ = write!(
        current,
        "    \"driver\": \"{}\",\n    \"workers\": {},\n    \"machines\": {},\n    \
         \"epochs\": {},\n    \"quick\": {},\n    \"wall_s\": {:.2},\n    \
         \"machine_epochs_per_sec\": {:.0},\n    \"alloc_events\": {},\n    \
         \"alloc_bytes_per_machine\": {},\n    \"resident_bytes_per_machine\": {},\n    \
         \"slab_high_watermark\": {},\n    \"ring_high_watermark\": {},\n    \
         \"peak_rss_kb\": {},\n    \"peak_rss_kb_per_machine\": {},\n    \
         \"speedup_vs_baseline\": {:.2},\n    \"rss_reduction_vs_baseline\": {:.2},\n    \
         \"note\": \"speedup scales with available cores; the parallel driver's \
         machines are fully independent within an epoch\"\n  }}",
        if sequential {
            "sequential"
        } else {
            "epoch_parallel"
        },
        if sequential { 1 } else { knobs.workers },
        cfg.machines,
        cfg.epochs,
        quick,
        wall,
        meps,
        delta.allocation_events(),
        alloc_bytes_per_machine,
        resident_per_machine,
        result.slab_high_watermark,
        result.ring_high_watermark,
        rss_kb.unwrap_or(0),
        rss_kb.map(|kb| kb / machines).unwrap_or(0),
        speedup,
        rss_ratio,
    );

    let json = format!("{{\n  {baseline_block},\n  {current}\n}}\n");
    for path in [root_path.clone(), results_dir().join("BENCH_fleet.json")] {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[json] {}", path.display());
        }
    }

    // ---- Regression gate. ----

    if check {
        let Some(base) = baseline_meps else {
            eprintln!("check: no machine_epochs_per_sec in the committed baseline");
            std::process::exit(1);
        };
        let ratio = meps / base;
        println!(
            "check: {meps:.0} machine-epochs/s vs committed baseline {base:.0} \
             ({ratio:.2}x, gate at 0.70x)"
        );
        if ratio < 0.70 {
            eprintln!("check FAILED: fleet throughput regressed below 70% of the baseline");
            std::process::exit(1);
        }
        println!("check passed");
    }
}
