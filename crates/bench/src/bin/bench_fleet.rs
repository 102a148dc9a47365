//! Fleet-scale throughput and memory benchmark: machine-epochs per
//! second of wall time and per CPU-second, allocation traffic, and
//! resident memory per machine for a 1024-machine rack run under the
//! pooled epoch-parallel driver.
//!
//! This binary maintains the repo's committed fleet perf trajectory,
//! `BENCH_fleet.json` at the **repository root** (the fleet analogue of
//! `bench_engine`'s `BENCH_engine.json`):
//!
//! - the `"baseline"` block is the frozen before-numbers — the
//!   pre-pooling sequential driver (one channel message per
//!   machine-epoch, worst-case up-front storage reservations on every
//!   machine, per-epoch plan allocation)
//!   at 1024 machines x 8 epochs — the `"gate"` block is the
//!   frozen `--check` threshold, and the `"scaling"` block records
//!   measured one- vs two-worker pairs of the full run; all three are
//!   **preserved verbatim** when the file already exists, so re-runs
//!   never move them;
//! - the `"current"` block is rewritten on every full run with fresh
//!   measurements plus the resulting speedup and footprint ratios.
//!
//! Every run writes `target/experiments/BENCH_fleet.json`, the copy CI
//! uploads; a `--quick` run writes only that copy, so the working tree
//! keeps the full run's numbers.
//!
//! Flags:
//!
//! - `--quick`: a smaller rack (128 machines x 6 epochs) sized for a
//!   CI smoke job — machine-epochs/sec is per-machine-normalized, so
//!   the regression gate is meaningful at either scale;
//! - `--check`: exit non-zero when machine-epochs per CPU-second fall
//!   below the gate block's `threshold`, or peak RSS per machine rises
//!   above its `rss_kb_per_machine_max`; both were set from repeated
//!   `--quick` runs of this driver. The throughput gate divides by the
//!   process's CPU time (`getrusage`, all threads), not wall time, so
//!   a busy host that stalls the run does not fail it; without CPU
//!   time (non-Linux) the check fails. Without `/proc/self/status`
//!   there is no peak RSS, and the memory half reports itself skipped;
//! - `--sequential`: measure the sequential reference driver instead.
//!
//! The allocation figures come from the counting global allocator
//! ([`taichi_sim::alloc::CountingAlloc`]) installed in this binary:
//! `alloc_bytes_per_machine` is cumulative allocator traffic over the
//! whole run divided by the machine count, and
//! `resident_bytes_per_machine` is the simulator's own accounting of
//! the heap each machine holds (`Machine::resident_bytes`, within 10 %
//! of the live heap by the `resident_bytes` test) at the final epoch
//! boundary. Fleet
//! machines hold no recorder buckets there: each worker lends its one
//! recorder set to a machine only for that machine's run, so the
//! workers' sets show up in peak RSS, not in the per-machine figure.
//! Peak RSS is read from `/proc/self/status` where available. None of
//! these memory numbers are identity-compared — they vary by queue
//! backend and run.

use std::fmt::Write as _;

use taichi_bench::{
    bench_json_path, cpu_time_s, json_block, json_number, peak_rss_kb, usage_error,
    write_bench_json, Knobs,
};
use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_sim::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
    // churn and a mid-run startup storm (so the storm peak and its
    // recovery are always exercised and measured).
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
    let cpu_before = cpu_time_s();
    let start = std::time::Instant::now();
    let result = run(&cfg, driver);
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_time_s()
        .zip(cpu_before)
        .map(|(after, before)| after - before);
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
    let meps_cpu = cpu.map(|c| machine_epochs / c.max(1e-9));
    let alloc_bytes_per_machine = delta.bytes / machines;
    let resident_per_machine = result.resident_bytes / machines;
    let rss_kb = peak_rss_kb();

    println!(
        "wall {wall:.2} s  {meps:.0} machine-epochs/s  ({} packets, {} events)",
        result.rack.packets(),
        result.epochs.iter().map(|r| r.events).sum::<u64>(),
    );
    if let (Some(c), Some(m)) = (cpu, meps_cpu) {
        println!("cpu {c:.2} s  {m:.0} machine-epochs per CPU-second");
    }
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

    let root_path = bench_json_path("BENCH_fleet.json");
    let existing = std::fs::read_to_string(&root_path).unwrap_or_default();
    let baseline_block = match json_block(&existing, "baseline") {
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

    let gate_block = json_block(&existing, "gate");
    let scaling_block = json_block(&existing, "scaling");

    let baseline_meps = json_number(&baseline_block, "machine_epochs_per_sec");
    let baseline_rss_per_machine = json_number(&baseline_block, "peak_rss_kb_per_machine");
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
         \"machine_epochs_per_sec\": {:.0},\n    \"cpu_s\": {:.2},\n    \
         \"machine_epochs_per_cpu_s\": {:.0},\n    \"alloc_events\": {},\n    \
         \"alloc_bytes_per_machine\": {},\n    \"resident_bytes_per_machine\": {},\n    \
         \"slab_high_watermark\": {},\n    \"ring_high_watermark\": {},\n    \
         \"peak_rss_kb\": {},\n    \"peak_rss_kb_per_machine\": {},\n    \
         \"speedup_vs_baseline\": {:.2},\n    \"rss_reduction_vs_baseline\": {:.2}\n  }}",
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
        cpu.unwrap_or(f64::NAN),
        meps_cpu.unwrap_or(f64::NAN),
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

    let mut json = format!("{{\n  {baseline_block},\n");
    for block in [gate_block, scaling_block].into_iter().flatten() {
        let _ = writeln!(json, "  {block},");
    }
    let _ = write!(json, "  {current}\n}}\n");
    write_bench_json("BENCH_fleet.json", &json, quick);

    // ---- Regression gate. ----

    if check {
        let Some(threshold) = gate_block.and_then(|b| json_number(b, "threshold")) else {
            eprintln!("check: no gate threshold in the committed BENCH_fleet.json");
            std::process::exit(1);
        };
        let Some(meps_cpu) = meps_cpu else {
            eprintln!("check: no CPU time (getrusage is read on Linux only)");
            std::process::exit(1);
        };
        println!(
            "check: {meps_cpu:.0} machine-epochs per CPU-second vs gate threshold \
             {threshold:.0} ({:.2}x)",
            meps_cpu / threshold
        );
        if meps_cpu < threshold {
            eprintln!("check FAILED: fleet throughput per CPU-second fell below the gate");
            std::process::exit(1);
        }
        let Some(rss_max) = gate_block.and_then(|b| json_number(b, "rss_kb_per_machine_max"))
        else {
            eprintln!("check: no rss_kb_per_machine_max in the committed BENCH_fleet.json");
            std::process::exit(1);
        };
        match rss_kb {
            Some(kb) => {
                let per_machine = kb / machines;
                println!(
                    "check: {per_machine} kB peak RSS per machine vs gate max {rss_max:.0} kB"
                );
                if per_machine as f64 > rss_max {
                    eprintln!("check FAILED: fleet peak RSS per machine rose above the gate");
                    std::process::exit(1);
                }
                println!("check passed");
            }
            None => println!(
                "check: peak RSS unavailable (no /proc/self/status), memory gate SKIPPED; \
                 throughput gate passed"
            ),
        }
    }
}
