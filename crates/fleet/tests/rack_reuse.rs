//! Peak RSS across repeated racks in one process.
//!
//! The epoch-parallel driver joins its worker threads before `run`
//! returns, so each worker's malloc arena is free again when the next
//! rack's workers start, and they reuse it. Without the join, `run`
//! returns while the old threads are still exiting; the next rack's
//! workers can open fresh arenas while the old ones keep their pages,
//! and peak RSS climbs rack by rack. This test runs the same rack 8
//! times on 2 workers and bounds how far peak RSS (`VmHWM`) grows from
//! the second rack to the eighth.
//!
//! This file must stay a **single-test binary**: RSS is process-wide,
//! so a sibling test thread would move it.

use taichi_fleet::{run, FleetConfig, FleetDriver};

const RACKS: usize = 8;

/// Allowed peak-RSS growth from the second rack to the eighth, in kB.
/// On a shared 2-vCPU x86-64 VM, 28 runs of the joined driver grew
/// 0–128 kB; 12 runs of the same tree without the join grew 168–968 kB,
/// and 10 of them exceeded this bound.
const MAX_GROWTH_KB: u64 = 320;

/// Peak resident set of this process (`VmHWM`), in kB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[test]
fn repeated_racks_reuse_the_workers_memory() {
    let cfg = FleetConfig {
        machines: 64,
        epochs: 8,
        churn_per_epoch: 2.0,
        storm_epoch: Some(4),
        ..FleetConfig::default()
    };
    let mut peaks = Vec::with_capacity(RACKS);
    for _ in 0..RACKS {
        let r = run(&cfg, FleetDriver::EpochParallel { workers: 2 });
        assert_eq!(r.violation_count, 0, "{:?}", r.violations);
        let Some(kb) = peak_rss_kb() else {
            eprintln!("no VmHWM in /proc/self/status: peak RSS not checked");
            return;
        };
        peaks.push(kb);
    }
    let growth = peaks[RACKS - 1].saturating_sub(peaks[1]);
    eprintln!("peak RSS after each rack (kB): {peaks:?}; growth {growth} kB");
    assert!(
        growth <= MAX_GROWTH_KB,
        "peak RSS grew {growth} kB from rack 2 to rack {RACKS} (max {MAX_GROWTH_KB}): {peaks:?}"
    );
}
