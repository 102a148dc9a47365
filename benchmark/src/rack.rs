//! The `fleet_rack` workload: a 256-machine rack, 16 epochs of 2 ms,
//! with VM churn and a startup storm at epoch 8, on the pooled
//! epoch-parallel driver with two workers. At 256 machines one rack run
//! takes about 2.5 s, so a 10 s run reports the median of four.
//!
//! One operation is one machine-epoch. Every rack run in a process
//! uses the same seed, so each must reproduce the first one's digest.

use std::time::{Duration, Instant};

use taichi_fleet::{run as run_fleet, FleetConfig, FleetDriver, FleetResult};
use taichi_sim::{alloc, SimDuration};

use crate::digests;
use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::{fnv64, median};

/// Rack size and length of one rack run.
const MACHINES: usize = 256;
const EPOCHS: usize = 16;
/// Worker threads for the parallel driver: the core count of the
/// 2-vCPU machine the bounds were set on.
pub const WORKERS: usize = 2;
/// Set-up runs before each rack run; their median is `setup_s`.
const SETUPS_PER_RACK: usize = 3;

/// The rack under test, at `machines` x `epochs`.
pub fn config(seed: u64, machines: usize, epochs: usize) -> FleetConfig {
    FleetConfig {
        machines,
        epochs,
        seed,
        churn_per_epoch: 2.0,
        storm_epoch: Some(epochs / 2),
        storm_vms_per_machine: 2,
        ..FleetConfig::default()
    }
}

/// Digest of the rack's exported observables: the fleet fingerprint
/// plus the per-epoch CSV.
pub fn digest(r: &FleetResult) -> u64 {
    let mut bytes: Vec<u8> = r
        .fingerprint()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    bytes.extend_from_slice(r.epoch_table().to_csv().as_bytes());
    fnv64(&bytes)
}

/// Tallies one rack run's machine-epochs: violations fail one each, a
/// wrong digest fails them all.
fn tally(cfg: &FleetConfig, r: &FleetResult, digest_ok: bool, report: &mut Report) {
    let ops = (cfg.machines * cfg.epochs) as u64;
    for v in &r.violations {
        eprintln!("fleet_rack seed {:#x}: invariant violated: {v}", cfg.seed);
    }
    let failed = if digest_ok {
        r.violation_count.min(ops)
    } else {
        eprintln!("fleet_rack seed {:#x}: output digest differs", cfg.seed);
        ops
    };
    report.attempted += ops;
    report.failed += failed;
}

pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report, spans: &mut Spans) {
    let cfg = config(seed, MACHINES, EPOCHS);
    let parallel = FleetDriver::EpochParallel { workers: WORKERS };

    // Set-up: the same rack for one epoch of 1 µs is machine
    // construction plus worker start-up with almost nothing simulated.
    // Measured before every rack run, so the samples span the run.
    let tiny = FleetConfig {
        epochs: 1,
        epoch_len: SimDuration::from_micros(1),
        ..cfg.clone()
    };
    let budget = Duration::from_secs(seconds) / if traced { 2 } else { 1 };
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<(u64, FleetResult)> = None;
    while walls.is_empty() || start.elapsed() < budget {
        for _ in 0..SETUPS_PER_RACK {
            let (_, d) = spans.time("setup", None, || run_fleet(&tiny, parallel));
            setups.push(d.as_secs_f64());
        }
        let (r, wall) = spans.time("rack", None, || run_fleet(&cfg, parallel));
        let d = digest(&r);
        let ok = match &first {
            Some((d0, _)) => *d0 == d,
            None => digests::matches(seed, "fleet_rack", "rack", d),
        };
        tally(&cfg, &r, ok, report);
        walls.push(wall.as_secs_f64());
        first.get_or_insert((d, r));
    }

    if !traced {
        report.set("wall_s", median(&walls));
        report.set("setup_s", median(&setups));
        return;
    }

    // Sequential reference: same bytes, one thread, exact allocation
    // counts.
    let before = alloc::snapshot();
    let (seq, seq_wall) = spans.time("rack_sequential", None, || {
        run_fleet(&cfg, FleetDriver::Sequential)
    });
    let allocs = alloc::snapshot().since(before);
    let (d0, r) = first.expect("at least one rack run");
    tally(&cfg, &seq, digest(&seq) == d0, report);

    let machines = cfg.machines as f64;
    report.set("sim.alloc_events", allocs.allocation_events() as f64);
    report.set("sim.alloc_mb", allocs.bytes as f64 / (1u64 << 20) as f64);
    report.set(
        "fleet.resident_kb_per_machine",
        r.resident_bytes as f64 / 1024.0 / machines,
    );
    report.set("fleet.slab_hwm", r.slab_high_watermark as f64);
    report.set("fleet.ring_hwm", r.ring_high_watermark as f64);
    report.set(
        "fleet.events",
        r.epochs.iter().map(|e| e.events).sum::<u64>() as f64,
    );
    report.set("fleet.seq_wall_s", seq_wall.as_secs_f64());
    report.set(
        "fleet.parallel_efficiency",
        seq_wall.as_secs_f64() / (WORKERS as f64 * median(&walls)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rack_repeats_across_drivers() {
        let cfg = config(0x5EED, 16, 4);
        let a = run_fleet(&cfg, FleetDriver::EpochParallel { workers: WORKERS });
        let b = run_fleet(&cfg, FleetDriver::Sequential);
        assert_eq!(a.violation_count, 0, "{:?}", a.violations);
        assert_eq!(digest(&a), digest(&b));
        assert!(a.rack.packets() > 0);
    }
}
