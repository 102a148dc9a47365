//! Fleet-scale rack sweep: hundreds of machines advanced in
//! conservative time epochs with east-west traffic, diurnal/bursty
//! load, placement churn, and an optional rack-wide VM startup storm.
//!
//! Emits the rack-level per-epoch CSV (aggregate p50/p99, per-epoch
//! throughput) plus a one-row summary with the storm recovery time.
//! Everything is streamed: machines are drained and folded at every
//! epoch boundary, so peak memory is bounded by the worker count, not
//! the fleet size.
//!
//! Deterministic: same seed + same flags produce a byte-identical CSV
//! for any `TAICHI_WORKERS` count, either fleet driver, and both queue
//! backends (see the `fleet_identity` test).
//!
//! Flags: `--machines N`, `--epochs N`, `--churn F`, `--storm E|off`,
//! `--sequential`, `--quick` (the CI smoke size: 64 machines x 8
//! epochs), plus the shared knobs (`--trace`, `TAICHI_*`), which reach
//! every rack machine through the fleet's machine template.
//!
//! The emitted summary CSV carries memory diagnostics on top of the
//! identity-compared summary columns: slab/ring high-water marks,
//! resident bytes per machine, and the process peak RSS. Only the
//! per-epoch `ext_fleet.csv` is byte-compared across drivers/workers
//! in CI — RSS varies run to run by design.

use taichi_bench::{emit, peak_rss_kb, usage_error, Knobs};
use taichi_fleet::{run, FleetConfig, FleetDriver};

const USAGE: &str =
    "[--machines N] [--epochs N] [--churn F] [--storm E|off] [--sequential] [--quick] [--trace]";

fn main() {
    let (knobs, rest) = Knobs::init_with_args(USAGE);
    let mut cfg = FleetConfig {
        machines: 64,
        epochs: 12,
        seed: knobs.seed,
        churn_per_epoch: 2.0,
        storm_epoch: Some(4),
        storm_vms_per_machine: 2,
        ..FleetConfig::default()
    };
    let base = knobs.machine();
    cfg.machine.trace = base.trace;
    cfg.machine.faults = base.faults;

    let mut driver = FleetDriver::EpochParallel {
        workers: knobs.workers,
    };
    let die = |msg: &str| -> ! { usage_error(USAGE, msg) };
    let mut args = rest.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--machines" => {
                cfg.machines =
                    parse_count("--machines", &value("--machines")).unwrap_or_else(|e| die(&e))
            }
            "--epochs" => {
                cfg.epochs = parse_count("--epochs", &value("--epochs")).unwrap_or_else(|e| die(&e))
            }
            "--churn" => {
                cfg.churn_per_epoch = parse_churn(&value("--churn")).unwrap_or_else(|e| die(&e))
            }
            "--storm" => {
                cfg.storm_epoch = parse_storm(&value("--storm")).unwrap_or_else(|e| die(&e))
            }
            "--sequential" => driver = FleetDriver::Sequential,
            // CI smoke size: small enough for a PR gate, large enough
            // to exercise churn, the storm, and storm recovery.
            "--quick" => {
                cfg.machines = 64;
                cfg.epochs = 8;
                cfg.churn_per_epoch = 2.0;
                cfg.storm_epoch = Some(4);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if let Some(e) = cfg.storm_epoch.filter(|&e| e >= cfg.epochs) {
        die(&format!(
            "--storm {e} never fires in a {}-epoch run (expected an epoch index below --epochs, \
             or --storm off)",
            cfg.epochs
        ));
    }

    println!(
        "fleet: {} machines x {} epochs of {} us ({:?}, churn {}, storm {:?})",
        cfg.machines,
        cfg.epochs,
        cfg.epoch_len.as_nanos() / 1_000,
        driver,
        cfg.churn_per_epoch,
        cfg.storm_epoch,
    );
    let start = std::time::Instant::now();
    let result = run(&cfg, driver);
    let wall = start.elapsed();

    emit("ext_fleet", &result.epoch_table());
    let rss_kb = peak_rss_kb();
    emit("ext_fleet_summary", &result.summary_table_with_mem(rss_kb));

    let machine_epochs = (cfg.machines * cfg.epochs) as f64;
    println!(
        "wall {:.2} s, {:.0} machine-epochs/s; resident {} B/machine \
         (slab hwm {} slots, ring hwm {} pkts{})",
        wall.as_secs_f64(),
        machine_epochs / wall.as_secs_f64().max(1e-9),
        result.resident_bytes / cfg.machines.max(1) as u64,
        result.slab_high_watermark,
        result.ring_high_watermark,
        rss_kb
            .map(|kb| format!(
                ", peak rss {} kB = {} kB/machine",
                kb,
                kb / cfg.machines.max(1) as u64
            ))
            .unwrap_or_default(),
    );

    if let (Some(s), Some(rec)) = (result.storm_epoch, result.recovery_epochs) {
        println!(
            "storm at epoch {s}: rack throughput back to 90% of the \
             pre-storm mean after {rec} epoch(s)"
        );
    } else if result.storm_epoch.is_some() {
        println!("storm fired but rack throughput never recovered in-horizon");
    }

    for v in &result.violations {
        eprintln!("invariant violated: {v}");
    }
    if result.violation_count > 0 {
        eprintln!(
            "{} invariant violation(s) across the fleet",
            result.violation_count
        );
        std::process::exit(1);
    }
    println!(
        "all scheduler invariants held on every machine at every epoch \
         boundary ({} machine-epochs)",
        result.util_permille.count()
    );
}

/// Parses a machine or epoch count (an integer >= 1).
fn parse_count(flag: &str, s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "{flag} {s:?} is not a valid count (expected an integer >= 1)"
        )),
        Ok(n) => Ok(n),
    }
}

/// Parses `--churn` (expected VM placements per epoch, finite, >= 0).
fn parse_churn(s: &str) -> Result<f64, String> {
    match s.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(format!("--churn {s:?} is not a finite number >= 0")),
    }
}

/// Parses `--storm` (`off`, or the storm epoch index).
fn parse_storm(s: &str) -> Result<Option<usize>, String> {
    let t = s.trim();
    if t.eq_ignore_ascii_case("off") {
        return Ok(None);
    }
    t.parse::<usize>()
        .map(Some)
        .map_err(|_| format!("--storm {s:?} is not \"off\" or an epoch index"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsers_accept_and_reject() {
        assert_eq!(parse_count("--machines", "64"), Ok(64));
        assert!(parse_count("--machines", "0").is_err());
        assert!(parse_count("--machines", "lots")
            .unwrap_err()
            .contains("--machines"));
        assert_eq!(parse_count("--epochs", " 12 "), Ok(12));
        assert!(parse_count("--epochs", "-3").is_err());
        assert_eq!(parse_churn("1.5"), Ok(1.5));
        assert!(parse_churn("NaN").is_err());
        assert!(parse_churn("-1").is_err());
        assert_eq!(parse_storm("off"), Ok(None));
        assert_eq!(parse_storm("4"), Ok(Some(4)));
        assert!(parse_storm("sometime").is_err());
    }
}
