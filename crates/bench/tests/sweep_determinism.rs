//! The parallel sweep runner must be invisible in the output: a
//! multi-worker fan-out of independent `(mode, seed)` measurements has
//! to produce the byte-identical CSV a serial loop would.

use taichi_bench::sweep_with;
use taichi_core::machine::Mode;
use taichi_core::MachineConfig;
use taichi_sim::report::Table;
use taichi_sim::SimDuration;
use taichi_workloads::{measure, BenchTraffic};

/// Renders a sweep's results exactly as an experiment binary would.
fn sweep_csv(workers: usize) -> String {
    let cases = vec![
        (Mode::Baseline, 7u64),
        (Mode::Baseline, 8),
        (Mode::TaiChi, 7),
        (Mode::TaiChi, 8),
    ];
    let traffic = BenchTraffic::net(512.0, 0.3, false);
    // Short horizon: the point is cross-worker determinism, not
    // statistics.
    let horizon = SimDuration::from_millis(5);
    let results = sweep_with(workers, cases.clone(), |(mode, seed)| {
        let cfg = MachineConfig {
            seed,
            ..MachineConfig::default()
        };
        measure(&cfg, mode, &traffic, horizon)
    });

    let mut table = Table::new(
        "sweep determinism check",
        &["mode", "seed", "pps", "p99 (ns)", "mean (ns)", "yields"],
    );
    for ((mode, seed), r) in cases.iter().zip(&results) {
        table.row(&[
            mode.to_string(),
            seed.to_string(),
            format!("{:.3}", r.pps),
            r.lat_p99_ns.to_string(),
            format!("{:.3}", r.lat_mean_ns),
            r.yields.to_string(),
        ]);
    }
    table.to_csv()
}

#[test]
fn four_workers_match_serial_byte_for_byte() {
    let serial = sweep_csv(1);
    let parallel = sweep_csv(4);
    assert!(
        serial.lines().count() > 4,
        "csv must contain a header and four data rows"
    );
    assert_eq!(
        serial, parallel,
        "4-worker sweep CSV must be byte-identical to the serial run"
    );
}
