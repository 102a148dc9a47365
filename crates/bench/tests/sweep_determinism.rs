//! The parallel sweep runner must be invisible in the output: a
//! multi-worker fan-out of independent `(mode, seed)` measurements has
//! to produce the byte-identical CSV a serial loop would.

use taichi_bench::{emit_trace, sweep_with};
use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::Table;
use taichi_sim::{Dist, SimDuration, SimTime};
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

/// Runs a two-worker traced sweep of four machines, all dumping to
/// one explicit path under the name `tag`, and returns the dump files
/// in input order, checking that the file at input position `i`
/// (`<path>.<i>`) holds job `i`'s TSV.
fn traced_sweep(tag: &str) -> Vec<String> {
    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("results dir");
    let dest = dir.join(format!("sweep_trace_{tag}.tsv"));
    let file = |i: usize| std::path::PathBuf::from(format!("{}.{i}", dest.display()));
    for i in 0..4 {
        let _ = std::fs::remove_file(file(i));
    }
    let tsvs = sweep_with(2, (0..4u64).collect(), |i| {
        let mut cfg = MachineConfig {
            seed: 0x7AC3 + i,
            ..MachineConfig::default()
        };
        cfg.trace.enabled = true;
        cfg.trace.dump = Some(dest.clone());
        let mut m = Machine::new(cfg, Mode::TaiChi);
        m.add_traffic(TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(0.5),
            },
            Dist::constant(512.0),
            IoKind::Network,
            (0..8).map(CpuId).collect(),
        ));
        // Later jobs are shorter, so they tend to finish first.
        m.run_until(SimTime::from_millis(8 - 2 * i));
        emit_trace(&format!("sweep_{i}"), &m);
        m.trace_tsv().expect("traced")
    });
    let files: Vec<String> = (0..4)
        .map(|i| std::fs::read_to_string(file(i)).expect("dump exists"))
        .collect();
    for (i, (tsv, on_disk)) in tsvs.iter().zip(&files).enumerate() {
        assert!(
            tsv == on_disk,
            "{tag}: dump {i} does not hold job {i}'s trace"
        );
        let _ = std::fs::remove_file(file(i));
    }
    files
}

#[test]
fn parallel_traced_sweep_names_dumps_by_input_order() {
    let first = traced_sweep("a");
    let second = traced_sweep("b");
    assert!(
        first == second,
        "two identical traced sweeps wrote different dumps"
    );
}
