//! Regression test for trace-ring eviction accounting under
//! multi-machine export (one process, many machines, one explicit
//! `trace.dump` destination).
//!
//! Before the fix, every `emit_trace` call with an explicit
//! destination wrote the *same* path, so a process exporting two
//! machines silently clobbered the first ring's schedule with the
//! second's — and any eviction warning printed along the way described
//! a different ring than the surviving file held. The export path is
//! now claimed per ring (`taichi_sim::trace::claim_export_path`), and
//! the eviction warning comes from `Tracer::eviction_warning`, which
//! is strictly per-ring state.

use std::path::Path;

use taichi_bench::emit_trace;
use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::{Dist, SimTime};

fn traced_machine(seed: u64, capacity: usize, dump: &Path) -> Machine {
    let mut cfg = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    cfg.trace.capacity = capacity;
    cfg.trace.dump = Some(dump.to_path_buf());
    let mut m = Machine::new(cfg, Mode::TaiChi);
    let dp = m.services().len() as u32;
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(150.0),
            off_us: Dist::exponential(300.0),
            burst_gap_us: Dist::exponential(2.0 / dp as f64),
        },
        Dist::constant(256.0),
        IoKind::Network,
        (0..dp).map(CpuId).collect(),
    ));
    m.run_until(SimTime::from_millis(5));
    m
}

#[test]
fn two_machine_export_keeps_both_rings_and_their_accounting() {
    let dir = std::path::PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    let dest = dir.join("trace_export_regression.tsv");
    let dest_str = dest.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(format!("{dest_str}.1"));

    // Two machines in one process: different seeds (different
    // schedules) and wildly different ring capacities (only the tiny
    // ring evicts).
    let m1 = traced_machine(0xAAAA, 65_536, &dest);
    let m2 = traced_machine(0xBBBB, 64, &dest);
    let tsv1 = m1.trace_tsv().expect("m1 traced");
    let tsv2 = m2.trace_tsv().expect("m2 traced");
    assert_ne!(tsv1, tsv2, "distinct seeds must give distinct schedules");

    // Eviction accounting is per-ring: the big ring never warns, the
    // tiny ring reports its own counts.
    let t1 = m1.tracer().expect("m1 tracer");
    let t2 = m2.tracer().expect("m2 tracer");
    assert_eq!(t1.dropped(), 0, "65536-slot ring must not evict in 5 ms");
    assert!(t2.dropped() > 0, "64-slot ring must evict");
    assert!(t1.eviction_warning().is_none());
    let w = t2.eviction_warning().expect("tiny ring warns");
    assert!(
        w.contains(&format!("{} event(s)", t2.dropped())),
        "warning must carry this ring's own drop count: {w}"
    );

    // Export both to their one shared explicit destination.
    taichi_sim::trace::reset_export_paths();
    emit_trace("m1", &m1);
    emit_trace("m2", &m2);

    // The first export owns the named path; the second lands at the
    // disambiguated sibling instead of clobbering it.
    let on_disk_1 = std::fs::read_to_string(&dest).expect("first export exists");
    let on_disk_2 =
        std::fs::read_to_string(format!("{dest_str}.1")).expect("second export disambiguated");
    assert_eq!(on_disk_1, tsv1, "first ring's schedule must survive");
    assert_eq!(on_disk_2, tsv2, "second ring exported in full");
    // The evicting ring's TSV footer carries its own drop count.
    assert!(on_disk_2.contains(&format!("# dropped\t{}", t2.dropped())));
    assert!(on_disk_1.contains("# dropped\t0"));

    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(format!("{dest_str}.1"));
}
