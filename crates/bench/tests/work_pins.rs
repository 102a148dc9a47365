//! Work pins: exact, seed-deterministic engine work counts for three
//! fixed configurations shaped like the repo benchmark's `harvest`,
//! `dp_saturated` and `fleet_rack` workloads.
//!
//! Wall-time gates on a shared machine cannot be tight, but most
//! engine wins and losses are changes in *work* — events dispatched
//! vs. skipped vs. fast-forwarded, slab and ring high-water marks,
//! resident bytes — and those counts are exact for a seed. A change
//! that alters any of them fails here with a per-key diff. An
//! intended change updates the pin in the same commit and says why.
//!
//! The harvest-shaped config also pins the Tai Chi policy's decision
//! counts, and runs once more in each mode that never harvests
//! (Baseline, Type2), whose output no other pin covers. Every
//! single-machine config also pins its dispatch count per event kind,
//! and a reduced Figure 3 machine (Baseline, low load) pins what each
//! packet costs in events.

use taichi_core::machine::{Machine, Mode};
use taichi_core::{MachineConfig, RunReport, TenantConfig};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_hw::{IoKind, TenantId};
use taichi_sim::{Dist, Rng, SimDuration, SimTime};

type Pins = [(&'static str, u64)];

/// Compares `actual` against `expected` key by key and panics with
/// every mismatching key (and any missing or extra one) listed.
fn check(config: &str, actual: &Pins, expected: &Pins) {
    let diff = mismatches(actual, expected);
    assert!(
        diff.is_empty(),
        "{config}: engine work changed\n{}",
        diff.join("\n")
    );
}

/// Every key on which `actual` and `expected` disagree, one line each.
fn mismatches(actual: &Pins, expected: &Pins) -> Vec<String> {
    let mut diff = Vec::new();
    for &(key, want) in expected {
        match actual.iter().find(|(k, _)| *k == key) {
            Some(&(_, got)) if got == want => {}
            Some(&(_, got)) => diff.push(format!("  {key}: pinned {want}, got {got}")),
            None => diff.push(format!("  {key}: pinned {want}, not measured")),
        }
    }
    for &(key, got) in actual {
        if !expected.iter().any(|(k, _)| *k == key) {
            diff.push(format!("  {key}: not pinned, got {got}"));
        }
    }
    diff
}

/// The per-machine counts every single-machine config pins, followed
/// by the dispatch count of each event kind that was dispatched at all
/// (keyed by the `Event` variant name).
fn machine_pins(m: &Machine) -> Vec<(&'static str, u64)> {
    let (slab_hwm, ring_hwm) = m.memory_high_watermarks();
    let mut pins = vec![
        ("events_processed", m.events_processed()),
        ("events_dispatched", m.events_dispatched()),
        ("events_skipped", m.events_skipped()),
        ("events_fast_forwarded", m.events_fast_forwarded()),
        ("slab_high_watermark", slab_hwm as u64),
        ("ring_high_watermark", ring_hwm as u64),
        ("resident_bytes", m.resident_bytes() as u64),
    ];
    let by_kind: Vec<_> = m
        .events_dispatched_by_kind()
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(
        by_kind.iter().map(|&(_, n)| n).sum::<u64>(),
        m.events_dispatched(),
        "per-kind dispatch counts must sum to events_dispatched: {by_kind:?}"
    );
    pins.extend(by_kind);
    pins
}

/// The Tai Chi policy's decision counts: yields, lock reschedules and
/// their CP fallbacks, VM-exits by cause, and orchestrator wake-ups.
fn decision_pins(m: &Machine) -> Vec<(&'static str, u64)> {
    let r = RunReport::collect(m);
    let vs = m.vsched();
    vec![
        ("yields", vs.total_yields()),
        ("lock_reschedules", vs.total_lock_reschedules()),
        ("lock_fallbacks", vs.total_lock_fallbacks()),
        ("hw_probe_exits", r.hw_probe_exits),
        ("slice_exits", r.slice_exits),
        ("halt_exits", r.halt_exits),
        ("woken", m.orchestrator().woken_count()),
    ]
}

/// Runs the harvest-shaped workload in `mode`: bursty traffic on every
/// DP CPU while a synth_cp batch and two VM creations harvest their
/// idle time (in the Tai Chi modes).
fn harvest_shaped(mode: Mode) -> Machine {
    let seed = 0x4A27;
    let mut m = Machine::new(
        MachineConfig {
            seed,
            ..MachineConfig::default()
        },
        mode,
    );
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        m.dp_cpu_ids().to_vec(),
    ));
    let mut rng = Rng::new(seed ^ 0xC0);
    m.schedule_cp_batch(SynthCp::default().workload(8, &mut rng), SimTime::ZERO);
    let factory = TaskFactory::default();
    for v in 0..2 {
        let at = SimTime::from_millis(5 + 10 * v);
        m.schedule_vm_create(VmCreateRequest::at_density(v, 2, at), &factory);
    }
    m.run_until(SimTime::from_millis(20));
    m
}

#[test]
fn harvest_shaped_machine() {
    let m = harvest_shaped(Mode::TaiChi);
    let mut actual = machine_pins(&m);
    actual.extend(decision_pins(&m));
    check(
        "harvest",
        &actual,
        &[
            ("events_processed", 86568),
            ("events_dispatched", 81994),
            ("events_skipped", 4574),
            ("events_fast_forwarded", 297196),
            ("slab_high_watermark", 54),
            ("ring_high_watermark", 27),
            ("resident_bytes", 129568),
            ("NextArrival", 30986),
            ("Delivered", 30971),
            ("ProbeIrq", 850),
            ("DpIdle", 1886),
            ("VcpuEntered", 1322),
            ("VcpuSliceExpire", 935),
            ("VcpuExited", 1319),
            ("KernelDecide", 162),
            ("DpBurstDone", 13560),
            ("VmCreate", 2),
            ("SpawnBatch", 1),
            ("yields", 1322),
            ("lock_reschedules", 688),
            ("lock_fallbacks", 175),
            ("hw_probe_exits", 382),
            ("slice_exits", 935),
            ("halt_exits", 2),
            ("woken", 10),
        ],
    );
}

#[test]
fn harvest_shaped_machine_without_harvesting() {
    // The same workload in the two modes that never harvest: the
    // kernel's native scheduling runs alone.
    let cases: [(Mode, &Pins); 2] = [
        (
            Mode::Baseline,
            &[
                ("events_processed", 72308),
                ("events_dispatched", 72147),
                ("events_skipped", 161),
                ("events_fast_forwarded", 944826),
                ("slab_high_watermark", 44),
                ("ring_high_watermark", 26),
                ("resident_bytes", 133376),
                ("NextArrival", 30986),
                ("Delivered", 30971),
                ("KernelDecide", 111),
                ("DpBurstDone", 10076),
                ("VmCreate", 2),
                ("SpawnBatch", 1),
                ("cp_finished", 5),
            ],
        ),
        (
            Mode::Type2,
            &[
                ("events_processed", 66575),
                ("events_dispatched", 66424),
                ("events_skipped", 151),
                ("events_fast_forwarded", 722803),
                ("slab_high_watermark", 46),
                ("ring_high_watermark", 51),
                ("resident_bytes", 139520),
                ("NextArrival", 30986),
                ("Delivered", 30971),
                ("KernelDecide", 102),
                ("DpBurstDone", 4362),
                ("VmCreate", 2),
                ("SpawnBatch", 1),
                ("cp_finished", 5),
            ],
        ),
    ];
    // Both modes are measured before either fails, so one run shows
    // every moved pin.
    let mut diff = Vec::new();
    for (mode, expected) in cases {
        let m = harvest_shaped(mode);
        let mut actual = machine_pins(&m);
        actual.push(("cp_finished", RunReport::collect(&m).cp_finished));
        let moved = mismatches(&actual, expected);
        if !moved.is_empty() {
            diff.push(format!("harvest/{mode}: engine work changed"));
            diff.extend(moved);
        }
    }
    assert!(diff.is_empty(), "{}", diff.join("\n"));
}

#[test]
fn fig3_shaped_machine() {
    // Figure 3's Baseline machine at reduced scale: diurnally
    // modulated low load on every DP CPU (the profile cycled in 200 ms
    // instead of 20 s) with utilization sampling, and no CP work. Most
    // bursts drain the ring here, so this pin shows what each packet
    // costs in events.
    let mut m = Machine::new(
        MachineConfig {
            seed: 0xF163,
            ..MachineConfig::default()
        },
        Mode::Baseline,
    );
    let mut profile: Vec<f64> = (0..100)
        .map(|i| 1.0 + 0.6 * (i as f64 / 100.0 * std::f64::consts::TAU).sin())
        .collect();
    profile[84] = 3.7;
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::Modulated {
            base_gap_us: Dist::exponential(1.5 / 0.10 / 8.0),
            profile,
            slot: SimDuration::from_millis(2),
        },
        Dist::constant(512.0),
        IoKind::Network,
        m.dp_cpu_ids().to_vec(),
    ));
    m.enable_util_sampling(SimDuration::from_millis(10));
    m.run_until(SimTime::from_millis(200));
    check(
        "fig3",
        &machine_pins(&m),
        &[
            ("events_processed", 232882),
            ("events_dispatched", 232882),
            ("events_skipped", 0),
            ("events_fast_forwarded", 11912105),
            ("slab_high_watermark", 21),
            ("ring_high_watermark", 6),
            ("resident_bytes", 115920),
            ("NextArrival", 109993),
            ("Delivered", 109992),
            ("DpBurstDone", 12877),
            ("UtilSample", 20),
        ],
    );
}

#[test]
fn dp_saturated_shaped_machine() {
    // Two tenants' open-loop streams behind the DRR arbiter at equal
    // weights, no CP work.
    let mut m = Machine::new(
        MachineConfig {
            seed: 0x5A7,
            tenants: TenantConfig {
                count: 2,
                weights: vec![1, 1],
                ..TenantConfig::default()
            },
            ..MachineConfig::default()
        },
        Mode::TaiChi,
    );
    let dp = m.dp_cpu_ids().to_vec();
    let (first, second) = dp.split_at(dp.len() / 2);
    for (tenant, cpus) in [(0, first), (1, second)] {
        let gen = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(0.45),
            },
            Dist::constant(512.0),
            IoKind::Network,
            cpus.to_vec(),
        );
        m.add_traffic(gen.with_tenant(TenantId(tenant)));
    }
    m.run_until(SimTime::from_millis(20));
    check(
        "dp_saturated",
        &machine_pins(&m),
        &[
            ("events_processed", 326841),
            ("events_dispatched", 313425),
            ("events_skipped", 13416),
            ("events_fast_forwarded", 213955),
            ("slab_high_watermark", 50),
            ("ring_high_watermark", 26),
            ("resident_bytes", 248512),
            ("NextArrival", 88947),
            ("Delivered", 88935),
            ("DpIdle", 1391),
            ("DpBurstDone", 45205),
            ("ArbiterIssue", 88947),
        ],
    );
}

#[test]
fn fleet_rack_shaped_fleet() {
    // 16 machines, 8 epochs of 2 ms, churn and a startup storm.
    let cfg = FleetConfig {
        machines: 16,
        epochs: 8,
        churn_per_epoch: 2.0,
        storm_epoch: Some(4),
        storm_vms_per_machine: 2,
        ..FleetConfig::default()
    };
    let r = run(&cfg, FleetDriver::EpochParallel { workers: 2 });
    assert_eq!(r.violation_count, 0, "{:?}", r.violations);
    let actual = [
        ("epoch_events", r.epochs.iter().map(|e| e.events).sum()),
        ("slab_high_watermark", r.slab_high_watermark as u64),
        ("ring_high_watermark", r.ring_high_watermark as u64),
        ("resident_bytes", r.resident_bytes),
    ];
    check(
        "fleet_rack",
        &actual,
        &[
            ("epoch_events", 942106),
            ("slab_high_watermark", 97),
            ("ring_high_watermark", 11),
            // Final-epoch backing storage, not the peak: the storm's
            // slab and ring capacity is kept for reuse (nothing shrinks).
            ("resident_bytes", 383872),
        ],
    );
}
