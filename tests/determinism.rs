//! Bit-level reproducibility: the reproduction contract requires that
//! a seed fully determines a run, in every mode, including the heavy
//! benchmark paths.

use taichi::core::machine::{Machine, Mode};
use taichi::core::metrics::RunReport;
use taichi::core::MachineConfig;
use taichi::cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi::dp::{ArrivalPattern, TrafficGen};
use taichi::hw::{CpuId, IoKind};
use taichi::sim::{Dist, Rng, SimTime};

fn fingerprint(mode: Mode, seed: u64) -> Vec<u64> {
    let cfg = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, mode);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));
    let synth = SynthCp::default();
    let mut rng = Rng::new(seed ^ 0x51);
    m.schedule_cp_batch(synth.workload(10, &mut rng), SimTime::ZERO);
    let factory = TaskFactory::default();
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(10)),
        &factory,
    );
    m.run_until(SimTime::from_millis(700));
    let r = RunReport::collect(&m);
    vec![
        r.dp.packets(),
        r.dp.total_latency().mean().to_bits(),
        r.dp.total_latency().percentile(99.9),
        r.cp_finished,
        r.cp_turnaround.mean().to_bits(),
        r.cp_spin_time_ns,
        r.yields,
        r.hw_probe_exits,
        r.slice_exits,
        r.lock_reschedules,
        r.vm_startups.first().map(|d| d.as_nanos()).unwrap_or(0),
        m.orchestrator().woken_count(),
        m.posted_interrupts(),
    ]
}

#[test]
fn identical_seeds_identical_runs_every_mode() {
    for mode in Mode::all() {
        assert_eq!(
            fingerprint(mode, 77),
            fingerprint(mode, 77),
            "{mode}: nondeterminism detected"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(Mode::TaiChi, 1);
    let b = fingerprint(Mode::TaiChi, 2);
    assert_ne!(a, b, "seeds must matter");
}

#[test]
fn workload_measurements_are_reproducible() {
    use taichi::sim::SimDuration;
    use taichi::workloads::{measure, BenchTraffic};
    let t = BenchTraffic::net(512.0, 0.35, true);
    let cfg = MachineConfig {
        seed: 9,
        ..MachineConfig::default()
    };
    let a = measure(&cfg, Mode::TaiChi, &t, SimDuration::from_millis(120));
    let b = measure(&cfg, Mode::TaiChi, &t, SimDuration::from_millis(120));
    assert_eq!(a.pps.to_bits(), b.pps.to_bits());
    assert_eq!(a.lat_p999_ns, b.lat_p999_ns);
    assert_eq!(a.yields, b.yields);
    assert_eq!(a.drops, b.drops);
}

/// Same seed, trace enabled: the exported TSV must be byte-identical
/// across runs — the trace layer is part of the determinism contract.
fn traced_tsv(mode: Mode, seed: u64) -> String {
    let mut cfg = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    let mut m = Machine::new(cfg, mode);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));
    let synth = SynthCp::default();
    let mut rng = Rng::new(seed ^ 0x51);
    m.schedule_cp_batch(synth.workload(10, &mut rng), SimTime::ZERO);
    m.run_until(SimTime::from_millis(200));
    m.trace_tsv().expect("trace was enabled")
}

#[test]
fn identical_seeds_identical_traces_every_mode() {
    for mode in Mode::all() {
        let a = traced_tsv(mode, 77);
        let b = traced_tsv(mode, 77);
        assert!(!a.is_empty());
        assert_eq!(a, b, "{mode}: trace TSV differs between identical runs");
    }
}

#[test]
fn enabling_trace_does_not_perturb_the_run() {
    // The tracer only observes: a traced run and an untraced run of the
    // same seed must produce the same report fingerprint. (`fingerprint`
    // runs with trace disabled; compare against a traced twin.)
    let plain = fingerprint(Mode::TaiChi, 77);
    let cfg = {
        let mut c = MachineConfig {
            seed: 77,
            ..MachineConfig::default()
        };
        c.trace.enabled = true;
        c
    };
    let mut m = Machine::new(cfg, Mode::TaiChi);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));
    let synth = SynthCp::default();
    let mut rng = Rng::new(77 ^ 0x51);
    m.schedule_cp_batch(synth.workload(10, &mut rng), SimTime::ZERO);
    let factory = TaskFactory::default();
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(10)),
        &factory,
    );
    m.run_until(SimTime::from_millis(700));
    let r = RunReport::collect(&m);
    let traced = vec![
        r.dp.packets(),
        r.dp.total_latency().mean().to_bits(),
        r.dp.total_latency().percentile(99.9),
        r.cp_finished,
        r.cp_turnaround.mean().to_bits(),
        r.cp_spin_time_ns,
        r.yields,
        r.hw_probe_exits,
        r.slice_exits,
        r.lock_reschedules,
        r.vm_startups.first().map(|d| d.as_nanos()).unwrap_or(0),
        m.orchestrator().woken_count(),
        m.posted_interrupts(),
    ];
    assert_eq!(plain, traced, "tracing must not perturb the schedule");
}

#[test]
fn ping_benchmark_reproducible() {
    use taichi::workloads::ping;
    let cfg = MachineConfig {
        seed: 5,
        ..MachineConfig::default()
    };
    let a = ping::run(Mode::TaiChiNoHwProbe, &cfg);
    let b = ping::run(Mode::TaiChiNoHwProbe, &cfg);
    assert_eq!(a.max_us.to_bits(), b.max_us.to_bits());
    assert_eq!(a.avg_us.to_bits(), b.avg_us.to_bits());
}
