//! The paper's headline claims, asserted end-to-end: each test mirrors
//! one evaluation result (see EXPERIMENTS.md for the full
//! paper-vs-measured accounting).
//!
//! `TAICHI_TRACE=/tmp/t.tsv cargo test --test paper_claims <name>`
//! traces every machine a claim builds and, when the claim fails,
//! writes the failing run's schedule to that path: each claim keeps its
//! machines alive until its last assertion, and a traced machine
//! dropped while the test panics writes its trace.

use taichi::core::machine::{Machine, Mode};
use taichi::core::metrics::RunReport;
use taichi::core::MachineConfig;
use taichi::cp::{CpTaskKind, SynthCp, TaskFactory};
use taichi::dp::{ArrivalPattern, TrafficGen};
use taichi::hw::{CpuId, IoKind};
use taichi::sim::{Dist, Rng, SimDuration, SimTime};
use taichi::workloads::fio::FioRw;
use taichi::workloads::ping;

/// The default machine at `seed`, traced when `TAICHI_TRACE` is set
/// (a non-empty value is the failure-dump destination).
fn config(seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    if let Ok(dump) = std::env::var("TAICHI_TRACE") {
        cfg.trace.enabled = true;
        cfg.trace.dump = Some(dump).filter(|p| !p.is_empty()).map(Into::into);
    }
    cfg
}

fn bursty_30pct() -> TrafficGen {
    TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    )
}

/// §6.2 / Fig. 11: substantial CP speedup at high concurrency with DP
/// held near the production p99 utilization.
#[test]
fn claim_cp_speedup_at_32_tasks() {
    let mut results = Vec::new();
    let mut machines = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        let mut m = Machine::new(config(0xC1A1), mode);
        m.add_traffic(bursty_30pct());
        // Production CP background, as on the paper's nodes.
        let factory = TaskFactory::default();
        let mut bg = Rng::new(0xB6);
        let mut t = SimTime::from_millis(1);
        while t < SimTime::from_secs(8) {
            m.schedule_cp_batch(
                vec![
                    factory.build(CpTaskKind::DeviceManagement, &mut bg),
                    factory.build(CpTaskKind::Monitoring, &mut bg),
                ],
                t,
            );
            t += SimDuration::from_millis(3);
        }
        let synth = SynthCp::default();
        let mut rng = Rng::new(0x11);
        let batch = m.schedule_cp_batch(synth.workload(32, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_secs(8));
        let k = m.kernel();
        let mean_ms: f64 = m
            .batch_threads(batch)
            .iter()
            .map(|&tid| {
                k.thread_info(tid)
                    .turnaround()
                    .expect("synth task finished")
                    .as_millis_f64()
            })
            .sum::<f64>()
            / 32.0;
        results.push(mean_ms);
        machines.push(m);
    }
    let speedup = results[0] / results[1];
    // Paper: 4x. Accept >2.5x (see EXPERIMENTS.md for the gap analysis).
    assert!(
        speedup > 2.5,
        "CP speedup {speedup:.2}x below the reproduction band"
    );
}

/// §6.5: average DP overhead below ~2 %, despite aggressive harvesting.
#[test]
fn claim_dp_overhead_below_two_percent() {
    let mut means = Vec::new();
    let mut machines = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        let mut m = Machine::new(config(0xD9), mode);
        m.add_traffic(bursty_30pct());
        let synth = SynthCp::default();
        let mut rng = Rng::new(3);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_secs(1));
        let r = RunReport::collect(&m);
        means.push(r.dp.total_latency().mean());
        machines.push(m);
    }
    let overhead = (means[1] - means[0]) / means[0];
    assert!(
        overhead < 0.03,
        "mean DP latency overhead {:.2}% exceeds the paper band",
        overhead * 100.0
    );
}

/// §6.4 / Table 5: the hardware probe hides scheduling latency; the
/// ablation shows the un-hidden tail.
#[test]
fn claim_probe_hides_scheduling_latency() {
    let cfg = config(0xF00);
    let base = ping::run(Mode::Baseline, &cfg);
    let taichi = ping::run(Mode::TaiChi, &cfg);
    let noprobe = ping::run(Mode::TaiChiNoHwProbe, &cfg);
    // With the probe: max RTT within ~40 % of baseline.
    assert!(
        taichi.max_us < base.max_us * 1.4,
        "probed max {:.0} vs baseline {:.0}",
        taichi.max_us,
        base.max_us
    );
    // Without: at least 2x the baseline max (paper: 3x).
    assert!(
        noprobe.max_us > base.max_us * 2.0,
        "no-probe max {:.0} vs baseline {:.0}",
        noprobe.max_us,
        base.max_us
    );
}

/// §6.3 / Figs. 12-13: hybrid virtualization beats both traditional
/// designs — the full ordering at saturation.
#[test]
fn claim_hybrid_beats_type1_and_type2() {
    let fio = FioRw {
        window: SimDuration::from_millis(150),
        ..FioRw::default()
    };
    let cfg = config(0xAB);
    let base = fio.run(Mode::Baseline, &cfg).iops;
    let taichi = fio.run(Mode::TaiChi, &cfg).iops;
    let vdp = fio.run(Mode::TaiChiVdp, &cfg).iops;
    let t2 = fio.run(Mode::Type2, &cfg).iops;
    assert!(taichi > 0.98 * base, "hybrid is near-native");
    assert!(vdp < 0.97 * base, "type-1-like pays the guest tax");
    assert!(t2 < 0.85 * base, "type-2 pays the emulation CPU");
    assert!(taichi > vdp && vdp > t2, "full ordering");
}

/// §6.6 / Fig. 17: production VM startup improves under Tai Chi at
/// high density.
#[test]
fn claim_vm_startup_improves_at_density() {
    use taichi::cp::VmCreateRequest;
    let mut means = Vec::new();
    let mut machines = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        let mut m = Machine::new(config(0xBEEF), mode);
        m.add_traffic(bursty_30pct());
        let factory = TaskFactory::default();
        for i in 0..4 {
            let mut req = VmCreateRequest::at_density(i, 4, SimTime::from_millis(i * 5));
            req.qemu_boot = SimDuration::from_millis(10);
            m.schedule_vm_create(req, &factory);
        }
        m.run_until(SimTime::from_secs(10));
        let s = m.vm_startup_times();
        assert_eq!(s.len(), 4, "{mode}: all VMs started");
        means.push(s.iter().map(|d| d.as_millis_f64()).sum::<f64>() / s.len() as f64);
        machines.push(m);
    }
    let reduction = means[0] / means[1];
    assert!(
        reduction > 1.4,
        "VM startup reduction {reduction:.2}x below band (paper: 3.1x)"
    );
}
