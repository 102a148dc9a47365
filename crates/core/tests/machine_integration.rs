//! End-to-end machine tests: every mode, both scheduling paths, the
//! adaptive controllers, and the safety properties.

use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::MachineConfig;
use taichi_cp::{CpTaskKind, SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::IoKind;
use taichi_sim::{Dist, FaultPlan, Rng, SimDuration, SimTime};

/// Open-loop Poisson traffic at roughly the requested per-CPU DP
/// utilization (packet cost ≈ 1.5 µs at the default service config).
fn traffic(dp_cpus: u32, util: f64) -> TrafficGen {
    // util = rate_per_cpu * 1.5 µs  =>  gap = 1.5/util µs per CPU, so
    // the aggregate gap across `dp_cpus` CPUs divides by the count.
    let per_cpu_gap_us = 1.5 / util.max(0.01);
    let gap = per_cpu_gap_us / dp_cpus as f64;
    TrafficGen::new(
        ArrivalPattern::OpenLoop {
            gap_us: Dist::exponential(gap),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(taichi_hw::CpuId).collect(),
    )
}

/// Bursty on/off traffic averaging ~30 % DP utilization: dense bursts
/// (≈90 % within-burst utilization) alternating with idle stretches —
/// the production pattern behind Fig. 3's over-provisioning.
fn bursty_traffic(dp_cpus: u32) -> TrafficGen {
    bursty_traffic_duty(dp_cpus, 0.33)
}

/// Bursty traffic with a configurable duty cycle (mean utilization is
/// ~0.9 x duty).
fn bursty_traffic_duty(dp_cpus: u32, duty: f64) -> TrafficGen {
    let off = 200.0 * (1.0 - duty) / duty.max(0.01);
    TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(off),
            // Within-burst aggregate gap: 1.5 µs per-packet cost /
            // 0.9 util / 8 CPUs ≈ 0.21 µs.
            burst_gap_us: Dist::exponential(1.5 / 0.9 / dp_cpus as f64),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(taichi_hw::CpuId).collect(),
    )
}

fn machine(mode: Mode) -> Machine {
    Machine::new(MachineConfig::default(), mode)
}

#[test]
fn baseline_processes_traffic() {
    let mut m = machine(Mode::Baseline);
    m.add_traffic(traffic(8, 0.3));
    m.run_until(SimTime::from_millis(200));
    let r = RunReport::collect(&m);
    assert!(r.dp.packets() > 10_000, "packets {}", r.dp.packets());
    assert_eq!(r.dp_dropped, 0);
    assert_eq!(r.yields, 0, "baseline must not yield");
    // Utilization near 30%.
    let u = r.mean_dp_utilization();
    assert!((0.2..0.45).contains(&u), "utilization {u}");
    // End-to-end latency ≈ 3.2 µs hardware + ~1.5 µs software.
    let p50 = r.dp.total_latency().percentile(50.0);
    assert!((4_000..8_000).contains(&p50), "p50 {p50} ns");
}

#[test]
fn taichi_runs_cp_on_idle_dp_cycles() {
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(bursty_traffic(8));
    let synth = SynthCp::default();
    let mut rng = Rng::new(7);
    let progs = synth.workload(16, &mut rng);
    let batch = m.schedule_cp_batch(progs, SimTime::ZERO);
    m.run_until(SimTime::from_secs(1));
    let r = RunReport::collect(&m);
    assert!(r.yields > 0, "expected DP→CP yields");
    assert_eq!(m.batch_threads(batch).len(), 16);
    assert_eq!(r.cp_finished, 16, "all synth tasks finish");
    assert!(r.hw_probe_exits > 0, "hw probe should preempt vCPUs");
}

#[test]
fn taichi_speeds_up_cp_vs_baseline() {
    let mut turnarounds = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        let mut m = machine(mode);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(7);
        let progs = synth.workload(32, &mut rng);
        m.schedule_cp_batch(progs, SimTime::ZERO);
        m.run_until(SimTime::from_secs(3));
        let r = RunReport::collect(&m);
        assert_eq!(r.cp_finished, 32, "{mode}: all tasks finish");
        turnarounds.push(r.mean_cp_turnaround_ms());
    }
    let speedup = turnarounds[0] / turnarounds[1];
    assert!(
        speedup > 1.8,
        "Tai Chi CP speedup {speedup:.2}x (baseline {:.1} ms, taichi {:.1} ms)",
        turnarounds[0],
        turnarounds[1]
    );
}

#[test]
fn taichi_dp_latency_close_to_baseline() {
    let mut p999s = Vec::new();
    let mut means = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        let mut m = machine(mode);
        m.add_traffic(traffic(8, 0.3));
        let synth = SynthCp::default();
        let mut rng = Rng::new(7);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_secs(1));
        let r = RunReport::collect(&m);
        p999s.push(r.dp.total_latency().percentile(99.9) as f64);
        means.push(r.dp.total_latency().mean());
    }
    // Mean within a few percent; p999 within ~6 µs (a partially hidden
    // switch plus the cache-pollution surcharge) — versus the tens of
    // microseconds the no-probe ablation shows.
    let mean_overhead = (means[1] - means[0]) / means[0];
    assert!(
        mean_overhead < 0.05,
        "mean DP overhead {:.2}% too high",
        mean_overhead * 100.0
    );
    assert!(
        p999s[1] < p999s[0] + 8_000.0,
        "p999 spike: baseline {} vs taichi {}",
        p999s[0],
        p999s[1]
    );
}

#[test]
fn no_hw_probe_causes_latency_spikes() {
    let mut maxes = Vec::new();
    for mode in [Mode::TaiChi, Mode::TaiChiNoHwProbe] {
        let mut m = machine(mode);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(7);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_secs(1));
        let r = RunReport::collect(&m);
        maxes.push(r.dp.total_latency().max());
    }
    // Without the probe, packets wait out vCPU slices: max latency far
    // above the probed configuration.
    assert!(
        maxes[1] > maxes[0] + 30_000,
        "expected spikes without probe: with {} vs without {}",
        maxes[0],
        maxes[1]
    );
}

#[test]
fn vdp_mode_taxes_dp_processing() {
    let mut means = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChiVdp] {
        let mut m = machine(mode);
        m.add_traffic(traffic(8, 0.3));
        m.run_until(SimTime::from_millis(300));
        let r = RunReport::collect(&m);
        means.push(r.dp.software_latency().mean());
    }
    let overhead = (means[1] - means[0]) / means[0];
    assert!(
        overhead > 0.04,
        "vDP software overhead {:.2}% too low",
        overhead * 100.0
    );
}

#[test]
fn type2_loses_a_dp_cpu() {
    let m = machine(Mode::Type2);
    assert_eq!(m.services().len(), 7);
    let m2 = machine(Mode::Baseline);
    assert_eq!(m2.services().len(), 8);
}

#[test]
fn vm_creation_completes_with_startup_time() {
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(traffic(8, 0.3));
    let factory = TaskFactory::default();
    for i in 0..4 {
        let req = VmCreateRequest::at_density(i, 1, SimTime::from_millis(i * 5));
        m.schedule_vm_create(req, &factory);
    }
    m.run_until(SimTime::from_secs(5));
    let times = m.vm_startup_times();
    assert_eq!(times.len(), 4, "all VMs started");
    for t in times {
        // ≥ the 120 ms QEMU boot floor, well under the horizon.
        assert!(*t >= SimDuration::from_millis(120));
        assert!(*t < SimDuration::from_secs(4), "startup {t}");
    }
}

#[test]
fn locked_cp_tasks_always_complete_under_taichi() {
    // Heavy lock contention: every device task hits the same driver
    // lock; vCPU preemption mid-critical-section must not wedge them.
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(traffic(8, 0.3));
    let factory = TaskFactory::default();
    let mut rng = Rng::new(11);
    let progs: Vec<_> = (0..24)
        .map(|_| factory.device_init(taichi_cp::task::locks::NIC_DRIVER, 3, &mut rng))
        .collect();
    m.schedule_cp_batch(progs, SimTime::ZERO);
    m.run_until(SimTime::from_secs(5));
    let r = RunReport::collect(&m);
    assert_eq!(r.cp_finished, 24, "forward progress under contention");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut m = machine(Mode::TaiChi);
        m.add_traffic(traffic(8, 0.3));
        let synth = SynthCp::default();
        let mut rng = Rng::new(3);
        m.schedule_cp_batch(synth.workload(8, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(500));
        let r = RunReport::collect(&m);
        (
            r.dp.packets(),
            r.dp.total_latency().mean().to_bits(),
            r.yields,
            r.cp_finished,
            r.cp_turnaround.mean().to_bits(),
        )
    };
    assert_eq!(run(), run(), "identical seeds must give identical runs");
}

#[test]
fn adaptive_yield_reacts_to_traffic() {
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(bursty_traffic(8));
    let synth = SynthCp::default();
    let mut rng = Rng::new(5);
    m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
    m.run_until(SimTime::from_secs(1));
    // Both adjustment directions exercised under mixed idle/busy.
    assert!(m.yield_ctl().increases() > 0, "false-positive feedback");
    assert!(m.yield_ctl().decreases() > 0, "sustained-idle feedback");
}

#[test]
fn util_sampling_produces_windows() {
    let mut m = machine(Mode::Baseline);
    m.add_traffic(traffic(8, 0.3));
    m.enable_util_sampling(SimDuration::from_millis(10));
    m.run_until(SimTime::from_millis(205));
    // 20 sampling points × 8 services.
    assert_eq!(m.util_samples().len(), 20 * 8);
    let mean: f64 = m.util_samples().iter().sum::<f64>() / m.util_samples().len() as f64;
    assert!((0.15..0.5).contains(&mean), "sampled mean {mean}");
}

#[test]
fn cp_work_reaches_vcpus_via_affinity_only() {
    // Transparency check at the system level: CP programs know nothing
    // about Tai Chi, yet under load they execute on vCPUs (total CP
    // throughput exceeds what 4 CP pCPUs could deliver).
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(bursty_traffic_duty(8, 0.10)); // mostly-idle DP
    let synth = SynthCp {
        task_cpu_time: SimDuration::from_millis(50),
        ..SynthCp::default()
    };
    let mut rng = Rng::new(13);
    m.schedule_cp_batch(synth.workload(64, &mut rng), SimTime::ZERO);
    let horizon = SimTime::from_millis(500);
    m.run_until(horizon);
    let r = RunReport::collect(&m);
    // 64 × 50 ms = 3.2 s of CP work. In 0.5 s, 4 CP pCPUs alone supply
    // at most 2.0 s; exceeding 2.6 s requires genuine DP-idle harvest.
    let cp_seconds = r.cp_cpu_time_ns as f64 / 1e9;
    assert!(
        cp_seconds > 2.6,
        "CP consumed only {cp_seconds:.2} s — vCPU stealing broken"
    );
    assert!(r.yields > 0);
}

#[test]
fn pipeline_aware_yield_vetoes_false_positives() {
    use taichi_core::TaiChiConfig;
    let run = |flag: bool| {
        let cfg = MachineConfig {
            seed: 0x9E,
            taichi: TaiChiConfig {
                pipeline_aware_yield: flag,
                ..TaiChiConfig::default()
            },
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, Mode::TaiChi);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(1);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(400));
        let r = RunReport::collect(&m);
        (m.yield_vetoes(), r.yields, r.hw_probe_exits)
    };
    let (v_off, y_off, _) = run(false);
    let (v_on, y_on, probe_on) = run(true);
    assert_eq!(v_off, 0, "stock config never vetoes");
    assert!(v_on > 0, "pipeline signal should veto some yields");
    assert!(y_off > 0 && y_on > 0, "both configs still harvest");
    // Vetoing in-flight yields cannot create more probe evictions than
    // there are yields.
    assert!(probe_on <= y_on);
}

#[test]
fn cache_isolation_removes_pollution_surcharge() {
    use taichi_core::TaiChiConfig;
    let run = |flag: bool| {
        let cfg = MachineConfig {
            seed: 0xCA,
            taichi: TaiChiConfig {
                cache_isolation: flag,
                ..TaiChiConfig::default()
            },
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, Mode::TaiChi);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(2);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(400));
        let r = RunReport::collect(&m);
        r.dp.software_latency().mean()
    };
    let polluted = run(false);
    let isolated = run(true);
    assert!(
        isolated <= polluted,
        "isolation must not add latency: {isolated} vs {polluted}"
    );
}

/// Every payload a machine parks behind an event handle (in-flight
/// packets, VM creations, CP batches) is unparked exactly once when the
/// event fires. With finite traffic, a machine run to quiescence holds
/// no parked payload, and every slot its arenas ever grew is back on
/// the free list.
#[test]
fn payload_arenas_drain_at_quiescence() {
    let mut two_tenants = MachineConfig::default();
    two_tenants.tenants.count = 2;
    for cfg in [MachineConfig::default(), two_tenants] {
        let mut m = Machine::new(cfg, Mode::TaiChi);
        let dp = m.services().len() as u32;
        let tenants = m.tenant_count() as u32;
        // 4000 packets over the first 4 ms, then silence.
        for i in 0..4000u32 {
            let at = SimTime::from_micros(u64::from(i));
            let tenant = taichi_hw::TenantId(i % tenants);
            m.inject_rx_for_tenant(at, IoKind::Network, 512, taichi_hw::CpuId(i % dp), tenant);
        }
        let mut rng = Rng::new(7);
        m.schedule_cp_batch(
            SynthCp::default().workload(8, &mut rng),
            SimTime::from_millis(1),
        );
        m.schedule_vm_create(
            VmCreateRequest::at_density(0, 2, SimTime::from_millis(2)),
            &TaskFactory::default(),
        );
        m.run_until(SimTime::from_millis(50));

        let label = format!("{tenants} tenant(s)");
        assert_eq!(m.dp_inflight_total(), 0, "{label}: packets still in flight");
        assert!(
            RunReport::collect(&m).dp.packets() > 0,
            "{label}: no traffic"
        );
        let stats = m.arena_stats();
        assert!(stats.iter().all(|a| a.slots > 0), "{label}: {stats:?}");
        for a in stats {
            assert_eq!(a.live, 0, "{label}: parked payload leaked: {a:?}");
            assert_eq!(a.free, a.slots, "{label}: free list short: {a:?}");
        }
    }
}

// ---------------------------------------------------------------
// Early stop: `run_until_or` and `cp_quiescent`.
// ---------------------------------------------------------------

fn seeded(seed: u64) -> MachineConfig {
    MachineConfig {
        seed,
        ..MachineConfig::default()
    }
}

/// The production CP stack the figure runs keep underneath: device
/// management and monitoring every 3 ms for the first `until`.
fn background_cp(m: &mut Machine, seed: u64, until: SimTime) {
    let factory = TaskFactory::default();
    let mut rng = Rng::new(seed ^ 0xB6);
    let mut t = SimTime::from_millis(1);
    while t < until {
        m.schedule_cp_batch(
            vec![
                factory.build(CpTaskKind::DeviceManagement, &mut rng),
                factory.build(CpTaskKind::Monitoring, &mut rng),
            ],
            t,
        );
        t += SimDuration::from_millis(3);
    }
}

fn vm_storm(m: &mut Machine, density: u32) {
    let factory = TaskFactory::default();
    for i in 0..4 {
        let mut req = VmCreateRequest::at_density(i, density, SimTime::from_millis(i * 5));
        req.qemu_boot = SimDuration::from_millis(10);
        m.schedule_vm_create(req, &factory);
    }
}

/// Fig. 17's shape: bursty DP traffic, the background CP stack, and a
/// four-VM creation storm.
fn fig17_shaped(cfg: MachineConfig, mode: Mode) -> Machine {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg, mode);
    m.add_traffic(bursty_traffic(8));
    background_cp(&mut m, seed, SimTime::from_millis(300));
    vm_storm(&mut m, 2);
    m
}

/// Fig. 11's shape: an 8-task synth_cp batch at t = 0 (batch handle
/// 0) on top of the background CP stack.
fn fig11_shaped(cfg: MachineConfig, mode: Mode) -> Machine {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg, mode);
    m.add_traffic(bursty_traffic(8));
    let mut rng = Rng::new(seed ^ 0x11);
    m.schedule_cp_batch(SynthCp::default().workload(8, &mut rng), SimTime::ZERO);
    background_cp(&mut m, seed, SimTime::from_millis(300));
    m
}

/// The shape of Fig. 2 and the §8 CP check: a VM creation storm plus
/// device-init batches every 20 ms for the first 100 ms, and no other
/// CP work, so the machine goes CP-quiescent well before the horizon.
fn fig2_shaped(cfg: MachineConfig, mode: Mode) -> Machine {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg, mode);
    m.add_traffic(bursty_traffic(8));
    vm_storm(&mut m, 2);
    let factory = TaskFactory::default();
    let mut rng = Rng::new(seed ^ 0x8);
    let mut t = SimTime::from_millis(1);
    while t < SimTime::from_millis(100) {
        let program = factory.device_init(taichi_cp::task::locks::NIC_DRIVER, 2, &mut rng);
        m.schedule_cp_batch(vec![program], t);
        t += SimDuration::from_millis(20);
    }
    m
}

/// Runs `build` twice per mode and seed, once stopped early by `done`
/// and once to the full `limit`, and requires the same `measure`.
fn early_stop_matches_full_run<T: PartialEq + std::fmt::Debug>(
    build: fn(MachineConfig, Mode) -> Machine,
    limit: SimTime,
    done: impl Fn(&Machine) -> bool,
    measure: impl Fn(&Machine) -> T,
) {
    for mode in [Mode::Baseline, Mode::TaiChi] {
        for seed in [1, 2] {
            let mut early = build(seeded(seed), mode);
            assert!(
                early.run_until_or(limit, &done),
                "{mode} seed {seed}: never done"
            );
            assert!(early.now() < limit, "{mode} seed {seed}: no early stop");
            let mut full = build(seeded(seed), mode);
            full.run_until(limit);
            assert_eq!(measure(&early), measure(&full), "{mode} seed {seed}");
        }
    }
}

/// Count and summed nanoseconds of every finished thread's turnaround.
fn finished_turnarounds(m: &Machine) -> (usize, u64) {
    let k = m.kernel();
    let done: Vec<_> = k
        .all_threads()
        .filter_map(|tid| k.thread_info(tid).turnaround())
        .collect();
    (done.len(), done.iter().map(|d| d.as_nanos()).sum())
}

#[test]
fn early_stop_keeps_vm_startup_times() {
    early_stop_matches_full_run(
        fig17_shaped,
        SimTime::from_millis(400),
        |m| m.vm_startup_times().len() >= 4,
        |m| m.vm_startup_times().to_vec(),
    );
}

#[test]
fn early_stop_keeps_batch_turnarounds() {
    early_stop_matches_full_run(
        fig11_shaped,
        SimTime::from_millis(400),
        |m| {
            let k = m.kernel();
            let tids = m.batch_threads(0);
            tids.len() == 8
                && tids
                    .iter()
                    .all(|&t| k.thread_info(t).turnaround().is_some())
        },
        |m| {
            let tids = m.batch_threads(0);
            assert_eq!(tids.len(), 8);
            tids.iter()
                .map(|&tid| m.kernel().thread_info(tid).turnaround())
                .collect::<Vec<_>>()
        },
    );
}

#[test]
fn early_stop_at_cp_quiescence_keeps_finished_turnarounds() {
    early_stop_matches_full_run(
        fig2_shaped,
        SimTime::from_millis(600),
        Machine::cp_quiescent,
        |m| (finished_turnarounds(m), m.vm_startup_times().to_vec()),
    );
}

#[test]
fn cp_quiescent_waits_for_parked_jobs_and_unfinished_threads() {
    let mut m = machine(Mode::Baseline);
    assert!(m.cp_quiescent(), "an idle machine has no CP work");

    let factory = TaskFactory::default();
    let mut rng = Rng::new(4);
    let batch = m.schedule_cp_batch(
        vec![factory.build(CpTaskKind::DeviceManagement, &mut rng)],
        SimTime::from_millis(10),
    );
    m.run_until(SimTime::from_millis(5));
    assert!(!m.cp_quiescent(), "CP batch still parked");
    m.run_until(SimTime::from_millis(10));
    let tid = m.batch_threads(batch)[0];
    assert!(m.kernel().thread_info(tid).turnaround().is_none());
    assert!(!m.cp_quiescent(), "CP thread still running");
    assert!(m.run_until_or(SimTime::from_secs(2), Machine::cp_quiescent));
    assert!(m.kernel().thread_info(tid).turnaround().is_some());

    let at = m.now() + SimDuration::from_millis(5);
    m.schedule_vm_create(VmCreateRequest::at_density(0, 1, at), &factory);
    assert!(!m.cp_quiescent(), "VM creation still parked");
    m.run_until(at);
    assert!(!m.cp_quiescent(), "device init still running");
    assert!(m.run_until_or(SimTime::from_secs(4), Machine::cp_quiescent));
    assert_eq!(m.vm_startup_times().len(), 1);
}

#[test]
fn cp_quiescent_never_holds_under_a_fault_storm() {
    let cfg = MachineConfig {
        faults: FaultPlan {
            storm_period: SimDuration::from_millis(5),
            ..FaultPlan::default()
        },
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, Mode::TaiChi);
    let limit = SimTime::from_millis(200);
    assert!(!m.run_until_or(limit, Machine::cp_quiescent));
    assert_eq!(m.now(), limit);
}

#[test]
fn run_until_or_without_done_is_run_until() {
    let limit = SimTime::from_micros(50_500);
    let mut full = fig11_shaped(MachineConfig::default(), Mode::TaiChi);
    full.run_until(limit);
    let mut polled = fig11_shaped(MachineConfig::default(), Mode::TaiChi);
    assert!(!polled.run_until_or(limit, |_| false));
    assert_eq!(polled.now(), limit);
    assert_eq!(polled.events_processed(), full.events_processed());
    assert_eq!(finished_turnarounds(&polled), finished_turnarounds(&full));
}

// ---------------------------------------------------------------
// East-west injections against same-instant events.
// ---------------------------------------------------------------

/// The traced Tai Chi machine the injection tests feed: open-loop
/// traffic on every DP CPU and a CP batch harvesting their idle time.
fn inject_target() -> Machine {
    let cfg = MachineConfig {
        seed: 0x1E7,
        trace: taichi_sim::TraceConfig {
            enabled: true,
            ..taichi_sim::TraceConfig::default()
        },
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, Mode::TaiChi);
    let dp = m.dp_cpu_ids().len() as u32;
    m.add_traffic(traffic(dp, 0.2));
    let mut rng = Rng::new(0x1E7);
    m.schedule_cp_batch(SynthCp::default().workload(16, &mut rng), SimTime::ZERO);
    m
}

fn dispatched(m: &Machine, kind: &str) -> u64 {
    m.events_dispatched_by_kind()
        .find(|&(k, _)| k == kind)
        .map_or(0, |(_, n)| n)
}

/// The instant of the `n`-th dispatched `kind` event (1-based) on the
/// un-fed [`inject_target`], found by bisecting over fresh runs.
fn nth_dispatch(kind: &str, n: u64) -> SimTime {
    let reached = |t: u64| {
        let mut m = inject_target();
        m.run_until(SimTime::from_nanos(t));
        dispatched(&m, kind) >= n
    };
    let (mut lo, mut hi) = (0, SimTime::from_millis(3).as_nanos());
    assert!(reached(hi), "fewer than {n} {kind} events");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    SimTime::from_nanos(lo)
}

/// Runs [`inject_target`] to 3 ms in two calls, injecting out of time
/// order before each: the first batch opens on the instant of the
/// first burst completion, lands on generator arrivals and spills past
/// the first call's limit; the second batch, injected between the
/// calls, lands on later generator arrivals, interleaves with the
/// spilled arrivals and includes one clamped to the current instant.
/// `chunked` advances by `run_until_or`'s 1 ms chunks instead.
/// Returns the trace digest and the per-kind dispatch counts.
fn fed_run(ties: &[SimTime], chunked: bool) -> (u64, Vec<(&'static str, u64)>) {
    let first_limit = SimTime::from_micros(1_500);
    let limit = SimTime::from_millis(3);
    let mut m = inject_target();
    let dp = m.dp_cpu_ids().len() as u64;
    let mut rng = Rng::new(0x5EED);
    let batch = |m: &mut Machine, from: SimTime, mut times: Vec<SimTime>, rng: &mut Rng| {
        for _ in 0..40 {
            let span = limit.as_nanos() - from.as_nanos();
            times.push(from + SimDuration::from_nanos(rng.next_below(span)));
        }
        // Fisher-Yates, so the batch arrives out of time order.
        for i in (1..times.len()).rev() {
            times.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for at in times {
            let cpu = taichi_hw::CpuId(rng.next_below(dp) as u32);
            m.inject_rx_for_tenant(at, IoKind::Network, 512, cpu, taichi_hw::TenantId(0));
        }
    };
    let advance = |m: &mut Machine, to: SimTime| {
        if chunked {
            assert!(!m.run_until_or(to, |_| false));
        } else {
            m.run_until(to);
        }
    };
    let (early, late) = ties.split_at(ties.partition_point(|&t| t < first_limit));
    batch(&mut m, ties[0], early.to_vec(), &mut rng);
    advance(&mut m, first_limit);
    let mut late = late.to_vec();
    late.push(SimTime::ZERO);
    batch(&mut m, first_limit, late, &mut rng);
    advance(&mut m, limit);
    assert_eq!(dispatched(&m, "RxInject"), 80 + ties.len() as u64 + 1);
    let by_kind = m
        .events_dispatched_by_kind()
        .filter(|&(_, n)| n > 0)
        .collect();
    let trace = m.trace_tsv().expect("trace was enabled");
    let digest = trace.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (digest, by_kind)
}

/// Injected arrivals fire at the keys they were injected at, whatever
/// the injection order, however a run is chunked, and on the same
/// nanosecond as generator arrivals and burst completions: the trace
/// and the dispatch counts are pinned to the eager-injection engine's.
#[test]
fn injections_keep_their_order_against_same_instant_events() {
    // The first injection is the first burst completion's instant, so
    // the run up to it matches the un-fed machine and the tie holds.
    let mut ties = vec![nth_dispatch("DpBurstDone", 1)];
    ties.extend([12, 40, 700, 2_000, 2_500].map(|n| nth_dispatch("NextArrival", n)));
    assert!(ties.windows(2).all(|w| w[0] < w[1]), "{ties:?}");
    let whole = fed_run(&ties, false);
    let chunked = fed_run(&ties, true);
    assert_eq!(whole, chunked, "chunking changed the fed run");
    let pinned: (u64, Vec<(&str, u64)>) = (
        0x1357_449e_142e_727c,
        vec![
            ("NextArrival", 3213),
            ("Delivered", 3295),
            ("ProbeIrq", 9),
            ("DpIdle", 14),
            ("VcpuEntered", 9),
            ("VcpuExited", 9),
            ("KernelDecide", 7),
            ("DpBurstDone", 3218),
            ("SpawnBatch", 1),
            ("RxInject", 87),
        ],
    );
    assert_eq!(whole, pinned, "fed run moved: {ties:?}");
}
