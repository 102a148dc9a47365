//! Figure 11: synth_cp average execution time vs concurrency.
//!
//! The paper runs the synth_cp stressor (50 ms tasks touching
//! non-preemptible kernel routines) at concurrency 1–32 with DP
//! utilization held at ~30 % (the production p99 case) and reports the
//! average task execution time; Tai Chi reaches ~4× better than the
//! static baseline at 32 tasks by harvesting the idle 70 % of the DP
//! CPUs.

use taichi_bench::{emit, emit_trace, sweep_with, Knobs};
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::MachineConfig;
use taichi_cp::{CpTaskKind, SynthCp, TaskFactory};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::Table;
use taichi_sim::{Dist, Rng, SimDuration, SimTime};

fn dp_traffic_30pct() -> TrafficGen {
    TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / 8.0),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    )
}

fn run(cfg: &MachineConfig, mode: Mode, concurrency: u32) -> f64 {
    let mut m = Machine::new(cfg.clone(), mode);
    m.add_traffic(dp_traffic_30pct());
    // The production CP stack (device churn, monitoring, orchestration)
    // keeps running underneath the benchmark, exactly as on the paper's
    // IaaS nodes — synth_cp competes with it for CP CPUs.
    let factory = TaskFactory::default();
    let mut bg_rng = Rng::new(cfg.seed ^ 0xB6);
    let mut t = SimTime::from_millis(1);
    while t < SimTime::from_secs(10) {
        m.schedule_cp_batch(
            vec![
                factory.build(CpTaskKind::DeviceManagement, &mut bg_rng),
                factory.build(CpTaskKind::Monitoring, &mut bg_rng),
            ],
            t,
        );
        t += SimDuration::from_millis(3);
    }
    let synth = SynthCp::default();
    let mut rng = Rng::new(cfg.seed ^ 0x11);
    let batch = m.schedule_cp_batch(synth.workload(concurrency, &mut rng), SimTime::ZERO);
    let mut horizon = SimTime::from_secs(1);
    loop {
        m.run_until(horizon);
        let done = m
            .batch_threads(batch)
            .iter()
            .filter(|&&tid| m.kernel().thread_info(tid).turnaround().is_some())
            .count();
        if done >= concurrency as usize || horizon >= SimTime::from_secs(30) {
            break;
        }
        horizon += SimDuration::from_secs(1);
    }
    let _ = RunReport::collect(&m);
    emit_trace(&format!("fig11_{mode}_c{concurrency}"), &m);
    let k = m.kernel();
    let mut sum = 0.0;
    for &tid in m.batch_threads(batch) {
        sum += k
            .thread_info(tid)
            .turnaround()
            .expect("synth task must finish")
            .as_millis_f64();
    }
    sum / concurrency as f64
}

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let mut t = Table::new(
        "Figure 11: synth_cp avg execution time vs concurrency (DP at ~30%)",
        &["concurrency", "baseline (ms)", "taichi (ms)", "speedup"],
    );
    let mut last_speedup = 0.0;
    // 6 concurrencies x 2 modes = 12 independent machine runs; fan
    // them all out and pair baseline/taichi back up per concurrency.
    let concurrencies = [1u32, 2, 4, 8, 16, 32];
    let jobs: Vec<(Mode, u32)> = concurrencies
        .iter()
        .flat_map(|&n| [(Mode::Baseline, n), (Mode::TaiChi, n)])
        .collect();
    let mut results = sweep_with(knobs.workers, jobs, |(m, n)| run(&cfg, m, n)).into_iter();
    for n in concurrencies {
        let base = results.next().unwrap();
        let taichi = results.next().unwrap();
        last_speedup = base / taichi;
        t.row(&[
            n.to_string(),
            format!("{base:.1}"),
            format!("{taichi:.1}"),
            format!("{last_speedup:.2}x"),
        ]);
    }
    emit("fig11_cp_concurrency", &t);
    println!("paper: 4x at 32 concurrent tasks | measured: {last_speedup:.2}x");
}
