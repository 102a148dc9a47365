//! Figure 17: average VM startup time vs instance density, with and
//! without Tai Chi (the production result: 3.1× faster startups under
//! Tai Chi at high density).

use taichi_bench::{emit, emit_trace, sweep_with, Knobs};
use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_cp::{CpTaskKind, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::Table;
use taichi_sim::{Dist, SimDuration, SimTime};

fn run(cfg: &MachineConfig, mode: Mode, density: u32) -> f64 {
    let mut m = Machine::new(cfg.clone(), mode);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / 8.0),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));
    // Production CP stack running underneath (monitoring + device
    // churn), as on the paper's nodes. Its batches are built as they
    // fire: the run stops once the last VM is up.
    let factory = TaskFactory::default();
    let bg_factory = factory.clone();
    let mut bg_rng = taichi_sim::Rng::new(cfg.seed ^ 0xB6);
    m.schedule_cp_batches(
        (1..10_000).step_by(3).map(SimTime::from_millis),
        move || {
            vec![
                bg_factory.build(CpTaskKind::DeviceManagement, &mut bg_rng),
                bg_factory.build(CpTaskKind::Monitoring, &mut bg_rng),
            ]
        },
    );
    let vms = 4;
    for i in 0..vms {
        let at = SimTime::from_millis(i as u64 * 5);
        let mut req = VmCreateRequest::at_density(i as u64, density, at);
        req.qemu_boot = SimDuration::from_millis(10);
        m.schedule_vm_create(req, &factory);
    }
    // Startup times are final once the last VM is up.
    m.run_until_or(SimTime::from_secs(58), |m| {
        m.vm_startup_times().len() as u32 >= vms
    });
    emit_trace(&format!("fig17_{mode}_d{density}"), &m);
    let s = m.vm_startup_times();
    assert_eq!(s.len() as u32, vms, "all VMs must start ({mode})");
    s.iter().map(|d| d.as_millis_f64()).sum::<f64>() / s.len() as f64
}

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let mut t = Table::new(
        "Figure 17: avg VM startup time vs density, with/without Tai Chi",
        &["density", "baseline (ms)", "taichi (ms)", "reduction"],
    );
    let mut last_ratio = 0.0;
    // 4 densities x 2 modes = 8 independent machine runs fanned out
    // across workers; pairs come back adjacent, in density order.
    let jobs: Vec<(Mode, u32)> = (1..=4u32)
        .flat_map(|d| [(Mode::Baseline, d), (Mode::TaiChi, d)])
        .collect();
    let mut results = sweep_with(knobs.workers, jobs, |(m, d)| run(&cfg, m, d)).into_iter();
    for d in 1..=4u32 {
        let base = results.next().unwrap();
        let taichi = results.next().unwrap();
        last_ratio = base / taichi;
        t.row(&[
            format!("{d}x"),
            format!("{base:.1}"),
            format!("{taichi:.1}"),
            format!("{last_ratio:.2}x"),
        ]);
    }
    emit("fig17_vm_startup", &t);
    println!("paper: 3.1x reduction at high density | measured: {last_ratio:.2}x at 4x");
}
