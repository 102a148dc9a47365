//! VM startup storm: the paper's motivating workload (Figs. 2 & 17).
//!
//! A re-provisioning wave hits a high-density node: several VMs must
//! be created at once, each requiring per-device initialisation on the
//! SmartNIC control plane before QEMU may boot. Watch startup times
//! collapse when Tai Chi lets those device tasks harvest idle
//! data-plane cycles.
//!
//! ```sh
//! cargo run --release --example vm_startup_storm [density]
//! ```

use taichi::core::machine::{Machine, Mode};
use taichi::core::MachineConfig;
use taichi::cp::{TaskFactory, VmCreateRequest};
use taichi::dp::{ArrivalPattern, TrafficGen};
use taichi::hw::{CpuId, IoKind};
use taichi::sim::{Dist, SimDuration, SimTime};

fn run(mode: Mode, density: u32, vms: u32) -> Vec<f64> {
    // `--trace` records the scheduler's decisions and dumps them as a
    // TSV per mode (see README: scheduler tracing).
    let mut cfg = MachineConfig::default();
    cfg.trace.enabled = std::env::args().any(|a| a == "--trace");
    let mut machine = Machine::new(cfg, mode);
    machine.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));

    let factory = TaskFactory::default();
    for i in 0..vms {
        let mut req =
            VmCreateRequest::at_density(i as u64, density, SimTime::from_millis(i as u64 * 5));
        req.qemu_boot = SimDuration::from_millis(10);
        machine.schedule_vm_create(req, &factory);
    }

    machine.run_until_or(SimTime::from_secs(58), |m| {
        m.vm_startup_times().len() as u32 >= vms
    });
    if let Some(tsv) = machine.trace_tsv() {
        let path = format!("vm_startup_storm_{mode}.trace.tsv");
        match std::fs::write(&path, tsv) {
            Ok(()) => println!("[trace] {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    machine
        .vm_startup_times()
        .iter()
        .map(|d| d.as_millis_f64())
        .collect()
}

fn main() {
    let density: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let vms = 4;
    println!(
        "creating {vms} VMs at {density}x instance density \
         ({} devices each) ...\n",
        VmCreateRequest::at_density(0, density, SimTime::ZERO).device_count()
    );

    for mode in [Mode::Baseline, Mode::TaiChi] {
        let times = run(mode, density, vms);
        assert_eq!(times.len() as u32, vms, "{mode}: all VMs must start");
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let worst = times.iter().cloned().fold(f64::MIN, f64::max);
        print!("{mode:<9}: ");
        for t in &times {
            print!("{t:>7.1} ms ");
        }
        println!("| mean {mean:.1} ms, worst {worst:.1} ms");
    }
    println!(
        "\nTai Chi turns the idle 70% of the data-plane CPUs into extra \
         control-plane capacity, so device initialisation — the gate in \
         front of QEMU — no longer queues behind 4 static CP cores."
    );
}
