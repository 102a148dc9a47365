//! §8 discussion: inverse adaptation — boosting the data plane in
//! low-CP-intensity deployments.
//!
//! The paper reallocates 50 % of the CP's physical CPUs to the data
//! plane (8+4 → 10+2) through Tai Chi's dynamic partitioning and
//! measures +39 % peak IOPS and +43 % connections/second, while CP
//! performance stays consistent with baseline by harvesting idle DP
//! cycles.

use taichi_bench::{emit, emit_trace, sweep_with, Knobs};
use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_cp::TaskFactory;
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind, SmartNicSpec};
use taichi_os::ThreadState;
use taichi_sim::report::{grouped, pct, Table};
use taichi_sim::{Dist, Rng, SimDuration, SimTime};
use taichi_workloads::netperf::TCP_CRR_PKTS;
use taichi_workloads::{measure, BenchTraffic};

/// The 10+2 split: half the CP pCPUs reallocated to the data plane.
fn boosted(cfg: &MachineConfig) -> MachineConfig {
    MachineConfig {
        spec: SmartNicSpec::with_split(12, 10),
        ..cfg.clone()
    }
}

/// Peak throughput (saturating offered load) for a given config.
fn peak(cfg: MachineConfig, mode: Mode, kind: IoKind, size: f64) -> f64 {
    let traffic = BenchTraffic {
        kind,
        size_bytes: size,
        utilization: 1.6, // saturate even the 10-CPU pool
        bursty: false,
        burst_intensity: 0.9,
    };
    measure(&cfg, mode, &traffic, SimDuration::from_millis(250)).pps
}

/// Mean CP turnaround under light CP load and moderate DP load.
fn cp_turnaround(cfg: MachineConfig, mode: Mode) -> f64 {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg, mode);
    let dp_cpus = m.services().len() as u32;
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / dp_cpus as f64),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(CpuId).collect(),
    ));
    let factory = TaskFactory::default();
    let mut rng = Rng::new(seed ^ 0x8);
    let mut t = SimTime::from_millis(1);
    while t < SimTime::from_millis(400) {
        m.schedule_cp_batch(
            vec![factory.device_init(taichi_cp::task::locks::NIC_DRIVER, 2, &mut rng)],
            t,
        );
        t += SimDuration::from_millis(20);
    }
    // The mean turnaround is final once the last CP batch has finished.
    m.run_until_or(SimTime::from_secs(3), Machine::cp_quiescent);
    emit_trace(&format!("disc8_cp_{mode}"), &m);
    let k = m.kernel();
    let mut sum = 0.0;
    let mut n = 0u32;
    for tid in k.all_threads() {
        let ti = k.thread_info(tid);
        if ti.state == ThreadState::Finished {
            if let Some(d) = ti.turnaround() {
                sum += d.as_millis_f64();
                n += 1;
            }
        }
    }
    sum / n.max(1) as f64
}

fn main() {
    let knobs = Knobs::init();
    let base = knobs.machine();
    // The four peak-throughput machine runs are independent: fan them
    // out across workers (baseline 8 DP CPUs vs boosted 10 under
    // Tai Chi, storage IOPS then network CPS).
    let peaks = sweep_with(
        knobs.workers,
        vec![
            (base.clone(), Mode::Baseline, IoKind::Storage, 4096.0),
            (boosted(&base), Mode::TaiChi, IoKind::Storage, 4096.0),
            (base.clone(), Mode::Baseline, IoKind::Network, 256.0),
            (boosted(&base), Mode::TaiChi, IoKind::Network, 256.0),
        ],
        |(cfg, mode, kind, size)| peak(cfg, mode, kind, size),
    );
    let [iops_base, iops_boost, pps_base, pps_boost] = <[_; 4]>::try_from(peaks).unwrap();
    let cps_base = pps_base / TCP_CRR_PKTS;
    let cps_boost = pps_boost / TCP_CRR_PKTS;
    // CP consistency under light load.
    let cps = sweep_with(
        knobs.workers,
        vec![
            (base.clone(), Mode::Baseline),
            (boosted(&base), Mode::TaiChi),
        ],
        |(cfg, mode)| cp_turnaround(cfg, mode),
    );
    let [cp_base, cp_boost] = <[_; 2]>::try_from(cps).unwrap();

    let mut t = Table::new(
        "Discussion (8): reallocating 50% of CP pCPUs to the data plane",
        &["metric", "baseline 8+4", "taichi 10+2", "delta"],
    );
    t.row(&[
        "peak IOPS".into(),
        grouped(iops_base),
        grouped(iops_boost),
        pct((iops_boost - iops_base) / iops_base),
    ]);
    t.row(&[
        "peak CPS (tcp_crr)".into(),
        grouped(cps_base),
        grouped(cps_boost),
        pct((cps_boost - cps_base) / cps_base),
    ]);
    t.row(&[
        "CP task turnaround (ms)".into(),
        format!("{cp_base:.2}"),
        format!("{cp_boost:.2}"),
        pct((cp_boost - cp_base) / cp_base),
    ]);
    emit("disc8_dp_boost", &t);

    println!(
        "paper: +39% peak IOPS, +43% CPS, CP consistent | measured: {} IOPS, {} CPS, CP {}",
        pct((iops_boost - iops_base) / iops_base),
        pct((cps_boost - cps_base) / cps_base),
        pct((cp_boost - cp_base) / cp_base)
    );
}
