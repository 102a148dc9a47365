//! Figure 6: breakdown of I/O packet processing in DP services.
//!
//! Stage ② (accelerator preprocessing, 2.7 µs) plus stage ③ (transfer
//! to shared memory, 0.5 µs) form the 3.2 µs window in which the
//! hardware workload probe hides the 2 µs vCPU context switch
//! (Observation 4). This binary pushes packets through the modelled
//! pipeline and reports the measured stage times.

use taichi_bench::{emit, Knobs};
use taichi_core::TaiChiConfig;
use taichi_hw::{Accelerator, AcceleratorConfig, CpuId, HwWorkloadProbe, IoKind, Packet, PacketId};
use taichi_sim::report::Table;
use taichi_sim::{OnlineStats, Rng, SimTime};

fn main() {
    let knobs = Knobs::init();
    let mut accel = Accelerator::new(AcceleratorConfig::default());
    let mut probe = HwWorkloadProbe::new(12);
    let mut rng = Rng::new(knobs.seed);

    let mut preprocess = OnlineStats::new();
    let mut transfer = OnlineStats::new();
    for i in 0..100_000u64 {
        let at = SimTime::from_nanos(i * 10_000 + rng.next_below(1000));
        let mut p = Packet::new(
            PacketId(i),
            IoKind::Network,
            64 + rng.next_below(1400) as u32,
            CpuId((i % 8) as u32),
            0,
            at,
        );
        let out = accel.ingest(&mut p, at, &mut probe);
        preprocess.push((out.preprocess_done - out.irq_at).as_micros_f64());
        transfer.push((out.delivered_at - out.preprocess_done).as_micros_f64());
    }

    let switch = TaiChiConfig::default().costs.switch_latency();
    let window = preprocess.mean() + transfer.mean();

    let mut t = Table::new(
        "Figure 6: I/O packet processing breakdown",
        &["stage", "mean (us)", "paper (us)"],
    );
    t.row(&[
        "(2) accelerator preprocess".into(),
        format!("{:.2}", preprocess.mean()),
        "2.70".into(),
    ]);
    t.row(&[
        "(3) transfer to shared memory".into(),
        format!("{:.2}", transfer.mean()),
        "0.50".into(),
    ]);
    t.row(&[
        "window (2)+(3)".into(),
        format!("{window:.2}"),
        "3.20".into(),
    ]);
    t.row(&[
        "vCPU switch to hide".into(),
        format!("{:.2}", switch.as_micros_f64()),
        "2.00".into(),
    ]);
    emit("fig6_io_breakdown", &t);

    println!(
        "window {:.2} us > switch {:.2} us: the probe can hide the vCPU switch ({})",
        window,
        switch.as_micros_f64(),
        if window > switch.as_micros_f64() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
}
