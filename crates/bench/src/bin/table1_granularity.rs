//! Table 1: scheduling granularity, framework overhead, transparency.
//!
//! The paper's Table 1 contrasts prior bare-metal schedulers
//! (ms-scale granularity because OS-internal mechanisms cannot bypass
//! non-preemptible routines) with Tai Chi's µs-scale vCPU preemption.
//! We reproduce the *mechanism measurement* behind that row:
//!
//! - **OS-scheduler co-scheduling** (what Shenango/Caladan/Concord/
//!   Skyloft/Vessel fundamentally inherit when a CP task is inside a
//!   non-preemptible routine): preemption latency sampled by asking
//!   the kernel model to reschedule a CP task at a uniformly random
//!   instant of its execution — the request waits for the enclosing
//!   routine to finish.
//! - **Tai Chi**: the same preemption delivered as a vCPU VM-exit —
//!   the probe IRQ plus the 2 µs switch, regardless of what the guest
//!   is executing.
//!
//! Prior systems' absolute rows are not re-implemented (they are
//! whole systems of their own); the table reports the published
//! qualitative values for context, marked "reported".

use taichi_bench::{emit, Knobs};
use taichi_cp::routines::fig5_routine_ms;
use taichi_sim::report::Table;
use taichi_sim::{Histogram, Rng, SimDuration};
use taichi_virt::cost::SWITCH_LATENCY;

fn main() {
    let knobs = Knobs::init();
    let mut rng = Rng::new(knobs.seed);
    let routine_ms = fig5_routine_ms();

    // OS-scheduler preemption latency: a preemption request lands at a
    // uniformly random point inside a CP task whose kernel section is
    // one Fig. 5 routine; the scheduler must wait for the rest of it.
    // (Preemptible stretches between routines are short in device
    // management paths, so the routine residual dominates.)
    let mut os_lat = Histogram::new();
    for _ in 0..200_000 {
        let routine = routine_ms.sample(&mut rng); // ms
        let at = rng.next_f64() * routine;
        let residual_ns = ((routine - at) * 1e6) as u64;
        os_lat.record(residual_ns);
    }

    // Tai Chi preemption latency: IRQ fabric + VM-exit + pCPU restore.
    let irq = SimDuration::from_nanos(300);
    let taichi_ns = (irq + SWITCH_LATENCY).as_nanos();

    let mut t = Table::new(
        "Table 1: coordinating DP and CP on SmartNICs",
        &[
            "approach",
            "granularity p50",
            "granularity p99",
            "max",
            "overhead",
            "CP transparency",
        ],
    );
    for name in ["Shenango", "Caladan"] {
        t.row(&[
            format!("{name} (reported)"),
            "ms-scale".into(),
            "ms-scale".into(),
            "-".into(),
            "high (dedicated core)".into(),
            "partial".into(),
        ]);
    }
    for name in ["Concord", "Skyloft", "Vessel"] {
        t.row(&[
            format!("{name} (reported)"),
            "ms-scale".into(),
            "ms-scale".into(),
            "-".into(),
            "low".into(),
            "partial".into(),
        ]);
    }
    t.row(&[
        "OS co-schedule (measured)".into(),
        format!("{:.2} ms", os_lat.percentile(50.0) as f64 / 1e6),
        format!("{:.2} ms", os_lat.percentile(99.0) as f64 / 1e6),
        format!("{:.1} ms", os_lat.max() as f64 / 1e6),
        "low".into(),
        "full".into(),
    ]);
    t.row(&[
        "Tai Chi (measured)".into(),
        format!("{:.1} us", taichi_ns as f64 / 1e3),
        format!("{:.1} us", taichi_ns as f64 / 1e3),
        format!("{:.1} us", taichi_ns as f64 / 1e3),
        "low".into(),
        "full".into(),
    ]);
    emit("table1_granularity", &t);

    println!(
        "granularity gap: OS co-scheduling p99 {:.2} ms vs Tai Chi {:.1} us ({}x)",
        os_lat.percentile(99.0) as f64 / 1e6,
        taichi_ns as f64 / 1e3,
        (os_lat.percentile(99.0) / taichi_ns.max(1))
    );
}
