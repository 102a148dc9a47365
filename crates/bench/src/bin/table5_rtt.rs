//! Table 5: ping RTT across baseline, Tai Chi, and Tai Chi without
//! the hardware workload probe.
//!
//! Paper: baseline 26/30/38/5 µs (min/avg/max/mdev); Tai Chi
//! essentially identical; without the probe +23 % min, +23.3 % avg,
//! +203 % max, +80 % mdev — the un-hidden 50 µs-scale vCPU slices show
//! up directly in the tail.

use taichi_bench::{emit, sweep_with, Knobs};
use taichi_core::machine::Mode;
use taichi_sim::report::{pct, Table};
use taichi_workloads::ping;

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let modes = [
        ("Baseline", Mode::Baseline),
        ("Tai Chi", Mode::TaiChi),
        ("Tai Chi w/o HW probe", Mode::TaiChiNoHwProbe),
    ];
    let results = sweep_with(knobs.workers, modes.to_vec(), |(name, m)| {
        (name, ping::run(m, &cfg))
    });

    let mut t = Table::new(
        "Table 5: RTT across three mechanisms",
        &["mechanism", "min (us)", "avg (us)", "max (us)", "mdev (us)"],
    );
    for (name, r) in &results {
        t.row(&[
            name.to_string(),
            format!("{:.0}", r.min_us),
            format!("{:.0}", r.avg_us),
            format!("{:.0}", r.max_us),
            format!("{:.0}", r.mdev_us),
        ]);
    }
    emit("table5_rtt", &t);

    let base = &results[0].1;
    let noprobe = &results[2].1;
    println!(
        "no-probe overheads vs baseline: min {}, avg {}, max {}, mdev {} (paper: +23%, +23.3%, +203%, +80%)",
        pct((noprobe.min_us - base.min_us) / base.min_us),
        pct((noprobe.avg_us - base.avg_us) / base.avg_us),
        pct((noprobe.max_us - base.max_us) / base.max_us),
        pct((noprobe.mdev_us - base.mdev_us) / base.mdev_us),
    );
}
