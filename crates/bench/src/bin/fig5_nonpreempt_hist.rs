//! Figure 5: distribution of non-preemptible routine durations.
//!
//! The paper traced >456 000 routines exceeding 1 ms over 12 hours,
//! 94.5 % lasting 1–5 ms, maximum 67 ms. This binary draws the same
//! population size from the production-calibrated distribution and
//! prints the per-bucket counts the figure plots.

use taichi_bench::{emit, Knobs};
use taichi_cp::routines::fig5_routine_ms;
use taichi_sim::report::{grouped, Table};
use taichi_sim::{Histogram, Rng};

fn main() {
    let knobs = Knobs::init();
    const SAMPLES: u64 = 456_000;
    let dist = fig5_routine_ms();
    let mut rng = Rng::new(knobs.seed);
    let mut hist = Histogram::new();
    let mut max_ms = 0.0f64;
    for _ in 0..SAMPLES {
        let ms = dist.sample(&mut rng);
        hist.record((ms * 1_000.0) as u64); // µs resolution
        max_ms = max_ms.max(ms);
    }

    let buckets: &[(f64, f64)] = &[
        (1.0, 5.0),
        (5.0, 10.0),
        (10.0, 20.0),
        (20.0, 40.0),
        (40.0, 67.5),
    ];
    let mut t = Table::new(
        "Figure 5: non-preemptible routines by duration (456k routines > 1 ms)",
        &["duration (ms)", "count", "share"],
    );
    for &(lo, hi) in buckets {
        let n = hist.count_between((lo * 1_000.0) as u64, (hi * 1_000.0) as u64);
        t.row(&[
            format!("{lo:.0}-{hi:.0}"),
            grouped(n as f64),
            format!("{:.2}%", n as f64 / SAMPLES as f64 * 100.0),
        ]);
    }
    t.row(&["max observed".into(), format!("{max_ms:.1} ms"), "-".into()]);
    emit("fig5_nonpreempt_hist", &t);

    let share_1_5 = hist.count_between(1_000, 5_000) as f64 / SAMPLES as f64;
    println!(
        "paper: 94.5% in 1-5 ms, max 67 ms | measured: {:.1}% in 1-5 ms, max {max_ms:.1} ms",
        share_1_5 * 100.0
    );
}
