//! Figure 13: fio IOPS under the four virtualization designs.
//!
//! Paper results: Tai Chi −0.06 %, Tai Chi-vDP ≈ −6 %, type-2 ≈ −25.7 %.

use taichi_bench::{emit, sweep_with, Knobs};
use taichi_core::machine::Mode;
use taichi_sim::report::{grouped, pct, Table};
use taichi_workloads::fio::FioRw;

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let fio = FioRw::default();
    let modes = [Mode::Baseline, Mode::TaiChi, Mode::TaiChiVdp, Mode::Type2];
    let results = sweep_with(knobs.workers, modes.to_vec(), |m| (m, fio.run(m, &cfg)));
    let base = results[0].1.iops;

    let mut t = Table::new(
        "Figure 13: fio (fio_rw, 4 KiB) across virtualization designs",
        &["mode", "IOPS", "bw (MiB/s)", "p99 lat (us)", "vs baseline"],
    );
    for (m, r) in &results {
        t.row(&[
            m.to_string(),
            grouped(r.iops),
            format!("{:.0}", r.bw_mib_s),
            format!("{:.1}", r.p99_lat_us),
            pct((r.iops - base) / base),
        ]);
    }
    emit("fig13_hybrid_storage", &t);

    let loss = |i: usize| (results[i].1.iops - base) / base * 100.0;
    println!(
        "paper: taichi -0.06%, vDP ~-6%, type2 ~-25.7% | measured: taichi {:.2}%, vDP {:.1}%, type2 {:.1}%",
        loss(1),
        loss(2),
        loss(3)
    );
}
