//! Figure 12: netperf tcp_crr under the four virtualization designs.
//!
//! Compares the static baseline, full Tai Chi, Tai Chi-vDP (type-1
//! emulation: DP inside vCPUs) and traditional type-2 (QEMU+KVM).
//! Paper results: Tai Chi −0.2 %, Tai Chi-vDP ≈ −8 %, type-2 ≈ −26 %.

use taichi_bench::{emit, sweep_with, Knobs};
use taichi_core::machine::Mode;
use taichi_sim::report::{grouped, pct, Table};
use taichi_workloads::netperf::{run, NetperfCase};

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let modes = [Mode::Baseline, Mode::TaiChi, Mode::TaiChiVdp, Mode::Type2];
    let results = sweep_with(knobs.workers, modes.to_vec(), |m| {
        (m, run(NetperfCase::TcpCrr, m, &cfg))
    });
    let base_cps = results[0].1.cps;

    let mut t = Table::new(
        "Figure 12: netperf tcp_crr across virtualization designs",
        &["mode", "CPS", "avg_rx_pps", "avg_tx_pps", "vs baseline"],
    );
    for (m, r) in &results {
        t.row(&[
            m.to_string(),
            grouped(r.cps),
            grouped(r.avg_rx_pps),
            grouped(r.avg_tx_pps),
            pct((r.cps - base_cps) / base_cps),
        ]);
    }
    emit("fig12_hybrid_net", &t);

    let loss = |i: usize| (base_cps - results[i].1.cps) / base_cps * 100.0;
    println!(
        "paper: taichi -0.2%, vDP ~-8%, type2 ~-26% | measured: taichi {:.2}%, vDP {:.1}%, type2 {:.1}%",
        -loss(1),
        -loss(2),
        -loss(3)
    );
}
