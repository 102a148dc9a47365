//! Table 2: type-1 vs type-2 vs Tai Chi (hybrid virtualization).
//!
//! Structural properties plus measured DP performance: the type-1
//! column uses the Tai Chi-vDP configuration (DP inside vCPUs — the
//! virtualization tax the paper attributes to type-1), the type-2
//! column the QEMU+KVM model, and the last the full hybrid design.

use taichi_bench::{emit, sweep_with, Knobs};
use taichi_core::machine::Mode;
use taichi_sim::report::{pct, Table};
use taichi_workloads::fio::FioRw;

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let fio = FioRw::default();
    // Independent (mode, seed) machine runs fan out across workers;
    // results come back in input order, so the table is byte-identical
    // to a serial run (TAICHI_WORKERS=1 forces the reference path).
    let runs = sweep_with(
        knobs.workers,
        vec![Mode::Baseline, Mode::TaiChiVdp, Mode::Type2, Mode::TaiChi],
        |m| fio.run(m, &cfg),
    );
    let [base, t1, t2, tc] = <[_; 4]>::try_from(runs).ok().unwrap();
    let loss = |x: f64| pct((x - base.iops) / base.iops);

    let mut t = Table::new(
        "Table 2: type-1 vs type-2 vs Tai Chi",
        &[
            "property",
            "Type-1 (Xen-like)",
            "Type-2 (QEMU+KVM)",
            "Tai Chi",
        ],
    );
    t.row(&[
        "DP residency".into(),
        "guest OS (vCPU)".into(),
        "SmartNIC OS".into(),
        "SmartNIC OS".into(),
    ]);
    t.row(&[
        "DP performance (fio IOPS)".into(),
        loss(t1.iops),
        loss(t2.iops),
        loss(tc.iops),
    ]);
    t.row(&[
        "CP residency".into(),
        "guest OS".into(),
        "guest OS".into(),
        "SmartNIC OS (vCPU)".into(),
    ]);
    t.row(&["OS count".into(), "1".into(), "2".into(), "1".into()]);
    t.row(&[
        "DP-CP IPC".into(),
        "native".into(),
        "broken (IPC->RPC, +15 us/msg)".into(),
        "native".into(),
    ]);
    t.row(&[
        "dedicated CPU tax".into(),
        "0".into(),
        "1 (emulation + guest OS)".into(),
        "0".into(),
    ]);
    emit("table2_virt_compare", &t);
}
