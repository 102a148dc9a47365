//! Latency spikes and the hardware workload probe (Fig. 4 & Table 5).
//!
//! Demonstrates the paper's central data-plane safety claim: borrowing
//! idle DP cycles for control-plane vCPUs is only safe because the
//! accelerator's workload probe evicts the vCPU *inside* the 3.2 µs
//! I/O preprocessing window. Disable the probe and arriving packets
//! wait out the vCPU's time slice — the classic Fig. 4 latency spike.
//!
//! ```sh
//! cargo run --release --example latency_spike
//! ```

use taichi::core::machine::Mode;
use taichi::core::MachineConfig;
use taichi::workloads::ping;

fn main() {
    // `--trace`: every machine records a scheduler trace and the
    // workload runner dumps the last run per mode under
    // target/experiments/ (see README: scheduler tracing).
    let mut cfg = MachineConfig::default();
    cfg.trace.enabled = std::env::args().any(|a| a == "--trace");
    println!("ping through the SmartNIC under background traffic + CP churn ...\n");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "mechanism", "min (us)", "avg (us)", "max (us)", "mdev (us)"
    );
    let mut rows = Vec::new();
    for (name, mode) in [
        ("baseline", Mode::Baseline),
        ("tai chi", Mode::TaiChi),
        ("tai chi w/o probe", Mode::TaiChiNoHwProbe),
    ] {
        let r = ping::run(mode, &cfg);
        println!(
            "{name:<22} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
            r.min_us, r.avg_us, r.max_us, r.mdev_us
        );
        rows.push((name, r));
    }

    let base_max = rows[0].1.max_us;
    let taichi_max = rows[1].1.max_us;
    let noprobe_max = rows[2].1.max_us;
    println!();
    println!(
        "with the probe, the worst echo is {:+.0}% vs baseline;",
        (taichi_max - base_max) / base_max * 100.0
    );
    println!(
        "without it, {:+.0}% — arriving packets sat behind vCPU slices.",
        (noprobe_max - base_max) / base_max * 100.0
    );
    assert!(
        noprobe_max > taichi_max * 1.5,
        "the ablation should show pronounced spikes"
    );
}
