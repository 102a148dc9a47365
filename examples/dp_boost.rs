//! Inverse adaptation (§8): boost the data plane in low-CP deployments.
//!
//! Tai Chi's machinery also works in reverse: hand half of the control
//! plane's physical CPUs to the data plane, and let the (now smaller)
//! CP keep its latency by harvesting idle DP cycles — more peak
//! throughput without starving management tasks.
//!
//! ```sh
//! cargo run --release --example dp_boost
//! ```

use taichi::core::machine::Mode;
use taichi::core::MachineConfig;
use taichi::hw::{IoKind, SmartNicSpec};
use taichi::sim::SimDuration;
use taichi::workloads::{measure, BenchTraffic};

fn peak_pps(spec: SmartNicSpec, mode: Mode) -> f64 {
    let mut cfg = MachineConfig {
        spec,
        seed: 0xD1CE,
        ..MachineConfig::default()
    };
    // `--trace`: every machine records a scheduler trace and the
    // workload runner dumps the last run per mode under
    // target/experiments/ (see README: scheduler tracing).
    cfg.trace.enabled = std::env::args().any(|a| a == "--trace");
    let traffic = BenchTraffic {
        kind: IoKind::Network,
        size_bytes: 256.0,
        utilization: 1.6,
        bursty: false,
        burst_intensity: 0.9,
    };
    measure(&cfg, mode, &traffic, SimDuration::from_millis(200)).pps
}

fn main() {
    println!("peak packet throughput at saturating offered load ...\n");
    let base = peak_pps(SmartNicSpec::default(), Mode::Baseline);
    println!("static 8 DP + 4 CP (baseline) : {base:>12.0} pps");
    let boosted = peak_pps(SmartNicSpec::with_split(12, 10), Mode::TaiChi);
    println!("tai chi 10 DP + 2 CP          : {boosted:>12.0} pps");
    let gain = (boosted - base) / base * 100.0;
    println!("\ndata-plane gain: {gain:+.1}%");
    println!(
        "the displaced control plane rides idle DP cycles, so its \
         latency stays at baseline (see `cargo run -p taichi-bench \
         --bin disc8_dp_boost` for the full table)."
    );
    assert!(gain > 15.0, "reallocated CPUs must raise peak throughput");
}
