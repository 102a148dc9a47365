//! ping RTT analogue (Table 5).
//!
//! The paper pings through the SmartNIC for 30 minutes and reports
//! min/avg/max/mdev RTT under three configurations: baseline, Tai Chi,
//! and Tai Chi without the hardware workload probe. An echo round trip
//! traverses the SmartNIC data plane twice (request in, reply out), so
//! RTT = `BASE_NET_US` (host stacks + wire) + 2 × one-way SmartNIC
//! latency. The one-way distribution is measured per packet from the
//! simulation under representative background traffic and CP churn;
//! the probe-less configuration shows the slice-length tail spikes the
//! paper's Table 5 quantifies (max +203 %).

use crate::runner::{measure_probed, BenchTraffic, MeasuredDp};
use taichi_core::machine::Mode;
use taichi_core::MachineConfig;
use taichi_sim::SimDuration;

/// Host network stacks + wire component of the RTT (µs), chosen so the
/// baseline lands near the paper's 26–38 µs band.
pub const BASE_NET_US: f64 = 17.0;

/// ping RTT statistics (µs), matching the `ping` tool's summary line.
#[derive(Clone, Debug)]
pub struct PingResult {
    /// Minimum RTT.
    pub min_us: f64,
    /// Average RTT.
    pub avg_us: f64,
    /// Maximum RTT.
    pub max_us: f64,
    /// Mean deviation.
    pub mdev_us: f64,
    /// Raw measurement.
    pub raw: MeasuredDp,
}

/// Runs the ping case under `mode`.
pub fn run(mode: Mode, cfg: &MachineConfig) -> PingResult {
    // Production-steady bursts: ~40 % within-burst utilization (calm
    // enough that queueing stays in the single-digit microseconds, as
    // the paper's tight baseline RTT spread of 26-38 us implies) with
    // short idle gaps (~70 us) — so vCPU grants happen continuously
    // but their slices stay near the 50 us initial value. The ping
    // echoes themselves are a sparse probe stream sampling the data
    // path uniformly in time (one echo every ~200 us on average).
    let traffic = BenchTraffic::net(512.0, 0.3, true).with_burst_intensity(0.45);
    let (_bg, raw) = measure_probed(cfg, mode, &traffic, 200.0, SimDuration::from_millis(400));
    let one_way = |ns: f64| ns / 1e3;
    PingResult {
        min_us: BASE_NET_US + 2.0 * one_way(raw.lat_min_ns as f64),
        avg_us: BASE_NET_US + 2.0 * one_way(raw.lat_mean_ns),
        max_us: BASE_NET_US + 2.0 * one_way(raw.lat_max_ns as f64),
        mdev_us: 2.0 * one_way(raw.lat_stddev_ns),
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::seeded;

    #[test]
    fn baseline_rtt_in_paper_band() {
        let r = run(Mode::Baseline, &seeded(5));
        assert!(
            (20.0..35.0).contains(&r.min_us),
            "min RTT {:.1} µs",
            r.min_us
        );
        assert!(r.avg_us >= r.min_us && r.max_us >= r.avg_us);
    }

    #[test]
    fn table5_shape() {
        let base = run(Mode::Baseline, &seeded(5));
        let taichi = run(Mode::TaiChi, &seeded(5));
        let noprobe = run(Mode::TaiChiNoHwProbe, &seeded(5));
        // Tai Chi ≈ baseline on avg (within a few percent).
        let avg_over = (taichi.avg_us - base.avg_us) / base.avg_us;
        assert!(avg_over < 0.08, "taichi avg overhead {:.3}", avg_over);
        // Without the probe: pronounced max-RTT spikes (paper: +203 %).
        assert!(
            noprobe.max_us > base.max_us * 1.8,
            "no-probe max {:.1} vs base {:.1}",
            noprobe.max_us,
            base.max_us
        );
        // And a visibly worse average (paper: +23 %).
        assert!(
            noprobe.avg_us > taichi.avg_us * 1.03,
            "no-probe avg {:.1} vs taichi {:.1}",
            noprobe.avg_us,
            taichi.avg_us
        );
    }
}
