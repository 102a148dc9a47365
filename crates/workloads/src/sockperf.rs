//! sockperf analogues (Table 3): `tcp` short connections and `udp`
//! latency percentiles.
//!
//! - `tcp`: 1 024 concurrent short connections — CPS plus rx/tx pps,
//!   closed-loop over the measured SmartNIC latency (like netperf's
//!   request/response cases, but each transaction opens and closes a
//!   connection, costing more packets and an extra round trip).
//! - `udp`: average/p99/p999 one-way-derived latency over a 300 s
//!   window in the paper; here the same percentiles of the measured
//!   distribution plus the documented peer-side constant.

use crate::runner::{measure, measure_probed, BenchTraffic, MeasuredDp};
use taichi_core::machine::Mode;
use taichi_core::MachineConfig;
use taichi_sim::SimDuration;

/// Peer-side + wire one-way component (µs) added to SmartNIC latency.
pub const BASE_ONEWAY_US: f64 = 11.0;

/// Packets per sockperf-tcp short-connection transaction.
pub const TCP_SHORT_PKTS: f64 = 8.0;

/// sockperf tcp results.
#[derive(Clone, Debug)]
pub struct SockperfTcpResult {
    /// Connections per second.
    pub cps: f64,
    /// Average rx packets per second.
    pub avg_rx_pps: f64,
    /// Average tx packets per second.
    pub avg_tx_pps: f64,
    /// Raw measurement.
    pub raw: MeasuredDp,
}

/// sockperf udp latency results (µs).
#[derive(Clone, Debug)]
pub struct SockperfUdpResult {
    /// Mean latency.
    pub avg_lat_us: f64,
    /// 99th percentile latency.
    pub p99_lat_us: f64,
    /// 99.9th percentile latency.
    pub p999_lat_us: f64,
    /// Raw measurement.
    pub raw: MeasuredDp,
}

/// Runs the sockperf `tcp` case (1 024 short connections).
pub fn run_tcp(mode: Mode, cfg: &MachineConfig) -> SockperfTcpResult {
    let traffic = BenchTraffic::net(128.0, 0.4, true);
    let raw = measure(cfg, mode, &traffic, SimDuration::from_millis(250));
    // Each short connection: two round trips (handshake, then
    // request/response+close overlap).
    let rtt_us = 2.0 * BASE_ONEWAY_US + 2.0 * raw.lat_mean_ns / 1e3;
    let cps = 1024.0 / (2.0 * rtt_us * 1e-6);
    SockperfTcpResult {
        cps,
        avg_rx_pps: cps * TCP_SHORT_PKTS / 2.0,
        avg_tx_pps: cps * TCP_SHORT_PKTS / 2.0,
        raw,
    }
}

/// Runs the sockperf `udp` latency case.
pub fn run_udp(mode: Mode, cfg: &MachineConfig) -> SockperfUdpResult {
    // sockperf's latency mode sends paced probe messages over the
    // background load and reports their percentiles.
    let traffic = BenchTraffic::net(512.0, 0.3, true).with_burst_intensity(0.5);
    let (_bg, raw) = measure_probed(cfg, mode, &traffic, 50.0, SimDuration::from_millis(600));
    SockperfUdpResult {
        avg_lat_us: BASE_ONEWAY_US + raw.lat_mean_ns / 1e3,
        p99_lat_us: BASE_ONEWAY_US + raw.lat_p99_ns as f64 / 1e3,
        p999_lat_us: BASE_ONEWAY_US + raw.lat_p999_ns as f64 / 1e3,
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::seeded;

    #[test]
    fn udp_percentiles_ordered() {
        let r = run_udp(Mode::Baseline, &seeded(2));
        assert!(r.avg_lat_us >= BASE_ONEWAY_US);
        assert!(r.avg_lat_us <= r.p99_lat_us);
        assert!(r.p99_lat_us <= r.p999_lat_us);
    }

    #[test]
    fn udp_taichi_tail_close_to_baseline() {
        let base = run_udp(Mode::Baseline, &seeded(3));
        let taichi = run_udp(Mode::TaiChi, &seeded(3));
        let d999 = (taichi.p999_lat_us - base.p999_lat_us) / base.p999_lat_us;
        assert!(d999 < 0.30, "p999 overhead {:.3}", d999);
        let davg = (taichi.avg_lat_us - base.avg_lat_us) / base.avg_lat_us;
        assert!(davg < 0.05, "avg overhead {:.3}", davg);
    }

    #[test]
    fn tcp_reports_cps_and_pps() {
        let r = run_tcp(Mode::Baseline, &seeded(4));
        assert!(r.cps > 1000.0, "cps {}", r.cps);
        assert_eq!(r.avg_rx_pps, r.avg_tx_pps);
        assert!(r.avg_rx_pps > r.cps, "pps should exceed cps");
    }
}
