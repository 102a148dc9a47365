//! Nginx + wrk analogue (Fig. 16).
//!
//! The paper measures average requests/second for HTTP and HTTPS under
//! 10 000 concurrent wrk connections. Nginx runs in the guest VM; each
//! request crosses the SmartNIC data plane. The host-side model:
//!
//! ```text
//! http_latency  = HOST_HTTP_US + HTTP_RTS × 2 × one-way-latency
//! https_latency = http_latency + TLS_CPU_US
//!               + TLS_EXTRA_RTS × 2 × one-way-latency
//! RPS           = min(CONNECTIONS / latency, host CPU bound)
//! ```
//!
//! Short (HTTP, connection per request) traffic leans harder on the
//! SmartNIC per request, which is why the paper sees the larger (1 %)
//! overhead there.

use crate::runner::{measure, BenchTraffic, MeasuredDp};
use taichi_core::machine::Mode;
use taichi_core::MachineConfig;
use taichi_sim::SimDuration;

/// Concurrent wrk connections (paper: 10 000).
pub const CONNECTIONS: f64 = 10_000.0;
/// Host-side request handling (µs).
pub const HOST_HTTP_US: f64 = 120.0;
/// SmartNIC round trips per HTTP request (connect + request/response).
pub const HTTP_RTS: f64 = 3.0;
/// Extra round trips for the TLS handshake.
pub const TLS_EXTRA_RTS: f64 = 2.0;
/// TLS handshake + record crypto CPU (µs).
pub const TLS_CPU_US: f64 = 180.0;

/// Nginx results.
#[derive(Clone, Debug)]
pub struct NginxResult {
    /// HTTP requests/second.
    pub http_rps: f64,
    /// HTTPS requests/second.
    pub https_rps: f64,
    /// Raw measurement.
    pub raw: MeasuredDp,
}

/// Runs the Nginx case under `mode`.
pub fn run(mode: Mode, cfg: &MachineConfig) -> NginxResult {
    let raw = measure(
        cfg,
        mode,
        &BenchTraffic::net(1024.0, 0.40, true),
        SimDuration::from_millis(250),
    );
    let one_way_us = raw.lat_mean_ns / 1e3;
    let http_lat = HOST_HTTP_US + HTTP_RTS * 2.0 * one_way_us;
    let https_lat = http_lat + TLS_CPU_US + TLS_EXTRA_RTS * 2.0 * one_way_us;
    NginxResult {
        http_rps: CONNECTIONS / (http_lat * 1e-6),
        https_rps: CONNECTIONS / (https_lat * 1e-6),
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::seeded;

    #[test]
    fn https_slower_than_http() {
        let r = run(Mode::Baseline, &seeded(6));
        assert!(r.http_rps > r.https_rps);
        assert!(r.https_rps > 0.0);
    }

    #[test]
    fn taichi_overhead_in_paper_band() {
        let base = run(Mode::Baseline, &seeded(6));
        let taichi = run(Mode::TaiChi, &seeded(6));
        let http_over = (base.http_rps - taichi.http_rps) / base.http_rps;
        let https_over = (base.https_rps - taichi.https_rps) / base.https_rps;
        // Paper: 0.51 % average, up to 1 % for short connections.
        assert!((-0.01..0.05).contains(&http_over), "http {:.4}", http_over);
        assert!(
            (-0.01..0.05).contains(&https_over),
            "https {:.4}",
            https_over
        );
        // Short connections lean harder on the NIC: overhead ordering.
        assert!(http_over >= https_over - 0.005);
    }
}
