//! netperf analogues (Table 3): `udp_stream`, `tcp_stream`, `tcp_rr`,
//! `tcp_crr`.
//!
//! Two measurement regimes:
//!
//! - **Saturation** (`tcp_crr`, Fig. 12): connect/request/response/close
//!   churn saturates the data plane. Each connection costs
//!   [`TCP_CRR_PKTS`] packets through the SmartNIC; we offer ~120 % of
//!   baseline capacity and report achieved CPS and pps.
//! - **Closed loop** (`udp_stream`, `tcp_stream`, `tcp_rr`, Fig. 14):
//!   a fixed connection count ping-pongs with the peer, so throughput
//!   is `connections / round-trip-time`. The SmartNIC contributes the
//!   measured per-packet latency twice per round trip; the rest of the
//!   RTT (peer stack + wire) is the documented [`BASE_RTT_US`]
//!   constant. Mode-to-mode deltas therefore come entirely from
//!   measured SmartNIC behaviour.

use crate::runner::{measure, BenchTraffic, MeasuredDp};
use taichi_core::machine::Mode;
use taichi_core::MachineConfig;
use taichi_sim::SimDuration;

/// Packets through the SmartNIC per tcp_crr transaction
/// (SYN, SYN-ACK, request, response, FIN, FIN-ACK).
pub const TCP_CRR_PKTS: f64 = 6.0;

/// Peer-side + wire round-trip component (µs), excluded from the
/// SmartNIC simulation.
pub const BASE_RTT_US: f64 = 22.0;

/// Which netperf case to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetperfCase {
    /// UDP bulk receive, 64 connections, large datagrams.
    UdpStream,
    /// TCP bulk streams, 64 connections.
    TcpStream,
    /// TCP request/response on 1 024 persistent connections.
    TcpRr,
    /// TCP connect/request/response/close, saturating.
    TcpCrr,
}

/// netperf results (metric meaning depends on the case).
#[derive(Clone, Debug)]
pub struct NetperfResult {
    /// Case that produced this result.
    pub case: NetperfCase,
    /// Connections per second (tcp_crr only, else 0).
    pub cps: f64,
    /// Average receive packets per second.
    pub avg_rx_pps: f64,
    /// Average transmit packets per second.
    pub avg_tx_pps: f64,
    /// Average receive bandwidth in Gb/s.
    pub avg_rx_bw_gbps: f64,
    /// Raw measurement.
    pub raw: MeasuredDp,
}

/// Runs one netperf case under `mode`.
pub fn run(case: NetperfCase, mode: Mode, cfg: &MachineConfig) -> NetperfResult {
    let window = SimDuration::from_millis(250);
    match case {
        NetperfCase::TcpCrr => {
            let traffic = BenchTraffic::net(256.0, 1.2, false);
            let raw = measure(cfg, mode, &traffic, window);
            NetperfResult {
                case,
                cps: raw.pps / TCP_CRR_PKTS,
                avg_rx_pps: raw.pps,
                avg_tx_pps: raw.pps,
                avg_rx_bw_gbps: raw.gbps,
                raw,
            }
        }
        NetperfCase::UdpStream | NetperfCase::TcpStream | NetperfCase::TcpRr => {
            let (conns, size, util) = match case {
                NetperfCase::UdpStream => (64.0, 1400.0, 0.45),
                NetperfCase::TcpStream => (64.0, 512.0, 0.45),
                NetperfCase::TcpRr => (1024.0, 64.0, 0.35),
                NetperfCase::TcpCrr => unreachable!(),
            };
            let traffic = BenchTraffic::net(size, util, true);
            let raw = measure(cfg, mode, &traffic, window);
            // Closed loop: each connection completes one round trip per
            // BASE_RTT + 2 × one-way SmartNIC latency.
            let rtt_us = BASE_RTT_US + 2.0 * raw.lat_mean_ns / 1e3;
            let pps = conns / (rtt_us * 1e-6);
            NetperfResult {
                case,
                cps: 0.0,
                avg_rx_pps: pps,
                avg_tx_pps: pps,
                avg_rx_bw_gbps: pps * size * 8.0 / 1e9,
                raw,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::seeded;

    #[test]
    fn tcp_crr_mode_ordering_matches_fig12() {
        let base = run(NetperfCase::TcpCrr, Mode::Baseline, &seeded(9));
        let taichi = run(NetperfCase::TcpCrr, Mode::TaiChi, &seeded(9));
        let vdp = run(NetperfCase::TcpCrr, Mode::TaiChiVdp, &seeded(9));
        let t2 = run(NetperfCase::TcpCrr, Mode::Type2, &seeded(9));
        assert!(base.cps > 0.0);
        let loss = |x: &NetperfResult| (base.cps - x.cps) / base.cps;
        assert!(loss(&taichi) < 0.03, "taichi loss {:.3}", loss(&taichi));
        assert!(
            (0.04..0.15).contains(&loss(&vdp)),
            "vdp loss {:.3}",
            loss(&vdp)
        );
        assert!(
            (0.15..0.35).contains(&loss(&t2)),
            "type2 loss {:.3}",
            loss(&t2)
        );
    }

    #[test]
    fn closed_loop_cases_report_pps() {
        for case in [
            NetperfCase::UdpStream,
            NetperfCase::TcpStream,
            NetperfCase::TcpRr,
        ] {
            let r = run(case, Mode::Baseline, &seeded(3));
            assert!(r.avg_rx_pps > 0.0, "{case:?}");
            assert_eq!(r.avg_rx_pps, r.avg_tx_pps);
            assert_eq!(r.cps, 0.0);
        }
    }

    #[test]
    fn taichi_overhead_small_on_closed_loop() {
        let base = run(NetperfCase::TcpRr, Mode::Baseline, &seeded(4));
        let taichi = run(NetperfCase::TcpRr, Mode::TaiChi, &seeded(4));
        let overhead = (base.avg_rx_pps - taichi.avg_rx_pps) / base.avg_rx_pps;
        assert!(
            overhead.abs() < 0.05,
            "tcp_rr overhead {:.3} out of band",
            overhead
        );
    }

    #[test]
    fn udp_stream_reports_bandwidth() {
        let r = run(NetperfCase::UdpStream, Mode::Baseline, &seeded(6));
        assert!(r.avg_rx_bw_gbps > 0.1, "bw {}", r.avg_rx_bw_gbps);
        // Consistency: bw = pps × size × 8.
        let want = r.avg_rx_pps * 1400.0 * 8.0 / 1e9;
        assert!((r.avg_rx_bw_gbps - want).abs() < 1e-9);
    }
}
