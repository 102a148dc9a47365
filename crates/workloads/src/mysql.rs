//! MySQL + sysbench analogue (Fig. 15).
//!
//! The paper drives a MySQL server in the guest VM with 192 sysbench
//! threads and reports max/avg query and transaction throughput. The
//! host side (query execution on the 96-core EPYC) is outside the
//! SmartNIC; we model it as a fixed per-query compute time, while every
//! query's network round trip and storage accesses traverse the
//! simulated SmartNIC data plane:
//!
//! ```text
//! query_latency = HOST_QUERY_US
//!               + NET_RTS_PER_QUERY × 2 × one-way-net-latency
//!               + STORAGE_OPS_PER_QUERY × storage-latency
//! QPS           = THREADS / query_latency
//! ```
//!
//! "max" throughput uses the fast end of the measured latency
//! distribution (p50), "avg" uses the mean — mirroring how sysbench's
//! per-second maximum comes from the windows where the I/O path is at
//! its quickest.

use crate::runner::{measure, BenchTraffic, MeasuredDp};
use taichi_core::machine::Mode;
use taichi_core::MachineConfig;
use taichi_sim::SimDuration;

/// sysbench thread count (paper: 192).
pub const THREADS: f64 = 192.0;
/// Host-side compute per query (µs).
pub const HOST_QUERY_US: f64 = 55.0;
/// Network round trips per query (client↔server).
pub const NET_RTS_PER_QUERY: f64 = 2.0;
/// Storage operations per query (buffer-pool misses + redo writes).
pub const STORAGE_OPS_PER_QUERY: f64 = 1.0;
/// Queries per transaction (sysbench oltp default mix).
pub const QUERIES_PER_TRANS: f64 = 20.0;

/// MySQL results.
#[derive(Clone, Debug)]
pub struct MysqlResult {
    /// Peak queries/second.
    pub max_query: f64,
    /// Average queries/second.
    pub avg_query: f64,
    /// Peak transactions/second.
    pub max_trans: f64,
    /// Average transactions/second.
    pub avg_trans: f64,
    /// Raw network measurement.
    pub raw_net: MeasuredDp,
    /// Raw storage measurement.
    pub raw_storage: MeasuredDp,
}

/// Runs the MySQL case under `mode`.
pub fn run(mode: Mode, cfg: &MachineConfig) -> MysqlResult {
    let window = SimDuration::from_millis(250);
    let net = measure(cfg, mode, &BenchTraffic::net(512.0, 0.35, true), window);
    let storage_cfg = MachineConfig {
        seed: cfg.seed ^ 0x5707A6E,
        ..cfg.clone()
    };
    let storage = measure(
        &storage_cfg,
        mode,
        &BenchTraffic::storage(4096.0, 0.30, true),
        window,
    );
    let lat_us = |net_ns: f64, st_ns: f64| {
        HOST_QUERY_US + NET_RTS_PER_QUERY * 2.0 * net_ns / 1e3 + STORAGE_OPS_PER_QUERY * st_ns / 1e3
    };
    let avg_lat = lat_us(net.lat_mean_ns, storage.lat_mean_ns);
    let fast_lat = lat_us(net.lat_p50_ns as f64, storage.lat_p50_ns as f64);
    let avg_query = THREADS / (avg_lat * 1e-6);
    let max_query = THREADS / (fast_lat * 1e-6);
    MysqlResult {
        max_query,
        avg_query,
        max_trans: max_query / QUERIES_PER_TRANS,
        avg_trans: avg_query / QUERIES_PER_TRANS,
        raw_net: net,
        raw_storage: storage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::seeded;

    #[test]
    fn throughput_relationships_hold() {
        let r = run(Mode::Baseline, &seeded(8));
        assert!(r.max_query >= r.avg_query);
        assert!((r.avg_trans - r.avg_query / QUERIES_PER_TRANS).abs() < 1e-9);
        assert!(r.avg_query > 100_000.0, "avg qps {}", r.avg_query);
    }

    #[test]
    fn taichi_overhead_in_paper_band() {
        let base = run(Mode::Baseline, &seeded(8));
        let taichi = run(Mode::TaiChi, &seeded(8));
        let overhead = (base.avg_query - taichi.avg_query) / base.avg_query;
        // Paper: 1.56 % average overhead; accept a 0–5 % band.
        assert!(
            (-0.01..0.05).contains(&overhead),
            "MySQL overhead {:.4}",
            overhead
        );
    }
}
