//! Benchmark workload analogues (Table 3 + §6.5 real workloads).
//!
//! Each module reproduces one benchmark from the paper's evaluation,
//! producing the same named metrics the paper's figures/tables report:
//!
//! | Module | Paper benchmark | Metrics |
//! |--------|-----------------|---------|
//! | [`fio`] | fio `fio_rw` (16 jobs, 4 KiB, libaio) | IOPS, bandwidth |
//! | [`netperf`] | netperf `udp_stream`/`tcp_stream`/`tcp_rr`/`tcp_crr` | avg_rx_bw, avg_rx_pps, avg_tx_pps, CPS |
//! | [`sockperf`] | sockperf `tcp`/`udp` | CPS, pps, udp avg/p99/p999 latency |
//! | [`ping`] | ping (30 min RTT) | min/avg/max/mdev |
//! | [`mysql`] | MySQL + 192 sysbench threads | max_query, avg_query, max_trans, avg_trans |
//! | [`nginx`] | Nginx + wrk, 10 k connections | HTTP/HTTPS requests/s |
//!
//! The shared [`runner`] drives a [`taichi_core::Machine`] per mode
//! with representative traffic plus background control-plane activity
//! (so Tai Chi's yield/preempt machinery is actually exercised during
//! every data-plane measurement), then extracts the per-packet latency
//! distribution and throughput that each benchmark's closed-loop or
//! saturation model consumes. Host-side components (MySQL query
//! compute, Nginx request handling, TCP stack turnarounds) are
//! explicit analytic models documented in each module — the SmartNIC
//! side is simulated, the host side is arithmetic on measured
//! SmartNIC latencies, matching the substitution policy in DESIGN.md.

pub mod fio;
pub mod mysql;
pub mod netperf;
pub mod nginx;
pub mod ping;
pub mod runner;
pub mod sockperf;

pub use runner::{measure, BenchTraffic, MeasuredDp};
