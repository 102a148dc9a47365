//! Data-plane services (DPDK/SPDK analogues).
//!
//! A data-plane service is a poll-mode driver pinned to one SmartNIC
//! CPU: it spins on its receive queues, processes packets in bursts,
//! and — under Tai Chi — counts consecutive empty polls to detect
//! idleness (the Fig. 9 loop). This crate provides:
//!
//! - [`service::DpService`]: the per-CPU service state machine with
//!   burst processing, analytic empty-poll accounting, busy metering,
//!   and the post-resume cache/TLB-pollution surcharge that produces
//!   the paper's residual ≤1.92 % DP overhead.
//! - [`generator`]: packet/request arrival generators — open-loop
//!   Poisson, on/off bursty, and diurnally modulated streams (the last
//!   calibrated to reproduce the Fig. 3 utilization CDF).
//! - [`latency`]: per-stage latency recording and throughput metrics
//!   (pps, IOPS, bandwidth) shared by every benchmark analogue.

pub mod generator;
pub mod latency;
pub mod service;

pub use generator::{ArrivalPattern, TrafficGen};
pub use latency::LatencyRecorder;
pub use service::{DpService, DpServiceConfig, ServiceRecorders};
