//! Tai Chi: a hybrid-virtualization co-scheduling framework for
//! SmartNIC data-plane services and control-plane tasks.
//!
//! This crate is the paper's primary contribution (§4): it unifies
//! physical CPUs and Tai Chi-created vCPUs inside one SmartNIC OS and
//! schedules control-plane tasks onto idle data-plane CPU cycles at
//! microsecond granularity, without violating either plane's SLOs and
//! without modifying a single control-plane task.
//!
//! Components, mirroring Fig. 7b:
//!
//! - [`vcpu_sched::VcpuScheduler`] (§4.1): the softirq-based vCPU
//!   scheduler — round-robin placement of runnable vCPUs onto idle DP
//!   pCPUs, adaptive time slices, and safe lock-context rescheduling.
//! - [`orchestrator::IpiOrchestrator`] (§4.2): the unified IPI
//!   orchestrator — intercepts every IPI and routes it across the
//!   virtualization boundary, and registers vCPUs as native OS CPUs via
//!   the hotplug INIT/SIPI handshake.
//! - [`probe_sw::AdaptiveYield`] + the hardware probe in `taichi-hw`
//!   (§4.3): the workload probes — empty-poll-threshold yield detection
//!   on the software side, V-state/P-state packet-arrival preemption on
//!   the hardware side.
//! - [`machine::Machine`]: the full-system composition driving the
//!   discrete-event simulation, with [`machine::Mode`] selecting Tai
//!   Chi, the production static-partitioning baseline, the Tai Chi-vDP
//!   (type-1-like) and QEMU/KVM (type-2) comparison points, and the
//!   no-hardware-probe ablation.

pub mod audit;
pub mod config;
pub mod machine;
pub mod metrics;
pub mod orchestrator;
pub mod probe_sw;
pub mod sched;
pub mod slice;
pub mod vcpu_sched;

pub use audit::{assert_invariants, check_invariants, AuditReport, AuditSession, InvariantReport};
#[cfg(feature = "oracle")]
pub use config::SkipMode;
pub use config::{
    parse_tenant_count, parse_tenant_weights, MachineConfig, TaiChiConfig, TenantConfig,
};
pub use machine::{FaultHealth, Machine, Mode};
pub use metrics::RunReport;
pub use sched::{ReschedulePick, TaiChiPolicy};
