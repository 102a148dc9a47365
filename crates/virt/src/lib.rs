//! Virtualization substrate: vCPU contexts and cost models.
//!
//! Hardware-assisted virtualization (Intel VT-x / ARM EL2) gives Tai Chi
//! its core primitive: a *preemptible execution context* that an
//! external event can stop at any instant (VM-exit), even in the middle
//! of a guest kernel's non-preemptible routine. This crate models:
//!
//! - [`vcpu`]: the vCPU context state machine — placement on a physical
//!   CPU, VM-enter, VM-exit with typed reasons, and per-vCPU statistics
//!   (run time, exit counts by reason) that the adaptive algorithms in
//!   `taichi-core` key off.
//! - [`cost`]: the virtualization cost model, as named constants from
//!   the paper: a 2 µs vCPU context-switch latency (§3.4), a ~7 % guest
//!   execution tax from nested page tables (§6.3's Tai Chi-vDP result),
//!   and cheap posted-interrupt injection (§5).
//! - [`type2`]: the traditional type-2 (QEMU+KVM) deployment model used
//!   as an evaluation baseline — a separate guest OS that permanently
//!   consumes a physical CPU for device emulation and breaks native
//!   DP↔CP IPC (every IPC becomes an RPC across the OS boundary).

pub mod cost;
pub mod type2;
pub mod vcpu;

pub use vcpu::{Vcpu, VcpuState, VmExitReason};
