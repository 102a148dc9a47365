//! The traditional type-2 (QEMU+KVM) deployment model.
//!
//! §3.4 and §6.3 of the paper evaluate isolating CP tasks in a separate
//! guest OS. Three structural penalties follow, all modelled here:
//!
//! 1. **A dedicated emulation CPU.** QEMU device emulation plus the
//!    guest OS housekeeping permanently occupy at least one physical
//!    CPU, which on an 8-DP-CPU SmartNIC removes 1/8 of data-plane
//!    capacity (the paper measures ~25 % DP degradation once queueing
//!    amplification is included).
//! 2. **Broken native IPC.** DP and CP live in different operating
//!    systems, so every shared-memory/signal/pipe interaction becomes
//!    an RPC across the virtualization boundary.
//! 3. **vCPU switch latency.** The same 2 µs world-switch cost applies
//!    whenever a guest vCPU yields a physical core.

use crate::cost::GUEST_EXEC_TAX;
use taichi_sim::SimDuration;

/// Physical CPUs consumed by QEMU emulation + guest housekeeping.
pub const EMULATION_CPUS: u32 = 1;
/// Per-message penalty replacing one native IPC with an RPC across
/// the guest boundary (marshalling + vmexit + host dispatch).
pub const IPC_TO_RPC_PENALTY: SimDuration = SimDuration::from_micros(15);
/// Guest OS memory/context overhead expressed as an additional
/// multiplicative tax on CP execution inside the guest.
pub const GUEST_CP_TAX: f64 = 1.05;
/// Multiplicative tax on data-plane packet processing from the
/// co-resident emulation CPU's cache/memory-bandwidth interference
/// (the paper's 25.7% IOPS loss exceeds the 12.5% pure-capacity
/// loss of one CPU in eight; the remainder is interference).
pub const DP_INTERFERENCE_TAX: f64 = 1.15;

/// Data-plane CPUs remaining after the emulation CPU is carved out
/// of the `dp_total` pool (the paper's deployments take it from the
/// data plane, since CP CPUs are already the scarce resource).
pub fn effective_dp_cpus(dp_total: u32) -> u32 {
    dp_total.saturating_sub(EMULATION_CPUS)
}

/// Cost of one DP↔CP interaction under this model (native IPC cost
/// plus the RPC penalty).
pub fn ipc_cost(native: SimDuration) -> SimDuration {
    native + IPC_TO_RPC_PENALTY
}

/// CP execution time inside the guest for a native duration.
pub fn guest_cp_time(native: SimDuration) -> SimDuration {
    let taxed = native.as_nanos() as f64 * GUEST_CP_TAX * GUEST_EXEC_TAX;
    SimDuration::from_nanos(taxed.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulation_cpu_reduces_dp_pool() {
        assert_eq!(effective_dp_cpus(8), 7);
        assert_eq!(effective_dp_cpus(1), 0);
        assert_eq!(effective_dp_cpus(0), 0);
    }

    #[test]
    fn rpc_penalty_dominates_fast_ipc() {
        let native = SimDuration::from_nanos(500);
        let rpc = ipc_cost(native);
        assert!(rpc >= SimDuration::from_micros(15));
        assert!(rpc.as_nanos() > native.as_nanos() * 10);
    }

    #[test]
    fn guest_cp_time_compounds_taxes() {
        let native = SimDuration::from_micros(100);
        let guest = guest_cp_time(native);
        // 100 µs * 1.05 * 1.07 = 112.35 µs.
        assert_eq!(guest.as_nanos(), 112_350);
    }
}
