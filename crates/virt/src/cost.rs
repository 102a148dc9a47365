//! Virtualization cost model.
//!
//! Every cost is a named constant reproducing the paper's published
//! numbers:
//!
//! - §3.4: "a 2 µs scheduling latency during vCPU context switching" —
//!   split here into VM-enter and VM-exit halves.
//! - §6.3: running the data plane inside vCPUs costs ~6–8 % (VM-exits +
//!   nested page table walks) — modelled as a multiplicative guest
//!   execution tax.
//! - §5: posted interrupts inject interrupts into a *running* vCPU
//!   without a VM-exit, at sub-microsecond cost.

use taichi_hw::accel::WINDOW;
use taichi_sim::SimDuration;

/// World switch into the guest (VM-enter).
pub const VM_ENTER: SimDuration = SimDuration::from_nanos(800);
/// World switch out of the guest (VM-exit), including state save.
pub const VM_EXIT: SimDuration = SimDuration::from_nanos(1_200);
/// Multiplicative slowdown of guest-mode execution (nested page
/// tables, TLB pressure). 1.0 = native; 1.07 ≈ the paper's 7 %.
pub const GUEST_EXEC_TAX: f64 = 1.07;
/// Injecting an interrupt into a running vCPU via posted
/// interrupts (no VM-exit).
pub const POSTED_INTERRUPT: SimDuration = SimDuration::from_nanos(150);
/// Injecting an interrupt into a non-running vCPU (requires wake +
/// VM-enter; this is only the injection bookkeeping).
pub const INJECTED_INTERRUPT: SimDuration = SimDuration::from_nanos(400);

/// The full vCPU context-switch latency (exit + enter): the 2 µs
/// the paper's hardware probe hides inside the 3.2 µs I/O window.
pub const SWITCH_LATENCY: SimDuration =
    SimDuration::from_nanos(VM_EXIT.as_nanos() + VM_ENTER.as_nanos());

// The paper's latency-hiding argument: a 2 µs switch fits inside the
// accelerator's 2.7 + 0.5 µs preprocessing window.
const _: () = assert!(SWITCH_LATENCY.as_nanos() == 2_000);
const _: () = assert!(SWITCH_LATENCY.as_nanos() < WINDOW.as_nanos());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_switch_is_2us() {
        assert_eq!(SWITCH_LATENCY, SimDuration::from_micros(2));
    }

    #[test]
    fn posted_cheaper_than_switch() {
        assert!(POSTED_INTERRUPT < SWITCH_LATENCY);
        assert!(INJECTED_INTERRUPT < SWITCH_LATENCY);
    }
}
