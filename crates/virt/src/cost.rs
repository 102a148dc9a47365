//! Virtualization cost model.
//!
//! All constants are configurable; the defaults reproduce the paper's
//! published numbers:
//!
//! - §3.4: "a 2 µs scheduling latency during vCPU context switching" —
//!   split here into VM-enter and VM-exit halves.
//! - §6.3: running the data plane inside vCPUs costs ~6–8 % (VM-exits +
//!   nested page table walks) — modelled as a multiplicative guest
//!   execution tax.
//! - §5: posted interrupts inject interrupts into a *running* vCPU
//!   without a VM-exit, at sub-microsecond cost.

use taichi_sim::SimDuration;

/// Timing constants for virtualization operations.
#[derive(Clone, Debug)]
pub struct VirtCosts {
    /// World switch into the guest (VM-enter).
    pub vm_enter: SimDuration,
    /// World switch out of the guest (VM-exit), including state save.
    pub vm_exit: SimDuration,
    /// Multiplicative slowdown of guest-mode execution (nested page
    /// tables, TLB pressure). 1.0 = native; 1.07 ≈ the paper's 7 %.
    pub guest_exec_tax: f64,
    /// Injecting an interrupt into a running vCPU via posted
    /// interrupts (no VM-exit).
    pub posted_interrupt: SimDuration,
    /// Injecting an interrupt into a non-running vCPU (requires wake +
    /// VM-enter; this is only the injection bookkeeping).
    pub injected_interrupt: SimDuration,
}

impl Default for VirtCosts {
    fn default() -> Self {
        VirtCosts {
            vm_enter: SimDuration::from_nanos(800),
            vm_exit: SimDuration::from_nanos(1_200),
            guest_exec_tax: 1.07,
            posted_interrupt: SimDuration::from_nanos(150),
            injected_interrupt: SimDuration::from_nanos(400),
        }
    }
}

impl VirtCosts {
    /// The full vCPU context-switch latency (exit + enter): the 2 µs
    /// the paper's hardware probe hides inside the 3.2 µs I/O window.
    pub fn switch_latency(&self) -> SimDuration {
        self.vm_exit + self.vm_enter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_switch_is_2us() {
        let c = VirtCosts::default();
        assert_eq!(c.switch_latency(), SimDuration::from_micros(2));
    }

    #[test]
    fn posted_cheaper_than_switch() {
        let c = VirtCosts::default();
        assert!(c.posted_interrupt < c.switch_latency());
        assert!(c.injected_interrupt < c.switch_latency());
    }
}
