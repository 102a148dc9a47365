//! The hardware workload probe (§4.3).
//!
//! In the real system this is a ~30-line change to the programmable I/O
//! accelerator: a per-CPU state register file (P-state = running the
//! data-plane service natively, V-state = a Tai Chi vCPU currently
//! occupies the core) plus a check executed at the *start* of packet
//! preprocessing. When the destination CPU of an incoming packet is in
//! V-state, the probe asynchronously raises an IRQ towards that CPU so
//! the vCPU scheduler can VM-exit the squatter and restore the DP
//! context *while* the accelerator is still busy with the 3.2 µs
//! preprocess+transfer window — hiding the 2 µs scheduling latency.
//!
//! The state table is written only by the vCPU scheduler (steps 5 and 4
//! of Fig. 7b); the accelerator only reads it. P-state doubles as an
//! interrupt mask: packets towards a P-state CPU never generate probe
//! IRQs, so a busy DP service is never disturbed.

use crate::cpu::CpuId;
use taichi_sim::Counter;

/// Execution state of one SmartNIC CPU as seen by the accelerator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CpuExecState {
    /// Native data-plane context; probe IRQs are masked.
    #[default]
    PState,
    /// A vCPU context occupies the core; packet arrival raises an IRQ.
    VState,
}

/// The accelerator-resident CPU state table.
#[derive(Clone, Debug)]
pub struct HwWorkloadProbe {
    states: Vec<CpuExecState>,
    enabled: bool,
    checks: Counter,
}

impl HwWorkloadProbe {
    /// Creates a probe covering `num_cpus` physical CPUs, all in
    /// P-state, with the probe enabled.
    pub fn new(num_cpus: u32) -> Self {
        HwWorkloadProbe {
            states: vec![CpuExecState::PState; num_cpus as usize],
            enabled: true,
            checks: Counter::new(),
        }
    }

    /// Heap bytes of the per-CPU state table.
    pub fn resident_bytes(&self) -> usize {
        taichi_sim::vec_bytes(&self.states)
    }

    /// Disables the probe (the "Tai Chi w/o HW probe" ablation of
    /// Table 5): checks always report "no IRQ".
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True when the probe is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Updates the state register for `cpu` (vCPU scheduler write path).
    ///
    /// Out-of-range CPUs (vCPU IDs) are ignored: the accelerator only
    /// tracks physical cores.
    pub fn set_state(&mut self, cpu: CpuId, state: CpuExecState) {
        if let Some(slot) = self.states.get_mut(cpu.index()) {
            *slot = state;
        }
    }

    /// Reads the state register for `cpu` (defaults to P-state for
    /// out-of-range IDs).
    pub fn state(&self, cpu: CpuId) -> CpuExecState {
        self.states
            .get(cpu.index())
            .copied()
            .unwrap_or(CpuExecState::PState)
    }

    /// The check executed at the start of packet preprocessing.
    ///
    /// Returns `true` when an IRQ must be raised towards `dest_cpu`
    /// (i.e. the CPU is in V-state and the probe is enabled).
    pub fn check_on_packet(&mut self, dest_cpu: CpuId) -> bool {
        self.checks.inc();
        self.enabled && self.state(dest_cpu) == CpuExecState::VState
    }

    /// Total packet-arrival checks performed.
    pub fn checks(&self) -> u64 {
        self.checks.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_pstate_and_masks_irqs() {
        let mut p = HwWorkloadProbe::new(12);
        for i in 0..12 {
            assert_eq!(p.state(CpuId(i)), CpuExecState::PState);
            assert!(!p.check_on_packet(CpuId(i)));
        }
        assert_eq!(p.checks(), 12);
    }

    #[test]
    fn vstate_raises_irq() {
        let mut p = HwWorkloadProbe::new(12);
        p.set_state(CpuId(3), CpuExecState::VState);
        assert!(p.check_on_packet(CpuId(3)));
        assert!(!p.check_on_packet(CpuId(4)));
        assert_eq!(p.checks(), 2);
    }

    #[test]
    fn state_transition_masks_again() {
        let mut p = HwWorkloadProbe::new(4);
        p.set_state(CpuId(1), CpuExecState::VState);
        assert!(p.check_on_packet(CpuId(1)));
        // Scheduler restored the DP context and flipped to P-state.
        p.set_state(CpuId(1), CpuExecState::PState);
        assert!(!p.check_on_packet(CpuId(1)));
    }

    #[test]
    fn disabled_probe_never_fires() {
        let mut p = HwWorkloadProbe::new(4);
        p.set_state(CpuId(0), CpuExecState::VState);
        p.set_enabled(false);
        assert!(!p.is_enabled());
        assert!(!p.check_on_packet(CpuId(0)));
    }

    #[test]
    fn out_of_range_cpu_is_pstate() {
        let mut p = HwWorkloadProbe::new(4);
        p.set_state(CpuId(99), CpuExecState::VState); // ignored
        assert_eq!(p.state(CpuId(99)), CpuExecState::PState);
        assert!(!p.check_on_packet(CpuId(99)));
    }
}
