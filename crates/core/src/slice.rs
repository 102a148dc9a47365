//! Adaptive vCPU time slices (§4.1).
//!
//! The initial slice is 50 µs. A slice-expiry VM-exit suggests the DP
//! CPU is staying idle, so the slice for that host CPU doubles (fewer
//! costly VM-exits per borrowed second); a hardware-probe VM-exit means
//! DP traffic returned, so the slice resets to the initial value.
//! Slices are tracked per *host* CPU because idleness is a property of
//! the data-plane CPU being borrowed, not of any particular vCPU.

use taichi_hw::CpuId;
use taichi_sim::SimDuration;
use taichi_virt::VmExitReason;

/// Per-host-CPU adaptive slice controller.
#[derive(Clone, Debug)]
pub struct AdaptiveSlice {
    slices: Vec<SimDuration>,
    initial: SimDuration,
    max: SimDuration,
}

impl AdaptiveSlice {
    /// Heap bytes of the per-vCPU slices.
    pub(crate) fn resident_bytes(&self) -> usize {
        taichi_sim::vec_bytes(&self.slices)
    }

    /// Creates slices for `num_cpus` host CPUs starting at `initial`.
    ///
    /// # Panics
    ///
    /// Panics when `initial` is zero or exceeds `max`.
    pub fn new(num_cpus: u32, initial: SimDuration, max: SimDuration) -> Self {
        assert!(
            !initial.is_zero() && initial <= max,
            "invalid slice bounds {initial} / {max}"
        );
        AdaptiveSlice {
            slices: vec![initial; num_cpus as usize],
            initial,
            max,
        }
    }

    /// Slice to use for the next grant on `cpu`.
    pub fn slice(&self, cpu: CpuId) -> SimDuration {
        self.slices
            .get(cpu.index())
            .copied()
            .unwrap_or(self.initial)
    }

    /// Feeds back a VM-exit that ended a grant on `cpu`.
    pub fn on_vm_exit(&mut self, cpu: CpuId, reason: VmExitReason) {
        let (initial, max) = (self.initial, self.max);
        let Some(s) = self.slices.get_mut(cpu.index()) else {
            return;
        };
        match reason {
            VmExitReason::SliceExpired => {
                *s = s.saturating_mul(2).min(max);
            }
            VmExitReason::HwProbe => {
                *s = initial;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> AdaptiveSlice {
        AdaptiveSlice::new(
            8,
            SimDuration::from_micros(50),
            SimDuration::from_micros(1600),
        )
    }

    #[test]
    fn doubles_on_expiry_to_cap() {
        let mut c = ctl();
        let cpu = CpuId(0);
        let expected = [100u64, 200, 400, 800, 1600, 1600];
        for e in expected {
            c.on_vm_exit(cpu, VmExitReason::SliceExpired);
            assert_eq!(c.slice(cpu), SimDuration::from_micros(e));
        }
    }

    #[test]
    fn probe_resets_to_initial() {
        let mut c = ctl();
        let cpu = CpuId(3);
        for _ in 0..4 {
            c.on_vm_exit(cpu, VmExitReason::SliceExpired);
        }
        assert_eq!(c.slice(cpu), SimDuration::from_micros(800));
        c.on_vm_exit(cpu, VmExitReason::HwProbe);
        assert_eq!(c.slice(cpu), SimDuration::from_micros(50));
    }

    #[test]
    fn per_cpu_isolation() {
        let mut c = ctl();
        c.on_vm_exit(CpuId(1), VmExitReason::SliceExpired);
        assert_eq!(c.slice(CpuId(1)), SimDuration::from_micros(100));
        assert_eq!(c.slice(CpuId(2)), SimDuration::from_micros(50));
    }

    #[test]
    fn neutral_exits_keep_slice() {
        let mut c = ctl();
        c.on_vm_exit(CpuId(0), VmExitReason::GuestHalt);
        c.on_vm_exit(CpuId(0), VmExitReason::IpiSend);
        assert_eq!(c.slice(CpuId(0)), SimDuration::from_micros(50));
    }

    #[test]
    fn unknown_cpu_gets_initial() {
        let c = ctl();
        assert_eq!(c.slice(CpuId(99)), SimDuration::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "invalid slice bounds")]
    fn zero_initial_panics() {
        AdaptiveSlice::new(1, SimDuration::ZERO, SimDuration::from_micros(100));
    }
}
