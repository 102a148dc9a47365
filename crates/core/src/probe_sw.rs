//! The software workload probe: adaptive yield thresholds (§4.3).
//!
//! Each data-plane CPU counts consecutive empty polls; crossing a
//! threshold `N` declares the CPU idle and triggers a DP→CP yield. A
//! fixed `N` is a bad trade — too large wastes idle cycles, too small
//! yields on micro-gaps and forces expensive preemptions — so Tai Chi
//! adapts it per CPU from VM-exit reasons:
//!
//! - **Slice-expiry exit** ⇒ the DP CPU stayed idle through the whole
//!   vCPU slice ⇒ the yield was right and could have come sooner ⇒
//!   *decrease* `N` (halve, floored).
//! - **Hardware-probe exit** ⇒ a packet arrived while the vCPU held the
//!   core ⇒ the yield was a false positive ⇒ *increase* `N` (double,
//!   capped).
//!
//! The probe window is never stepped poll-by-poll: `N` feeds the
//! analytic `idle_notify_time` re-arm (`empty_since + (N + 1) ×
//! poll_iteration`), so a whole idle gap costs one timer event no
//! matter how many empty polls it represents — see DESIGN.md §3.9.
//! [`AdaptiveYield::threshold`] sits on that per-re-arm hot path,
//! hence the `#[inline]` on the accessors.

use taichi_hw::CpuId;
use taichi_virt::VmExitReason;

/// Per-DP-CPU adaptive yield thresholds.
#[derive(Clone, Debug)]
pub struct AdaptiveYield {
    thresholds: Vec<u32>,
    min: u32,
    max: u32,
    decreases: u64,
    increases: u64,
}

impl AdaptiveYield {
    /// Creates thresholds for `num_cpus` CPUs, all at `initial`,
    /// clamped into `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics when `min > max` or `min == 0`.
    pub fn new(num_cpus: u32, initial: u32, min: u32, max: u32) -> Self {
        assert!(
            min > 0 && min <= max,
            "invalid threshold bounds [{min},{max}]"
        );
        AdaptiveYield {
            thresholds: vec![initial.clamp(min, max); num_cpus as usize],
            min,
            max,
            decreases: 0,
            increases: 0,
        }
    }

    /// Current threshold for `cpu` (the max bound for unknown CPUs,
    /// i.e. effectively never yield).
    #[inline]
    pub fn threshold(&self, cpu: CpuId) -> u32 {
        self.thresholds
            .get(cpu.index())
            .copied()
            .unwrap_or(self.max)
    }

    /// Feeds back a VM-exit that ended a grant on `cpu`.
    #[inline]
    pub fn on_vm_exit(&mut self, cpu: CpuId, reason: VmExitReason) {
        let (min, max) = (self.min, self.max);
        let Some(n) = self.thresholds.get_mut(cpu.index()) else {
            return;
        };
        match reason {
            VmExitReason::SliceExpired => {
                *n = (*n / 2).max(min);
                self.decreases += 1;
            }
            VmExitReason::HwProbe => {
                *n = n.saturating_mul(2).min(max);
                self.increases += 1;
            }
            // Other exits (IPI re-issue, guest halt, forced) say
            // nothing about DP idleness.
            _ => {}
        }
    }

    /// Clamps `cpu`'s threshold straight to the max bound. This is the
    /// storm-starvation degradation: under a sustained CP task storm
    /// the doubling feedback loop takes many probe exits to back off,
    /// each one costing a vCPU switch; when the probe signals repeated
    /// starvation the scheduler jumps to "effectively never yield" in
    /// one step. Returns `true` when the threshold actually changed.
    pub(crate) fn clamp_to_max(&mut self, cpu: CpuId) -> bool {
        let max = self.max;
        let Some(n) = self.thresholds.get_mut(cpu.index()) else {
            return false;
        };
        if *n == max {
            return false;
        }
        *n = max;
        self.increases += 1;
        true
    }

    /// Total threshold decreases performed.
    pub fn decreases(&self) -> u64 {
        self.decreases
    }

    /// Total threshold increases performed.
    pub fn increases(&self) -> u64 {
        self.increases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_initial() {
        let a = AdaptiveYield::new(8, 200, 25, 6400);
        for i in 0..8 {
            assert_eq!(a.threshold(CpuId(i)), 200);
        }
    }

    #[test]
    fn sustained_idleness_decreases() {
        let mut a = AdaptiveYield::new(2, 200, 25, 6400);
        a.on_vm_exit(CpuId(0), VmExitReason::SliceExpired);
        assert_eq!(a.threshold(CpuId(0)), 100);
        assert_eq!(a.threshold(CpuId(1)), 200, "per-CPU isolation");
        for _ in 0..10 {
            a.on_vm_exit(CpuId(0), VmExitReason::SliceExpired);
        }
        assert_eq!(a.threshold(CpuId(0)), 25, "floored at min");
        assert_eq!(a.decreases(), 11);
    }

    #[test]
    fn false_positive_increases() {
        let mut a = AdaptiveYield::new(1, 200, 25, 6400);
        a.on_vm_exit(CpuId(0), VmExitReason::HwProbe);
        assert_eq!(a.threshold(CpuId(0)), 400);
        for _ in 0..10 {
            a.on_vm_exit(CpuId(0), VmExitReason::HwProbe);
        }
        assert_eq!(a.threshold(CpuId(0)), 6400, "capped at max");
        assert_eq!(a.increases(), 11);
    }

    #[test]
    fn neutral_exits_ignored() {
        let mut a = AdaptiveYield::new(1, 200, 25, 6400);
        a.on_vm_exit(CpuId(0), VmExitReason::IpiSend);
        a.on_vm_exit(CpuId(0), VmExitReason::GuestHalt);
        a.on_vm_exit(CpuId(0), VmExitReason::Forced);
        assert_eq!(a.threshold(CpuId(0)), 200);
    }

    #[test]
    fn converges_under_alternating_feedback() {
        // Alternating signals keep N oscillating inside bounds without
        // drifting to either extreme.
        let mut a = AdaptiveYield::new(1, 200, 25, 6400);
        for _ in 0..100 {
            a.on_vm_exit(CpuId(0), VmExitReason::SliceExpired);
            a.on_vm_exit(CpuId(0), VmExitReason::HwProbe);
        }
        let n = a.threshold(CpuId(0));
        assert!((25..=6400).contains(&n));
    }

    #[test]
    fn unknown_cpu_is_max() {
        let mut a = AdaptiveYield::new(1, 200, 25, 6400);
        assert_eq!(a.threshold(CpuId(9)), 6400);
        a.on_vm_exit(CpuId(9), VmExitReason::SliceExpired); // no panic
    }

    #[test]
    #[should_panic(expected = "invalid threshold bounds")]
    fn zero_min_panics() {
        AdaptiveYield::new(1, 10, 0, 100);
    }

    #[test]
    fn clamp_jumps_to_max_once() {
        let mut a = AdaptiveYield::new(2, 200, 25, 6400);
        assert!(a.clamp_to_max(CpuId(0)));
        assert_eq!(a.threshold(CpuId(0)), 6400);
        assert_eq!(a.threshold(CpuId(1)), 200, "per-CPU isolation");
        assert!(!a.clamp_to_max(CpuId(0)), "already clamped");
        assert!(!a.clamp_to_max(CpuId(9)), "unknown CPU is a no-op");
        assert_eq!(a.increases(), 1);
    }
}
