//! Per-CPU softirq state.
//!
//! Tai Chi's vCPU scheduler performs its pCPU↔vCPU context switches
//! from a dedicated softirq handler (§4.1): raising the softirq on an
//! idle DP CPU is how the scheduler "borrows" that CPU without touching
//! the thread scheduler. This module models the pending-softirq bitmap;
//! handler execution costs live in the Tai Chi scheduler's cost model.

use taichi_hw::CpuId;
use taichi_sim::Counter;

/// Softirq categories (a subset of Linux's, plus Tai Chi's own).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SoftirqKind {
    /// Timer softirq.
    Timer = 0,
    /// Network RX softirq.
    NetRx = 1,
    /// The dedicated Tai Chi vCPU-switch softirq.
    TaiChiVcpu = 2,
}

impl SoftirqKind {
    /// Stable snake_case name (used by the trace layer).
    pub fn name(self) -> &'static str {
        match self {
            SoftirqKind::Timer => "timer",
            SoftirqKind::NetRx => "net_rx",
            SoftirqKind::TaiChiVcpu => "taichi_vcpu",
        }
    }
}

/// Per-CPU pending softirq bitmaps.
#[derive(Clone, Debug)]
pub struct SoftirqState {
    pending: Vec<u8>,
    raised: Counter,
    handled: Counter,
}

impl SoftirqState {
    /// Creates state for `num_cpus` CPUs with nothing pending.
    pub fn new(num_cpus: u32) -> Self {
        SoftirqState {
            pending: vec![0; num_cpus as usize],
            raised: Counter::new(),
            handled: Counter::new(),
        }
    }

    /// Heap bytes of the per-CPU pending flags.
    pub fn resident_bytes(&self) -> usize {
        self.pending.capacity()
    }

    /// Grows to cover newly registered CPUs.
    pub(crate) fn ensure_cpus(&mut self, num_cpus: u32) {
        if num_cpus as usize > self.pending.len() {
            self.pending.resize(num_cpus as usize, 0);
        }
    }

    /// Raises `kind` on `cpu`. Returns `true` if it was newly raised
    /// (not already pending). A raise lost to fault injection (the
    /// cross-CPU notification never lands) is decided by the caller,
    /// which then never calls this: the pending bit stays clear.
    pub fn raise(&mut self, cpu: CpuId, kind: SoftirqKind) -> bool {
        let Some(p) = self.pending.get_mut(cpu.index()) else {
            return false;
        };
        let bit = 1u8 << (kind as u8);
        let newly = *p & bit == 0;
        *p |= bit;
        if newly {
            self.raised.inc();
        }
        newly
    }

    /// True when `kind` is pending on `cpu`.
    pub fn is_pending(&self, cpu: CpuId, kind: SoftirqKind) -> bool {
        self.pending
            .get(cpu.index())
            .map(|p| p & (1 << (kind as u8)) != 0)
            .unwrap_or(false)
    }

    /// True when any softirq is pending on `cpu`.
    pub(crate) fn any_pending(&self, cpu: CpuId) -> bool {
        self.pending
            .get(cpu.index())
            .map(|&p| p != 0)
            .unwrap_or(false)
    }

    /// True when any softirq is pending on *any* CPU (the invariant
    /// checker's drain test).
    pub fn any_pending_anywhere(&self) -> bool {
        self.pending.iter().any(|&p| p != 0)
    }

    /// Clears and "handles" `kind` on `cpu`; returns whether it was
    /// pending.
    pub fn handle(&mut self, cpu: CpuId, kind: SoftirqKind) -> bool {
        let Some(p) = self.pending.get_mut(cpu.index()) else {
            return false;
        };
        let bit = 1u8 << (kind as u8);
        if *p & bit != 0 {
            *p &= !bit;
            self.handled.inc();
            true
        } else {
            false
        }
    }

    /// Total raises.
    pub fn total_raised(&self) -> u64 {
        self.raised.get()
    }

    /// Total handled.
    pub fn total_handled(&self) -> u64 {
        self.handled.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_handle() {
        let mut s = SoftirqState::new(4);
        assert!(s.raise(CpuId(1), SoftirqKind::TaiChiVcpu));
        assert!(s.is_pending(CpuId(1), SoftirqKind::TaiChiVcpu));
        assert!(s.any_pending(CpuId(1)));
        assert!(!s.any_pending(CpuId(0)));
        assert!(s.handle(CpuId(1), SoftirqKind::TaiChiVcpu));
        assert!(!s.is_pending(CpuId(1), SoftirqKind::TaiChiVcpu));
        assert!(!s.handle(CpuId(1), SoftirqKind::TaiChiVcpu));
    }

    #[test]
    fn duplicate_raise_collapses() {
        let mut s = SoftirqState::new(4);
        assert!(s.raise(CpuId(0), SoftirqKind::NetRx));
        assert!(!s.raise(CpuId(0), SoftirqKind::NetRx));
        assert_eq!(s.total_raised(), 1);
    }

    #[test]
    fn kinds_are_independent() {
        let mut s = SoftirqState::new(2);
        s.raise(CpuId(0), SoftirqKind::Timer);
        s.raise(CpuId(0), SoftirqKind::NetRx);
        assert!(s.handle(CpuId(0), SoftirqKind::Timer));
        assert!(s.is_pending(CpuId(0), SoftirqKind::NetRx));
    }

    #[test]
    fn ensure_cpus_grows() {
        let mut s = SoftirqState::new(2);
        assert!(!s.raise(CpuId(5), SoftirqKind::Timer));
        s.ensure_cpus(8);
        assert!(s.raise(CpuId(5), SoftirqKind::Timer));
        assert_eq!(s.total_handled(), 0);
    }
}
