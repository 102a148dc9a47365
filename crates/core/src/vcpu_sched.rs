//! vCPU pool bookkeeping (§4.1): the *mechanism* half.
//!
//! Owns the vCPU pool, the host-CPU occupancy map, and the scheduling
//! counters. The *decisions* — which runnable vCPU an idle DP CPU is
//! granted to, and where a lock-holding vCPU is re-placed — live in
//! the policy ([`crate::sched::TaiChiPolicy`]); the event-driven
//! plumbing (softirq raising, VM-enter/exit timing) lives in
//! [`crate::machine`]. This module keeps the pure state so both stay
//! unit-testable.

use taichi_hw::CpuId;
use taichi_sim::Counter;
use taichi_virt::Vcpu;

/// vCPU pool and placement state.
#[derive(Clone, Debug)]
pub struct VcpuScheduler {
    vcpus: Vec<Vcpu>,
    /// Occupancy per physical CPU index.
    occupancy: Vec<Option<usize>>,
    yields: Counter,
    lock_reschedules: Counter,
    lock_fallbacks: Counter,
}

impl VcpuScheduler {
    /// Creates a scheduler for `vcpu_ids` (kernel CPU IDs of the
    /// vCPUs) over `num_physical` physical CPUs.
    pub fn new(vcpu_ids: &[CpuId], num_physical: u32) -> Self {
        VcpuScheduler {
            vcpus: vcpu_ids.iter().map(|&id| Vcpu::new(id)).collect(),
            occupancy: vec![None; num_physical as usize],
            yields: Counter::new(),
            lock_reschedules: Counter::new(),
            lock_fallbacks: Counter::new(),
        }
    }

    /// Number of vCPUs in the pool.
    pub fn len(&self) -> usize {
        self.vcpus.len()
    }

    /// True when the pool is empty (baseline modes).
    pub fn is_empty(&self) -> bool {
        self.vcpus.is_empty()
    }

    /// Immutable access to vCPU `idx`.
    pub fn vcpu(&self, idx: usize) -> &Vcpu {
        &self.vcpus[idx]
    }

    /// Mutable access to vCPU `idx`.
    pub(crate) fn vcpu_mut(&mut self, idx: usize) -> &mut Vcpu {
        &mut self.vcpus[idx]
    }

    /// Iterates all vCPUs.
    pub fn vcpus(&self) -> &[Vcpu] {
        &self.vcpus
    }

    /// The vCPU currently occupying physical CPU `host`, if any.
    pub(crate) fn occupant(&self, host: CpuId) -> Option<usize> {
        self.occupancy.get(host.index()).copied().flatten()
    }

    /// True when `host` has no vCPU on it.
    pub(crate) fn host_free(&self, host: CpuId) -> bool {
        self.occupant(host).is_none()
    }

    /// Records a placement of vCPU `idx` on `host` (a DP→CP yield).
    ///
    /// # Panics
    ///
    /// Panics when the host is already occupied — one vCPU per core.
    pub(crate) fn record_placement(&mut self, idx: usize, host: CpuId) {
        let slot = self
            .occupancy
            .get_mut(host.index())
            .unwrap_or_else(|| panic!("placement on unknown {host}"));
        assert!(slot.is_none(), "{host} already hosts vCPU {slot:?}");
        *slot = Some(idx);
        self.yields.inc();
    }

    /// Clears the occupancy of `host` (after VM-exit completes).
    pub(crate) fn clear_placement(&mut self, host: CpuId) -> Option<usize> {
        self.occupancy.get_mut(host.index()).and_then(|s| s.take())
    }

    /// Counts a lock-context reschedule attempt (§4.1). The machine
    /// calls this on every attempt, before the policy's pick, so the
    /// counter also covers attempts that found nowhere to place.
    pub(crate) fn note_lock_reschedule(&mut self) {
        self.lock_reschedules.inc();
    }

    /// Counts a lock-context reschedule that fell back to a CP pCPU.
    pub(crate) fn note_lock_fallback(&mut self) {
        self.lock_fallbacks.inc();
    }

    /// Total DP→CP yields (placements).
    pub fn total_yields(&self) -> u64 {
        self.yields.get()
    }

    /// Total safe lock-context reschedules.
    pub fn total_lock_reschedules(&self) -> u64 {
        self.lock_reschedules.get()
    }

    /// Lock-context reschedules that had to fall back to a CP pCPU.
    pub fn total_lock_fallbacks(&self) -> u64 {
        self.lock_fallbacks.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(n: usize) -> VcpuScheduler {
        let ids: Vec<CpuId> = (12..12 + n as u32).map(CpuId).collect();
        VcpuScheduler::new(&ids, 12)
    }

    #[test]
    #[should_panic(expected = "already hosts")]
    fn double_occupancy_panics() {
        let mut s = sched(2);
        s.record_placement(0, CpuId(1));
        s.record_placement(1, CpuId(1));
    }

    #[test]
    fn clear_placement_roundtrip() {
        let mut s = sched(1);
        s.record_placement(0, CpuId(5));
        assert_eq!(s.occupant(CpuId(5)), Some(0));
        assert!(!s.host_free(CpuId(5)));
        assert_eq!(s.clear_placement(CpuId(5)), Some(0));
        assert!(s.host_free(CpuId(5)));
        assert_eq!(s.clear_placement(CpuId(5)), None);
        assert_eq!(s.total_yields(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = sched(2);
        s.note_lock_reschedule();
        s.note_lock_reschedule();
        s.note_lock_fallback();
        assert_eq!(s.total_lock_reschedules(), 2);
        assert_eq!(s.total_lock_fallbacks(), 1);
    }
}
