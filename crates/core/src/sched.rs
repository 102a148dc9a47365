//! The Tai Chi scheduling policy: the decision half of the vCPU
//! scheduler (§4.1, §4.3).
//!
//! The machine keeps the *mechanism* — event plumbing, occupancy
//! bookkeeping, softirq raising, VM-enter/exit timing, counters — and
//! calls [`TaiChiPolicy`] at each decision point: when a data-plane
//! CPU should yield, which vCPU to grant it to, how long the grant
//! runs, how the adaptive feedback reacts to a VM-exit, and where a
//! lock-holding vCPU is re-placed. Each method takes only the state
//! it reads.
//!
//! The run's [`Mode`](crate::machine::Mode) decides whether the policy
//! is consulted at all. The three Tai Chi modes harvest DP idle cycles
//! through vCPUs (`TaiChiNoHwProbe` only disarms the hardware probe).
//! `Baseline` and `Type2` build no vCPUs, so the machine never reaches
//! a decision point and the kernel's native CFS-like scheduling
//! (least-loaded placement, work stealing, preemption rotation in
//! taichi-os) runs alone. What makes the type-2 regime slow (guest
//! taxes, IPC→RPC inflation, the pCPU lost to emulation) is structural
//! and modeled by its machine construction and program transformation.

use crate::config::MachineConfig;
use crate::orchestrator::IpiOrchestrator;
use crate::probe_sw::AdaptiveYield;
use crate::slice::AdaptiveSlice;
use crate::vcpu_sched::VcpuScheduler;

use taichi_hw::CpuId;
use taichi_os::Kernel;
use taichi_sim::SimDuration;
use taichi_virt::VmExitReason;

/// Where a lock-context reschedule decided to re-place the vCPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReschedulePick {
    /// Chosen host CPU.
    pub host: CpuId,
    /// True when the pick fell back to a CP pCPU because no idle DP
    /// host was free (the machine counts these separately).
    pub fallback: bool,
}

/// Full Tai Chi: round-robin vCPU harvest with adaptive yield
/// thresholds and slices, plus §4.1 safe lock-context rescheduling.
pub struct TaiChiPolicy {
    yield_ctl: AdaptiveYield,
    slice_ctl: AdaptiveSlice,
    rr_next: usize,
    cp_rr: usize,
}

impl TaiChiPolicy {
    /// Builds the policy from the machine config.
    pub fn new(cfg: &MachineConfig) -> Self {
        TaiChiPolicy {
            yield_ctl: AdaptiveYield::new(
                cfg.spec.num_cpus,
                cfg.taichi.initial_yield_threshold,
                cfg.taichi.min_yield_threshold,
                cfg.taichi.max_yield_threshold,
            ),
            slice_ctl: AdaptiveSlice::new(
                cfg.spec.num_cpus,
                cfg.taichi.initial_slice,
                cfg.taichi.max_slice,
            ),
            rr_next: 0,
            cp_rr: 0,
        }
    }

    /// Empty-poll count after which `host` is declared idle.
    #[inline]
    pub(crate) fn yield_threshold(&self, host: CpuId) -> u32 {
        self.yield_ctl.threshold(host)
    }

    /// Grant duration for the next vCPU entered on `host`.
    #[inline]
    pub(crate) fn grant_slice(&self, host: CpuId) -> SimDuration {
        self.slice_ctl.slice(host)
    }

    /// Picks the vCPU to grant an idle host to, round-robin over the
    /// descheduled vCPUs whose kernel CPU has work (queued threads or
    /// a pending softirq), or `None` to leave the host armed for a
    /// later kick.
    #[inline]
    pub fn pick_vcpu(
        &mut self,
        vsched: &VcpuScheduler,
        kernel: &Kernel,
        orchestrator: &IpiOrchestrator,
    ) -> Option<usize> {
        let n = vsched.len();
        for step in 0..n {
            let idx = (self.rr_next + step) % n;
            if vsched.vcpu(idx).is_descheduled()
                && kernel.cpu_has_work(orchestrator.vcpu_cpu_id(idx))
            {
                self.rr_next = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Feedback: a grant on `host` ended with `reason` (after the
    /// machine's false-positive upgrade — a slice expiry that found
    /// packets waiting arrives here as [`VmExitReason::HwProbe`]).
    pub fn on_vm_exit(&mut self, host: CpuId, reason: VmExitReason) {
        self.slice_ctl.on_vm_exit(host, reason);
        self.yield_ctl.on_vm_exit(host, reason);
    }

    /// Chooses where to immediately re-place a vCPU preempted inside a
    /// lock context (§4.1): the first free host in `idle_dp`, else the
    /// next of `cp_hosts` round-robin. `None` only when both are empty.
    pub(crate) fn pick_reschedule_host(
        &mut self,
        vsched: &VcpuScheduler,
        idle_dp: &[CpuId],
        cp_hosts: &[CpuId],
    ) -> Option<ReschedulePick> {
        if let Some(&h) = idle_dp.iter().find(|h| vsched.host_free(**h)) {
            return Some(ReschedulePick {
                host: h,
                fallback: false,
            });
        }
        if cp_hosts.is_empty() {
            return None;
        }
        let pick = cp_hosts[self.cp_rr % cp_hosts.len()];
        self.cp_rr += 1;
        Some(ReschedulePick {
            host: pick,
            fallback: true,
        })
    }

    /// Storm-starvation degradation: jump `host`'s yield threshold to
    /// its maximum in one step. Returns whether anything changed.
    #[inline]
    pub(crate) fn clamp_yield_to_max(&mut self, host: CpuId) -> bool {
        self.yield_ctl.clamp_to_max(host)
    }

    /// Diagnostic view of the per-CPU yield thresholds.
    #[inline]
    pub(crate) fn yield_view(&self) -> &AdaptiveYield {
        &self.yield_ctl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, Mode};
    use taichi_cp::SynthCp;
    use taichi_dp::{ArrivalPattern, TrafficGen};
    use taichi_hw::IoKind;
    use taichi_os::{KernelConfig, SoftirqKind};
    use taichi_sim::{Dist, Rng, SimTime};

    /// Owns the subsystems the policy reads, with `n` vCPUs registered
    /// and initially descheduled and workless.
    struct Rig {
        kernel: Kernel,
        vsched: VcpuScheduler,
        orch: IpiOrchestrator,
        vcpu_ids: Vec<CpuId>,
    }

    impl Rig {
        fn new(n: u32) -> Self {
            let num_cpus = 12;
            let mut kernel = Kernel::new(KernelConfig::default(), &[]);
            let mut orch = IpiOrchestrator::new(num_cpus);
            let vcpu_ids = orch.register_vcpus(&mut kernel, n, SimTime::ZERO);
            let vsched = VcpuScheduler::new(&vcpu_ids, num_cpus);
            Rig {
                kernel,
                vsched,
                orch,
                vcpu_ids,
            }
        }

        fn pick(&self, p: &mut TaiChiPolicy) -> Option<usize> {
            p.pick_vcpu(&self.vsched, &self.kernel, &self.orch)
        }

        /// Gives vCPU `idx` pending kernel work (a raised softirq).
        fn give_work(&mut self, idx: usize) {
            let cpu = self.vcpu_ids[idx];
            assert!(self.kernel.softirqs().raise(cpu, SoftirqKind::TaiChiVcpu));
        }
    }

    fn taichi() -> TaiChiPolicy {
        TaiChiPolicy::new(&MachineConfig::default())
    }

    /// Runs `mode` for 5 ms: bursty traffic on every DP CPU while a
    /// CP batch waits for cycles to harvest.
    fn run_mode(mode: Mode) -> Machine {
        let mut m = Machine::new(MachineConfig::default(), mode);
        m.add_traffic(TrafficGen::new(
            ArrivalPattern::OnOff {
                on_us: Dist::constant(200.0),
                off_us: Dist::exponential(400.0),
                burst_gap_us: Dist::exponential(0.21),
            },
            Dist::constant(512.0),
            IoKind::Network,
            m.dp_cpu_ids().to_vec(),
        ));
        let batch = SynthCp::default().workload(8, &mut Rng::new(7));
        m.schedule_cp_batch(batch, SimTime::ZERO);
        m.run_until(SimTime::from_millis(5));
        m
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut rig = Rig::new(3);
        for i in 0..3 {
            rig.give_work(i);
        }
        let mut p = taichi();
        let picks: Vec<usize> = (0..6).map(|_| rig.pick(&mut p).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_vcpus_without_work() {
        let mut rig = Rig::new(3);
        rig.give_work(2);
        let mut p = taichi();
        assert_eq!(rig.pick(&mut p), Some(2));
        // RR cursor advanced past 2 and wraps back to it.
        assert_eq!(rig.pick(&mut p), Some(2));
    }

    #[test]
    fn none_when_no_work_or_no_vcpus() {
        let rig = Rig::new(4);
        let mut p = taichi();
        assert_eq!(rig.pick(&mut p), None);
        let empty = Rig::new(0);
        assert_eq!(empty.pick(&mut p), None);
    }

    #[test]
    fn placed_vcpu_not_runnable() {
        let mut rig = Rig::new(2);
        rig.give_work(0);
        rig.give_work(1);
        let mut p = taichi();
        let i = rig.pick(&mut p).unwrap();
        rig.vsched.vcpu_mut(i).place(CpuId(0), SimTime::ZERO);
        rig.vsched.record_placement(i, CpuId(0));
        let j = rig.pick(&mut p).unwrap();
        assert_ne!(i, j);
    }

    #[test]
    fn lock_reschedule_prefers_idle_dp() {
        let rig = Rig::new(2);
        let mut p = taichi();
        let idle = [CpuId(2), CpuId(5)];
        let cp = [CpuId(8), CpuId(9)];
        let pick = p.pick_reschedule_host(&rig.vsched, &idle, &cp).unwrap();
        assert_eq!(pick.host, CpuId(2));
        assert!(!pick.fallback);
    }

    #[test]
    fn lock_reschedule_skips_occupied_dp() {
        let mut rig = Rig::new(2);
        rig.vsched.record_placement(0, CpuId(2));
        let mut p = taichi();
        let idle = [CpuId(2), CpuId(5)];
        let pick = p
            .pick_reschedule_host(&rig.vsched, &idle, &[CpuId(8)])
            .unwrap();
        assert_eq!(pick.host, CpuId(5));
    }

    #[test]
    fn lock_reschedule_falls_back_round_robin() {
        let rig = Rig::new(2);
        let mut p = taichi();
        let cp = [CpuId(8), CpuId(9), CpuId(10)];
        let picks: Vec<ReschedulePick> = (0..4)
            .map(|_| p.pick_reschedule_host(&rig.vsched, &[], &cp).unwrap())
            .collect();
        assert!(picks.iter().all(|k| k.fallback));
        let hosts: Vec<CpuId> = picks.iter().map(|k| k.host).collect();
        assert_eq!(hosts, vec![CpuId(8), CpuId(9), CpuId(10), CpuId(8)]);
    }

    #[test]
    fn empty_everything_returns_none() {
        let rig = Rig::new(1);
        let mut p = taichi();
        assert_eq!(p.pick_reschedule_host(&rig.vsched, &[], &[]), None);
    }

    #[test]
    fn baseline_declines_everything() {
        // The non-harvesting regimes build no vCPUs and arm no probe,
        // so the policy is never consulted and nothing yields.
        for mode in [Mode::Baseline, Mode::Type2] {
            let m = run_mode(mode);
            assert_eq!(m.vsched().len(), 0, "{mode}");
            assert!(!m.hw_probe().is_enabled(), "{mode}");
            assert_eq!(m.vsched().total_yields(), 0, "{mode}");
            assert_eq!(m.vsched().total_lock_reschedules(), 0, "{mode}");
        }
    }

    #[test]
    fn ablation_modes_map_to_taichi_policy() {
        let cfg = MachineConfig::default();
        for mode in [Mode::TaiChi, Mode::TaiChiNoHwProbe, Mode::TaiChiVdp] {
            let m = run_mode(mode);
            assert_eq!(m.vsched().len(), cfg.taichi.num_vcpus as usize, "{mode}");
            assert!(m.vsched().total_yields() > 0, "{mode}");
            assert_eq!(
                m.hw_probe().is_enabled(),
                mode != Mode::TaiChiNoHwProbe,
                "{mode}"
            );
        }
    }

    #[test]
    fn make_scheduler_harvests_exactly_in_taichi_modes() {
        for mode in Mode::all() {
            let m = run_mode(mode);
            assert_eq!(m.vsched().total_yields() > 0, mode.has_taichi(), "{mode}");
        }
    }
}
