//! The unified IPI orchestrator (§4.2).
//!
//! vCPUs and pCPUs share one OS, but a raw IPI cannot cross the
//! virtualization boundary: a guest-issued IPI must be re-issued by the
//! host (source phase), and an IPI towards a vCPU must be injected —
//! directly if the vCPU is running (posted interrupt), or after waking
//! it if it is descheduled (destination phase). The orchestrator hooks
//! the kernel's IPI send path (`x2apic_send_IPI` in the real
//! implementation) and classifies every message into a routing
//! decision the machine driver then executes.
//!
//! The orchestrator also owns vCPU *registration* (Fig. 8a): it creates
//! kernel CPUs in the offline state, then drives them online with
//! INIT/SIPI boot IPIs — after which standard affinity binding reaches
//! them with zero CP task modification.

use taichi_hw::{CpuId, IpiMessage};
use taichi_os::Kernel;
use taichi_sim::{Counter, SimTime};

/// How one IPI must be handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// Plain pCPU→pCPU: deliver via an MSR write, no virtualization
    /// involvement.
    Direct,
    /// Destination is a *running* vCPU: inject via posted interrupt
    /// (no VM-exit).
    Posted {
        /// Index of the destination vCPU.
        vcpu: usize,
    },
    /// Destination is a descheduled vCPU: the orchestrator must wake
    /// it (make it a placement candidate) and then inject.
    WakeAndInject {
        /// Index of the destination vCPU.
        vcpu: usize,
    },
}

/// Classification of each CPU ID the orchestrator knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CpuClass {
    Physical,
    Vcpu(usize),
}

/// The unified IPI orchestrator.
#[derive(Clone, Debug)]
pub struct IpiOrchestrator {
    classes: Vec<CpuClass>,
    first_vcpu: u32,
    posted: Counter,
    woken: Counter,
}

impl IpiOrchestrator {
    /// Creates an orchestrator for `num_physical` physical CPUs and no
    /// vCPUs yet.
    pub fn new(num_physical: u32) -> Self {
        IpiOrchestrator {
            classes: vec![CpuClass::Physical; num_physical as usize],
            first_vcpu: num_physical,
            posted: Counter::new(),
            woken: Counter::new(),
        }
    }

    /// Registers `count` vCPUs as native kernel CPUs (Fig. 8a): each is
    /// added offline, then booted online with INIT/SIPI IPIs that the
    /// orchestrator itself routes.
    ///
    /// Returns the kernel CPU IDs assigned to the vCPUs, in vCPU-index
    /// order.
    pub fn register_vcpus(&mut self, kernel: &mut Kernel, count: u32, now: SimTime) -> Vec<CpuId> {
        let mut ids = Vec::with_capacity(count as usize);
        // Online actions are moot here: a freshly booted CPU has no
        // work, and every driver re-arms all known CPUs afterwards.
        let mut acts = taichi_os::ActionBuf::new();
        for i in 0..count {
            let id = CpuId(self.first_vcpu + i);
            kernel.register_cpu(id, now);
            // Boot handshake: INIT then SIPI, both routed by us.
            kernel.cpu_init(id);
            kernel.cpu_online(id, &mut acts);
            acts.clear();
            self.classes.push(CpuClass::Vcpu(i as usize));
            ids.push(id);
        }
        ids
    }

    /// The kernel CPU ID of vCPU `index`.
    pub(crate) fn vcpu_cpu_id(&self, index: usize) -> CpuId {
        CpuId(self.first_vcpu + index as u32)
    }

    /// The vCPU index behind a kernel CPU ID, if it is a vCPU.
    pub(crate) fn vcpu_index(&self, cpu: CpuId) -> Option<usize> {
        match self.classes.get(cpu.index()) {
            Some(CpuClass::Vcpu(i)) => Some(*i),
            _ => None,
        }
    }

    /// Routes one IPI. `vcpu_running` reports, for a vCPU index,
    /// whether that vCPU currently holds a physical core. Only the
    /// destination decides the route: a guest-issued IPI is re-issued
    /// by the host and then routed like any other.
    pub fn route(
        &mut self,
        msg: IpiMessage,
        vcpu_running: impl Fn(usize) -> bool,
    ) -> RouteDecision {
        match self.vcpu_index(msg.dst) {
            None => RouteDecision::Direct,
            Some(i) if vcpu_running(i) => {
                self.posted.inc();
                RouteDecision::Posted { vcpu: i }
            }
            Some(i) => {
                self.woken.inc();
                RouteDecision::WakeAndInject { vcpu: i }
            }
        }
    }

    /// IPIs injected into running vCPUs via posted interrupts.
    pub(crate) fn posted_count(&self) -> u64 {
        self.posted.get()
    }

    /// IPIs that had to wake a descheduled vCPU.
    pub fn woken_count(&self) -> u64 {
        self.woken.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taichi_hw::IrqVector;
    use taichi_os::KernelConfig;

    fn kernel_with_cp_cpus() -> Kernel {
        let cp: Vec<CpuId> = (8..12).map(CpuId).collect();
        Kernel::new(KernelConfig::default(), &cp)
    }

    #[test]
    fn registration_brings_vcpus_online() {
        let mut k = kernel_with_cp_cpus();
        let mut o = IpiOrchestrator::new(12);
        let ids = o.register_vcpus(&mut k, 4, SimTime::ZERO);
        assert_eq!(ids, (12..16).map(CpuId).collect::<Vec<_>>());
        for id in &ids {
            assert_eq!(k.cpu_phase(*id), Some(taichi_os::kernel::CpuPhase::Online));
        }
        assert_eq!(o.vcpu_cpu_id(0), CpuId(12));
        assert_eq!(o.vcpu_index(CpuId(13)), Some(1));
        assert_eq!(o.vcpu_index(CpuId(5)), None);
    }

    fn msg(src: u32, dst: u32) -> IpiMessage {
        IpiMessage {
            src: CpuId(src),
            dst: CpuId(dst),
            vector: IrqVector::RESCHEDULE,
        }
    }

    #[test]
    fn physical_to_physical_is_direct() {
        let mut k = kernel_with_cp_cpus();
        let mut o = IpiOrchestrator::new(12);
        o.register_vcpus(&mut k, 2, SimTime::ZERO);
        let d = o.route(msg(0, 9), |_| false);
        assert_eq!(d, RouteDecision::Direct);
    }

    #[test]
    fn to_running_vcpu_is_posted() {
        let mut k = kernel_with_cp_cpus();
        let mut o = IpiOrchestrator::new(12);
        o.register_vcpus(&mut k, 2, SimTime::ZERO);
        let d = o.route(msg(8, 13), |i| i == 1);
        assert_eq!(d, RouteDecision::Posted { vcpu: 1 });
        assert_eq!(o.posted_count(), 1);
    }

    #[test]
    fn to_sleeping_vcpu_wakes() {
        let mut k = kernel_with_cp_cpus();
        let mut o = IpiOrchestrator::new(12);
        o.register_vcpus(&mut k, 2, SimTime::ZERO);
        let d = o.route(msg(8, 12), |_| false);
        assert_eq!(d, RouteDecision::WakeAndInject { vcpu: 0 });
        assert_eq!(o.woken_count(), 1);
    }

    #[test]
    fn vcpu_source_routes_by_destination() {
        let mut k = kernel_with_cp_cpus();
        let mut o = IpiOrchestrator::new(12);
        o.register_vcpus(&mut k, 2, SimTime::ZERO);
        let d = o.route(msg(12, 3), |_| true);
        assert_eq!(d, RouteDecision::Direct);
        let d2 = o.route(msg(12, 13), |i| i == 1);
        assert_eq!(d2, RouteDecision::Posted { vcpu: 1 });
    }

    #[test]
    fn affinity_binding_to_vcpu_needs_no_task_changes() {
        // The transparency claim: a plain Program binds to a vCPU via
        // standard affinity and completes there once the vCPU gets
        // physical time.
        use taichi_os::{ActionBuf, CpuSet, Program};
        use taichi_sim::SimDuration;
        let mut k = kernel_with_cp_cpus();
        let mut o = IpiOrchestrator::new(12);
        let ids = o.register_vcpus(&mut k, 1, SimTime::ZERO);
        let vid = ids[0];
        // The vCPU starts with no physical time (paused).
        k.pause_cpu(vid, SimTime::ZERO, &mut ActionBuf::new());
        let p = Program::new().compute(SimDuration::from_micros(30));
        let tid = k.spawn(p, CpuSet::single(vid), SimTime::ZERO, &mut ActionBuf::new());
        assert!(k.cpu_has_work(vid));
        // Grant physical time.
        k.resume_cpu(vid, SimTime::from_micros(10), &mut ActionBuf::new());
        let next = k.next_decision_time(vid, SimTime::from_micros(10)).unwrap();
        k.decide(vid, next, &mut ActionBuf::new());
        assert_eq!(k.thread_info(tid).state, taichi_os::ThreadState::Finished);
    }
}
