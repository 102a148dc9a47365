//! vCPU context state machine.
//!
//! A [`Vcpu`] is one guest CPU context managed by Tai Chi's vCPU
//! scheduler. Its lifecycle (Fig. 7b):
//!
//! ```text
//!   Descheduled --place()--> Entering --enter_complete()--> Running
//!        ^                                                    |
//!        +---------------- exit_complete() <---- begin_exit(reason)
//! ```
//!
//! While `Running` the vCPU occupies one physical CPU; the kernel CPU
//! it backs (its registered [`CpuId`]) is resumed for exactly that
//! span. Exit reasons are recorded per vCPU because the adaptive time
//! slice (§4.1) and the adaptive yield threshold (§4.3) both branch on
//! *why* the last VM-exit happened.

use taichi_hw::CpuId;
use taichi_sim::SimTime;

/// Why a vCPU exited guest mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VmExitReason {
    /// The vCPU's time slice expired (DP CPU still idle — the
    /// "sustained idleness" signal).
    SliceExpired,
    /// The hardware workload probe raised an IRQ: a DP packet is
    /// arriving for the host CPU (the "false-positive yield" signal).
    HwProbe,
    /// The guest sent an IPI, which must be re-issued by the host
    /// (unified IPI orchestrator, source-vCPU phase).
    IpiSend,
    /// The guest CPU went idle (HLT): nothing left to run.
    GuestHalt,
    /// Forced preemption by the vCPU scheduler (e.g. reclaiming the
    /// core for a higher-priority placement).
    Forced,
}

/// Scheduling state of a vCPU context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcpuState {
    /// Not placed on any physical CPU.
    Descheduled,
    /// VM-enter in progress on `host`.
    Entering {
        /// The physical CPU being entered on.
        host: CpuId,
    },
    /// Executing on `host`; the grant expires at `slice_end`.
    Running {
        /// The physical CPU it runs on.
        host: CpuId,
        /// When this grant's time slice expires.
        slice_end: SimTime,
    },
    /// VM-exit in progress from `host`.
    Exiting {
        /// The physical CPU being vacated.
        host: CpuId,
        /// Why the exit was initiated.
        reason: VmExitReason,
    },
}

/// Per-exit-reason counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExitCounts {
    /// Slice-expiry exits.
    pub slice_expired: u64,
    /// Hardware-probe exits.
    pub hw_probe: u64,
    /// IPI-send exits.
    pub ipi_send: u64,
    /// Guest-halt exits.
    pub guest_halt: u64,
    /// Forced exits.
    pub forced: u64,
}

impl ExitCounts {
    fn bump(&mut self, reason: VmExitReason) {
        match reason {
            VmExitReason::SliceExpired => self.slice_expired += 1,
            VmExitReason::HwProbe => self.hw_probe += 1,
            VmExitReason::IpiSend => self.ipi_send += 1,
            VmExitReason::GuestHalt => self.guest_halt += 1,
            VmExitReason::Forced => self.forced += 1,
        }
    }

    /// Total exits of any reason.
    pub fn total(&self) -> u64 {
        self.slice_expired + self.hw_probe + self.ipi_send + self.guest_halt + self.forced
    }
}

/// One vCPU context.
#[derive(Clone, Debug)]
pub struct Vcpu {
    /// The kernel CPU ID this vCPU is registered as.
    pub id: CpuId,
    state: VcpuState,
    entries: u64,
    exits: ExitCounts,
}

impl Vcpu {
    /// Creates a descheduled vCPU registered as kernel CPU `id`.
    pub fn new(id: CpuId) -> Self {
        Vcpu {
            id,
            state: VcpuState::Descheduled,
            entries: 0,
            exits: ExitCounts::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> VcpuState {
        self.state
    }

    /// True when not placed anywhere.
    pub fn is_descheduled(&self) -> bool {
        self.state == VcpuState::Descheduled
    }

    /// True when running (or mid-transition) on some host CPU.
    pub fn host(&self) -> Option<CpuId> {
        match self.state {
            VcpuState::Descheduled => None,
            VcpuState::Entering { host }
            | VcpuState::Running { host, .. }
            | VcpuState::Exiting { host, .. } => Some(host),
        }
    }

    /// Begins placement on `host`; VM-enter completes after
    /// [`VirtCosts::vm_enter`](crate::VirtCosts::vm_enter).
    ///
    /// # Panics
    ///
    /// Panics unless the vCPU is descheduled — double placement is a
    /// scheduler bug.
    pub fn place(&mut self, host: CpuId, _now: SimTime) {
        assert!(
            self.is_descheduled(),
            "vCPU {:?} placed while {:?}",
            self.id,
            self.state
        );
        self.state = VcpuState::Entering { host };
    }

    /// Aborts a placement whose VM-enter never started (the context-
    /// switch softirq was lost to fault injection): `Entering` →
    /// `Descheduled` without counting an entry or an exit.
    ///
    /// # Panics
    ///
    /// Panics unless the vCPU is `Entering` — aborting a running or
    /// exiting vCPU is a scheduler bug.
    pub fn abort_place(&mut self, _now: SimTime) {
        match self.state {
            VcpuState::Entering { .. } => self.state = VcpuState::Descheduled,
            ref s => panic!("abort_place in state {s:?}"),
        }
    }

    /// VM-enter finished; the guest executes until `slice_end` unless
    /// exited earlier.
    pub fn enter_complete(&mut self, _now: SimTime, slice_end: SimTime) {
        let host = match self.state {
            VcpuState::Entering { host } => host,
            ref s => panic!("enter_complete in state {s:?}"),
        };
        self.state = VcpuState::Running { host, slice_end };
        self.entries += 1;
    }

    /// Initiates a VM-exit for `reason`; completes after
    /// [`VirtCosts::vm_exit`](crate::VirtCosts::vm_exit).
    pub fn begin_exit(&mut self, reason: VmExitReason, _now: SimTime) {
        let host = match self.state {
            VcpuState::Running { host, .. } => host,
            ref s => panic!("begin_exit in state {s:?}"),
        };
        self.state = VcpuState::Exiting { host, reason };
    }

    /// VM-exit finished; the vCPU is descheduled again.
    pub fn exit_complete(&mut self, _now: SimTime) -> VmExitReason {
        let reason = match self.state {
            VcpuState::Exiting { reason, .. } => reason,
            ref s => panic!("exit_complete in state {s:?}"),
        };
        self.exits.bump(reason);
        self.state = VcpuState::Descheduled;
        reason
    }

    /// Total VM-entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Exit counters.
    pub fn exits(&self) -> ExitCounts {
        self.exits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_roundtrip() {
        let mut v = Vcpu::new(CpuId(12));
        assert!(v.is_descheduled());
        v.place(CpuId(3), SimTime::ZERO);
        assert_eq!(v.host(), Some(CpuId(3)));
        v.enter_complete(SimTime::from_micros(1), SimTime::from_micros(51));
        assert!(matches!(v.state(), VcpuState::Running { .. }));
        v.begin_exit(VmExitReason::SliceExpired, SimTime::from_micros(51));
        let r = v.exit_complete(SimTime::from_micros(52));
        assert_eq!(r, VmExitReason::SliceExpired);
        assert!(v.is_descheduled());
        assert_eq!(v.entries(), 1);
        assert_eq!(v.exits().slice_expired, 1);
        assert_eq!(v.exits().total(), 1);
    }

    #[test]
    #[should_panic(expected = "placed while")]
    fn double_place_panics() {
        let mut v = Vcpu::new(CpuId(12));
        v.place(CpuId(0), SimTime::ZERO);
        v.place(CpuId(1), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "begin_exit in state")]
    fn exit_without_running_panics() {
        let mut v = Vcpu::new(CpuId(12));
        v.begin_exit(VmExitReason::Forced, SimTime::ZERO);
    }

    #[test]
    fn exit_counts_by_reason() {
        let mut c = ExitCounts::default();
        c.bump(VmExitReason::IpiSend);
        c.bump(VmExitReason::GuestHalt);
        c.bump(VmExitReason::Forced);
        c.bump(VmExitReason::Forced);
        assert_eq!(c.ipi_send, 1);
        assert_eq!(c.guest_halt, 1);
        assert_eq!(c.forced, 2);
        assert_eq!(c.total(), 4);
    }
}
