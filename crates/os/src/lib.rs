//! SmartNIC operating-system model.
//!
//! A deterministic model of the parts of a Linux kernel that matter for
//! the Tai Chi reproduction:
//!
//! - **Threads & programs** ([`thread`]): control-plane tasks are
//!   programs — sequences of user-compute, preemptible-kernel,
//!   non-preemptible-kernel (spinlock / IRQ-off), sleep, and IPC
//!   segments — exactly the structure §3.2 of the paper traces.
//! - **Scheduler** ([`kernel`]): per-CPU runqueues with fair round-robin
//!   time slicing. The crucial fidelity point: time-slice preemption is
//!   *deferred* while the running thread is inside a non-preemptible
//!   section, reproducing the ms-scale scheduling stalls (constraint C2)
//!   that motivate Tai Chi.
//! - **Spinlocks** ([`lock`]): contended locks spin-wait, so a lock
//!   holder whose (virtual) CPU is descheduled stalls every spinner —
//!   the deadlock hazard §4.1's safe rescheduling policy exists for.
//! - **CPU hotplug**: CPUs register offline, come online through an
//!   INIT/SIPI-like boot handshake, and are then indistinguishable from
//!   boot CPUs to the scheduler — the mechanism Tai Chi uses to expose
//!   vCPUs as native CPUs.
//! - **Pause/resume** ([`kernel::Kernel::pause_cpu`]): an external
//!   hypervisor (Tai Chi's vCPU scheduler) can freeze a CPU's execution
//!   and resume it later; thread progress on that CPU dilates
//!   accordingly. This is what makes *hybrid virtualization* modelable:
//!   vCPUs are kernel CPUs whose physical time is granted and revoked.
//! - **Softirqs** ([`softirq`]): per-CPU pending softirq state, used by
//!   Tai Chi's softirq-based context-switch mechanism.
//!
//! The kernel is a passive state machine: every mutator takes `now` and
//! an [`ActionBuf`] out-parameter it appends [`kernel::KernelAction`]s
//! to (wakeup timers to arm, IPIs to route, finished threads) plus
//! dirty-CPU markers; a driver (the machine composition in
//! `taichi-core`) owns the event queue and a reusable scratch buffer.

pub mod actions;
pub mod cpuset;
pub mod kernel;
pub mod lock;
pub mod softirq;
pub mod thread;

pub use actions::ActionBuf;
pub use cpuset::CpuSet;
pub use kernel::{Kernel, KernelAction, KernelConfig, KernelFact};
pub use lock::LockId;
pub use softirq::SoftirqKind;
pub use thread::{Program, Segment, ThreadId, ThreadState};
