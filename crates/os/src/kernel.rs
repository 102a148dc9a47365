//! The kernel scheduler model.
//!
//! # Execution model
//!
//! The kernel owns a set of CPUs (physical control-plane cores plus any
//! hotplug-registered vCPUs) and schedules [`Thread`]s over them with a
//! fair round-robin policy and a fixed time slice (CFS-like
//! granularity, default 3 ms). Three fidelity points drive the design:
//!
//! 1. **Non-preemptible routines defer preemption.** A time slice that
//!    expires while the running thread is inside a
//!    [`Segment::NonPreemptible`] section does not switch threads; the
//!    switch happens at the section's end. This reproduces the
//!    ms-scale scheduling stalls of §3.2.
//! 2. **Contended spinlocks burn CPU.** A thread that fails to acquire
//!    a lock spins on its CPU (state [`ThreadState::Spinning`]) until
//!    the holder releases, charging spin time but making no progress.
//! 3. **CPUs can be externally paused.** Tai Chi's vCPU scheduler
//!    grants and revokes physical time; [`Kernel::pause_cpu`] freezes a
//!    CPU mid-segment (progress is charged up to the pause instant) and
//!    [`Kernel::resume_cpu`] continues it. The kernel itself is
//!    oblivious to why — exactly like a guest kernel under a
//!    hypervisor.
//!
//! # Driving the kernel
//!
//! The kernel is passive. Every mutator takes `now` plus an
//! [`ActionBuf`] out-parameter and appends the [`KernelAction`]s the
//! driver must carry out — an allocation-free protocol: the driver owns
//! one scratch buffer and reuses it across calls. The driver must:
//!
//! - arm a timer for every [`KernelAction::ArmWakeup`] and call
//!   [`Kernel::wakeup`] when it fires;
//! - route every [`KernelAction::SendIpi`] (this is where Tai Chi's
//!   unified IPI orchestrator hooks in);
//! - after any call, re-read [`Kernel::next_decision_time`] for every
//!   CPU named in a [`KernelAction::Rearm`] and (re)schedule a call to
//!   [`Kernel::decide`] at that time.

use crate::actions::ActionBuf;
use crate::cpuset::CpuSet;
use crate::lock::LockTable;
use crate::softirq::SoftirqState;
use crate::thread::{Program, Segment, Thread, ThreadId, ThreadState};
use taichi_hw::{CpuId, IrqVector};
use taichi_sim::{FaultInjector, SimDuration, SimTime, TraceKind, Tracer, UtilizationMeter};

use std::collections::VecDeque;

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Fair-scheduling time slice (CFS-like granularity).
    pub timeslice: SimDuration,
    /// Cost of a thread context switch (register/stack switch plus
    /// scheduler bookkeeping).
    pub context_switch: SimDuration,
    /// Whether enqueueing work on an idle CPU emits a reschedule IPI.
    pub wakeup_ipi: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            timeslice: SimDuration::from_millis(3),
            context_switch: SimDuration::from_micros(2),
            wakeup_ipi: true,
        }
    }
}

/// Side effects the driver must carry out.
///
/// `Copy` so drivers can iterate a shared [`ActionBuf`] by value while
/// mutating the rest of their state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelAction {
    /// Arm a timer: call [`Kernel::wakeup`]`(tid)` at `at`.
    ArmWakeup {
        /// Sleeping thread.
        tid: ThreadId,
        /// Absolute wake time.
        at: SimTime,
    },
    /// A thread ran to completion.
    ThreadFinished {
        /// The finished thread.
        tid: ThreadId,
    },
    /// The kernel wants to send an IPI (reschedule kick, etc.). The
    /// driver routes it — possibly through Tai Chi's orchestrator.
    SendIpi {
        /// Sending CPU (the CPU on which the kernel code ran).
        src: CpuId,
        /// Destination CPU.
        dst: CpuId,
        /// Vector.
        vector: IrqVector,
    },
    /// CPU state changed: re-read [`Kernel::next_decision_time`] for
    /// this CPU and reschedule the decision timer.
    Rearm {
        /// Affected CPU.
        cpu: CpuId,
    },
}

/// Hotplug lifecycle of a kernel CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuPhase {
    /// Registered but not yet booted (visible as an offline CPU).
    Offline,
    /// INIT received, waiting for startup (SIPI).
    Booting,
    /// Fully schedulable.
    Online,
}

#[derive(Clone, Copy, Debug)]
struct RunningCtx {
    tid: ThreadId,
    /// When the current execution span began (progress is charged from
    /// here). While spinning, this marks the spin start.
    span_start: SimTime,
    /// When this thread was dispatched (slice accounting).
    slice_start: SimTime,
    /// Set while spin-waiting on a lock.
    spinning: bool,
}

#[derive(Clone, Debug)]
struct Cpu {
    phase: CpuPhase,
    paused: bool,
    current: Option<RunningCtx>,
    queue: VecDeque<ThreadId>,
    meter: UtilizationMeter,
}

impl Cpu {
    fn new(now: SimTime, phase: CpuPhase) -> Self {
        Cpu {
            phase,
            paused: false,
            current: None,
            queue: VecDeque::new(),
            meter: UtilizationMeter::new(now),
        }
    }

    fn runnable(&self) -> bool {
        self.phase == CpuPhase::Online && !self.paused
    }

    fn load(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }
}

/// The kernel scheduler state machine.
#[derive(Clone, Debug)]
pub struct Kernel {
    config: KernelConfig,
    cpus: Vec<Option<Cpu>>,
    threads: Vec<Thread>,
    locks: LockTable,
    softirqs: SoftirqState,
    /// Threads that finished (kept for metrics queries).
    finished: Vec<ThreadId>,
    tracer: Option<Tracer>,
}

impl Kernel {
    /// Creates a kernel with the given boot CPUs online at time zero.
    pub fn new(config: KernelConfig, boot_cpus: &[CpuId]) -> Self {
        let mut k = Kernel {
            config,
            cpus: Vec::new(),
            threads: Vec::new(),
            locks: LockTable::new(),
            softirqs: SoftirqState::new(0),
            finished: Vec::new(),
            tracer: None,
        };
        for &c in boot_cpus {
            k.slot_mut(c)
                .replace(Cpu::new(SimTime::ZERO, CpuPhase::Online));
        }
        k.softirqs
            .ensure_cpus(boot_cpus.iter().map(|c| c.0 + 1).max().unwrap_or(0));
        k
    }

    fn slot_mut(&mut self, cpu: CpuId) -> &mut Option<Cpu> {
        if cpu.index() >= self.cpus.len() {
            self.cpus.resize(cpu.index() + 1, None);
        }
        &mut self.cpus[cpu.index()]
    }

    fn cpu(&self, cpu: CpuId) -> Option<&Cpu> {
        self.cpus.get(cpu.index()).and_then(|c| c.as_ref())
    }

    fn cpu_mut(&mut self, cpu: CpuId) -> Option<&mut Cpu> {
        self.cpus.get_mut(cpu.index()).and_then(|c| c.as_mut())
    }

    fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.0 as usize]
    }

    fn thread_mut(&mut self, tid: ThreadId) -> &mut Thread {
        &mut self.threads[tid.0 as usize]
    }

    /// Read-only view of a thread (for metrics).
    pub fn thread_info(&self, tid: ThreadId) -> &Thread {
        self.thread(tid)
    }

    /// IDs of all threads ever spawned.
    pub fn all_threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u64).map(ThreadId)
    }

    /// The lock table (for assertions in tests).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The softirq state.
    pub fn softirqs(&mut self) -> &mut SoftirqState {
        &mut self.softirqs
    }

    /// Read-only softirq state (for the invariant checker).
    pub fn softirq_state(&self) -> &SoftirqState {
        &self.softirqs
    }

    /// Attaches a scheduler tracer (preemptions, non-preemptible
    /// sections, and softirq activity are recorded).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.softirqs.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// Attaches a fault injector (lost softirq raises).
    pub fn set_fault(&mut self, fault: FaultInjector) {
        self.softirqs.set_fault(fault);
    }

    fn trace(&self, at: SimTime, cpu: CpuId, kind: TraceKind) {
        if let Some(t) = &self.tracer {
            t.emit_at(at, cpu.0, kind);
        }
    }

    /// All CPUs the kernel knows about, in ID order.
    pub fn known_cpus(&self) -> Vec<CpuId> {
        self.cpus
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| CpuId(i as u32)))
            .collect()
    }

    /// Hotplug phase of `cpu` (None when unknown).
    pub fn cpu_phase(&self, cpu: CpuId) -> Option<CpuPhase> {
        self.cpu(cpu).map(|c| c.phase)
    }

    // ---------------------------------------------------------------
    // Hotplug.
    // ---------------------------------------------------------------

    /// Registers a new CPU in the `Offline` phase (vCPU registration,
    /// Fig. 8a step 1).
    pub fn register_cpu(&mut self, cpu: CpuId, now: SimTime) {
        assert!(self.cpu(cpu).is_none(), "{cpu} already registered");
        self.slot_mut(cpu).replace(Cpu::new(now, CpuPhase::Offline));
        self.softirqs.ensure_cpus(cpu.0 + 1);
    }

    /// Delivers the INIT boot IPI: `Offline` → `Booting`.
    pub fn cpu_init(&mut self, cpu: CpuId) {
        if let Some(c) = self.cpu_mut(cpu) {
            if c.phase == CpuPhase::Offline {
                c.phase = CpuPhase::Booting;
            }
        }
    }

    /// Delivers the SIPI: `Booting` → `Online`. The CPU becomes
    /// schedulable.
    pub fn cpu_online(&mut self, cpu: CpuId, out: &mut ActionBuf) {
        if let Some(c) = self.cpu_mut(cpu) {
            if c.phase == CpuPhase::Booting {
                c.phase = CpuPhase::Online;
                out.push(KernelAction::Rearm { cpu });
            }
        }
    }

    // ---------------------------------------------------------------
    // Pause / resume (the hypervisor hooks).
    // ---------------------------------------------------------------

    /// Freezes `cpu`: progress on the current thread is charged up to
    /// `now` and execution stops until [`Kernel::resume_cpu`].
    pub fn pause_cpu(&mut self, cpu: CpuId, now: SimTime, out: &mut ActionBuf) {
        let Some(c) = self.cpu_mut(cpu) else {
            return;
        };
        if c.paused {
            return;
        }
        c.paused = true;
        c.meter.set_idle(now);
        if let Some(ctx) = c.current {
            self.charge_progress(cpu, &ctx, now);
            if let Some(c) = self.cpu_mut(cpu) {
                if let Some(cur) = c.current.as_mut() {
                    cur.span_start = now; // frozen marker; reset on resume
                }
            }
        }
        out.push(KernelAction::Rearm { cpu });
    }

    /// Unfreezes `cpu`; the current thread (if any) continues from
    /// where it was paused.
    pub fn resume_cpu(&mut self, cpu: CpuId, now: SimTime, out: &mut ActionBuf) {
        let Some(c) = self.cpu_mut(cpu) else {
            return;
        };
        if !c.paused {
            return;
        }
        c.paused = false;
        if let Some(cur) = c.current.as_mut() {
            cur.span_start = now;
            cur.slice_start = now; // fresh slice after a pause
            c.meter.set_busy(now);
        }
        let dispatch = c.current.is_none() && !c.queue.is_empty();
        out.push(KernelAction::Rearm { cpu });
        if dispatch {
            self.dispatch_next(cpu, now, out);
        }
    }

    /// True when `cpu` is paused.
    pub(crate) fn is_paused(&self, cpu: CpuId) -> bool {
        self.cpu(cpu).map(|c| c.paused).unwrap_or(false)
    }

    // ---------------------------------------------------------------
    // Queries used by Tai Chi.
    // ---------------------------------------------------------------

    /// True when `cpu` has a current thread or queued work or a pending
    /// softirq — i.e. granting it physical time would be useful.
    pub fn cpu_has_work(&self, cpu: CpuId) -> bool {
        self.cpu(cpu)
            .map(|c| c.current.is_some() || !c.queue.is_empty())
            .unwrap_or(false)
            || self.softirqs.any_pending(cpu)
    }

    /// True when the thread currently on `cpu` is inside a lock context
    /// (holding a spinlock or executing a non-preemptible routine) —
    /// the §4.1 condition requiring safe rescheduling after preemption.
    pub fn in_lock_context(&self, cpu: CpuId) -> bool {
        let Some(c) = self.cpu(cpu) else {
            return false;
        };
        let Some(ctx) = &c.current else {
            return false;
        };
        self.thread(ctx.tid).in_critical_section()
    }

    /// Queue depth + running count on `cpu`.
    pub fn cpu_load(&self, cpu: CpuId) -> usize {
        self.cpu(cpu).map(|c| c.load()).unwrap_or(0)
    }

    /// Lifetime busy fraction of `cpu`.
    pub fn cpu_utilization(&self, cpu: CpuId, now: SimTime) -> f64 {
        self.cpu(cpu)
            .map(|c| c.meter.lifetime_utilization(now))
            .unwrap_or(0.0)
    }

    /// The thread currently on `cpu`.
    pub fn current_thread(&self, cpu: CpuId) -> Option<ThreadId> {
        self.cpu(cpu)
            .and_then(|c| c.current.as_ref().map(|r| r.tid))
    }

    // ---------------------------------------------------------------
    // Spawning / waking.
    // ---------------------------------------------------------------

    /// Spawns a thread and places it on the least-loaded eligible CPU.
    ///
    /// Returns the new thread's ID; driver actions land in `out`.
    pub fn spawn(
        &mut self,
        program: Program,
        affinity: CpuSet,
        now: SimTime,
        out: &mut ActionBuf,
    ) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u64);
        self.threads.push(Thread::new(tid, program, affinity, now));
        self.make_ready(tid, now, out);
        tid
    }

    /// Wakes a sleeping thread (driver calls this at `ArmWakeup` time).
    pub fn wakeup(&mut self, tid: ThreadId, now: SimTime, out: &mut ActionBuf) {
        if self.thread(tid).state != ThreadState::Sleeping {
            return;
        }
        self.make_ready(tid, now, out);
    }

    /// Changes a thread's CPU affinity (`sched_setaffinity`).
    ///
    /// Queued threads outside the new mask are re-placed immediately.
    /// A *running* thread on an excluded CPU is migrated at its next
    /// scheduling point: preemptible work is preempted right away,
    /// while a non-preemptible routine finishes first (the kernel
    /// cannot migrate a CPU that is inside a critical section) — the
    /// migration is applied when the thread next leaves the CPU.
    pub fn set_affinity(
        &mut self,
        tid: ThreadId,
        affinity: CpuSet,
        now: SimTime,
        out: &mut ActionBuf,
    ) {
        assert!(!affinity.is_empty(), "affinity mask must be non-empty");
        self.thread_mut(tid).affinity = affinity;
        match self.thread(tid).state {
            ThreadState::Ready => {
                // Find and remove it from its current queue, then
                // re-place under the new mask.
                for i in 0..self.cpus.len() {
                    let cpu = CpuId(i as u32);
                    let in_queue = self
                        .cpu(cpu)
                        .map(|c| c.queue.contains(&tid))
                        .unwrap_or(false);
                    if in_queue {
                        if affinity.contains(cpu) {
                            return; // already legal
                        }
                        if let Some(c) = self.cpu_mut(cpu) {
                            if let Some(pos) = c.queue.iter().position(|&t| t == tid) {
                                c.queue.remove(pos);
                            }
                        }
                        out.push(KernelAction::Rearm { cpu });
                        self.make_ready(tid, now, out);
                        return;
                    }
                }
                self.make_ready(tid, now, out);
            }
            ThreadState::Running => {
                let Some(cpu) = self.find_cpu_of(tid) else {
                    return;
                };
                if affinity.contains(cpu) {
                    return;
                }
                let seg_np = self
                    .thread(tid)
                    .current_segment()
                    .map(|s| s.is_non_preemptible())
                    .unwrap_or(false);
                if seg_np || self.is_paused(cpu) {
                    // Migrate at the next scheduling point: the
                    // decision engine re-checks affinity when the
                    // segment completes (see `advance_thread`).
                    return;
                }
                // Preempt and migrate now.
                if let Some(ctx) = self.cpu(cpu).and_then(|c| c.current) {
                    self.charge_progress(cpu, &ctx, now);
                }
                self.thread_mut(tid).state = ThreadState::Ready;
                self.clear_current(cpu, now);
                self.make_ready(tid, now, out);
                self.dispatch_next(cpu, now, out);
            }
            // Sleeping/Spinning/Finished: the new mask applies at the
            // next wakeup / lock handover / never.
            _ => {}
        }
    }

    /// Takes an *idle* CPU offline (no current thread). Queued threads
    /// are migrated to other CPUs in their affinity. Returns `false`
    /// (and changes nothing) when a thread is currently on the CPU.
    pub fn offline_cpu(&mut self, cpu: CpuId, now: SimTime, out: &mut ActionBuf) -> bool {
        let Some(c) = self.cpu(cpu) else {
            return false;
        };
        if c.current.is_some() {
            return false;
        }
        if let Some(c) = self.cpu_mut(cpu) {
            c.phase = CpuPhase::Offline;
        }
        out.push(KernelAction::Rearm { cpu });
        while let Some(tid) = self.cpu_mut(cpu).and_then(|c| c.queue.pop_front()) {
            self.make_ready(tid, now, out);
        }
        true
    }

    /// Places a ready thread on a CPU chosen by load within affinity.
    fn make_ready(&mut self, tid: ThreadId, now: SimTime, out: &mut ActionBuf) {
        self.thread_mut(tid).state = ThreadState::Ready;
        let affinity = self.thread(tid).affinity;
        let target = self.pick_cpu(&affinity);
        let Some(target) = target else {
            let online: Vec<CpuId> = self
                .known_cpus()
                .into_iter()
                .filter(|&c| self.cpu_phase(c) == Some(CpuPhase::Online))
                .collect();
            panic!(
                "cannot place {tid:?}: no online CPU in its affinity {affinity:?} \
                 (online CPUs: {online:?}); the task's affinity mask does not \
                 intersect the machine's online topology — widen the affinity or \
                 bring a CPU in the mask online before spawning"
            );
        };
        self.enqueue(tid, target, now, out)
    }

    /// Chooses the least-loaded online CPU in `affinity`, preferring
    /// truly idle unpaused CPUs, breaking ties by lowest ID.
    fn pick_cpu(&self, affinity: &CpuSet) -> Option<CpuId> {
        let mut best: Option<(usize, bool, CpuId)> = None;
        for cpu in affinity.iter() {
            let Some(c) = self.cpu(cpu) else { continue };
            if c.phase != CpuPhase::Online {
                continue;
            }
            let idle_unpaused = c.load() == 0 && !c.paused;
            let key = (c.load(), !idle_unpaused, cpu);
            // Prefer lower load, then idle-unpaused, then lower ID.
            let better = match &best {
                None => true,
                Some((bl, bp, bc)) => (key.0, key.1, key.2) < (*bl, *bp, *bc),
            };
            if better {
                best = Some(key);
            }
        }
        best.map(|(_, _, c)| c)
    }

    /// Enqueues `tid` on `cpu`, kicking it if idle.
    fn enqueue(&mut self, tid: ThreadId, cpu: CpuId, now: SimTime, out: &mut ActionBuf) {
        let wakeup_ipi = self.config.wakeup_ipi;
        let c = self
            .cpu_mut(cpu)
            .unwrap_or_else(|| panic!("enqueue of {tid:?} on unregistered {cpu:?}"));
        c.queue.push_back(tid);
        let idle = c.current.is_none();
        let runnable = c.runnable();
        if idle && runnable {
            self.dispatch_next(cpu, now, out);
        } else if idle && wakeup_ipi {
            // The CPU is idle but paused (a descheduled vCPU): the
            // reschedule kick must cross the virtualization boundary —
            // this is what the unified IPI orchestrator routes.
            out.push(KernelAction::SendIpi {
                src: cpu,
                dst: cpu,
                vector: IrqVector::RESCHEDULE,
            });
        }
        out.push(KernelAction::Rearm { cpu });
    }

    // ---------------------------------------------------------------
    // Decision engine.
    // ---------------------------------------------------------------

    /// When the driver must next call [`Kernel::decide`] for `cpu`.
    ///
    /// `None` means no self-transition is pending (idle, paused,
    /// offline, or spinning on a lock).
    pub fn next_decision_time(&self, cpu: CpuId, now: SimTime) -> Option<SimTime> {
        let c = self.cpu(cpu)?;
        if !c.runnable() {
            return None;
        }
        let ctx = c.current.as_ref()?;
        if ctx.spinning {
            return None; // lock release will re-arm us
        }
        let t = self.thread(ctx.tid);
        let seg = t.current_segment()?;
        let boundary = ctx.span_start + t.remaining;
        if seg.is_non_preemptible() || c.queue.is_empty() {
            Some(boundary)
        } else {
            let slice_end = ctx.slice_start + self.config.timeslice;
            Some(boundary.min(slice_end.max(now)))
        }
    }

    /// Executes due transitions on `cpu` at `now`.
    pub fn decide(&mut self, cpu: CpuId, now: SimTime, out: &mut ActionBuf) {
        let Some(c) = self.cpu(cpu) else {
            return;
        };
        if !c.runnable() {
            return;
        }
        let current = c.current;
        let queue_nonempty = !c.queue.is_empty();
        match current {
            None => {
                if queue_nonempty {
                    self.dispatch_next(cpu, now, out);
                }
            }
            Some(ctx) if ctx.spinning => {
                // Spinning threads transition only via lock release.
            }
            Some(ctx) => {
                let t = self.thread(ctx.tid);
                let boundary = ctx.span_start + t.remaining;
                if now >= boundary {
                    self.complete_segment(cpu, ctx.tid, now, out);
                } else {
                    // Slice expiry check.
                    let seg_np = t
                        .current_segment()
                        .map(|s| s.is_non_preemptible())
                        .unwrap_or(false);
                    let slice_end = ctx.slice_start + self.config.timeslice;
                    if !seg_np && queue_nonempty && now >= slice_end {
                        self.preempt_rotate(cpu, now, out);
                    }
                }
            }
        }
        out.push(KernelAction::Rearm { cpu });
    }

    /// Charges progress (or spin time) for the span `[span_start, now)`.
    fn charge_progress(&mut self, _cpu: CpuId, ctx: &RunningCtx, now: SimTime) {
        // `span_start` can sit in the future of `now` (dispatch
        // charges the context switch before the span begins, and a
        // dispatch chain — thread sleeps/finishes immediately, next
        // one dispatches — stacks several switch windows at one
        // instant), so a preemption landing inside a pending window
        // legitimately has zero progress to charge. The underflow is
        // counted in the trace rather than wrapped: a silently huge
        // `elapsed` here is exactly the kind of accounting skew the
        // checked variant exists to prevent.
        let elapsed = match now.checked_since(ctx.span_start) {
            Some(d) => d,
            None => {
                if let Some(t) = &self.tracer {
                    t.bump("time_underflow");
                }
                SimDuration::ZERO
            }
        };
        let t = self.thread_mut(ctx.tid);
        if ctx.spinning {
            t.spin_time += elapsed;
        } else {
            let progress = elapsed.min(t.remaining);
            t.remaining -= progress;
            t.cpu_time += progress;
        }
    }

    /// The running thread on `cpu` completed its current segment.
    fn complete_segment(&mut self, cpu: CpuId, tid: ThreadId, now: SimTime, out: &mut ActionBuf) {
        // Charge the full remainder.
        {
            let t = self.thread_mut(tid);
            t.cpu_time += t.remaining;
            t.remaining = SimDuration::ZERO;
        }
        // Release a lock if the completed segment held one.
        let seg = self.thread(tid).current_segment().cloned();
        if matches!(seg, Some(Segment::NonPreemptible { .. })) {
            self.trace(now, cpu, TraceKind::NonPreemptibleLeave { tid: tid.0 });
        }
        if let Some(Segment::NonPreemptible { lock: Some(l), .. }) = seg {
            if self.thread(tid).holding == Some(l) {
                self.thread_mut(tid).holding = None;
                if let Some(next_holder) = self.locks.release(l, tid) {
                    self.grant_lock(next_holder, l, now, out);
                }
            }
        }
        self.thread_mut(tid).pc += 1;
        self.sync_remaining(tid);
        self.advance_thread(cpu, tid, now, out);
    }

    /// A spinning thread acquired `lock` after a handover.
    fn grant_lock(
        &mut self,
        tid: ThreadId,
        lock: crate::lock::LockId,
        now: SimTime,
        out: &mut ActionBuf,
    ) {
        // Find the CPU where the waiter spins.
        let waiter_cpu = self.find_cpu_of(tid);
        let Some(wcpu) = waiter_cpu else {
            // The waiter is queued (was preempted while spinning — not
            // possible in this model since spinning is non-preemptible
            // from the kernel's viewpoint), treat as ready.
            self.thread_mut(tid).holding = Some(lock);
            return;
        };
        let ctx = self.cpu(wcpu).and_then(|c| c.current).unwrap_or_else(|| {
            panic!("lock handover: waiter recorded on {wcpu:?} is not current there")
        });
        debug_assert!(ctx.spinning);
        // Charge spin time up to the handover (unless the CPU is
        // paused, in which case spin time was already charged).
        if !self.is_paused(wcpu) {
            self.charge_progress(wcpu, &ctx, now);
        }
        let t = self.thread_mut(tid);
        t.holding = Some(lock);
        t.state = ThreadState::Running;
        self.trace(now, wcpu, TraceKind::NonPreemptibleEnter { tid: tid.0 });
        if let Some(c) = self.cpu_mut(wcpu) {
            if let Some(cur) = c.current.as_mut() {
                cur.spinning = false;
                cur.span_start = now;
            }
        }
        out.push(KernelAction::Rearm { cpu: wcpu });
    }

    fn find_cpu_of(&self, tid: ThreadId) -> Option<CpuId> {
        for (i, c) in self.cpus.iter().enumerate() {
            if let Some(c) = c {
                if c.current.as_ref().map(|r| r.tid) == Some(tid) {
                    return Some(CpuId(i as u32));
                }
            }
        }
        None
    }

    /// Starts (or continues) executing `tid` on `cpu` from its current
    /// pc, processing zero-duration segments inline.
    fn advance_thread(&mut self, cpu: CpuId, tid: ThreadId, now: SimTime, out: &mut ActionBuf) {
        loop {
            let seg = self.thread(tid).current_segment().cloned();
            match seg {
                None => {
                    // Program complete.
                    let t = self.thread_mut(tid);
                    t.state = ThreadState::Finished;
                    t.finished_at = Some(now);
                    self.finished.push(tid);
                    out.push(KernelAction::ThreadFinished { tid });
                    self.clear_current(cpu, now);
                    self.dispatch_next(cpu, now, out);
                    return;
                }
                Some(Segment::Notify { target }) => {
                    self.thread_mut(tid).pc += 1;
                    self.sync_remaining(tid);
                    if self.threads.get(target.0 as usize).is_some()
                        && self.thread(target).state == ThreadState::Sleeping
                    {
                        // A kernel-level wake: reschedule IPI towards
                        // wherever the target lands.
                        self.wakeup(target, now, out);
                        out.push(KernelAction::SendIpi {
                            src: cpu,
                            dst: cpu,
                            vector: IrqVector::CALL_FUNCTION,
                        });
                    }
                }
                Some(Segment::Yield) => {
                    self.thread_mut(tid).pc += 1;
                    self.sync_remaining(tid);
                    let queue_nonempty = !self.cpu(cpu).map(|c| c.queue.is_empty()).unwrap_or(true);
                    if queue_nonempty {
                        // Requeue and switch.
                        self.thread_mut(tid).state = ThreadState::Ready;
                        self.clear_current(cpu, now);
                        if let Some(c) = self.cpu_mut(cpu) {
                            c.queue.push_back(tid);
                        }
                        self.dispatch_next(cpu, now, out);
                        return;
                    }
                }
                Some(Segment::Sleep(d)) => {
                    self.thread_mut(tid).pc += 1;
                    self.sync_remaining(tid);
                    self.thread_mut(tid).state = ThreadState::Sleeping;
                    out.push(KernelAction::ArmWakeup { tid, at: now + d });
                    self.clear_current(cpu, now);
                    self.dispatch_next(cpu, now, out);
                    return;
                }
                Some(Segment::NonPreemptible { dur: _, lock }) => {
                    if let Some(l) = lock {
                        if self.thread(tid).holding != Some(l) && !self.locks.acquire(l, tid) {
                            // Contended: spin.
                            self.thread_mut(tid).state = ThreadState::Spinning;
                            self.set_current(cpu, tid, now, true);
                            out.push(KernelAction::Rearm { cpu });
                            return;
                        }
                        self.thread_mut(tid).holding = Some(l);
                    }
                    self.trace(now, cpu, TraceKind::NonPreemptibleEnter { tid: tid.0 });
                    self.thread_mut(tid).state = ThreadState::Running;
                    self.set_current(cpu, tid, now, false);
                    out.push(KernelAction::Rearm { cpu });
                    return;
                }
                Some(Segment::UserCompute(_)) | Some(Segment::KernelPreemptible(_)) => {
                    // Deferred affinity migration: if this CPU is no
                    // longer in the thread's mask, move it now that we
                    // are at a scheduling point.
                    if !self.thread(tid).affinity.contains(cpu) {
                        self.clear_current(cpu, now);
                        self.thread_mut(tid).state = ThreadState::Ready;
                        self.make_ready(tid, now, out);
                        self.dispatch_next(cpu, now, out);
                        return;
                    }
                    self.thread_mut(tid).state = ThreadState::Running;
                    self.set_current(cpu, tid, now, false);
                    out.push(KernelAction::Rearm { cpu });
                    return;
                }
            }
        }
    }

    /// Sets `remaining` to the CPU time of the current segment (used
    /// when entering a segment fresh after the pc moved).
    fn sync_remaining(&mut self, tid: ThreadId) {
        let d = self
            .thread(tid)
            .current_segment()
            .map(|s| s.cpu_time())
            .unwrap_or(SimDuration::ZERO);
        self.thread_mut(tid).remaining = d;
    }

    fn set_current(&mut self, cpu: CpuId, tid: ThreadId, now: SimTime, spinning: bool) {
        let paused = self.is_paused(cpu);
        let c = self
            .cpu_mut(cpu)
            .unwrap_or_else(|| panic!("set_current of {tid:?} on unregistered {cpu:?}"));
        let slice_start = c
            .current
            .as_ref()
            .filter(|r| r.tid == tid)
            .map(|r| r.slice_start)
            .unwrap_or(now);
        c.current = Some(RunningCtx {
            tid,
            span_start: now,
            slice_start,
            spinning,
        });
        if !paused {
            c.meter.set_busy(now);
        }
    }

    fn clear_current(&mut self, cpu: CpuId, now: SimTime) {
        if let Some(c) = self.cpu_mut(cpu) {
            c.current = None;
            c.meter.set_idle(now);
        }
    }

    /// Dispatches the next queued thread on `cpu` (if runnable),
    /// attempting to steal work when the local queue is empty.
    fn dispatch_next(&mut self, cpu: CpuId, now: SimTime, out: &mut ActionBuf) {
        let Some(c) = self.cpu(cpu) else {
            return;
        };
        if !c.runnable() || c.current.is_some() {
            out.push(KernelAction::Rearm { cpu });
            return;
        }
        let next = {
            let c = self.cpu_mut(cpu).expect("checked");
            c.queue.pop_front()
        };
        let next = match next {
            Some(t) => Some(t),
            None => self.steal_work(cpu),
        };
        let Some(tid) = next else {
            out.push(KernelAction::Rearm { cpu });
            return;
        };
        // Context-switch cost: the new thread's span begins after it.
        let start = now + self.config.context_switch;
        self.advance_thread(cpu, tid, start, out);
        // Mark the CPU busy through the switch itself.
        if let Some(c) = self.cpu_mut(cpu) {
            if c.current.is_some() && !c.paused {
                c.meter.set_busy(now);
            }
        }
        out.push(KernelAction::Rearm { cpu });
    }

    /// Steals the most-recently-queued thread from the most loaded
    /// other CPU whose queued work may migrate to `cpu`.
    fn steal_work(&mut self, cpu: CpuId) -> Option<ThreadId> {
        let mut victim: Option<(usize, CpuId)> = None;
        for (i, c) in self.cpus.iter().enumerate() {
            let Some(c) = c else { continue };
            if CpuId(i as u32) == cpu || c.queue.is_empty() {
                continue;
            }
            // Only steal from queues with migratable work.
            let migratable = c
                .queue
                .iter()
                .any(|&t| self.thread(t).affinity.contains(cpu));
            if !migratable {
                continue;
            }
            let load = c.queue.len();
            if victim.map(|(l, _)| load > l).unwrap_or(true) {
                victim = Some((load, CpuId(i as u32)));
            }
        }
        let (_, vcpu) = victim?;
        // Take the last migratable entry (the cold end of the queue)
        // by index — no queue copy.
        let idx = {
            let c = self.cpu(vcpu).expect("victim exists");
            c.queue
                .iter()
                .rposition(|&t| self.thread(t).affinity.contains(cpu))?
        };
        self.cpu_mut(vcpu).expect("victim exists").queue.remove(idx)
    }

    /// Preempts the running thread on `cpu`, putting it at the back of
    /// the queue and dispatching the next thread.
    fn preempt_rotate(&mut self, cpu: CpuId, now: SimTime, out: &mut ActionBuf) {
        let Some(ctx) = self.cpu(cpu).and_then(|c| c.current) else {
            return;
        };
        self.trace(now, cpu, TraceKind::Preempt { tid: ctx.tid.0 });
        self.charge_progress(cpu, &ctx, now);
        self.thread_mut(ctx.tid).state = ThreadState::Ready;
        self.clear_current(cpu, now);
        if let Some(c) = self.cpu_mut(cpu) {
            c.queue.push_back(ctx.tid);
        }
        self.dispatch_next(cpu, now, out)
    }

    /// Count of finished threads.
    pub fn finished_count(&self) -> usize {
        self.finished.len()
    }

    /// IDs of finished threads in completion order.
    pub fn finished_threads(&self) -> &[ThreadId] {
        &self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1;

    fn cfg() -> KernelConfig {
        KernelConfig {
            timeslice: SimDuration::from_millis(3),
            context_switch: SimDuration::from_micros(2),
            wakeup_ipi: true,
        }
    }

    fn boot(cpus: u32) -> Kernel {
        let ids: Vec<CpuId> = (0..cpus).map(CpuId).collect();
        Kernel::new(cfg(), &ids)
    }

    /// Drives the kernel to quiescence, processing wakeups and
    /// decisions from a local event queue. Returns the final time.
    pub(super) fn drive(kernel: &mut Kernel, until: SimTime) -> SimTime {
        use taichi_sim::EventQueue;
        #[derive(Debug)]
        enum Ev {
            Decide(CpuId),
            Wake(ThreadId),
        }
        let mut q: EventQueue<Ev> = EventQueue::new();
        let arm = |k: &Kernel, q: &mut EventQueue<Ev>, cpu: CpuId, now: SimTime| {
            if let Some(t) = k.next_decision_time(cpu, now) {
                q.schedule(t.max(now), Ev::Decide(cpu));
            }
        };
        // Initial arm for all CPUs.
        let now = SimTime::ZERO;
        for cpu in kernel.known_cpus() {
            arm(kernel, &mut q, cpu, now);
        }
        let mut last = now;
        let mut acts = ActionBuf::new();
        while let Some((t, ev)) = q.pop() {
            if t > until {
                break;
            }
            last = t;
            acts.clear();
            match ev {
                Ev::Decide(cpu) => kernel.decide(cpu, t, &mut acts),
                Ev::Wake(tid) => kernel.wakeup(tid, t, &mut acts),
            }
            for a in acts.iter() {
                match a {
                    KernelAction::ArmWakeup { tid, at } => {
                        q.schedule(at, Ev::Wake(tid));
                    }
                    KernelAction::Rearm { cpu } => arm(kernel, &mut q, cpu, t),
                    KernelAction::SendIpi { .. } | KernelAction::ThreadFinished { .. } => {}
                }
            }
        }
        last
    }

    /// Spawn helper that feeds actions back into a fresh drive call.
    fn spawn_and_drive(kernel: &mut Kernel, progs: Vec<Program>, until: SimTime) {
        let all: CpuSet = kernel.known_cpus().into_iter().collect();
        let mut out = ActionBuf::new();
        for p in progs {
            let _tid = kernel.spawn(p, all, SimTime::ZERO, &mut out);
            out.clear();
        }
        drive(kernel, until);
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut k = boot(1);
        let p = Program::new().compute(SimDuration::from_micros(100 * US));
        spawn_and_drive(&mut k, vec![p], SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 1);
        let t = k.thread_info(ThreadId(0));
        assert_eq!(t.state, ThreadState::Finished);
        assert_eq!(t.cpu_time, SimDuration::from_micros(100));
        // Turnaround = context switch + compute.
        assert_eq!(t.turnaround().unwrap(), SimDuration::from_micros(102));
    }

    #[test]
    fn two_threads_share_one_cpu_fairly() {
        let mut k = boot(1);
        // Two 9 ms compute threads, 3 ms slice: expect interleaving so
        // both finish close together (within ~1 slice + overheads).
        let p = Program::new().compute(SimDuration::from_millis(9));
        spawn_and_drive(&mut k, vec![p.clone(), p], SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 2);
        let f0 = k.thread_info(ThreadId(0)).finished_at.unwrap();
        let f1 = k.thread_info(ThreadId(1)).finished_at.unwrap();
        let gap = if f1 > f0 { f1 - f0 } else { f0 - f1 };
        assert!(
            gap <= SimDuration::from_millis(4),
            "unfair interleaving: gap {gap}"
        );
        // Combined ~18 ms of work on one CPU.
        assert!(f0.max(f1) >= SimTime::from_millis(18));
    }

    #[test]
    fn threads_spread_across_cpus() {
        let mut k = boot(4);
        let p = Program::new().compute(SimDuration::from_millis(5));
        spawn_and_drive(
            &mut k,
            vec![p.clone(), p.clone(), p.clone(), p],
            SimTime::from_secs(1),
        );
        assert_eq!(k.finished_count(), 4);
        // With 4 CPUs, all should finish around 5 ms (parallel), not 20.
        for i in 0..4u64 {
            let f = k.thread_info(ThreadId(i)).finished_at.unwrap();
            assert!(f < SimTime::from_millis(6), "thread {i} finished {f}");
        }
    }

    #[test]
    fn non_preemptible_defers_slice_preemption() {
        let mut k = boot(1);
        // Thread A: 10 ms non-preemptible. Thread B: 1 ms compute.
        // Despite the 3 ms slice, B cannot run until A's critical
        // section completes.
        let a = Program::new().then(Segment::nonpreemptible(SimDuration::from_millis(10)));
        let b = Program::new().compute(SimDuration::from_millis(1));
        spawn_and_drive(&mut k, vec![a, b], SimTime::from_secs(1));
        let fb = k.thread_info(ThreadId(1)).finished_at.unwrap();
        assert!(
            fb >= SimTime::from_millis(11),
            "B finished at {fb}, should wait for A's critical section"
        );
    }

    #[test]
    fn preemptible_kernel_work_is_preempted() {
        let mut k = boot(1);
        let a = Program::new().syscall(SimDuration::from_millis(10));
        let b = Program::new().compute(SimDuration::from_millis(1));
        spawn_and_drive(&mut k, vec![a, b], SimTime::from_secs(1));
        let fb = k.thread_info(ThreadId(1)).finished_at.unwrap();
        // B should run after A's first 3 ms slice, finishing ~4 ms.
        assert!(
            fb < SimTime::from_millis(6),
            "B finished at {fb}, preemption failed"
        );
    }

    #[test]
    fn sleep_and_wakeup() {
        let mut k = boot(1);
        let p = Program::new()
            .compute(SimDuration::from_micros(10))
            .sleep(SimDuration::from_millis(5))
            .compute(SimDuration::from_micros(10));
        spawn_and_drive(&mut k, vec![p], SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 1);
        let t = k.thread_info(ThreadId(0));
        // Finish ≥ 5 ms due to the sleep; CPU time only 20 µs.
        assert!(t.finished_at.unwrap() >= SimTime::from_millis(5));
        assert_eq!(t.cpu_time, SimDuration::from_micros(20));
    }

    #[test]
    fn notify_wakes_sleeping_thread() {
        let mut k = boot(2);
        // Thread 0 sleeps "forever" (1 s); thread 1 notifies it after
        // 1 ms of compute. Thread 0 should finish well before 1 s? No —
        // notify wakes it from the *current* sleep, it re-enters ready.
        let sleeper = Program::new().sleep(SimDuration::from_secs(10));
        let all = CpuSet::range(0, 2);
        let t0 = k.spawn(sleeper, all, SimTime::ZERO, &mut ActionBuf::new());
        let notifier = Program::new()
            .compute(SimDuration::from_millis(1))
            .then(Segment::Notify { target: t0 });
        let _t1 = k.spawn(notifier, all, SimTime::ZERO, &mut ActionBuf::new());
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 2);
        let f0 = k.thread_info(t0).finished_at.unwrap();
        assert!(
            f0 < SimTime::from_millis(3),
            "sleeper not woken early: {f0}"
        );
    }

    #[test]
    fn contended_lock_serializes_and_spins() {
        let mut k = boot(2);
        let l = crate::lock::LockId(7);
        let p = Program::new().critical_locked(SimDuration::from_millis(2), l);
        spawn_and_drive(&mut k, vec![p.clone(), p], SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 2);
        let f0 = k.thread_info(ThreadId(0)).finished_at.unwrap();
        let f1 = k.thread_info(ThreadId(1)).finished_at.unwrap();
        // Serialized: the later one finishes ~2 ms after the earlier.
        let late = f0.max(f1);
        assert!(late >= SimTime::from_millis(4), "not serialized: {late}");
        // The loser spun for ~2 ms.
        let spin0 = k.thread_info(ThreadId(0)).spin_time;
        let spin1 = k.thread_info(ThreadId(1)).spin_time;
        let total_spin = spin0 + spin1;
        assert!(
            total_spin >= SimDuration::from_millis(1),
            "expected spinning, got {total_spin}"
        );
        assert_eq!(k.locks().total_contentions(), 1);
    }

    #[test]
    fn hotplug_lifecycle() {
        let mut k = boot(1);
        let v = CpuId(5);
        k.register_cpu(v, SimTime::ZERO);
        assert_eq!(k.cpu_phase(v), Some(CpuPhase::Offline));
        k.cpu_init(v);
        assert_eq!(k.cpu_phase(v), Some(CpuPhase::Booting));
        k.cpu_online(v, &mut ActionBuf::new());
        assert_eq!(k.cpu_phase(v), Some(CpuPhase::Online));
        // Now schedulable.
        let p = Program::new().compute(SimDuration::from_micros(10));
        let tid = k.spawn(p, CpuSet::single(v), SimTime::ZERO, &mut ActionBuf::new());
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.thread_info(tid).state, ThreadState::Finished);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_register_panics() {
        let mut k = boot(1);
        k.register_cpu(CpuId(5), SimTime::ZERO);
        k.register_cpu(CpuId(5), SimTime::ZERO);
    }

    #[test]
    fn pause_freezes_progress() {
        let mut k = boot(1);
        let p = Program::new().compute(SimDuration::from_millis(10));
        let tid = k.spawn(
            p,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        // Run 2 ms (context switch at 0, span starts at 2 µs).
        let t_pause = SimTime::from_millis(2);
        k.pause_cpu(CpuId(0), t_pause, &mut ActionBuf::new());
        let done = k.thread_info(tid).cpu_time;
        assert_eq!(done, SimDuration::from_nanos(2_000_000 - 2_000));
        // While paused there is no pending decision.
        assert!(k.next_decision_time(CpuId(0), t_pause).is_none());
        // Resume at 10 ms; remaining ~8 ms runs to ~18 ms.
        k.resume_cpu(CpuId(0), SimTime::from_millis(10), &mut ActionBuf::new());
        let next = k
            .next_decision_time(CpuId(0), SimTime::from_millis(10))
            .unwrap();
        assert_eq!(next.as_nanos(), 10_000_000 + (8_000_000 + 2_000));
    }

    #[test]
    fn paused_cpu_accepts_queued_work_and_runs_on_resume() {
        let mut k = boot(1);
        k.pause_cpu(CpuId(0), SimTime::ZERO, &mut ActionBuf::new());
        let p = Program::new().compute(SimDuration::from_micros(50));
        let mut acts = ActionBuf::new();
        let tid = k.spawn(p, CpuSet::single(CpuId(0)), SimTime::ZERO, &mut acts);
        // The kernel wants to kick the paused CPU via IPI.
        assert!(acts
            .iter()
            .any(|a| matches!(a, KernelAction::SendIpi { .. })));
        assert!(k.cpu_has_work(CpuId(0)));
        k.resume_cpu(CpuId(0), SimTime::from_micros(100), &mut ActionBuf::new());
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.thread_info(tid).state, ThreadState::Finished);
    }

    #[test]
    fn in_lock_context_detection() {
        let mut k = boot(1);
        let l = crate::lock::LockId(1);
        let p = Program::new()
            .compute(SimDuration::from_millis(1))
            .critical_locked(SimDuration::from_millis(5), l);
        k.spawn(
            p,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        // During compute: not in lock context.
        assert!(!k.in_lock_context(CpuId(0)));
        // Advance past the compute segment boundary.
        let t1 = SimTime::from_nanos(1_000_000 + 2_000);
        k.decide(CpuId(0), t1, &mut ActionBuf::new());
        assert!(k.in_lock_context(CpuId(0)));
    }

    #[test]
    fn work_stealing_balances() {
        let mut k = boot(2);
        // Pin nothing: 3 threads, 2 CPUs. The third should be stolen
        // when a CPU frees up... spawn all at once on both CPUs.
        let p = Program::new().compute(SimDuration::from_millis(2));
        spawn_and_drive(&mut k, vec![p.clone(), p.clone(), p], SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 3);
        // Total makespan ≈ 4 ms (2+2 on one CPU, 2 on the other), not 6.
        let last = (0..3u64)
            .map(|i| k.thread_info(ThreadId(i)).finished_at.unwrap())
            .max()
            .unwrap();
        assert!(last < SimTime::from_millis(5), "makespan {last}");
    }

    #[test]
    fn utilization_metering() {
        let mut k = boot(1);
        let p = Program::new().compute(SimDuration::from_millis(10));
        k.spawn(
            p,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        drive(&mut k, SimTime::from_secs(1));
        // After completion the CPU went idle at ~10 ms. Utilization at
        // 20 ms ≈ 50%.
        let u = k.cpu_utilization(CpuId(0), SimTime::from_millis(20));
        assert!((u - 0.5).abs() < 0.02, "utilization {u}");
    }

    #[test]
    fn cpu_has_work_semantics() {
        let mut k = boot(2);
        assert!(!k.cpu_has_work(CpuId(0)));
        let p = Program::new().compute(SimDuration::from_millis(1));
        k.spawn(
            p,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        assert!(k.cpu_has_work(CpuId(0)));
        assert!(!k.cpu_has_work(CpuId(1)));
    }

    #[test]
    fn yield_rotates_queue() {
        let mut k = boot(1);
        let a = Program::new()
            .compute(SimDuration::from_micros(100))
            .then(Segment::Yield)
            .compute(SimDuration::from_micros(100));
        let b = Program::new().compute(SimDuration::from_micros(50));
        spawn_and_drive(&mut k, vec![a, b], SimTime::from_secs(1));
        // B must complete before A (A yields after its first segment).
        let fa = k.thread_info(ThreadId(0)).finished_at.unwrap();
        let fb = k.thread_info(ThreadId(1)).finished_at.unwrap();
        assert!(fb < fa, "yield did not rotate: A={fa} B={fb}");
    }

    #[test]
    fn decision_time_accounts_for_queue() {
        let mut k = boot(1);
        let long = Program::new().compute(SimDuration::from_millis(100));
        k.spawn(
            long,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        // Alone: decision at segment boundary.
        let t0 = k.next_decision_time(CpuId(0), SimTime::ZERO).unwrap();
        assert!(t0 > SimTime::from_millis(99));
        // With a second thread queued: decision at slice end.
        let second = Program::new().compute(SimDuration::from_millis(1));
        k.spawn(
            second,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        let t1 = k.next_decision_time(CpuId(0), SimTime::ZERO).unwrap();
        assert!(
            t1 <= SimTime::from_nanos(3_000_000 + 2_000),
            "slice-based decision expected, got {t1}"
        );
    }

    #[test]
    fn spinner_blocked_by_paused_holder_makes_no_progress() {
        // The §4.1 hazard: lock holder's CPU pauses; spinner burns CPU.
        let mut k = boot(2);
        let l = crate::lock::LockId(3);
        let holder = Program::new().critical_locked(SimDuration::from_millis(5), l);
        let spinner = Program::new().critical_locked(SimDuration::from_millis(1), l);
        let h = k.spawn(
            holder,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        // Let the holder start its critical section.
        k.decide(CpuId(0), SimTime::from_micros(2), &mut ActionBuf::new());
        assert!(k.in_lock_context(CpuId(0)));
        // Pause the holder's CPU (simulating a descheduled vCPU).
        k.pause_cpu(CpuId(0), SimTime::from_micros(10), &mut ActionBuf::new());
        // Spawn the spinner on CPU 1.
        let s = k.spawn(
            spinner,
            CpuSet::single(CpuId(1)),
            SimTime::from_micros(10),
            &mut ActionBuf::new(),
        );
        k.decide(CpuId(1), SimTime::from_micros(12), &mut ActionBuf::new());
        assert_eq!(k.thread_info(s).state, ThreadState::Spinning);
        // No decision pending anywhere: the system is stuck until the
        // holder's CPU resumes. This is the deadlock-ish hazard.
        assert!(k
            .next_decision_time(CpuId(1), SimTime::from_micros(12))
            .is_none());
        // Resume the holder; drive; both finish.
        k.resume_cpu(CpuId(0), SimTime::from_millis(1), &mut ActionBuf::new());
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.thread_info(h).state, ThreadState::Finished);
        assert_eq!(k.thread_info(s).state, ThreadState::Finished);
        // Spinner burned at least ~4 ms spinning.
        assert!(
            k.thread_info(s).spin_time >= SimDuration::from_millis(3),
            "spin time {}",
            k.thread_info(s).spin_time
        );
    }
}

#[cfg(test)]
mod affinity_tests {
    use super::tests::drive;
    use super::*;

    fn boot(cpus: u32) -> Kernel {
        let ids: Vec<CpuId> = (0..cpus).map(CpuId).collect();
        Kernel::new(KernelConfig::default(), &ids)
    }

    #[test]
    fn set_affinity_migrates_queued_thread() {
        let mut k = boot(2);
        // Occupy CPU 0 so the second spawn queues behind it.
        let long = Program::new().compute(SimDuration::from_millis(50));
        k.spawn(
            long,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        let short = Program::new().compute(SimDuration::from_micros(100));
        let tid = k.spawn(
            short,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        assert_eq!(k.cpu_load(CpuId(0)), 2);
        // Re-bind the queued thread to CPU 1: it migrates and runs now.
        let mut acts = ActionBuf::new();
        k.set_affinity(
            tid,
            CpuSet::single(CpuId(1)),
            SimTime::from_micros(10),
            &mut acts,
        );
        assert!(!acts.is_empty());
        assert_eq!(k.cpu_load(CpuId(0)), 1);
        assert_eq!(k.current_thread(CpuId(1)), Some(tid));
    }

    #[test]
    fn set_affinity_preempts_running_preemptible_thread() {
        let mut k = boot(2);
        let p = Program::new().compute(SimDuration::from_millis(10));
        let tid = k.spawn(
            p,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        assert_eq!(k.current_thread(CpuId(0)), Some(tid));
        k.set_affinity(
            tid,
            CpuSet::single(CpuId(1)),
            SimTime::from_millis(2),
            &mut ActionBuf::new(),
        );
        assert_eq!(k.current_thread(CpuId(0)), None);
        assert_eq!(k.current_thread(CpuId(1)), Some(tid));
        // Progress was preserved: ~2 ms consumed on CPU 0.
        assert!(k.thread_info(tid).cpu_time >= SimDuration::from_millis(1));
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.thread_info(tid).state, ThreadState::Finished);
        assert_eq!(k.thread_info(tid).cpu_time, SimDuration::from_millis(10));
    }

    #[test]
    fn set_affinity_defers_inside_nonpreemptible_routine() {
        let mut k = boot(2);
        let p = Program::new()
            .critical(SimDuration::from_millis(5))
            .compute(SimDuration::from_millis(1));
        let tid = k.spawn(
            p,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        // Mid-critical-section: the migration must not happen yet.
        k.set_affinity(
            tid,
            CpuSet::single(CpuId(1)),
            SimTime::from_millis(1),
            &mut ActionBuf::new(),
        );
        assert_eq!(k.current_thread(CpuId(0)), Some(tid), "deferred");
        // After the routine ends, the thread moves to CPU 1.
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.thread_info(tid).state, ThreadState::Finished);
        // The compute segment ran on CPU 1 (CPU 0 went idle at ~5 ms,
        // CPU 1's meter shows the final 1 ms).
        assert!(k.cpu_utilization(CpuId(1), SimTime::from_millis(10)) > 0.05);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_affinity_panics() {
        let mut k = boot(1);
        let tid = k.spawn(
            Program::new().compute(SimDuration::from_micros(1)),
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        k.set_affinity(tid, CpuSet::EMPTY, SimTime::ZERO, &mut ActionBuf::new());
    }

    #[test]
    fn offline_idle_cpu_migrates_queue() {
        let mut k = boot(2);
        // CPU 1 idle with nothing; put two threads on CPU 0's queue,
        // then offline CPU 1 (trivially) and CPU 0 (refused: current).
        let p = Program::new().compute(SimDuration::from_millis(5));
        let all = CpuSet::range(0, 2);
        k.spawn(p.clone(), all, SimTime::ZERO, &mut ActionBuf::new());
        k.spawn(p.clone(), all, SimTime::ZERO, &mut ActionBuf::new());
        k.spawn(p, all, SimTime::ZERO, &mut ActionBuf::new());
        let ok0 = k.offline_cpu(CpuId(0), SimTime::from_micros(10), &mut ActionBuf::new());
        assert!(!ok0, "busy CPU must refuse to offline");
        // Drain CPU 1 by pausing-free check: CPU 1 has a current too.
        let ok1 = k.offline_cpu(CpuId(1), SimTime::from_micros(10), &mut ActionBuf::new());
        assert!(!ok1);
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 3);
        // Now both are idle; offlining succeeds and the CPU reports
        // the Offline phase.
        let ok = k.offline_cpu(CpuId(1), SimTime::from_secs(1), &mut ActionBuf::new());
        assert!(ok);
        assert_eq!(k.cpu_phase(CpuId(1)), Some(CpuPhase::Offline));
    }

    #[test]
    fn offline_cpu_requeues_pending_threads() {
        let mut k = boot(2);
        // Pause CPU 1 so a queued thread sticks there without running.
        k.pause_cpu(CpuId(1), SimTime::ZERO, &mut ActionBuf::new());
        let p = Program::new().compute(SimDuration::from_micros(100));
        let tid = k.spawn(p, CpuSet::range(0, 2), SimTime::ZERO, &mut ActionBuf::new());
        // Force-queue a second thread onto CPU 1 by filling CPU 0.
        let long = Program::new().compute(SimDuration::from_millis(50));
        k.spawn(
            long,
            CpuSet::single(CpuId(0)),
            SimTime::ZERO,
            &mut ActionBuf::new(),
        );
        let _ = tid;
        // Resume and offline: any queue content must be migrated, and
        // the operation only succeeds when no current occupies it.
        k.resume_cpu(CpuId(1), SimTime::from_micros(5), &mut ActionBuf::new());
        drive(&mut k, SimTime::from_secs(1));
        assert_eq!(k.finished_count(), 2);
    }
}
