//! On-demand instruction-level auditing (§8).
//!
//! Hybrid virtualization gives the OS a spare superpower: any thread
//! can be moved into a vCPU context *on demand*, where every
//! privileged operation it performs VM-exits and can be monitored,
//! logged, or intercepted — then moved back, with zero persistent
//! overhead and zero changes to the audited application. The paper
//! sketches this in the Discussions section; this module implements
//! it on the kernel model:
//!
//! 1. [`AuditSession::begin`] registers a fresh auditing vCPU through
//!    the orchestrator's hotplug path and re-binds the target thread to
//!    it via plain CPU affinity (deferred past any non-preemptible
//!    routine the thread is currently inside, like a real migration).
//! 2. While the session is open, the audit domain's activity is
//!    tracked: kernel entries (syscalls and non-preemptible routines
//!    are the privileged operations visible to a hypervisor), audited
//!    CPU time, and segment retirements.
//! 3. [`AuditSession::end`] restores the original affinity and
//!    offlines the auditing vCPU once it drains.
//!
//! # Scheduler invariant checking
//!
//! The same module hosts the machine-wide **invariant checker** used
//! by the fault-injection tests ([`check_invariants`] /
//! [`assert_invariants`]): after any run — faulted or not — the
//! scheduler must not have lost a vCPU, wedged a softirq, exceeded its
//! IPI retry budget, stranded a sleeping thread, or run its clock
//! backwards. Violations are reported as strings (one per broken
//! invariant); the asserting variant arms a
//! [`FailureDump`](taichi_sim::trace::FailureDump) first so a failing
//! fault-matrix test leaves a trace TSV behind.

use crate::machine::Machine;
use crate::orchestrator::IpiOrchestrator;
use taichi_hw::CpuId;
use taichi_os::{ActionBuf, CpuSet, Kernel, Segment, ThreadId};
use taichi_sim::{SimDuration, SimTime};

/// What an audit session observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Program segments the thread retired while audited.
    pub segments_retired: u64,
    /// Kernel entries among them (syscalls + non-preemptible routines)
    /// — the privileged operations a hypervisor-level auditor sees.
    pub kernel_entries: u64,
    /// CPU time consumed inside the audit domain.
    pub audited_cpu_time: SimDuration,
    /// How long the session was open (wall-clock, simulated).
    pub session_length: SimDuration,
}

/// An open auditing session for one thread.
#[derive(Clone, Debug)]
pub struct AuditSession {
    target: ThreadId,
    audit_cpu: CpuId,
    original_affinity: CpuSet,
    started_at: SimTime,
    pc_at_start: usize,
    cpu_time_at_start: SimDuration,
}

impl AuditSession {
    /// Opens an audit session: registers a dedicated auditing vCPU and
    /// migrates `target` onto it.
    ///
    /// The kernel actions the driver must apply (migration rearms)
    /// land in `out`. The migration itself honours non-preemptible
    /// sections — the thread enters the audit domain at its next
    /// scheduling point.
    pub fn begin(
        kernel: &mut Kernel,
        orchestrator: &mut IpiOrchestrator,
        target: ThreadId,
        now: SimTime,
        out: &mut ActionBuf,
    ) -> AuditSession {
        let ids = orchestrator.register_vcpus(kernel, 1, now);
        let audit_cpu = ids[0];
        let original_affinity = kernel.thread_info(target).affinity;
        let pc_at_start = kernel.thread_info(target).pc;
        let cpu_time_at_start = kernel.thread_info(target).cpu_time;
        kernel.set_affinity(target, CpuSet::single(audit_cpu), now, out);
        AuditSession {
            target,
            audit_cpu,
            original_affinity,
            started_at: now,
            pc_at_start,
            cpu_time_at_start,
        }
    }

    /// The dedicated auditing vCPU's kernel CPU ID.
    pub fn audit_cpu(&self) -> CpuId {
        self.audit_cpu
    }

    /// The audited thread.
    pub fn target(&self) -> ThreadId {
        self.target
    }

    /// Closes the session: restores the original affinity, offlines
    /// the auditing vCPU (once idle) and returns the report. Driver
    /// actions land in `out`.
    pub fn end(self, kernel: &mut Kernel, now: SimTime, out: &mut ActionBuf) -> AuditReport {
        let t = kernel.thread_info(self.target);
        let pc_now = t.pc;
        let program = t.program.clone();
        let cpu_time_now = t.cpu_time;
        let retired: &[Segment] = {
            let segs = program.segments();
            let hi = pc_now.min(segs.len());
            let lo = self.pc_at_start.min(hi);
            &segs[lo..hi]
        };
        let kernel_entries = retired
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Segment::KernelPreemptible(_) | Segment::NonPreemptible { .. }
                )
            })
            .count() as u64;
        let report = AuditReport {
            segments_retired: retired.len() as u64,
            kernel_entries,
            audited_cpu_time: cpu_time_now.saturating_sub(self.cpu_time_at_start),
            session_length: now.saturating_since(self.started_at),
        };
        kernel.set_affinity(self.target, self.original_affinity, now, out);
        // Tear the audit vCPU down once nothing runs on it; a busy
        // audit CPU (the thread is mid-section) simply stays online
        // until the deferred migration completes — callers may retry.
        let _ = kernel.offline_cpu(self.audit_cpu, now, out);
        report
    }
}

/// Outcome of a machine-wide invariant sweep: one human-readable
/// entry per violated invariant, empty when the schedule is sound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// One message per broken invariant.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ok() {
            return f.write_str("all scheduler invariants hold");
        }
        writeln!(
            f,
            "{} scheduler invariant(s) violated:",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Checks every machine-wide scheduler invariant at the current
/// (quiescent, between-events) simulation point:
///
/// 1. **vCPU conservation** — each vCPU's state machine, its recorded
///    grant host, and the occupancy map agree; no vCPU is lost or
///    double-placed.
/// 2. **Softirqs drained** — no softirq bit is left pending anywhere
///    and every raise was eventually handled.
/// 3. **IPI retries bounded** — no logical IPI exceeded the degrade
///    policy's retry budget.
/// 4. **No stranded sleepers** — no thread's wakeup was dropped
///    without a re-arm (a thread sleeping forever is how a broken
///    degradation policy manifests).
/// 5. **Monotone clock** — the event loop never observed time running
///    backwards.
/// 6. **Packet conservation** — every packet the accelerator ingested
///    is accounted for exactly once: processed by a service, waiting
///    in a service ring, lost at a ring (overflow drop or fault
///    reject), still in flight through the pipeline, or destined for
///    a CPU with no service behind it (Type-2 emulation). In the
///    multi-tenant configuration, each tenant's staging ring must
///    additionally balance (`staged_in = issued + backlog + losses`).
pub fn check_invariants(m: &Machine) -> InvariantReport {
    let mut violations = Vec::new();
    let health = m.fault_health();
    let grants = m.grant_hosts();
    let vsched = m.vsched();

    // 1. vCPU conservation.
    for (idx, v) in vsched.vcpus().iter().enumerate() {
        let recorded = grants.get(idx).copied().flatten();
        if v.host() != recorded {
            violations.push(format!(
                "vCPU {idx} state machine says host {:?} but the grant table says {recorded:?}",
                v.host()
            ));
        }
        if let Some(h) = recorded {
            if vsched.occupant(h) != Some(idx) {
                violations.push(format!(
                    "vCPU {idx} is granted {h:?} but the occupancy map says {:?}",
                    vsched.occupant(h)
                ));
            }
        }
    }
    for p in 0..m.config().spec.num_cpus {
        let cpu = CpuId(p);
        if let Some(idx) = vsched.occupant(cpu) {
            if grants.get(idx).copied().flatten() != Some(cpu) {
                violations.push(format!(
                    "{cpu:?} hosts vCPU {idx} per the occupancy map but the grant table disagrees"
                ));
            }
        }
    }

    // 2. Softirqs drained.
    let sirq = m.kernel().softirq_state();
    if sirq.any_pending_anywhere() {
        violations.push("softirq pending bits left set after the run quiesced".into());
    }
    if sirq.total_raised() != sirq.total_handled() {
        violations.push(format!(
            "softirq raise/handle imbalance: {} raised vs {} handled",
            sirq.total_raised(),
            sirq.total_handled()
        ));
    }

    // 3. IPI retries bounded.
    if let Some(f) = m.fault() {
        let max = f.degrade().max_ipi_retries;
        if health.ipi_max_attempt > max {
            violations.push(format!(
                "an IPI reached retry attempt {} past the budget of {max}",
                health.ipi_max_attempt
            ));
        }
    }

    // 4. No stranded sleepers.
    if !health.lost_wakeups.is_empty() {
        violations.push(format!(
            "{} thread(s) lost their wakeup and sleep forever: {:?}",
            health.lost_wakeups.len(),
            health.lost_wakeups
        ));
    }

    // 5. Monotone clock.
    if health.clock_regressions > 0 {
        violations.push(format!(
            "event clock ran backwards {} time(s)",
            health.clock_regressions
        ));
    }

    // 6. Packet conservation. Every ingested packet must sit in
    // exactly one ledger: completed, queued, lost at a service ring
    // (overflow drop or fault reject — counted separately since the
    // fault-path double-charge fix), in flight through the pipeline,
    // or ingested for a CPU no service backs (Type-2).
    let ingested = m.accel().packets_ingested();
    let mut processed = 0u64;
    let mut queued = 0u64;
    let mut lost = 0u64;
    for s in m.services() {
        processed += s.processed();
        queued += s.pending() as u64;
        lost += s.lost();
    }
    let inflight = m.dp_inflight_total();
    let unrouted = m.unrouted_packets();
    let accounted = processed + queued + lost + inflight + unrouted;
    if ingested != accounted {
        violations.push(format!(
            "packet conservation broken: {ingested} ingested but {accounted} accounted \
             (processed {processed} + queued {queued} + ring losses {lost} \
             + in flight {inflight} + unrouted {unrouted})"
        ));
    }
    // Multi-tenant: each staging ring must balance on its own —
    // packets enqueued either left through the DRR arbiter or still
    // wait in the ring, and ring losses never reach the pipeline.
    for (t, (enq, deq, backlog, _lost)) in m.accel().tenant_staging_stats().iter().enumerate() {
        if *enq != *deq + *backlog {
            violations.push(format!(
                "tenant {t} staging ring imbalance: {enq} enqueued vs \
                 {deq} issued + {backlog} waiting"
            ));
        }
    }

    InvariantReport { violations }
}

/// Fail-fast variant of [`check_invariants`]: on any violation, arms a
/// [`FailureDump`](taichi_sim::trace::FailureDump) (so the trace TSV
/// lands at the configured `trace.dump` path when tracing is on) and
/// panics with the full report.
///
/// # Panics
///
/// Panics when any invariant is violated.
pub fn assert_invariants(m: &Machine, label: &str) {
    let report = check_invariants(m);
    if report.ok() {
        return;
    }
    let _dump = m.failure_dump(label);
    panic!("{label}: {report}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use taichi_os::{KernelAction, KernelConfig, Program, ThreadState};
    use taichi_sim::EventQueue;

    /// A persistent driver: pending wake timers survive across
    /// successive `run_until` calls (unlike a one-shot drive loop).
    struct Harness {
        wakes: Vec<(ThreadId, SimTime)>,
        now: SimTime,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                wakes: Vec::new(),
                now: SimTime::ZERO,
            }
        }

        fn absorb(&mut self, acts: &ActionBuf) {
            for a in acts.iter() {
                if let KernelAction::ArmWakeup { tid, at } = a {
                    self.wakes.push((tid, at));
                }
            }
        }

        fn run_until(&mut self, kernel: &mut Kernel, until: SimTime) {
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
            for &(tid, at) in &self.wakes {
                q.schedule(at.max(self.now), Ev::Wake(tid));
            }
            self.wakes.clear();
            for cpu in kernel.known_cpus() {
                arm(kernel, &mut q, cpu, self.now);
            }
            let mut acts = ActionBuf::new();
            while let Some(t) = q.peek_time() {
                if t > until {
                    break;
                }
                let (t, ev) = q.pop().expect("peeked");
                self.now = t;
                acts.clear();
                match ev {
                    Ev::Decide(cpu) => kernel.decide(cpu, t, &mut acts),
                    Ev::Wake(tid) => kernel.wakeup(tid, t, &mut acts),
                };
                for a in acts.iter() {
                    match a {
                        KernelAction::ArmWakeup { tid, at } => {
                            q.schedule(at, Ev::Wake(tid));
                        }
                        KernelAction::Rearm { cpu } => arm(kernel, &mut q, cpu, t),
                        _ => {}
                    }
                }
            }
            // Preserve unfired wake timers for the next run.
            while let Some((t, ev)) = q.pop() {
                if let Ev::Wake(tid) = ev {
                    self.wakes.push((tid, t));
                }
            }
            self.now = until.max(self.now);
        }
    }

    fn drive(kernel: &mut Kernel, pending: &ActionBuf, until: SimTime) {
        let mut h = Harness::new();
        h.absorb(pending);
        h.run_until(kernel, until);
    }

    fn setup() -> (Kernel, IpiOrchestrator) {
        let cp: Vec<CpuId> = (8..12).map(CpuId).collect();
        (
            Kernel::new(KernelConfig::default(), &cp),
            IpiOrchestrator::new(12),
        )
    }

    #[test]
    fn audit_counts_kernel_entries() {
        let (mut k, mut orch) = setup();
        let p = Program::new()
            .compute(SimDuration::from_micros(200))
            .syscall(SimDuration::from_micros(100))
            .critical(SimDuration::from_micros(300))
            .syscall(SimDuration::from_micros(100))
            .compute(SimDuration::from_micros(200));
        let mut pending = ActionBuf::new();
        let tid = k.spawn(p, CpuSet::range(8, 12), SimTime::ZERO, &mut pending);
        // Begin auditing immediately: the whole program runs audited.
        let session = AuditSession::begin(&mut k, &mut orch, tid, SimTime::ZERO, &mut pending);
        drive(&mut k, &pending, SimTime::from_secs(1));
        assert_eq!(k.thread_info(tid).state, ThreadState::Finished);
        let end = SimTime::from_secs(1);
        let report = session.end(&mut k, end, &mut ActionBuf::new());
        assert_eq!(report.segments_retired, 5);
        assert_eq!(report.kernel_entries, 3, "2 syscalls + 1 routine");
        assert_eq!(report.audited_cpu_time, SimDuration::from_micros(900));
        assert_eq!(report.session_length, SimDuration::from_secs(1));
    }

    #[test]
    fn audited_thread_runs_only_on_audit_cpu() {
        let (mut k, mut orch) = setup();
        let p = Program::new().compute(SimDuration::from_millis(2));
        let mut pending = ActionBuf::new();
        let tid = k.spawn(p, CpuSet::range(8, 12), SimTime::ZERO, &mut pending);
        let session = AuditSession::begin(&mut k, &mut orch, tid, SimTime::ZERO, &mut pending);
        drive(&mut k, &pending, SimTime::from_secs(1));
        // The audit CPU did the work: its utilization is non-zero and
        // the thread finished there.
        let u = k.cpu_utilization(session.audit_cpu(), SimTime::from_millis(4));
        assert!(u > 0.3, "audit cpu utilization {u}");
        assert_eq!(k.thread_info(tid).state, ThreadState::Finished);
    }

    #[test]
    fn end_restores_affinity_and_offlines_vcpu() {
        let (mut k, mut orch) = setup();
        let p = Program::new()
            .compute(SimDuration::from_micros(100))
            .sleep(SimDuration::from_millis(50))
            .compute(SimDuration::from_micros(100));
        let mut pending = ActionBuf::new();
        let tid = k.spawn(p, CpuSet::range(8, 12), SimTime::ZERO, &mut pending);
        let session = AuditSession::begin(&mut k, &mut orch, tid, SimTime::ZERO, &mut pending);
        let mut h = Harness::new();
        h.absorb(&pending);
        // Run until the thread parks in its sleep (audit CPU drains).
        h.run_until(&mut k, SimTime::from_millis(10));
        let audit_cpu = session.audit_cpu();
        let mut end_acts = ActionBuf::new();
        let report = session.end(&mut k, SimTime::from_millis(10), &mut end_acts);
        assert_eq!(report.segments_retired, 2, "compute + sleep retired");
        assert_eq!(
            k.thread_info(tid).affinity,
            CpuSet::range(8, 12),
            "affinity restored"
        );
        assert_eq!(
            k.cpu_phase(audit_cpu),
            Some(taichi_os::kernel::CpuPhase::Offline),
            "audit vCPU torn down"
        );
        // The thread still completes on its original CPUs.
        h.absorb(&end_acts);
        h.run_until(&mut k, SimTime::from_secs(1));
        assert_eq!(k.thread_info(tid).state, ThreadState::Finished);
    }

    #[test]
    fn mid_execution_audit_window() {
        let (mut k, mut orch) = setup();
        let p = Program::new()
            .compute(SimDuration::from_millis(1))
            .syscall(SimDuration::from_millis(1))
            .compute(SimDuration::from_millis(1));
        let mut pending = ActionBuf::new();
        let tid = k.spawn(p, CpuSet::range(8, 12), SimTime::ZERO, &mut pending);
        // Let the first segment mostly run un-audited.
        let mut h = Harness::new();
        h.absorb(&pending);
        h.run_until(&mut k, SimTime::from_micros(500));
        let mut a2 = ActionBuf::new();
        let session =
            AuditSession::begin(&mut k, &mut orch, tid, SimTime::from_micros(500), &mut a2);
        h.absorb(&a2);
        h.run_until(&mut k, SimTime::from_secs(1));
        let report = session.end(&mut k, SimTime::from_secs(1), &mut ActionBuf::new());
        // Everything after the audit began is attributed to it.
        assert!(report.audited_cpu_time >= SimDuration::from_millis(2));
        assert!(report.kernel_entries >= 1);
    }
}
