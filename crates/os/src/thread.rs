//! Threads and the segment programs they execute.
//!
//! A control-plane task is modelled as a *program*: an ordered list of
//! [`Segment`]s alternating user-space computation, preemptible kernel
//! work (ordinary syscalls), non-preemptible kernel routines (spinlock
//! held / IRQs off — the §3.2 troublemakers), sleeps, and zero-duration
//! IPC actions. The kernel executes programs segment by segment; the
//! scheduler may split any *preemptible* segment across time slices, but
//! never a non-preemptible one.

use crate::cpuset::CpuSet;
use crate::lock::LockId;
use taichi_sim::{SimDuration, SimTime};

/// Identifies a kernel thread.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u64);

impl std::fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// One step of a thread's program.
#[derive(Clone, Debug, PartialEq)]
pub enum Segment {
    /// User-space computation; preemptible at any instant.
    UserCompute(SimDuration),
    /// Preemptible kernel work (syscall body outside critical sections).
    KernelPreemptible(SimDuration),
    /// Non-preemptible kernel routine. If `lock` is set, the routine
    /// first acquires that spinlock (spinning on the CPU while it is
    /// held elsewhere) and releases it when the routine completes.
    NonPreemptible {
        /// Critical-section length.
        dur: SimDuration,
        /// Optional spinlock guarding the routine.
        lock: Option<LockId>,
    },
    /// Block off-CPU for the given time (I/O wait, nanosleep, ...).
    Sleep(SimDuration),
    /// Zero-duration IPC: wake `target` if it is sleeping (models a
    /// signal/futex/pipe notification, which at the kernel level turns
    /// into a reschedule IPI towards the target's CPU).
    Notify {
        /// Thread to wake.
        target: ThreadId,
    },
    /// Cooperative yield: go to the back of the runqueue.
    Yield,
}

impl Segment {
    /// Convenience: a non-preemptible routine without a lock.
    pub fn nonpreemptible(dur: SimDuration) -> Segment {
        Segment::NonPreemptible { dur, lock: None }
    }

    /// Convenience: a non-preemptible routine guarded by `lock`.
    pub fn locked(dur: SimDuration, lock: LockId) -> Segment {
        Segment::NonPreemptible {
            dur,
            lock: Some(lock),
        }
    }

    /// True for segments the scheduler must not split.
    pub fn is_non_preemptible(&self) -> bool {
        matches!(self, Segment::NonPreemptible { .. })
    }

    /// The CPU time the segment consumes (zero for actions/sleeps).
    pub fn cpu_time(&self) -> SimDuration {
        match self {
            Segment::UserCompute(d)
            | Segment::KernelPreemptible(d)
            | Segment::NonPreemptible { dur: d, .. } => *d,
            _ => SimDuration::ZERO,
        }
    }
}

/// An ordered list of segments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    segments: Vec<Segment>,
}

impl Program {
    /// Heap bytes of the segment list.
    pub fn resident_bytes(&self) -> usize {
        taichi_sim::vec_bytes(&self.segments)
    }

    /// Creates an empty program (finishes immediately when scheduled).
    pub fn new() -> Self {
        Program::default()
    }

    /// Builder: appends a segment.
    pub fn then(mut self, seg: Segment) -> Self {
        self.segments.push(seg);
        self
    }

    /// Builder: appends user-space computation.
    pub fn compute(self, dur: SimDuration) -> Self {
        self.then(Segment::UserCompute(dur))
    }

    /// Builder: appends a preemptible syscall body.
    pub fn syscall(self, dur: SimDuration) -> Self {
        self.then(Segment::KernelPreemptible(dur))
    }

    /// Builder: appends a non-preemptible routine.
    pub fn critical(self, dur: SimDuration) -> Self {
        self.then(Segment::nonpreemptible(dur))
    }

    /// Builder: appends a lock-guarded non-preemptible routine.
    pub fn critical_locked(self, dur: SimDuration, lock: LockId) -> Self {
        self.then(Segment::locked(dur, lock))
    }

    /// Builder: appends a sleep.
    pub fn sleep(self, dur: SimDuration) -> Self {
        self.then(Segment::Sleep(dur))
    }

    /// Segments in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the program has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total CPU time the program consumes if run to completion.
    pub fn total_cpu_time(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.cpu_time())
    }
}

/// Lifecycle state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// On a runqueue, waiting for CPU.
    Ready,
    /// Currently executing on a CPU.
    Running,
    /// Spinning on a contended lock (consumes CPU but makes no
    /// program progress).
    Spinning,
    /// Blocked (sleeping / waiting for a notify).
    Sleeping,
    /// Program complete.
    Finished,
}

/// Per-thread bookkeeping (scheduler-internal, exposed for metrics).
#[derive(Clone, Debug)]
pub struct Thread {
    /// Thread ID.
    pub id: ThreadId,
    /// The program being executed; emptied when the thread finishes
    /// (`pc` keeps its final value).
    pub program: Program,
    /// Index of the current segment.
    pub pc: usize,
    /// CPU time remaining in the current segment.
    pub remaining: SimDuration,
    /// Affinity mask.
    pub affinity: CpuSet,
    /// Lifecycle state.
    pub state: ThreadState,
    /// When the thread was spawned.
    pub spawned_at: SimTime,
    /// When the thread finished (if it has).
    pub finished_at: Option<SimTime>,
    /// Total CPU time consumed so far (program progress only).
    pub cpu_time: SimDuration,
    /// Total CPU time burned spinning on locks.
    pub spin_time: SimDuration,
    /// Lock currently held, if any.
    pub holding: Option<LockId>,
}

impl Thread {
    /// Creates a new ready thread positioned at its first segment.
    pub fn new(id: ThreadId, program: Program, affinity: CpuSet, now: SimTime) -> Self {
        let remaining = program
            .segments()
            .first()
            .map(|s| s.cpu_time())
            .unwrap_or(SimDuration::ZERO);
        Thread {
            id,
            program,
            pc: 0,
            remaining,
            affinity,
            state: ThreadState::Ready,
            spawned_at: now,
            finished_at: None,
            cpu_time: SimDuration::ZERO,
            spin_time: SimDuration::ZERO,
            holding: None,
        }
    }

    /// The current segment, if the program is not complete.
    pub(crate) fn current_segment(&self) -> Option<&Segment> {
        self.program.segments().get(self.pc)
    }

    /// True when the thread is inside a critical section: holding a
    /// spinlock, or executing a non-preemptible segment. This is the
    /// §4.1 lock-context condition — a vCPU preempted while its
    /// current thread is in a critical section must be re-placed
    /// immediately or every sibling spinning on the same lock wastes
    /// its slice (the `P^N` argument).
    pub(crate) fn in_critical_section(&self) -> bool {
        self.holding.is_some()
            || matches!(self.current_segment(), Some(s) if s.is_non_preemptible())
    }

    /// Turnaround time (spawn → finish), if finished.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.finished_at.map(|f| f - self.spawned_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_builder_and_totals() {
        let p = Program::new()
            .compute(SimDuration::from_micros(100))
            .syscall(SimDuration::from_micros(50))
            .critical(SimDuration::from_millis(2))
            .sleep(SimDuration::from_millis(1));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(
            p.total_cpu_time(),
            SimDuration::from_micros(100 + 50 + 2_000)
        );
    }

    #[test]
    fn segment_preemptibility() {
        assert!(!Segment::UserCompute(SimDuration::from_micros(1)).is_non_preemptible());
        assert!(!Segment::KernelPreemptible(SimDuration::from_micros(1)).is_non_preemptible());
        assert!(Segment::nonpreemptible(SimDuration::from_micros(1)).is_non_preemptible());
        assert!(Segment::locked(SimDuration::from_micros(1), LockId(0)).is_non_preemptible());
    }

    #[test]
    fn zero_duration_segments() {
        assert_eq!(
            Segment::Notify {
                target: ThreadId(1)
            }
            .cpu_time(),
            SimDuration::ZERO
        );
        assert_eq!(Segment::Yield.cpu_time(), SimDuration::ZERO);
        assert_eq!(
            Segment::Sleep(SimDuration::from_millis(5)).cpu_time(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn thread_initial_state() {
        let p = Program::new().compute(SimDuration::from_micros(10));
        let t = Thread::new(ThreadId(1), p, CpuSet::range(0, 4), SimTime::from_micros(3));
        assert_eq!(t.state, ThreadState::Ready);
        assert_eq!(t.pc, 0);
        assert_eq!(t.remaining, SimDuration::from_micros(10));
        assert!(t.turnaround().is_none());
        assert!(t.current_segment().is_some());
    }

    #[test]
    fn empty_program_thread() {
        let t = Thread::new(
            ThreadId(2),
            Program::new(),
            CpuSet::single(taichi_hw::CpuId(0)),
            SimTime::ZERO,
        );
        assert!(t.current_segment().is_none());
        assert_eq!(t.remaining, SimDuration::ZERO);
    }

    #[test]
    fn turnaround_computed() {
        let mut t = Thread::new(
            ThreadId(3),
            Program::new(),
            CpuSet::single(taichi_hw::CpuId(0)),
            SimTime::from_micros(10),
        );
        t.finished_at = Some(SimTime::from_micros(35));
        assert_eq!(t.turnaround(), Some(SimDuration::from_micros(25)));
    }
}
