//! Spinlocks with explicit waiter queues.
//!
//! Contended spinlocks are the canonical non-preemptible routine in the
//! paper's production traces (Fig. 4 uses a driver spinlock as its
//! example). The table tracks, per lock, the holding thread and the
//! FIFO of spinning waiters. Spinning burns CPU on the waiter's core —
//! which is why a descheduled lock *holder* (a paused vCPU) is so
//! dangerous, and why Tai Chi's safe CP-to-DP rescheduling (§4.1)
//! immediately re-places a preempted lock-holding vCPU.

use crate::thread::ThreadId;
use std::collections::HashMap;
use std::collections::VecDeque;
use taichi_sim::Counter;

/// Identifies a kernel spinlock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

impl std::fmt::Debug for LockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

#[derive(Clone, Debug, Default)]
struct LockSlot {
    holder: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

/// The global lock table.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    slots: HashMap<LockId, LockSlot>,
    contentions: Counter,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to acquire `lock` for `tid`.
    ///
    /// Returns `true` on success; on failure the thread is queued as a
    /// spinning waiter (FIFO) and `false` is returned.
    pub(crate) fn acquire(&mut self, lock: LockId, tid: ThreadId) -> bool {
        let slot = self.slots.entry(lock).or_default();
        if slot.holder.is_none() {
            slot.holder = Some(tid);
            true
        } else {
            debug_assert_ne!(slot.holder, Some(tid), "recursive spinlock acquire");
            if !slot.waiters.contains(&tid) {
                slot.waiters.push_back(tid);
            }
            self.contentions.inc();
            false
        }
    }

    /// Releases `lock` held by `tid`; returns the next waiter (now the
    /// new holder), if any.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock — releasing a lock you do
    /// not own is a kernel bug we want the simulation to catch loudly.
    pub fn release(&mut self, lock: LockId, tid: ThreadId) -> Option<ThreadId> {
        let slot = self
            .slots
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("release of unknown {lock:?}"));
        assert_eq!(
            slot.holder,
            Some(tid),
            "{tid:?} released {lock:?} held by {:?}",
            slot.holder
        );
        let next = slot.waiters.pop_front();
        slot.holder = next;
        next
    }

    /// Current holder of `lock`.
    pub fn holder(&self, lock: LockId) -> Option<ThreadId> {
        self.slots.get(&lock).and_then(|s| s.holder)
    }

    /// Total contended acquire attempts.
    pub fn total_contentions(&self) -> u64 {
        self.contentions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_release() {
        let mut t = LockTable::new();
        assert!(t.acquire(LockId(1), ThreadId(10)));
        assert_eq!(t.holder(LockId(1)), Some(ThreadId(10)));
        assert_eq!(t.release(LockId(1), ThreadId(10)), None);
        assert_eq!(t.holder(LockId(1)), None);
        assert_eq!(t.total_contentions(), 0);
    }

    #[test]
    fn contended_fifo_handover() {
        let mut t = LockTable::new();
        assert!(t.acquire(LockId(1), ThreadId(1)));
        assert!(!t.acquire(LockId(1), ThreadId(2)));
        assert!(!t.acquire(LockId(1), ThreadId(3)));
        assert_eq!(t.release(LockId(1), ThreadId(1)), Some(ThreadId(2)));
        assert_eq!(t.holder(LockId(1)), Some(ThreadId(2)));
        assert_eq!(t.release(LockId(1), ThreadId(2)), Some(ThreadId(3)));
        assert_eq!(t.release(LockId(1), ThreadId(3)), None);
        assert_eq!(t.total_contentions(), 2);
    }

    #[test]
    fn duplicate_wait_not_queued_twice() {
        let mut t = LockTable::new();
        t.acquire(LockId(1), ThreadId(1));
        t.acquire(LockId(1), ThreadId(2));
        t.acquire(LockId(1), ThreadId(2));
        // One handover to thread 2, then the queue is empty.
        assert_eq!(t.release(LockId(1), ThreadId(1)), Some(ThreadId(2)));
        assert_eq!(t.release(LockId(1), ThreadId(2)), None);
    }

    #[test]
    #[should_panic(expected = "released")]
    fn release_by_non_holder_panics() {
        let mut t = LockTable::new();
        t.acquire(LockId(1), ThreadId(1));
        t.release(LockId(1), ThreadId(2));
    }

    #[test]
    fn independent_locks() {
        let mut t = LockTable::new();
        assert!(t.acquire(LockId(1), ThreadId(1)));
        assert!(t.acquire(LockId(2), ThreadId(2)));
        assert_eq!(t.holder(LockId(1)), Some(ThreadId(1)));
        assert_eq!(t.holder(LockId(2)), Some(ThreadId(2)));
    }
}
