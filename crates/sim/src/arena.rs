//! Handle-addressed side table for event payloads.
//!
//! Events travel through the queue by value, so every byte of an event
//! is copied on schedule, on every wheel redistribution, and on pop.
//! Large or heap-owning payloads (an in-flight packet, a VM-creation
//! job with its device programs) are therefore *parked* in an
//! [`Arena`] and the event carries only the `u32` handle
//! [`Arena::park`] returns. [`Arena::unpark`] hands the payload back
//! exactly once and recycles the slot through a free list, so once the
//! arena reaches its working-set size the steady-state loop parks and
//! unparks without allocating.

/// Occupancy counters of one [`Arena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Payloads parked and not yet unparked.
    pub live: usize,
    /// Slots waiting on the free list.
    pub free: usize,
    /// Slots allocated: the arena's high-water mark (the slab never
    /// shrinks).
    pub slots: usize,
}

/// A slab of parked values addressed by `u32` handles.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> Arena<T> {
    /// An empty arena with room for `n` parked values before it grows.
    pub fn with_capacity(n: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            live: 0,
        }
    }

    /// Stores `value` and returns its handle.
    #[inline]
    pub fn park(&mut self, value: T) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = Some(value);
                h
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Takes back the value behind `h`, freeing its slot for reuse.
    /// Each handle is unparked exactly once.
    #[inline]
    pub fn unpark(&mut self, h: u32) -> T {
        let slot = &mut self.slots[h as usize];
        debug_assert!(
            slot.is_some(),
            "arena handle {h} is not live (double unpark or stale handle)"
        );
        let value = slot.take().expect("live arena handle");
        self.free.push(h);
        self.live -= 1;
        value
    }

    /// The value behind the live handle `h`, left parked.
    #[inline]
    pub fn get_mut(&mut self, h: u32) -> &mut T {
        self.slots[h as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("arena handle {h} is not live"))
    }

    /// Occupancy counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live,
            free: self.free.len(),
            slots: self.slots.len(),
        }
    }

    /// Resident bytes of the slab and free list (allocations owned by
    /// the parked values themselves are not counted).
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_unpark_recycles_slots() {
        let mut a = Arena::with_capacity(2);
        let x = a.park("x");
        let y = a.park("y");
        assert_eq!(a.unpark(x), "x");
        let z = a.park("z");
        assert_eq!(z, x, "freed slot is reused");
        assert_eq!(a.unpark(y), "y");
        assert_eq!(a.unpark(z), "z");
        assert_eq!(
            a.stats(),
            ArenaStats {
                live: 0,
                free: 2,
                slots: 2
            }
        );
    }

    #[test]
    fn compact_keeps_live_values() {
        // (Name kept from the slab-compaction era; the arena now never
        // shrinks.) Live values survive churn around them.
        let mut a = Arena::default();
        let hs: Vec<u32> = (0..100).map(|i| a.park(i)).collect();
        for &h in &hs[1..] {
            a.unpark(h);
        }
        for i in 0..50 {
            let h = a.park(1000 + i);
            assert_ne!(h, hs[0], "a live slot is never handed out");
            assert_eq!(a.unpark(h), 1000 + i);
        }
        assert_eq!(a.stats().slots, 100, "the slab keeps its peak");
        assert_eq!(a.unpark(hs[0]), 0);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut a = Arena::default();
        let h = a.park(vec![1]);
        a.get_mut(h).push(2);
        assert_eq!(a.stats().live, 1, "get_mut leaves the value parked");
        assert_eq!(a.unpark(h), [1, 2]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn get_mut_of_a_free_handle_fails_loudly() {
        let mut a = Arena::default();
        let h = a.park(1u8);
        a.unpark(h);
        a.get_mut(h);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not live")]
    fn double_unpark_fails_loudly() {
        let mut a = Arena::default();
        let h = a.park(1u8);
        a.unpark(h);
        a.unpark(h);
    }
}
