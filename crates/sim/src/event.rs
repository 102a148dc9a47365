//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence)` so that events scheduled
//! at the same instant fire in insertion order — a hard requirement for
//! reproducibility. [`EventQueue::schedule`] returns an [`EventToken`]
//! usable for cancellation.
//!
//! # Generation-stamped slots
//!
//! This is the simulator's hottest structure (every machine event goes
//! through one schedule and one pop), so the schedule/pop/cancel path
//! performs **zero hash lookups**. Every scheduling backend shares one
//! *slab*: each queued entry is stamped with a slot; the slot records a
//! generation counter, a cancelled bit, and owns the event payload (the
//! ordering structures only shuffle small fixed-size keys, however
//! large `E` is):
//!
//! - `schedule` takes a free slot (or grows the slab) and returns a
//!   token carrying `(slot, generation)`.
//! - `cancel` compares the token's generation against the slot: a match
//!   means the entry is still queued and it is cancelled; a mismatch
//!   means the event already fired (or was swept), so the cancel
//!   reports `false` and records nothing.
//! - popping bumps the slot generation when an entry leaves the queue
//!   (fired or swept), recycling the slot and invalidating any stale
//!   tokens.
//!
//! # Backends: hierarchical timing wheel vs. binary heap
//!
//! Two interchangeable scheduling cores sit on top of the slab:
//! [`EventQueue::new`] always builds the wheel, and
//! [`EventQueue::with_backend`] picks one explicitly (machines take it
//! from their configuration's `queue` field). Both produce **identical observable
//! behaviour** — the same `(time, seq)` pop order, the same `cancel`
//! return values, the same `peek_time` — so traces, stats, and CSVs are
//! byte-identical across backends for the same seed. (The only
//! backend-dependent observable is the diagnostic
//! [`EventQueue::cancelled_backlog`], which reflects how lazily each
//! backend disposes of cancelled entries.)
//!
//! **Heap**: a binary min-heap of keys with lazy cancellation (flipped
//! bit, discarded when the entry surfaces). The heap top is kept live
//! by sweeping in `pop` and `cancel`, so `peek_time` is a plain O(1)
//! `&self` read. O(log n) per operation.
//!
//! **Wheel** (default): a hierarchical timing wheel (calendar queue)
//! tuned for the simulator's actual event mix — dense, near-future
//! timers (softirq deadlines, burst completions, probe windows, slice
//! expiries):
//!
//! - **Level 0**: 2048 buckets of 64 ns ⇒ a 131 µs window, with an
//!   occupancy bitmap (one bit per bucket) so the scan jumps straight
//!   to the next non-empty bucket.
//! - **Level 1**: 256 buckets of 131 µs ⇒ ~33.6 ms of coverage beyond
//!   level 0. When the level-0 window advances into a level-1 bucket,
//!   its entries are redistributed into level-0 buckets.
//! - **Overflow**: everything beyond level 1 lands in a binary heap of
//!   keys, promoted into the wheel as the window advances. Far-future
//!   events are rare by construction, so the heap stays tiny.
//!
//! Bucket membership is stored as **intrusive singly-linked lists
//! threaded through the slab** (each slot carries its key and a `next`
//! link; a bucket is one `u32` head index). The wheel therefore owns
//! no per-bucket storage at all: once the slab's free list reaches its
//! working-set fixed point, schedule/pop/redistribute are strictly
//! allocation-free — the property the [`crate::alloc`] harness pins
//! down. A bucket holds the events of one 64 ns instant-range, which
//! in practice is zero or one entry (occasionally a same-timestamp
//! burst), so the per-bucket min-scan that restores exact `(time,
//! seq)` order is a walk over a handful of slots.
//!
//! Steady-state schedule/pop on the wheel is O(1). Drivers pop one
//! event at a time with [`EventQueue::pop_at_or_before`]; nearly every
//! instant holds a single event, and the payload is meant to be a
//! small `Copy` value (large payloads live in a [`crate::arena`]), so
//! moving it in and out of the slab is a few words.
//!
//! Cancellation differs structurally: the wheel knows which bucket an
//! entry lives in (the slab records it), so wheel cancels remove the
//! entry *eagerly* — except in the overflow heap, where cancellation
//! stays lazy exactly like the heap backend.
//!
//! # Same-deadline fusion (wheel backend)
//!
//! Periodic timer re-arms frequently collide on the exact same
//! deadline (several DP services arming the same poll window, a burst
//! of slice expiries at one instant). Scheduling into a wheel level
//! first checks the target bucket for a live slot firing at exactly
//! that time; on a hit the new event is appended to that slot's
//! `fused` member list instead of consuming a fresh slab slot and
//! bucket node. The slot's ordering key is always its *front* member's
//! sequence number: popping a fused slot sheds one member and re-keys
//! the slot to the next, so exact `(time, seq)` order — including
//! interleaving with other same-time slots — is preserved, and each
//! member token (stamped with its own sequence number) remains
//! individually cancellable. Fusion is an optimization, not a
//! guarantee: the bucket walk is bounded, and the heap backend and the
//! wheel's overflow heap never fuse, yet all backends stay observably
//! identical.
//!
//! Advancing the level-0 window over a long idle gap hops via the
//! level-1 occupancy bitmap: a span of empty calendar costs one bitmap
//! scan, not one iteration per 131 µs block, so a simulated
//! multi-second quiet period is O(occupied buckets) to cross.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Tokens are generation-stamped: once the event fires (or the cancel
/// is swept), the token goes stale and [`EventQueue::cancel`] on it is
/// a recorded-nothing no-op. The sequence number additionally
/// distinguishes the members of a fused slot (several same-deadline
/// events sharing one slab slot — see the module docs), so member
/// tokens stay individually cancellable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    generation: u64,
    seq: u64,
}

/// Scheduling core selection (see the module docs). The default is
/// the timing wheel; the heap is the reference the identity tests
/// compare it against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timing wheel with heap overflow (the default).
    #[default]
    Wheel,
    /// Binary min-heap with lazy cancellation (the PR 2 engine).
    Heap,
}

/// A heap entry carries no payload — only the key and the slot index.
/// Keeping entries at ~20 bytes matters: heap sifts move entries
/// around, and event payloads (which can be an order of magnitude
/// larger) would be copied repeatedly. Payloads live in the slab and
/// are written exactly once on schedule and read exactly once on pop.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour on BinaryHeap (a max-heap).
        other.key().cmp(&self.key())
    }
}

/// Where an entry currently lives, recorded in its slab slot so wheel
/// cancels can remove it eagerly without a search.
const LOC_NONE: u32 = u32::MAX;
/// The entry sits in the overflow heap (lazy cancellation).
const LOC_OVERFLOW: u32 = u32::MAX - 1;

/// Intrusive-list terminator.
const NIL: u32 = u32::MAX;

/// Default slab capacity reserved at construction, sized so the
/// in-flight high-water mark of a full machine (a few hundred events)
/// never forces a mid-run doubling. Fleet footprint profiles override
/// this via [`EventQueue::with_backend_and_slots`].
pub const INITIAL_SLOTS: usize = 1024;

/// Per-slot bookkeeping. A slot is bound to exactly one queued entry at
/// a time; the generation distinguishes successive occupants. The slot
/// owns the entry's payload and — for the wheel backend — carries the
/// ordering key and the intrusive bucket-list link, so the wheel needs
/// no storage of its own.
struct Slot<E> {
    generation: u64,
    cancelled: bool,
    /// Wheel backend only: `LOC_OVERFLOW`, a level-0 bucket index
    /// (`0..N0`), or `N0 +` a level-1 bucket index. `LOC_NONE` for the
    /// heap backend and for free slots.
    loc: u32,
    /// Ordering key, valid while queued (wheel backend).
    time: SimTime,
    seq: u64,
    /// Next slot in the same bucket's intrusive list, or [`NIL`].
    next: u32,
    event: Option<E>,
    /// Same-deadline fusion members (wheel levels only), in ascending
    /// sequence order. The slot's `seq`/`event` pair is the *front*
    /// member; these are the rest. Empty for singletons, the heap
    /// backend, and the overflow heap. A retiring slot hands a Vec with
    /// capacity to [`EventQueue::spare_fused`], so the queue allocates
    /// one per concurrently fused slot, not one per slot that ever
    /// hosted a fusion.
    fused: Vec<(u64, E)>,
}

// --------------------------------------------------------------------
// Timing-wheel geometry.
// --------------------------------------------------------------------

/// Level-0 bucket granularity: 2^6 = 64 ns.
const G0_BITS: u32 = 6;
/// Level-0 bucket count: 2^11 = 2048 buckets ⇒ 131.072 µs window.
const L0_BITS: u32 = 11;
const N0: usize = 1 << L0_BITS;
/// Level-1 bucket granularity = the whole level-0 span (2^17 ns).
const G1_BITS: u32 = G0_BITS + L0_BITS;
const G1: u64 = 1 << G1_BITS;
/// Level-1 bucket count: 2^8 = 256 ⇒ ~33.55 ms of coverage.
const L1_BITS: u32 = 8;
const N1: usize = 1 << L1_BITS;

const L0_WORDS: usize = N0 / 64;
const L1_WORDS: usize = N1 / 64;

/// Lazy bucket-head storage: one optional 64-head chunk per occupancy
/// bitmap word. A hot machine touches most of the calendar and ends up
/// with every chunk allocated (256 B each — the same memory the old
/// flat array held); a mostly-idle fleet machine whose events cluster
/// in a few 64-bucket ranges only materializes the chunks it links
/// into, so thousands of cold queues stop paying for 2048 + 256 eager
/// head words apiece. Chunk presence is pure storage: `get` answers
/// [`NIL`] for an absent chunk, which is exactly what the flat array
/// held for an empty bucket, so pop order and cancel results are
/// unaffected.
struct HeadTable<const WORDS: usize> {
    chunks: [Option<Box<[u32; 64]>>; WORDS],
}

impl<const WORDS: usize> HeadTable<WORDS> {
    fn new() -> Self {
        HeadTable {
            chunks: std::array::from_fn(|_| None),
        }
    }

    /// Head of bucket `b`, or [`NIL`] if the bucket (or its whole
    /// chunk) is empty.
    #[inline]
    fn get(&self, b: usize) -> u32 {
        match &self.chunks[b >> 6] {
            Some(c) => c[b & 63],
            None => NIL,
        }
    }

    /// Mutable head slot for bucket `b`, materializing its chunk.
    #[inline]
    fn slot_mut(&mut self, b: usize) -> &mut u32 {
        &mut self.chunks[b >> 6].get_or_insert_with(|| Box::new([NIL; 64]))[b & 63]
    }

    /// Reads and clears bucket `b`'s head without materializing an
    /// absent chunk.
    #[inline]
    fn take(&mut self, b: usize) -> u32 {
        match &mut self.chunks[b >> 6] {
            Some(c) => std::mem::replace(&mut c[b & 63], NIL),
            None => NIL,
        }
    }

    /// Materializes every chunk up front (hot-profile prewarm): the
    /// chunks hold only [`NIL`] heads, so nothing observable changes —
    /// the steady-state loop just never pays a mid-run chunk
    /// allocation.
    fn materialize_all(&mut self) {
        for chunk in &mut self.chunks {
            chunk.get_or_insert_with(|| Box::new([NIL; 64]));
        }
    }

    /// Releases chunks whose occupancy-bitmap word is zero (every head
    /// in them is provably [`NIL`]).
    fn release_empty(&mut self, mask: &[u64; WORDS]) {
        for (chunk, &word) in self.chunks.iter_mut().zip(mask.iter()) {
            if word == 0 {
                *chunk = None;
            }
        }
    }

    /// Resident bytes held by materialized chunks.
    fn resident_bytes(&self) -> usize {
        self.chunks.iter().flatten().count() * std::mem::size_of::<[u32; 64]>()
    }
}

/// The hierarchical wheel core. All invariants are phrased against
/// `l0_end`, the exclusive upper bound of level-0 coverage (always a
/// multiple of [`G1`]):
///
/// - every queued entry with `time < l0_end` is in a level-0 bucket,
///   and all level-0 times fall in `[l0_end - G1, l0_end)` (one 64 ns
///   instant-range per bucket — the bitmap scan order *is* the time
///   order);
/// - every entry with `l0_end <= time < h1` (where
///   `h1 = l0_end + (N1-1)·G1`) is in a level-1 bucket;
/// - everything at `time >= h1` is in the overflow heap, and `l0_end`
///   only moves forward, so overflow entries are promoted exactly once;
/// - no cancelled entry is ever linked into a level-0/level-1 bucket
///   (wheel cancellation is eager there).
struct Wheel {
    l0_head: HeadTable<L0_WORDS>,
    l0_mask: [u64; L0_WORDS],
    l0_count: usize,
    l1_head: HeadTable<L1_WORDS>,
    l1_mask: [u64; L1_WORDS],
    l1_count: usize,
    /// Exclusive upper bound of level-0 coverage (multiple of `G1`).
    l0_end: u64,
    overflow: BinaryHeap<Entry>,
}

impl Wheel {
    fn new() -> Box<Self> {
        Box::new(Wheel {
            l0_head: HeadTable::new(),
            l0_mask: [0; L0_WORDS],
            l0_count: 0,
            l1_head: HeadTable::new(),
            l1_mask: [0; L1_WORDS],
            l1_count: 0,
            l0_end: G1,
            overflow: BinaryHeap::new(),
        })
    }

    /// Exclusive upper bound of level-1 coverage.
    #[inline]
    fn h1(&self) -> u64 {
        self.l0_end + (N1 as u64 - 1) * G1
    }

    #[inline]
    fn l0_bucket(t: u64) -> usize {
        (t >> G0_BITS) as usize & (N0 - 1)
    }

    #[inline]
    fn l1_bucket(t: u64) -> usize {
        (t >> G1_BITS) as usize & (N1 - 1)
    }
}

/// Upper bound on the bucket walk looking for a same-deadline fusion
/// target. Level-0 buckets cover one 64 ns instant-range (nearly
/// always 0–1 entries); level-1 buckets span 131 µs and can hold a
/// longer mixed-deadline list, so the search gives up rather than
/// scan it — fusion is an optimization, never a requirement.
const FUSE_SCAN: usize = 16;

/// Bounded search of a bucket list for a live slot firing at exactly
/// `time` (a same-deadline fusion target).
#[inline]
fn find_coincident<E>(slots: &[Slot<E>], head: u32, time: SimTime) -> Option<u32> {
    let mut cur = head;
    let mut budget = FUSE_SCAN;
    while cur != NIL && budget > 0 {
        let s = &slots[cur as usize];
        if s.time == time {
            return Some(cur);
        }
        budget -= 1;
        cur = s.next;
    }
    None
}

/// Finds the first set bit at or after `start` (wrapping) in a bitmap.
#[inline]
fn find_set_from(mask: &[u64], start: usize) -> Option<usize> {
    let words = mask.len();
    let w = start / 64;
    let first = mask[w] & (!0u64 << (start % 64));
    if first != 0 {
        return Some(w * 64 + first.trailing_zeros() as usize);
    }
    for i in 1..=words {
        let wi = (w + i) % words;
        if mask[wi] != 0 {
            return Some(wi * 64 + mask[wi].trailing_zeros() as usize);
        }
    }
    None
}

#[inline]
fn set_bit(mask: &mut [u64], idx: usize) {
    mask[idx / 64] |= 1u64 << (idx % 64);
}

#[inline]
fn clear_bit(mask: &mut [u64], idx: usize) {
    mask[idx / 64] &= !(1u64 << (idx % 64));
}

// Intrusive bucket-list operations, threaded through the slab.

/// Prepends `slot` onto the level-0 bucket covering its time.
#[inline]
fn l0_link<E>(wheel: &mut Wheel, slots: &mut [Slot<E>], slot: u32) {
    let b = Wheel::l0_bucket(slots[slot as usize].time.as_nanos());
    let head = wheel.l0_head.slot_mut(b);
    slots[slot as usize].next = *head;
    slots[slot as usize].loc = b as u32;
    *head = slot;
    set_bit(&mut wheel.l0_mask, b);
    wheel.l0_count += 1;
}

/// Prepends `slot` onto the level-1 bucket covering its time.
#[inline]
fn l1_link<E>(wheel: &mut Wheel, slots: &mut [Slot<E>], slot: u32) {
    let b = Wheel::l1_bucket(slots[slot as usize].time.as_nanos());
    let head = wheel.l1_head.slot_mut(b);
    slots[slot as usize].next = *head;
    slots[slot as usize].loc = (N0 + b) as u32;
    *head = slot;
    set_bit(&mut wheel.l1_mask, b);
    wheel.l1_count += 1;
}

/// Finds the `(time, seq)`-minimum of a non-empty bucket list.
/// Returns `(prev_of_min, min)` where `prev_of_min` is [`NIL`] when
/// the minimum is the head. Buckets cover one 64 ns (level 0) or
/// 131 µs (level 1) range and typically hold a single entry, so this
/// walk is short by construction.
#[inline]
fn list_min<E>(slots: &[Slot<E>], head: u32) -> (u32, u32) {
    let mut best_prev = NIL;
    let mut best = head;
    let mut prev = head;
    let mut cur = slots[head as usize].next;
    while cur != NIL {
        let c = &slots[cur as usize];
        let b = &slots[best as usize];
        if (c.time, c.seq) < (b.time, b.seq) {
            best_prev = prev;
            best = cur;
        }
        prev = cur;
        cur = c.next;
    }
    (best_prev, best)
}

/// Unlinks `slot` (whose predecessor is `prev`, [`NIL`] for the head)
/// from the bucket list rooted at `head`.
#[inline]
fn list_unlink<E>(slots: &mut [Slot<E>], head: &mut u32, prev: u32, slot: u32) {
    if prev == NIL {
        debug_assert_eq!(*head, slot);
        *head = slots[slot as usize].next;
    } else {
        slots[prev as usize].next = slots[slot as usize].next;
    }
}

enum Core {
    Heap(BinaryHeap<Entry>),
    Wheel(Box<Wheel>),
}

/// A time-ordered queue of events of type `E`.
pub struct EventQueue<E> {
    core: Core,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Pending (non-cancelled) events.
    live: usize,
    /// Cancelled entries still physically queued (heap backend, or the
    /// wheel's overflow heap).
    cancelled: usize,
    now: SimTime,
    /// Generation stamp for slots created by slab growth. Zero until
    /// [`EventQueue::compact`] truncates the slab: freshly regrown
    /// slots must start *above* every generation the truncated slots
    /// ever issued, or a stale token from before the compaction could
    /// alias a new occupant of the same index and cancel a live event.
    gen_floor: u64,
    /// Largest slab length ever reached, surviving compaction.
    slab_hwm: usize,
    /// Empty fused-member Vecs (with capacity) from retired slots,
    /// handed to the next slot that hosts a fusion.
    spare_fused: Vec<Vec<(u64, E)>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero on the timing wheel.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Wheel)
    }

    /// Creates an empty queue at time zero on an explicit backend.
    ///
    /// Reserves the full [`INITIAL_SLOTS`] slab: a realloc mid-run is
    /// a steady-state allocation the hot loop is audited against (see
    /// the zero_alloc test), and a transient burst that pushes the
    /// in-flight high-water mark past the previous power of two would
    /// reallocate long after warm-up. Reserving a generous slab up
    /// front moves that first-touch growth to construction; full
    /// machines peak at a few hundred in-flight events, so 1024 slots
    /// leave ample headroom without meaningful memory cost — *for one
    /// hot machine*. Fleet drivers standing up thousands of mostly-idle
    /// machines use [`EventQueue::with_backend_and_slots`] with a small
    /// reservation instead and let the slab grow to each machine's
    /// actual working set.
    pub fn with_backend(backend: QueueBackend) -> Self {
        let mut q = Self::with_backend_and_slots(backend, INITIAL_SLOTS);
        q.prewarm();
        q
    }

    /// Materializes every wheel bucket-head chunk up front (no-op on
    /// the heap backend) so the steady-state loop never allocates one
    /// mid-run — the hot-profile companion to the eager
    /// [`INITIAL_SLOTS`] slab. Purely a storage decision: the chunks
    /// hold only [`NIL`] heads, identical to absent chunks.
    pub fn prewarm(&mut self) {
        if let Core::Wheel(wheel) = &mut self.core {
            wheel.l0_head.materialize_all();
            wheel.l1_head.materialize_all();
        }
    }

    /// Creates an empty queue at time zero on an explicit backend with
    /// an explicit initial slab reservation. The slab still grows on
    /// demand — `initial_slots` only sets where growth starts, so every
    /// observable (pop order, cancel results, `peek_time`) is identical
    /// for any value.
    pub fn with_backend_and_slots(backend: QueueBackend, initial_slots: usize) -> Self {
        let core = match backend {
            QueueBackend::Heap => Core::Heap(BinaryHeap::new()),
            QueueBackend::Wheel => Core::Wheel(Wheel::new()),
        };
        EventQueue {
            core,
            slots: Vec::with_capacity(initial_slots),
            free: Vec::with_capacity(initial_slots),
            next_seq: 0,
            live: 0,
            cancelled: 0,
            now: SimTime::ZERO,
            gen_floor: 0,
            slab_hwm: 0,
            spare_fused: Vec::new(),
        }
    }

    /// The scheduling core this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.core {
            Core::Heap(_) => QueueBackend::Heap,
            Core::Wheel(_) => QueueBackend::Wheel,
        }
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error and panics in debug
    /// builds; in release builds the event fires immediately (at `now`).
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time:?} < now {:?}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        // Same-deadline fusion (wheel levels): a live slot already
        // firing at exactly `time` absorbs the new event as a member
        // instead of costing a fresh slab slot and bucket node.
        // Members carry strictly increasing sequence numbers (the
        // global counter only grows), so a push keeps the list sorted.
        if let Core::Wheel(wheel) = &self.core {
            let t = time.as_nanos();
            let head = if t < wheel.l0_end {
                Some(wheel.l0_head.get(Wheel::l0_bucket(t)))
            } else if t < wheel.h1() {
                Some(wheel.l1_head.get(Wheel::l1_bucket(t)))
            } else {
                None
            };
            if let Some(host) = head.and_then(|h| find_coincident(&self.slots, h, time)) {
                let s = &mut self.slots[host as usize];
                if s.fused.capacity() == 0 {
                    if let Some(spare) = self.spare_fused.pop() {
                        s.fused = spare;
                    }
                }
                s.fused.push((seq, event));
                let generation = s.generation;
                self.live += 1;
                return EventToken {
                    slot: host,
                    generation,
                    seq,
                };
            }
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.time = time;
                sl.seq = seq;
                sl.event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot {
                    generation: self.gen_floor,
                    cancelled: false,
                    loc: LOC_NONE,
                    time,
                    seq,
                    next: NIL,
                    event: Some(event),
                    fused: Vec::new(),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        match &mut self.core {
            Core::Heap(heap) => heap.push(Entry { time, seq, slot }),
            Core::Wheel(wheel) => {
                let t = time.as_nanos();
                if t < wheel.l0_end {
                    l0_link(wheel, &mut self.slots, slot);
                } else if t < wheel.h1() {
                    l1_link(wheel, &mut self.slots, slot);
                } else {
                    wheel.overflow.push(Entry { time, seq, slot });
                    self.slots[slot as usize].loc = LOC_OVERFLOW;
                }
            }
        }
        self.live += 1;
        EventToken {
            slot,
            generation,
            seq,
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the token had not already fired or been
    /// cancelled. Cancelling an already-fired token is a no-op (and
    /// records nothing: the slot generation moved on, so the stale
    /// token cannot leave residue). Identical return values on both
    /// backends; only the disposal strategy differs (see
    /// [`EventQueue::cancelled_backlog`]).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.slot as usize) else {
            return false;
        };
        if slot.generation != token.generation || slot.cancelled {
            return false;
        }
        // Fused slots (wheel levels) map several tokens to one slot,
        // distinguished by sequence number: the front member keys the
        // slot, the rest live in `fused`.
        if token.seq != slot.seq {
            let Some(i) = slot.fused.iter().position(|&(s, _)| s == token.seq) else {
                // The member already popped (the slot was re-keyed past
                // it): the token is stale, exactly like a fired
                // singleton, so record nothing.
                return false;
            };
            slot.fused.remove(i);
            self.live -= 1;
            return true;
        }
        if !slot.fused.is_empty() {
            // Cancelling the front member of a fused slot: promote the
            // next member into the key. The deadline is unchanged, so
            // the slot stays where it is linked; only the sequence
            // number moves forward.
            let (seq, event) = slot.fused.remove(0);
            slot.seq = seq;
            slot.event = Some(event);
            self.live -= 1;
            return true;
        }
        match &mut self.core {
            Core::Heap(_) => {
                slot.cancelled = true;
                self.live -= 1;
                self.cancelled += 1;
                // Keep the heap-top-is-live invariant (peek_time is a
                // plain `&self` read).
                self.sweep_heap_top();
            }
            Core::Wheel(wheel) => {
                let loc = slot.loc;
                if loc == LOC_OVERFLOW {
                    slot.cancelled = true;
                    self.live -= 1;
                    self.cancelled += 1;
                    self.sweep_overflow_top();
                } else {
                    // The slab knows the bucket: remove eagerly so no
                    // cancelled entry ever sits in the wheel proper.
                    // (`slot_mut` cannot allocate here — the entry is
                    // linked into the bucket, so its chunk exists.)
                    let (head, mask, count, b) = if (loc as usize) < N0 {
                        let b = loc as usize;
                        (
                            wheel.l0_head.slot_mut(b),
                            &mut wheel.l0_mask[..],
                            &mut wheel.l0_count,
                            b,
                        )
                    } else {
                        let b = loc as usize - N0;
                        (
                            wheel.l1_head.slot_mut(b),
                            &mut wheel.l1_mask[..],
                            &mut wheel.l1_count,
                            b,
                        )
                    };
                    let mut prev = NIL;
                    let mut cur = *head;
                    while cur != token.slot {
                        debug_assert_ne!(cur, NIL, "slab loc tracks the live bucket");
                        prev = cur;
                        cur = self.slots[cur as usize].next;
                    }
                    list_unlink(&mut self.slots, head, prev, token.slot);
                    if *head == NIL {
                        clear_bit(mask, b);
                    }
                    *count -= 1;
                    self.live -= 1;
                    self.retire_queued(token.slot);
                    // The removal may have emptied both wheel levels,
                    // promoting the overflow top to global front: it
                    // must be live (`peek_time` relies on it), and a
                    // cancelled entry parked there would hold its slot
                    // until the next window advance.
                    let Core::Wheel(wheel) = &self.core else {
                        unreachable!()
                    };
                    if wheel.l0_count == 0 && wheel.l1_count == 0 {
                        self.sweep_overflow_top();
                    }
                }
            }
        }
        true
    }

    /// Pops the next non-cancelled event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.core {
            Core::Heap(_) => loop {
                let Core::Heap(heap) = &mut self.core else {
                    unreachable!()
                };
                let entry = heap.pop()?;
                let (was_cancelled, event) = self.retire_queued(entry.slot);
                if was_cancelled {
                    continue; // was cancelled; discard and keep looking
                }
                self.live -= 1;
                self.now = entry.time;
                self.sweep_heap_top();
                let event = event.expect("live slot owns its payload");
                return Some((entry.time, event));
            },
            Core::Wheel(_) => {
                let (time, event) = self.wheel_pop_min(SimTime::MAX)?;
                self.live -= 1;
                self.now = time;
                Some((time, event))
            }
        }
    }

    /// Pops the next event only if it fires at or before `limit`.
    ///
    /// The fused peek+pop the driver loop wants: one queue access per
    /// event instead of a peek followed by a pop.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match &mut self.core {
            Core::Heap(heap) => {
                // The heap top is always live (sweep invariant).
                if heap.peek().map(|e| e.time > limit).unwrap_or(true) {
                    return None;
                }
                self.pop()
            }
            Core::Wheel(_) => {
                let (time, event) = self.wheel_pop_min(limit)?;
                self.live -= 1;
                self.now = time;
                Some((time, event))
            }
        }
    }

    /// Returns the time of the next pending event without popping it.
    ///
    /// Heap backend: the top is never cancelled (`pop` and `cancel`
    /// sweep), so this is a plain O(1) read. Wheel backend: a read-only
    /// bucket scan (no cancelled entry ever sits in the wheel, and the
    /// overflow top is kept live by the same sweeps).
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.core {
            Core::Heap(heap) => {
                debug_assert!(heap
                    .peek()
                    .map(|e| !self.slots[e.slot as usize].cancelled)
                    .unwrap_or(true));
                heap.peek().map(|e| e.time)
            }
            Core::Wheel(wheel) => {
                if wheel.l0_count > 0 {
                    let start = Wheel::l0_bucket(self.now.as_nanos().max(wheel.l0_end - G1));
                    let b = find_set_from(&wheel.l0_mask, start).expect("l0_count > 0");
                    let (_, min) = list_min(&self.slots, wheel.l0_head.get(b));
                    return Some(self.slots[min as usize].time);
                }
                if wheel.l1_count > 0 {
                    // The global minimum is in the first occupied
                    // level-1 bucket in ring order from the window
                    // (bucket time-ranges are monotone from there, and
                    // all overflow times are larger still).
                    let start = Wheel::l1_bucket(wheel.l0_end);
                    let b = find_set_from(&wheel.l1_mask, start).expect("l1_count > 0");
                    let (_, min) = list_min(&self.slots, wheel.l1_head.get(b));
                    return Some(self.slots[min as usize].time);
                }
                debug_assert!(wheel
                    .overflow
                    .peek()
                    .map(|e| !self.slots[e.slot as usize].cancelled)
                    .unwrap_or(true));
                wheel.overflow.peek().map(|e| e.time)
            }
        }
    }

    /// Wheel backend: removes and returns `(time, event)` of the
    /// minimum entry if its time is `<= limit`, advancing the level-0
    /// window (draining level-1 buckets, promoting overflow entries)
    /// as needed. Advancing only happens when the result is actually
    /// popped — a `None` return leaves the window untouched, so `now`
    /// can never fall behind the level-0 coverage. Does not touch
    /// `self.live`; callers account for the removed event.
    fn wheel_pop_min(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        loop {
            let Core::Wheel(wheel) = &mut self.core else {
                unreachable!("wheel_pop_min on heap backend")
            };
            if wheel.l0_count > 0 {
                let start = Wheel::l0_bucket(self.now.as_nanos().max(wheel.l0_end - G1));
                let b = find_set_from(&wheel.l0_mask, start).expect("l0_count > 0");
                let (prev, min) = list_min(&self.slots, wheel.l0_head.get(b));
                let time = self.slots[min as usize].time;
                if time > limit {
                    return None;
                }
                let event = self.wheel_take_l0(b, prev, min);
                let Core::Wheel(wheel) = &self.core else {
                    unreachable!()
                };
                if wheel.l0_count == 0 && wheel.l1_count == 0 {
                    // The popped entry was the last one in the wheel
                    // proper: the overflow top is the front now, so
                    // discard any cancelled run sitting on it.
                    self.sweep_overflow_top();
                }
                return Some((time, event));
            }
            if wheel.l1_count > 0 {
                // The global minimum lives in the first occupied
                // level-1 bucket in ring order (bucket time-ranges are
                // monotone from the window position).
                let cur = Wheel::l1_bucket(wheel.l0_end);
                let b = find_set_from(&wheel.l1_mask, cur).expect("l1_count > 0");
                let (_, min) = list_min(&self.slots, wheel.l1_head.get(b));
                if self.slots[min as usize].time > limit {
                    // Check BEFORE advancing: a limited pop must leave
                    // the window where `now` can still reach it, or a
                    // later schedule could alias into a stale bucket.
                    return None;
                }
                // Advance the window to the target bucket and
                // redistribute it into level 0 (ring distance in G1
                // steps from the current window position).
                let steps = (b + N1 - cur) % N1;
                let new_end = wheel.l0_end + (steps as u64 + 1) * G1;
                self.wheel_advance_to(new_end);
                continue;
            }
            // Both wheel levels empty: jump to the overflow minimum.
            self.sweep_overflow_top();
            let Core::Wheel(wheel) = &mut self.core else {
                unreachable!()
            };
            let head = wheel.overflow.peek()?;
            if head.time > limit {
                return None;
            }
            let t = head.time.as_nanos();
            let new_end = (t >> G1_BITS << G1_BITS) + G1;
            self.wheel_advance_to(new_end);
        }
    }

    /// Removes the front member of the level-0 entry `slot` (bucket
    /// `b`, list predecessor `prev`): a fused slot sheds one member and
    /// stays linked, re-keyed to its next member's sequence number; a
    /// singleton is unlinked from the bucket and its slab slot retired.
    /// Returns the removed event. `self.live` is the caller's job.
    fn wheel_take_l0(&mut self, b: usize, prev: u32, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        if !s.fused.is_empty() {
            let (seq, next_ev) = s.fused.remove(0);
            s.seq = seq;
            return s
                .event
                .replace(next_ev)
                .expect("fused front member owns a payload");
        }
        let Core::Wheel(wheel) = &mut self.core else {
            unreachable!()
        };
        list_unlink(&mut self.slots, wheel.l0_head.slot_mut(b), prev, slot);
        if wheel.l0_head.get(b) == NIL {
            clear_bit(&mut wheel.l0_mask, b);
        }
        wheel.l0_count -= 1;
        let (_, event) = self.retire_queued(slot);
        event.expect("wheel entries are never cancelled in place")
    }

    /// Moves the level-0 window forward so that its exclusive end is
    /// `new_end` (a multiple of `G1`), draining the level-1 buckets the
    /// window passes over and promoting overflow entries into the
    /// freshly uncovered level-1 range. Cancelled overflow entries are
    /// retired instead of promoted — the wheel proper never holds a
    /// cancelled entry.
    ///
    /// Empty stretches are hopped via the level-1 occupancy bitmap in
    /// one assignment: a gap of N empty G1 blocks costs one bitmap
    /// scan, not N per-block iterations, so crossing a long idle gap
    /// is O(occupied buckets) rather than O(elapsed time). The hop is
    /// safe for overflow promotion because callers derive `new_end`
    /// from an occupied level-1 bucket or from the overflow minimum:
    /// every overflow time is `>= new_end - G1`, so a promoted entry
    /// can never land behind the hopped window.
    fn wheel_advance_to(&mut self, new_end: u64) {
        loop {
            let Core::Wheel(wheel) = &mut self.core else {
                unreachable!()
            };
            if wheel.l0_end >= new_end {
                break;
            }
            // Hop straight to the next occupied level-1 bucket (ring
            // order from the window position); everything before it is
            // provably empty calendar.
            let cur1 = Wheel::l1_bucket(wheel.l0_end);
            let steps_left = ((new_end - wheel.l0_end) >> G1_BITS) as usize;
            let hop = if wheel.l1_count == 0 {
                None
            } else {
                find_set_from(&wheel.l1_mask, cur1).map(|b| (b + N1 - cur1) % N1)
            };
            match hop {
                Some(dist) if dist < steps_left => {
                    // Jump to the occupied bucket and drain it into
                    // level 0. List order is irrelevant: the
                    // per-bucket min-scan re-establishes (time, seq)
                    // order.
                    wheel.l0_end += dist as u64 * G1;
                    let end = wheel.l0_end + G1;
                    let b1 = Wheel::l1_bucket(wheel.l0_end);
                    let mut cur = wheel.l1_head.take(b1);
                    clear_bit(&mut wheel.l1_mask, b1);
                    while cur != NIL {
                        let nxt = self.slots[cur as usize].next;
                        debug_assert!(self.slots[cur as usize].time.as_nanos() >= wheel.l0_end);
                        debug_assert!(self.slots[cur as usize].time.as_nanos() < end);
                        wheel.l1_count -= 1;
                        l0_link(wheel, &mut self.slots, cur);
                        cur = nxt;
                    }
                    wheel.l0_end = end;
                }
                _ => {
                    // No occupied bucket inside the span: every block
                    // up to `new_end` is empty (the nearest occupancy
                    // sits at or beyond it), so the window crosses the
                    // whole stretch in one assignment with nothing to
                    // drain.
                    wheel.l0_end = new_end;
                }
            }
            // The level-1 horizon moved with the window: promote
            // overflow entries that now fall under it. (Inside the
            // loop: a promoted entry may land in a bucket the window
            // still has to pass, and the next iteration's bitmap scan
            // drains it.)
            let h1 = wheel.h1();
            while let Some(head) = wheel.overflow.peek() {
                if head.time.as_nanos() >= h1 {
                    break;
                }
                let entry = wheel.overflow.pop().expect("peeked non-empty");
                let slot = entry.slot;
                if self.slots[slot as usize].cancelled {
                    // Lazily cancelled while parked in overflow:
                    // retire the slot in place (inlined so the wheel
                    // borrow from `self.core` stays disjoint).
                    self.cancelled -= 1;
                    let s = &mut self.slots[slot as usize];
                    s.generation += 1;
                    s.loc = LOC_NONE;
                    s.next = NIL;
                    s.cancelled = false;
                    s.event = None;
                    self.free.push(slot);
                    continue;
                }
                if entry.time.as_nanos() < wheel.l0_end {
                    l0_link(wheel, &mut self.slots, slot);
                } else {
                    l1_link(wheel, &mut self.slots, slot);
                }
            }
        }
    }

    /// Retires the slab slot of an entry leaving the queue structure
    /// (popped, swept, or eagerly cancelled), invalidating outstanding
    /// tokens. Returns whether it had been (lazily) cancelled plus the
    /// payload the slot owned.
    fn retire_queued(&mut self, slot: u32) -> (bool, Option<E>) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.fused.is_empty(), "fused slots shed members, not retire");
        s.generation += 1;
        s.loc = LOC_NONE;
        s.next = NIL;
        if s.fused.capacity() > 0 {
            self.spare_fused.push(std::mem::take(&mut s.fused));
        }
        let event = s.event.take();
        let was_cancelled = std::mem::replace(&mut s.cancelled, false);
        if was_cancelled {
            self.cancelled -= 1;
        }
        self.free.push(slot);
        (was_cancelled, event)
    }

    /// Discards cancelled entries sitting at the heap top so that the
    /// top is always live (heap backend).
    fn sweep_heap_top(&mut self) {
        loop {
            let Core::Heap(heap) = &mut self.core else {
                return;
            };
            let Some(top) = heap.peek() else { return };
            if !self.slots[top.slot as usize].cancelled {
                return;
            }
            let entry = heap.pop().expect("peeked non-empty");
            self.retire_queued(entry.slot);
        }
    }

    /// Discards cancelled entries sitting at the overflow-heap top
    /// (wheel backend), so overflow peeks always see a live entry.
    fn sweep_overflow_top(&mut self) {
        loop {
            let Core::Wheel(wheel) = &mut self.core else {
                return;
            };
            let Some(top) = wheel.overflow.peek() else {
                return;
            };
            if !self.slots[top.slot as usize].cancelled {
                return;
            }
            let entry = wheel.overflow.pop().expect("peeked non-empty");
            self.retire_queued(entry.slot);
        }
    }

    /// Releases memory retained past the current working set: trailing
    /// free slab slots (and their spare capacity), the overflow/heap
    /// storage's spare capacity, spare fused-member Vecs, and
    /// bucket-head chunks whose buckets are all empty. Bounded by the
    /// structures' current sizes and
    /// observably inert — pop order, cancel results, and `peek_time`
    /// are identical with or without the call — so fleet drivers can
    /// invoke it after a storm peak without disturbing byte-identity.
    /// Stale tokens referencing truncated slots stay dead: out-of-range
    /// slots report the usual recorded-nothing `false`, and regrown
    /// slots start above every truncated generation (`gen_floor`).
    pub fn compact(&mut self) {
        self.slab_hwm = self.slab_hwm.max(self.slots.len());
        match &mut self.core {
            Core::Heap(heap) => heap.shrink_to_fit(),
            Core::Wheel(wheel) => {
                wheel.overflow.shrink_to_fit();
                wheel.l0_head.release_empty(&wheel.l0_mask);
                wheel.l1_head.release_empty(&wheel.l1_mask);
            }
        }
        // Drop the free tail of the slab: slots at the end that hold no
        // queued entry can go, and the free list forgets them. Interior
        // free slots stay (their indices are linked into live bucket
        // lists' numbering); in practice post-storm slabs are a dense
        // live prefix plus a long free tail.
        let mut is_free = vec![false; self.slots.len()];
        for &f in &self.free {
            is_free[f as usize] = true;
        }
        let mut new_len = self.slots.len();
        while new_len > 0 && is_free[new_len - 1] {
            new_len -= 1;
        }
        if new_len < self.slots.len() {
            let floor = self.slots[new_len..]
                .iter()
                .map(|s| s.generation + 1)
                .max()
                .unwrap_or(0);
            self.gen_floor = self.gen_floor.max(floor);
            self.slots.truncate(new_len);
            self.free.retain(|&f| (f as usize) < new_len);
        }
        self.slots.shrink_to_fit();
        self.free.shrink_to_fit();
        self.spare_fused = Vec::new();
    }

    /// Largest slab length ever reached (slots, not bytes), surviving
    /// [`EventQueue::compact`] truncation — the storm-peak watermark
    /// fleet stats report.
    pub fn slab_high_watermark(&self) -> usize {
        self.slab_hwm.max(self.slots.len())
    }

    /// Approximate resident bytes held by the queue's own structures
    /// (slab, free list, heap storage, materialized bucket chunks).
    /// Fused-member spill and payload-internal allocations are not
    /// counted.
    pub fn resident_bytes(&self) -> usize {
        let slab = self.slots.capacity() * std::mem::size_of::<Slot<E>>();
        let free = self.free.capacity() * std::mem::size_of::<u32>();
        let core = match &self.core {
            Core::Heap(heap) => heap.capacity() * std::mem::size_of::<Entry>(),
            Core::Wheel(wheel) => {
                wheel.overflow.capacity() * std::mem::size_of::<Entry>()
                    + wheel.l0_head.resident_bytes()
                    + wheel.l1_head.resident_bytes()
            }
        };
        slab + free + core
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Cancellation records not yet swept out of the queue structures
    /// (diagnostics; always bounded by the number of queued entries).
    /// Backend-dependent: the heap cancels lazily everywhere, the
    /// wheel only in its overflow heap.
    pub fn cancelled_backlog(&self) -> usize {
        self.cancelled
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::Wheel, QueueBackend::Heap];

    #[test]
    fn pops_in_time_order() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            q.schedule(SimTime::from_nanos(30), "c");
            q.schedule(SimTime::from_nanos(10), "a");
            q.schedule(SimTime::from_nanos(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{be:?}");
        }
    }

    #[test]
    fn ties_break_fifo() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = SimTime::from_nanos(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{be:?}");
        }
    }

    #[test]
    fn now_advances_with_pops() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            q.schedule(SimTime::from_nanos(42), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_nanos(42), "{be:?}");
        }
    }

    #[test]
    fn cancellation_skips_event() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t1 = q.schedule(SimTime::from_nanos(10), "a");
            q.schedule(SimTime::from_nanos(20), "b");
            assert!(q.cancel(t1));
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"), "{be:?}");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn double_cancel_is_false() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = q.schedule(SimTime::from_nanos(10), ());
            assert!(q.cancel(t));
            assert!(!q.cancel(t), "{be:?}");
        }
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = q.schedule(SimTime::from_nanos(10), ());
            q.pop();
            // The token already fired: per the documented contract the
            // cancel reports failure and records nothing.
            assert!(!q.cancel(t), "{be:?}");
            assert_eq!(q.cancelled_backlog(), 0);
            q.schedule(SimTime::from_nanos(20), ());
            assert!(q.pop().is_some());
        }
    }

    #[test]
    fn stale_token_does_not_cancel_slot_reuse() {
        // The slot of a fired event is recycled for the next schedule;
        // the old (stale) token must not cancel the new occupant.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let old = q.schedule(SimTime::from_nanos(10), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some(1));
            let fresh = q.schedule(SimTime::from_nanos(20), 2);
            assert!(!q.cancel(old), "{be:?}: stale token must be dead");
            assert_eq!(q.pop().map(|(_, e)| e), Some(2), "new occupant survives");
            assert!(!q.cancel(fresh), "fired token is dead too");
        }
    }

    #[test]
    fn post_fire_cancellations_do_not_accumulate() {
        // Regression: cancelling tokens after their events popped used
        // to grow the cancelled set without bound (nothing ever swept
        // those entries). The bookkeeping must stay empty here.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let mut tokens = Vec::new();
            for i in 0..10_000u64 {
                tokens.push(q.schedule(SimTime::from_nanos(i + 1), i));
            }
            while q.pop().is_some() {}
            for t in tokens {
                assert!(!q.cancel(t), "{be:?}");
            }
            assert_eq!(q.cancelled_backlog(), 0);
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn heap_pre_fire_cancellations_stay_lazy() {
        // Heap backend: pre-fire cancellations below the heap top stay
        // lazily in the heap (backlog 1) and are swept once their
        // entry surfaces.
        let mut q = EventQueue::with_backend(QueueBackend::Heap);
        q.schedule(SimTime::from_nanos(100_000), 0);
        let b = q.schedule(SimTime::from_nanos(100_001), 1);
        assert!(q.cancel(b));
        assert_eq!(q.cancelled_backlog(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        assert_eq!(q.cancelled_backlog(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_cancels_are_eager_outside_overflow() {
        // Wheel backend: a cancel inside the wheel's coverage removes
        // the entry on the spot — zero backlog — while a far-future
        // cancel parks lazily in the overflow heap.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        q.schedule(SimTime::from_nanos(50), 0);
        let near = q.schedule(SimTime::from_nanos(100_000), 1);
        let far = q.schedule(SimTime::from_secs(10), 2);
        q.schedule(SimTime::from_secs(11), 3);
        assert!(q.cancel(near));
        assert_eq!(q.cancelled_backlog(), 0, "wheel cancel is eager");
        assert!(q.cancel(far));
        assert!(q.cancelled_backlog() <= 1, "overflow cancel may be lazy");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 3]);
        assert_eq!(q.cancelled_backlog(), 0);
    }

    #[test]
    fn cancel_at_top_sweeps_immediately() {
        // Cancelling the front entry keeps peek_time a pure read on
        // both backends.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let a = q.schedule(SimTime::from_nanos(10), 0);
            q.schedule(SimTime::from_nanos(20), 1);
            assert!(q.cancel(a));
            assert_eq!(q.cancelled_backlog(), 0, "{be:?}");
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
        }
    }

    #[test]
    fn peek_time_skips_cancelled() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t1 = q.schedule(SimTime::from_nanos(10), 1);
            q.schedule(SimTime::from_nanos(20), 2);
            q.cancel(t1);
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)), "{be:?}");
        }
    }

    #[test]
    fn peek_time_is_shared_access() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            q.schedule(SimTime::from_nanos(10), ());
            let r: &EventQueue<()> = &q;
            assert_eq!(r.peek_time(), Some(SimTime::from_nanos(10)), "{be:?}");
        }
    }

    #[test]
    fn peek_time_reaches_into_level_one() {
        // Level 0 empty, next event beyond the level-0 window: the
        // peek must find it in the level-1 ring without popping.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        q.schedule(SimTime::from_millis(1), 7);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(7));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let a = q.schedule(SimTime::from_nanos(1), ());
            q.schedule(SimTime::from_nanos(2), ());
            q.cancel(a);
            assert_eq!(q.len(), 1, "{be:?}");
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            q.schedule(SimTime::from_nanos(10), 1u32);
            let (t, e) = q.pop().unwrap();
            assert_eq!((t.as_nanos(), e), (10, 1), "{be:?}");
            // Schedule relative to the new now.
            q.schedule(q.now() + SimDuration::from_nanos(5), 2u32);
            let (t, e) = q.pop().unwrap();
            assert_eq!((t.as_nanos(), e), (15, 2));
        }
    }

    #[test]
    fn slab_recycles_slots() {
        // Steady-state schedule/pop churn must not grow the slab.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            for i in 0..100_000u64 {
                q.schedule(SimTime::from_nanos(i + 1), i);
                q.pop();
            }
            assert!(q.slots.len() <= 2, "{be:?}: slab grew to {}", q.slots.len());
        }
    }

    #[test]
    fn wheel_spans_every_level() {
        // Events in level 0, level 1, and the overflow heap — popped
        // back in global time order across the structural boundaries.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        let times: Vec<u64> = vec![
            40,            // level 0
            5_000,         // level 0
            200_000,       // level 1 (beyond the initial 131 µs window)
            10_000_000,    // level 1 (10 ms)
            50_000_000,    // overflow (50 ms)
            2_000_000_000, // overflow (2 s)
        ];
        let mut shuffled = times.clone();
        shuffled.reverse();
        for &t in &shuffled {
            q.schedule(SimTime::from_nanos(t), t);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, times);
        assert_eq!(q.now(), SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn wheel_same_timestamp_fifo_across_levels() {
        // Same-timestamp events arriving via different routes (direct
        // level-0 insert vs. level-1/overflow promotion) must still pop
        // in schedule order.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        let t = SimTime::from_millis(40); // starts in overflow
        q.schedule(t, 0u32); // → overflow
        q.schedule(SimTime::from_nanos(10), 100); // level 0, pops first
        let order: Vec<u32> = {
            // Pop the early event; the window later jumps to 40 ms.
            let mut out = Vec::new();
            out.push(q.pop().unwrap().1);
            q.schedule(t, 1); // still beyond the level-1 horizon → overflow
            out.push(q.pop().unwrap().1);
            q.schedule(t, 2); // now == t: direct level-0 insert
            while let Some((at, e)) = q.pop() {
                assert_eq!(at, t);
                out.push(e);
            }
            out
        };
        assert_eq!(order, vec![100, 0, 1, 2]);
    }

    #[test]
    fn pop_at_or_before_respects_limit() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            q.schedule(SimTime::from_nanos(500), 5);
            assert!(q.pop_at_or_before(SimTime::from_nanos(400)).is_none());
            assert_eq!(q.len(), 1, "{be:?}: limited pop must not consume");
            assert_eq!(
                q.pop_at_or_before(SimTime::from_nanos(500)).map(|(_, e)| e),
                Some(5)
            );
        }
    }

    #[test]
    fn limited_pop_does_not_strand_the_window() {
        // A limited pop that answers None (next event beyond the
        // limit, parked in level 1 / overflow) must leave the wheel
        // able to accept schedules near `now` without aliasing.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        q.schedule(SimTime::from_nanos(100), 1u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        q.schedule(SimTime::from_millis(25), 2); // level 1
        q.schedule(SimTime::from_secs(1), 3); // overflow
        assert!(q.pop_at_or_before(SimTime::from_millis(20)).is_none());
        // Schedule close to now: must pop before the far ones.
        q.schedule(SimTime::from_millis(15), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![4, 2, 3]);
    }

    #[test]
    fn wheel_window_jump_over_long_gap() {
        // A lone far-future event forces the window to jump (no
        // per-bucket crawling): schedule → pop → schedule near the new
        // now must all stay consistent.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        q.schedule(SimTime::from_secs(3), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        let near = q.now() + SimDuration::from_nanos(64);
        q.schedule(near, "near");
        assert_eq!(q.pop().map(|(t, _)| t), Some(near));
    }

    #[test]
    fn fused_same_deadline_share_one_slot() {
        // Coincident deadlines in a wheel level collapse into one slab
        // slot and one bucket node, popping in FIFO order regardless.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        let t = SimTime::from_nanos(500);
        for i in 0..8 {
            q.schedule(t, i);
        }
        assert_eq!(q.slots.len(), 1, "members fused into the first slot");
        assert_eq!(q.len(), 8);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fused_member_cancel_semantics() {
        // Every member token of a fused slot is individually
        // cancellable, with the same stale-token contract singletons
        // have, on either backend.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = SimTime::from_nanos(700);
            let toks: Vec<_> = (0..5).map(|i| q.schedule(t, i)).collect();
            assert!(q.cancel(toks[2]), "{be:?}: middle member");
            assert!(!q.cancel(toks[2]), "{be:?}: double cancel");
            assert!(q.cancel(toks[0]), "{be:?}: front member");
            assert_eq!(q.len(), 3);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![1, 3, 4], "{be:?}");
            for tok in toks {
                assert!(!q.cancel(tok), "{be:?}: all tokens dead after fire");
            }
            assert_eq!(q.cancelled_backlog(), 0, "{be:?}");
        }
    }

    #[test]
    fn fused_slot_interleaves_with_later_singleton() {
        // A fused slot keyed by its front member must interleave
        // correctly with a separate same-time slot arriving via a
        // different route (level-1 redistribution), exactly as the
        // heap backend would order the four events.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = SimTime::from_millis(1); // starts in level 1
            q.schedule(t, 0u32);
            q.schedule(t, 1); // fuses with 0 on the wheel
            q.schedule(t, 2);
            let out: Vec<_> = std::iter::from_fn(|| q.pop_at_or_before(t)).collect();
            assert_eq!(out, vec![(t, 0), (t, 1), (t, 2)], "{be:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn fusion_in_level_one_pops_in_order() {
        // Fusing inside a level-1 bucket: members ride the
        // redistribution into level 0 together and still pop in
        // global (time, seq) order against neighbours.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        let a = SimTime::from_micros(200); // level 1
        let b = SimTime::from_micros(201); // same level-1 bucket
        q.schedule(a, 10u32);
        q.schedule(b, 20);
        q.schedule(a, 11); // fuses with 10
        assert_eq!(q.slots.len(), 2, "coincident deadline fused");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![10, 11, 20]);
    }

    #[test]
    fn small_slab_grows_on_demand_with_identical_order() {
        // A fleet-profile queue starting from a tiny slab must produce
        // the exact pop order of the default reservation under a load
        // that forces several mid-run doublings.
        for be in BACKENDS {
            let mut small = EventQueue::with_backend_and_slots(be, 2);
            let mut big = EventQueue::with_backend(be);
            for i in 0..3000u64 {
                let t = SimTime::from_nanos(1 + (i * 7919) % 50_000);
                small.schedule(t, i);
                big.schedule(t, i);
            }
            loop {
                let (a, b) = (small.pop(), big.pop());
                assert_eq!(
                    a.as_ref().map(|(t, e)| (*t, *e)),
                    b.as_ref().map(|(t, e)| (*t, *e)),
                    "{be:?}"
                );
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn compact_releases_storm_peak_and_keeps_tokens_dead() {
        // A burst inflates the slab; compact() must shed the free tail,
        // keep the high-water mark visible, and never let a
        // pre-compaction token cancel a post-compaction occupant of a
        // recycled slot index.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend_and_slots(be, 4);
            let stale: Vec<_> = (0..4000u64)
                .map(|i| q.schedule(SimTime::from_nanos(i + 1), i))
                .collect();
            while q.pop().is_some() {}
            let peak = q.slab_high_watermark();
            assert!(peak >= 1000, "{be:?}: storm should inflate the slab");
            q.compact();
            assert!(q.slots.is_empty(), "{be:?}: free tail dropped");
            assert_eq!(q.slab_high_watermark(), peak, "{be:?}: HWM survives");
            // Regrow over the same indices; every stale token is dead.
            let fresh: Vec<_> = (0..4000u64)
                .map(|i| q.schedule(SimTime::from_nanos(10_000 + i), i))
                .collect();
            for t in stale {
                assert!(!q.cancel(t), "{be:?}: stale token aliased a live slot");
            }
            assert_eq!(q.len(), 4000, "{be:?}");
            for t in fresh.iter().step_by(2) {
                assert!(q.cancel(*t), "{be:?}: fresh tokens stay cancellable");
            }
            let popped = std::iter::from_fn(|| q.pop()).count();
            assert_eq!(popped, 2000, "{be:?}");
        }
    }

    #[test]
    fn compact_with_live_entries_is_inert() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend_and_slots(be, 4);
            // Live entries across all wheel levels, plus churn to leave
            // free slots behind them.
            for i in 0..500u64 {
                let t = q.schedule(SimTime::from_nanos(i + 1), i);
                q.cancel(t);
            }
            q.schedule(SimTime::from_nanos(40), 1u64);
            q.schedule(SimTime::from_micros(200), 2);
            q.schedule(SimTime::from_secs(2), 3);
            q.compact();
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3], "{be:?}");
        }
    }

    #[test]
    fn explicit_backend_selection() {
        assert_eq!(QueueBackend::default(), QueueBackend::Wheel);
        assert_eq!(EventQueue::<()>::new().backend(), QueueBackend::Wheel);
        let q: EventQueue<()> = EventQueue::with_backend(QueueBackend::Heap);
        assert_eq!(q.backend(), QueueBackend::Heap);
        let q: EventQueue<()> = EventQueue::with_backend(QueueBackend::Wheel);
        assert_eq!(q.backend(), QueueBackend::Wheel);
    }
}
