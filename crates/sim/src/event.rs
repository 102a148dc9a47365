//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence)` so that events scheduled
//! at the same instant fire in insertion order — a hard requirement for
//! reproducibility. [`EventQueue::schedule`] returns an [`EventToken`]
//! usable for cancellation.
//!
//! # Reserved keys
//!
//! [`EventQueue::reserve`] takes an event's `(time, seq)` key — the
//! next sequence number — without queueing anything, and
//! [`EventQueue::schedule_reserved`] queues an event at that key later.
//! Because the sequence number was taken at reserve time, a late insert
//! pops exactly where an eager `schedule` would have put it, and every
//! event scheduled in between keeps its own key. The queue records the
//! key of each event it pops (on every pop path, the heap oracle's
//! included), so [`EventQueue::is_pending`] can say whether the run has
//! reached a reserved key whether or not an event sits there. A caller
//! can therefore reserve a timer's slot in the order, and queue the
//! timer only once it learns the handler would have something to do,
//! or take the keys of many future events at once and queue each only
//! when the one before it has popped.
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
//! # The hierarchical timing wheel
//!
//! The scheduling core on top of the slab is a hierarchical timing
//! wheel (calendar queue) tuned for the simulator's actual event mix —
//! dense, near-future timers (softirq deadlines, burst completions,
//! probe windows, slice expiries):
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
//! The wheel knows which bucket an entry lives in (the slab records
//! it), so cancels inside levels 0 and 1 remove the entry *eagerly*;
//! in the overflow heap cancellation is lazy (a flipped bit, discarded
//! when the entry surfaces), and the heap top is kept live by sweeping
//! in `pop` and `cancel`, so `peek_time` is a plain `&self` read.
//!
//! Advancing the level-0 window over a long idle gap hops via the
//! level-1 occupancy bitmap: a span of empty calendar costs one bitmap
//! scan, not one iteration per 131 µs block, so a simulated
//! multi-second quiet period is O(occupied buckets) to cross.
//!
//! # The heap-only oracle
//!
//! Test builds and the dev-only `oracle` feature add
//! `EventQueue::with_backend`: `QueueBackend::Heap` is the wheel
//! with its calendar off. Every entry goes to the overflow heap and
//! pops from its top without promotion, which is exactly the binary
//! min-heap with lazy cancellation the wheel replaced. It never touches
//! levels 0 and 1, the code it checks, and produces **identical
//! observable behaviour** — the same `(time, seq)` pop order, the same
//! `cancel` return values, the same `peek_time` — so traces, stats, and
//! CSVs are byte-identical across backends for the same seed. (The only
//! backend-dependent observable is the diagnostic
//! [`EventQueue::cancelled_backlog`]: the heap cancels lazily
//! everywhere.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Tokens are generation-stamped: once the event fires (or the cancel
/// is swept), the token goes stale and [`EventQueue::cancel`] on it is
/// a recorded-nothing no-op. Every queued event owns its own slot, so
/// `(slot, generation)` identifies it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    generation: u64,
}

/// A queue position: the `(time, seq)` key an event pops at.
///
/// [`EventQueue::reserve`] hands one out without queueing anything, so
/// a caller can decide later whether the event is needed at all;
/// [`EventQueue::schedule_reserved`] then inserts it exactly where an
/// eager [`EventQueue::schedule`] at reserve time would have, and
/// [`EventQueue::is_pending`] says whether the run has reached the key
/// yet. Keys order like the events they stand for, so a caller can
/// hold reserved keys in a sorted structure of its own; the default
/// key is the first one a fresh queue hands out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    time: SimTime,
    seq: u64,
}

/// Scheduling core selection for the identity oracle (see the module
/// docs). Exists only in test builds and under the dev-only `oracle`
/// feature; every other build runs the timing wheel.
#[cfg(any(test, feature = "oracle"))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timing wheel with heap overflow (the default).
    #[default]
    Wheel,
    /// The wheel with its calendar off: a binary min-heap with lazy
    /// cancellation, the reference the wheel must match.
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

/// Slab capacity reserved at construction. The slab grows on demand
/// to the in-flight high-water mark (a few dozen events on a full
/// machine), so this only sets where growth starts: a rack of
/// thousands of mostly idle machines never pays for worst-case slabs.
const START_SLOTS: usize = 32;

/// Per-slot bookkeeping. A slot is bound to exactly one queued entry at
/// a time; the generation distinguishes successive occupants. The slot
/// owns the entry's payload and carries the ordering key and the
/// intrusive bucket-list link, so the wheel needs no storage of its
/// own.
struct Slot<E> {
    generation: u64,
    cancelled: bool,
    /// `LOC_OVERFLOW`, a level-0 bucket index (`0..N0`), or `N0 +` a
    /// level-1 bucket index. `LOC_NONE` for free slots.
    loc: u32,
    /// Ordering key, valid while queued.
    time: SimTime,
    seq: u64,
    /// Next slot in the same bucket's intrusive list, or [`NIL`].
    next: u32,
    event: Option<E>,
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
/// bitmap word. Every head in a word with no bit set is [`NIL`], so
/// such a word's chunk is idle: the first link into a word without a
/// chunk takes an idle one, and allocates only when no idle chunk
/// exists. The table therefore holds at most as many chunks as the
/// calendar ever had occupied words at once, not one per word the
/// window has swept past, and a machine at its working set allocates
/// none. Chunk presence is pure storage: `get` answers [`NIL`] for an
/// absent chunk, which is exactly what a flat array held for an empty
/// bucket, so pop order and cancel results are unaffected.
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

    /// Mutable head slot for bucket `b` of the level whose occupancy
    /// bitmap is `mask`, materializing its chunk from an idle word's
    /// (or the allocator when no word is idle).
    #[inline]
    fn slot_mut(&mut self, mask: &[u64; WORDS], b: usize) -> &mut u32 {
        let w = b >> 6;
        if self.chunks[w].is_none() {
            let idle = (0..WORDS).find(|&i| mask[i] == 0 && self.chunks[i].is_some());
            let chunk = match idle {
                Some(i) => self.chunks[i].take().expect("idle word holds a chunk"),
                None => Box::new([NIL; 64]),
            };
            debug_assert!(chunk.iter().all(|&h| h == NIL));
            self.chunks[w] = Some(chunk);
        }
        &mut self.chunks[w].as_mut().expect("chunk materialized")[b & 63]
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

    /// Chunks held, by occupied and idle words alike.
    fn chunk_count(&self) -> usize {
        self.chunks.iter().flatten().count()
    }

    /// Resident bytes held by the chunks.
    fn resident_bytes(&self) -> usize {
        self.chunk_count() * std::mem::size_of::<[u32; 64]>()
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
    let head = wheel.l0_head.slot_mut(&wheel.l0_mask, b);
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
    let head = wheel.l1_head.slot_mut(&wheel.l1_mask, b);
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

/// Unlinks `slot` from bucket `b` of one wheel level, wherever it sits
/// in the bucket's list, and clears the bucket's bit once it is empty.
#[inline]
fn bucket_remove<E, const WORDS: usize>(
    slots: &mut [Slot<E>],
    heads: &mut HeadTable<WORDS>,
    mask: &mut [u64; WORDS],
    b: usize,
    slot: u32,
) {
    // `slot_mut` cannot allocate here: the entry is linked into the
    // bucket, so its chunk exists.
    let head = heads.slot_mut(mask, b);
    let mut prev = NIL;
    let mut cur = *head;
    while cur != slot {
        debug_assert_ne!(cur, NIL, "slab loc tracks the live bucket");
        prev = cur;
        cur = slots[cur as usize].next;
    }
    list_unlink(slots, head, prev, slot);
    if *head == NIL {
        clear_bit(mask, b);
    }
}

/// A time-ordered queue of events of type `E`.
pub struct EventQueue<E> {
    wheel: Box<Wheel>,
    /// Heap-only oracle: the calendar is off, so every entry lives in
    /// the overflow heap.
    #[cfg(any(test, feature = "oracle"))]
    heap_only: bool,
    /// Oracle: iterations of the window-advance loop so far (see
    /// [`EventQueue::advance_steps`]).
    #[cfg(any(test, feature = "oracle"))]
    advance_steps: u64,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    /// The key just past the most recently popped event: every key
    /// below it has been dispatched (or was reserved and never
    /// queued), every key at or above it is still ahead of the run.
    popped_to: EventKey,
    /// Pending (non-cancelled) events.
    live: usize,
    /// Cancelled entries still physically queued (in the overflow
    /// heap).
    cancelled: usize,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    ///
    /// Storage starts small and grows on demand: the slab from a
    /// 32-slot reservation, the wheel's bucket-head chunks one at a
    /// time as events first link into them. Growth only moves where
    /// memory is reserved, never pop order or cancel results, and a
    /// machine's first-touch growth ends within its first tens of
    /// simulated milliseconds (the zero_alloc test audits the steady
    /// state after it).
    pub fn new() -> Self {
        Self::with_capacity(START_SLOTS)
    }

    fn with_capacity(initial_slots: usize) -> Self {
        EventQueue {
            wheel: Wheel::new(),
            #[cfg(any(test, feature = "oracle"))]
            heap_only: false,
            #[cfg(any(test, feature = "oracle"))]
            advance_steps: 0,
            slots: Vec::with_capacity(initial_slots),
            free: Vec::with_capacity(initial_slots),
            next_seq: 0,
            popped_to: EventKey {
                time: SimTime::ZERO,
                seq: 0,
            },
            live: 0,
            cancelled: 0,
            now: SimTime::ZERO,
        }
    }

    /// Oracle: [`EventQueue::new`] on an explicit backend.
    #[cfg(any(test, feature = "oracle"))]
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self::with_backend_and_slots(backend, START_SLOTS)
    }

    /// Oracle: [`EventQueue::with_backend`] with an explicit initial
    /// slab reservation (the small-slab growth tests). The slab still
    /// grows on demand, so every observable is identical for any
    /// value.
    #[cfg(any(test, feature = "oracle"))]
    pub fn with_backend_and_slots(backend: QueueBackend, initial_slots: usize) -> Self {
        let mut q = Self::with_capacity(initial_slots);
        q.heap_only = backend == QueueBackend::Heap;
        q
    }

    /// Oracle: the scheduling core this queue runs on.
    #[cfg(any(test, feature = "oracle"))]
    pub fn backend(&self) -> QueueBackend {
        if self.heap_only {
            QueueBackend::Heap
        } else {
            QueueBackend::Wheel
        }
    }

    /// Oracle: iterations the level-0 window advance has run so far.
    /// Each one hops to an occupied level-1 bucket or crosses an empty
    /// stretch whole, so crossing an idle gap costs a handful of
    /// iterations however long the gap is.
    #[cfg(any(test, feature = "oracle"))]
    pub fn advance_steps(&self) -> u64 {
        self.advance_steps
    }

    /// Oracle: bucket-head chunks the wheel holds.
    #[cfg(any(test, feature = "oracle"))]
    pub fn head_chunks(&self) -> usize {
        self.wheel.l0_head.chunk_count() + self.wheel.l1_head.chunk_count()
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error and panics in debug
    /// builds; in release builds the event fires immediately (at `now`).
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        let key = self.reserve(time);
        self.schedule_reserved(key, event)
    }

    /// Takes the key [`EventQueue::schedule`] would give an event at
    /// `time` right now — the next sequence number — without queueing
    /// anything. Events scheduled later get later sequence numbers, so
    /// they still order after this key at the same instant.
    ///
    /// Reserving in the past is a logic error and panics in debug
    /// builds; in release builds the key is clamped to `now`.
    #[inline]
    pub fn reserve(&mut self, time: SimTime) -> EventKey {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time:?} < now {:?}",
            self.now
        );
        let key = EventKey {
            time: time.max(self.now),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        key
    }

    /// True while the run has not reached `key`: it sorts after every
    /// event popped so far. A reserved key stays pending until a later
    /// key pops (or its own event, if one was queued there), whether or
    /// not anything is queued at it.
    #[inline]
    pub fn is_pending(&self, key: EventKey) -> bool {
        key >= self.popped_to
    }

    /// Queues `event` at a key from [`EventQueue::reserve`], which must
    /// still be pending and must not have been used before. It pops
    /// exactly where an eager `schedule` at reserve time would have put
    /// it: after every event at that instant with a smaller sequence
    /// number, before every one with a larger one.
    pub fn schedule_reserved(&mut self, key: EventKey, event: E) -> EventToken {
        debug_assert!(
            self.is_pending(key),
            "reserved key {key:?} is behind the run ({:?})",
            self.popped_to
        );
        let EventKey { time, seq } = key;
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.time = time;
                sl.seq = seq;
                sl.event = Some(event);
                s
            }
            None => {
                // The slab never shrinks, so a new index has never been
                // issued: generation 0 cannot alias any outstanding token.
                self.slots.push(Slot {
                    generation: 0,
                    cancelled: false,
                    loc: LOC_NONE,
                    time,
                    seq,
                    next: NIL,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        let wheel = &mut *self.wheel;
        let t = time.as_nanos();
        // Heap-only oracle: route as if beyond every horizon, so the
        // entry lands in the overflow heap (keyed by its real time).
        #[cfg(any(test, feature = "oracle"))]
        let t = if self.heap_only { u64::MAX } else { t };
        if t < wheel.l0_end {
            l0_link(wheel, &mut self.slots, slot);
        } else if t < wheel.h1() {
            l1_link(wheel, &mut self.slots, slot);
        } else {
            wheel.overflow.push(Entry { time, seq, slot });
            self.slots[slot as usize].loc = LOC_OVERFLOW;
        }
        self.live += 1;
        EventToken { slot, generation }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the token had not already fired or been
    /// cancelled. Cancelling an already-fired token is a no-op (and
    /// records nothing: the slot generation moved on, so the stale
    /// token cannot leave residue). Disposal is eager in the wheel
    /// levels and lazy in the overflow heap (see
    /// [`EventQueue::cancelled_backlog`]).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.slot as usize) else {
            return false;
        };
        if slot.generation != token.generation || slot.cancelled {
            return false;
        }
        let loc = slot.loc;
        if loc == LOC_OVERFLOW {
            slot.cancelled = true;
            self.live -= 1;
            self.cancelled += 1;
            // Keep the overflow-top-is-live invariant (peek_time is a
            // plain `&self` read).
            self.sweep_overflow_top();
            return true;
        }
        // The slab knows the bucket: remove eagerly so no cancelled
        // entry ever sits in the wheel proper.
        let wheel = &mut *self.wheel;
        if (loc as usize) < N0 {
            bucket_remove(
                &mut self.slots,
                &mut wheel.l0_head,
                &mut wheel.l0_mask,
                loc as usize,
                token.slot,
            );
            wheel.l0_count -= 1;
        } else {
            let b = loc as usize - N0;
            bucket_remove(
                &mut self.slots,
                &mut wheel.l1_head,
                &mut wheel.l1_mask,
                b,
                token.slot,
            );
            wheel.l1_count -= 1;
        }
        self.live -= 1;
        self.retire_queued(token.slot);
        // The removal may have emptied both wheel levels, promoting the
        // overflow top to global front: it must be live (`peek_time`
        // relies on it), and a cancelled entry parked there would hold
        // its slot until the next window advance.
        if self.wheel.l0_count == 0 && self.wheel.l1_count == 0 {
            self.sweep_overflow_top();
        }
        true
    }

    /// Pops the next non-cancelled event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Pops the next event only if it fires at or before `limit`.
    ///
    /// The combined peek+pop the driver loop wants: one queue access per
    /// event instead of a peek followed by a pop.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (time, event) = self.wheel_pop_min(limit)?;
        self.live -= 1;
        self.now = time;
        Some((time, event))
    }

    /// Returns the time of the next pending event without popping it.
    ///
    /// A read-only bucket scan: no cancelled entry ever sits in the
    /// wheel levels, and the overflow top is kept live by the sweeps in
    /// `pop` and `cancel`.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = &*self.wheel;
        if wheel.l0_count > 0 {
            let start = Wheel::l0_bucket(self.now.as_nanos().max(wheel.l0_end - G1));
            let b = find_set_from(&wheel.l0_mask, start).expect("l0_count > 0");
            let (_, min) = list_min(&self.slots, wheel.l0_head.get(b));
            return Some(self.slots[min as usize].time);
        }
        if wheel.l1_count > 0 {
            // The global minimum is in the first occupied level-1
            // bucket in ring order from the window (bucket time-ranges
            // are monotone from there, and all overflow times are
            // larger still).
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

    /// Removes and returns `(time, event)` of the minimum entry if its
    /// time is `<= limit`, advancing the level-0 window (draining
    /// level-1 buckets, promoting overflow entries) as needed.
    /// Advancing only happens when the result is actually popped — a
    /// `None` return leaves the window untouched, so `now` can never
    /// fall behind the level-0 coverage. Does not touch `self.live`;
    /// callers account for the removed event.
    fn wheel_pop_min(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        #[cfg(any(test, feature = "oracle"))]
        if self.heap_only {
            return self.overflow_pop(limit);
        }
        loop {
            let wheel = &mut *self.wheel;
            if wheel.l0_count > 0 {
                let start = Wheel::l0_bucket(self.now.as_nanos().max(wheel.l0_end - G1));
                let b = find_set_from(&wheel.l0_mask, start).expect("l0_count > 0");
                let (prev, min) = list_min(&self.slots, wheel.l0_head.get(b));
                let time = self.slots[min as usize].time;
                if time > limit {
                    return None;
                }
                self.popped_to = EventKey {
                    time,
                    seq: self.slots[min as usize].seq + 1,
                };
                let head = wheel.l0_head.slot_mut(&wheel.l0_mask, b);
                list_unlink(&mut self.slots, head, prev, min);
                if wheel.l0_head.get(b) == NIL {
                    clear_bit(&mut wheel.l0_mask, b);
                }
                wheel.l0_count -= 1;
                let wheel_empty = wheel.l0_count == 0 && wheel.l1_count == 0;
                let event = self.retire_queued(min);
                let event = event.expect("wheel entries are never cancelled in place");
                if wheel_empty {
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
            let head = self.wheel.overflow.peek()?;
            if head.time > limit {
                return None;
            }
            let t = head.time.as_nanos();
            let new_end = (t >> G1_BITS << G1_BITS) + G1;
            self.wheel_advance_to(new_end);
        }
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
            #[cfg(any(test, feature = "oracle"))]
            {
                self.advance_steps += 1;
            }
            let wheel = &mut *self.wheel;
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
                    // borrow from `self.wheel` stays disjoint).
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
    /// tokens. Returns the payload the slot owned.
    fn retire_queued(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        s.generation += 1;
        s.loc = LOC_NONE;
        s.next = NIL;
        let event = s.event.take();
        if std::mem::replace(&mut s.cancelled, false) {
            self.cancelled -= 1;
        }
        self.free.push(slot);
        event
    }

    /// Discards cancelled entries sitting at the overflow-heap top, so
    /// overflow peeks always see a live entry.
    fn sweep_overflow_top(&mut self) {
        while let Some(top) = self.wheel.overflow.peek() {
            if !self.slots[top.slot as usize].cancelled {
                return;
            }
            let entry = self.wheel.overflow.pop().expect("peeked non-empty");
            self.retire_queued(entry.slot);
        }
    }

    /// Heap-only oracle: pops the overflow top if it fires at or before
    /// `limit`, without promoting it into the calendar, then sweeps so
    /// the new top is live.
    #[cfg(any(test, feature = "oracle"))]
    fn overflow_pop(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        // The top is always live (sweep invariant).
        if self.wheel.overflow.peek()?.time > limit {
            return None;
        }
        let entry = self.wheel.overflow.pop().expect("peeked non-empty");
        self.popped_to = EventKey {
            time: entry.time,
            seq: entry.seq + 1,
        };
        let event = self.retire_queued(entry.slot);
        self.sweep_overflow_top();
        Some((entry.time, event.expect("live slot owns its payload")))
    }

    /// Largest slab length ever reached (slots, not bytes) — the
    /// storm-peak watermark fleet stats report. The slab never shrinks,
    /// so this is its current length.
    pub fn slab_high_watermark(&self) -> usize {
        self.slots.len()
    }

    /// Approximate resident bytes held by the queue's own structures
    /// (slab, free list, overflow heap, materialized bucket chunks).
    /// Payload-internal allocations are not counted.
    pub fn resident_bytes(&self) -> usize {
        let slab = self.slots.capacity() * std::mem::size_of::<Slot<E>>();
        let free = self.free.capacity() * std::mem::size_of::<u32>();
        let wheel = self.wheel.overflow.capacity() * std::mem::size_of::<Entry>()
            + self.wheel.l0_head.resident_bytes()
            + self.wheel.l1_head.resident_bytes();
        slab + free + wheel
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Cancellation records not yet swept out of the queue structures
    /// (diagnostics; always bounded by the number of queued entries).
    /// Cancellation is lazy only in the overflow heap — which, in the
    /// heap-only oracle, holds every entry.
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
    fn idle_gap_advance_takes_a_handful_of_steps() {
        // A lone event 10 s ahead sits ~76 000 level-1 blocks past the
        // window. Crossing the empty stretch must cost a few loop
        // iterations, not one per block.
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        q.schedule(SimTime::from_secs(10), "far");
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_secs(10)));
        assert!(
            q.advance_steps() <= 4,
            "{} window-advance iterations for one idle gap",
            q.advance_steps()
        );
    }

    #[test]
    fn fused_same_deadline_share_one_slot() {
        // Coincident deadlines inside level 0 pop in FIFO order on
        // either backend.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = SimTime::from_nanos(500);
            for i in 0..8 {
                q.schedule(t, i);
            }
            assert_eq!(q.len(), 8, "{be:?}");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..8).collect::<Vec<_>>(), "{be:?}");
        }
    }

    #[test]
    fn fused_member_cancel_semantics() {
        // Every token of a same-deadline group is individually
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
        // Same-deadline events parked in level 1 must come back in
        // FIFO order after redistribution into level 0, exactly as the
        // heap backend orders them.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = SimTime::from_millis(1); // starts in level 1
            q.schedule(t, 0u32);
            q.schedule(t, 1);
            q.schedule(t, 2);
            let out: Vec<_> = std::iter::from_fn(|| q.pop_at_or_before(t)).collect();
            assert_eq!(out, vec![(t, 0), (t, 1), (t, 2)], "{be:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn fusion_in_level_one_pops_in_order() {
        // A same-deadline pair sharing a level-1 bucket with a later
        // neighbour rides the redistribution into level 0 and still
        // pops in global (time, seq) order.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let a = SimTime::from_micros(200); // level 1
            let b = SimTime::from_micros(201); // same level-1 bucket
            q.schedule(a, 10u32);
            q.schedule(b, 20);
            q.schedule(a, 11);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![10, 11, 20], "{be:?}");
        }
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
        // (Name kept from the slab-compaction era; the slab now never
        // shrinks.) A burst inflates the slab, the high-water mark stays
        // visible after it drains, and no pre-storm token ever cancels a
        // later occupant of a recycled slot index.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend_and_slots(be, 4);
            let stale: Vec<_> = (0..4000u64)
                .map(|i| q.schedule(SimTime::from_nanos(i + 1), i))
                .collect();
            while q.pop().is_some() {}
            let peak = q.slab_high_watermark();
            assert!(peak >= 1000, "{be:?}: storm should inflate the slab");
            // Refill over the same (recycled) indices; every stale token
            // is dead and the watermark does not move.
            let fresh: Vec<_> = (0..4000u64)
                .map(|i| q.schedule(SimTime::from_nanos(10_000 + i), i))
                .collect();
            assert_eq!(q.slab_high_watermark(), peak, "{be:?}: HWM stays visible");
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
        // (Name kept from the slab-compaction era.) Cancel churn leaves
        // free slots behind; entries on all three levels still pop in
        // order.
        for be in BACKENDS {
            let mut q = EventQueue::with_backend_and_slots(be, 4);
            for i in 0..500u64 {
                let t = q.schedule(SimTime::from_nanos(i + 1), i);
                q.cancel(t);
            }
            q.schedule(SimTime::from_nanos(40), 1u64);
            q.schedule(SimTime::from_micros(200), 2);
            q.schedule(SimTime::from_secs(2), 3);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3], "{be:?}");
        }
    }

    #[test]
    fn heap_oracle_never_touches_the_calendar() {
        // The heap-only oracle must stay independent of the levels it
        // checks: randomized schedule / cancel / limited-pop traffic
        // spread over level 0, level 1 and overflow never links an
        // entry into the calendar, and matches the wheel op for op.
        let mut rng = crate::rng::Rng::new(0x0AC1E);
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut wheel = EventQueue::with_backend(QueueBackend::Wheel);
        let mut tokens = Vec::new();
        let mut calendar_used = false;
        for step in 0..20_000u64 {
            let now = heap.now().as_nanos();
            match rng.next_below(4) {
                0 | 1 => {
                    // Level 0 (< 131 µs), level 1 (< 33 ms) or overflow.
                    let span = [100_000, 30_000_000, 2_000_000_000][rng.next_below(3) as usize];
                    let at = SimTime::from_nanos(now + rng.next_below(span));
                    tokens.push((heap.schedule(at, step), wheel.schedule(at, step)));
                }
                2 => {
                    if let Some(&(h, w)) = rng.pick(&tokens) {
                        assert_eq!(heap.cancel(h), wheel.cancel(w), "step {step}");
                    }
                }
                _ => {
                    let limit = SimTime::from_nanos(now + rng.next_below(20_000_000));
                    let got = heap.pop_at_or_before(limit);
                    assert_eq!(got, wheel.pop_at_or_before(limit), "step {step}");
                }
            }
            assert_eq!(heap.peek_time(), wheel.peek_time(), "step {step}");
            assert_eq!(
                (heap.wheel.l0_count, heap.wheel.l1_count),
                (0, 0),
                "step {step}: heap oracle linked into the calendar"
            );
            calendar_used |= wheel.wheel.l0_count > 0 && wheel.wheel.l1_count > 0;
        }
        assert!(calendar_used, "traffic must reach both wheel levels");
        while let Some(got) = heap.pop() {
            assert_eq!(Some(got), wheel.pop());
            assert_eq!((heap.wheel.l0_count, heap.wheel.l1_count), (0, 0));
        }
        assert!(wheel.is_empty());
        assert_eq!(heap.cancelled_backlog(), 0);
    }

    #[test]
    fn reserved_key_pops_where_eager_schedule_would() {
        // Same-instant neighbours on both sides of the reserved key:
        // the late insert pops after the tie scheduled before the
        // reserve and before the one scheduled after it.
        for be in BACKENDS {
            for t in [500, 200_000, 50_000_000] {
                let t = SimTime::from_nanos(t);
                let mut q = EventQueue::with_backend(be);
                q.schedule(t, "before");
                let key = q.reserve(t);
                q.schedule(t, "after");
                q.schedule(SimTime::from_nanos(100), "early");
                assert_eq!(q.len(), 3, "{be:?}: a reservation queues nothing");
                assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
                assert!(q.is_pending(key));
                q.schedule_reserved(key, "reserved");
                let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
                assert_eq!(order, ["before", "reserved", "after"], "{be:?} at {t:?}");
                assert!(!q.is_pending(key), "{be:?}: popped key is behind the run");
            }
        }
    }

    #[test]
    fn is_pending_tracks_the_popped_key_without_an_event() {
        for be in BACKENDS {
            let mut q = EventQueue::with_backend(be);
            let t = SimTime::from_nanos(1_000);
            q.schedule(SimTime::from_nanos(10), 0);
            q.schedule(t, 1);
            let key = q.reserve(t);
            q.schedule(t, 2);
            assert!(q.is_pending(key), "{be:?}: nothing popped yet");
            q.pop();
            assert!(q.is_pending(key), "{be:?}: an earlier instant popped");
            assert_eq!(q.pop(), Some((t, 1)));
            assert!(q.is_pending(key), "{be:?}: a smaller seq at the instant");
            assert_eq!(q.pop(), Some((t, 2)));
            assert!(!q.is_pending(key), "{be:?}: a larger seq at the instant");
            // A limited pop that returns nothing moves nothing.
            let later = q.reserve(SimTime::from_nanos(2_000));
            q.schedule(SimTime::from_nanos(3_000), 3);
            assert!(q.pop_at_or_before(SimTime::from_nanos(2_500)).is_none());
            assert!(q.is_pending(later), "{be:?}");
        }
    }

    #[test]
    fn late_inserts_match_eager_schedules() {
        // Differential check: every reservation either gets its event
        // later (before the run can pass its instant) or never does.
        // The reference schedules each event at reserve time and
        // cancels the never-queued ones on the spot. Pops, peeks and
        // `is_pending` must agree op for op, across level 0, level 1
        // and overflow.
        for be in BACKENDS {
            let mut rng = crate::rng::Rng::new(0x5EED ^ be as u64);
            let mut lazy = EventQueue::with_backend(be);
            let mut eager = EventQueue::with_backend(be);
            // (key, payload) reservations waiting for their event.
            let mut waiting: Vec<(EventKey, u64)> = Vec::new();
            let mut keys = Vec::new();
            let mut late = 0;
            for step in 0..20_000u64 {
                let now = lazy.now().as_nanos();
                let span = [2_000, 300_000, 60_000_000][rng.next_below(3) as usize];
                let at = SimTime::from_nanos(now + rng.next_below(span));
                match rng.next_below(5) {
                    0 | 1 => {
                        lazy.schedule(at, step);
                        eager.schedule(at, step);
                    }
                    2 => {
                        let key = lazy.reserve(at);
                        let tok = eager.schedule(at, step);
                        if rng.chance(0.5) {
                            waiting.push((key, step));
                        } else {
                            assert!(eager.cancel(tok));
                        }
                        keys.push(key);
                    }
                    3 => {
                        if !waiting.is_empty() {
                            let i = rng.next_below(waiting.len() as u64) as usize;
                            let (key, e) = waiting.swap_remove(i);
                            lazy.schedule_reserved(key, e);
                            late += 1;
                        }
                    }
                    _ => {
                        let limit = SimTime::from_nanos(now + rng.next_below(400_000));
                        // Queue every reservation the pop could pass.
                        waiting.retain(|&(key, e)| {
                            if key.time <= limit {
                                lazy.schedule_reserved(key, e);
                                late += 1;
                                return false;
                            }
                            true
                        });
                        let got = lazy.pop_at_or_before(limit);
                        assert_eq!(got, eager.pop_at_or_before(limit), "{be:?} step {step}");
                    }
                }
                assert_eq!(lazy.peek_time().is_some(), !lazy.is_empty());
                if waiting.is_empty() {
                    assert_eq!(lazy.peek_time(), eager.peek_time(), "{be:?} step {step}");
                    assert_eq!(lazy.len(), eager.len(), "{be:?} step {step}");
                }
                if let Some(&k) = rng.pick(&keys) {
                    assert_eq!(
                        lazy.is_pending(k),
                        eager.is_pending(k),
                        "{be:?} step {step}"
                    );
                }
            }
            for (key, e) in waiting.drain(..) {
                lazy.schedule_reserved(key, e);
            }
            while let Some(got) = eager.pop() {
                assert_eq!(lazy.pop(), Some(got), "{be:?}");
            }
            assert!(lazy.is_empty(), "{be:?}");
            assert!(late > 1_000, "{be:?}: only {late} late inserts");
            assert!(keys
                .iter()
                .all(|&k| lazy.is_pending(k) == eager.is_pending(k)));
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
