//! Randomized differential tests of [`EventQueue`].
//!
//! Two layers of checking:
//!
//! 1. **Spec model** — a sorted list in `(time, seq)` order with the
//!    documented sweep points (on `cancel` and after `pop`, the leading
//!    cancelled run is discarded). Every backend must agree with it on
//!    pop order and payload, `len`, `peek_time`, `is_empty`, and
//!    `cancel`'s return value (including stale tokens after slot
//!    reuse). `cancelled_backlog` is the one backend-dependent
//!    diagnostic: the spec mirrors the *heap*'s lazy disposal, so that
//!    assertion is pinned to the heap backend (the wheel removes
//!    cancelled entries eagerly everywhere but its overflow heap). The
//!    heap backend is the wheel with its calendar off, available under
//!    the dev-only `oracle` feature this crate's tests enable.
//!
//! 2. **Wheel-vs-heap differential** (≥100k ops) — the two backends
//!    run the same interleaved push/cancel/advance sequence, with time
//!    deltas spread across all three wheel levels, deliberate
//!    same-timestamp bursts, same-deadline inserts (re-scheduling at
//!    the exact deadline of a still-pending entry, so equal times
//!    arrive out of bucket order), and long idle gaps
//!    (drains far past the last pending entry, so the wheel's bulk
//!    level-hop advance crosses swaths of empty buckets), and must
//!    produce identical `(time, payload)` pop sequences and identical
//!    observables throughout.

use taichi_sim::{EventQueue, EventToken, QueueBackend, Rng, SimDuration, SimTime};

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Live,
    Cancelled,
}

/// Specification model: entries sorted by `(time, seq)`, never a
/// cancelled entry at the front (the sweep invariant).
struct SpecQueue {
    /// `(time, seq, payload, state)`, sorted ascending by `(time, seq)`.
    entries: Vec<(SimTime, u64, u64, State)>,
    next_seq: u64,
    now: SimTime,
}

impl SpecQueue {
    fn new() -> Self {
        SpecQueue {
            entries: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Returns the model-side id of the new entry (its seq).
    fn schedule(&mut self, time: SimTime, payload: u64) -> u64 {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self
            .entries
            .partition_point(|&(t, s, _, _)| (t, s) < (time, seq));
        self.entries.insert(at, (time, seq, payload, State::Live));
        seq
    }

    /// Cancels by model id; true iff the entry is still present and
    /// live (a stale or repeated cancel records nothing).
    fn cancel(&mut self, id: u64) -> bool {
        let Some(e) = self.entries.iter_mut().find(|e| e.1 == id) else {
            return false;
        };
        if e.3 == State::Cancelled {
            return false;
        }
        e.3 = State::Cancelled;
        self.sweep_front();
        true
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        // The front is live by the sweep invariant.
        if self.entries.is_empty() {
            return None;
        }
        let (time, _, payload, state) = self.entries.remove(0);
        assert!(state == State::Live, "sweep invariant violated in spec");
        self.now = time;
        self.sweep_front();
        Some((time, payload))
    }

    fn sweep_front(&mut self) {
        while let Some(&(_, _, _, state)) = self.entries.first() {
            if state == State::Live {
                break;
            }
            self.entries.remove(0);
        }
    }

    fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.3 == State::Live).count()
    }

    fn cancelled_backlog(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.3 == State::Cancelled)
            .count()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|e| e.0)
    }
}

fn check_invariants(q: &EventQueue<u64>, spec: &SpecQueue, step: usize) {
    assert_eq!(q.len(), spec.len(), "len diverged at step {step}");
    if q.backend() == QueueBackend::Heap {
        // The spec models the heap's lazy disposal; the wheel disposes
        // eagerly outside its overflow heap, so its backlog is smaller.
        assert_eq!(
            q.cancelled_backlog(),
            spec.cancelled_backlog(),
            "cancelled_backlog diverged at step {step}"
        );
    } else {
        assert!(
            q.cancelled_backlog() <= spec.cancelled_backlog(),
            "wheel backlog exceeded lazy-disposal bound at step {step}"
        );
    }
    assert_eq!(
        q.peek_time(),
        spec.peek_time(),
        "peek_time diverged at step {step}"
    );
    assert_eq!(
        q.is_empty(),
        spec.len() == 0,
        "is_empty diverged at step {step}"
    );
}

fn run_differential(backend: QueueBackend, seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    let mut spec = SpecQueue::new();
    // All tokens ever issued (live, fired, swept, recycled slots) —
    // cancelling old ones exercises generation staleness after reuse.
    let mut tokens: Vec<(EventToken, u64)> = Vec::new();
    let mut next_payload = 0u64;

    let mut recent_times: Vec<SimTime> = Vec::new();

    for step in 0..ops {
        match rng.next_below(4) {
            // Half the ops schedule, so the queue keeps growing and
            // slots recycle through the free list. A quarter of the
            // schedules reuse the exact deadline of a recent entry,
            // so FIFO order among equal times is exercised against
            // the spec model.
            0 | 1 => {
                let time = match recent_times.get(rng.next_below(4) as usize) {
                    Some(&t) if rng.next_below(4) == 0 && t >= q.now() => t,
                    _ => q.now() + SimDuration::from_nanos(rng.next_below(1_000)),
                };
                recent_times.push(time);
                if recent_times.len() > 16 {
                    recent_times.remove(0);
                }
                let payload = next_payload;
                next_payload += 1;
                let tok = q.schedule(time, payload);
                let id = spec.schedule(time, payload);
                tokens.push((tok, id));
            }
            2 if !tokens.is_empty() => {
                let i = rng.next_below(tokens.len() as u64) as usize;
                let (tok, id) = tokens[i];
                let a = q.cancel(tok);
                let b = spec.cancel(id);
                assert_eq!(a, b, "cancel return diverged at step {step}");
            }
            _ => {
                let a = q.pop();
                let b = spec.pop();
                assert_eq!(a, b, "pop diverged at step {step}");
            }
        }
        check_invariants(&q, &spec, step);
    }

    // Drain: the remaining pop order must match exactly.
    let mut drained = 0usize;
    loop {
        let a = q.pop();
        let b = spec.pop();
        assert_eq!(a, b, "pop diverged during drain after {drained} pops");
        if a.is_none() {
            break;
        }
        drained += 1;
        check_invariants(&q, &spec, ops + drained);
    }
    assert_eq!(
        q.cancelled_backlog(),
        0,
        "drained queue must be fully swept"
    );
}

#[test]
fn event_queue_matches_spec_over_random_ops() {
    // Both backends x 3 seeds x 12k ops (plus drains).
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
            run_differential(backend, seed, 12_000);
        }
    }
}

#[test]
fn event_queue_matches_spec_under_heavy_cancellation() {
    // Skew towards cancels: schedule bursts, then cancel most of them
    // before popping, hammering the sweep + slot-recycling paths.
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        let mut rng = Rng::new(0xCA7);
        let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
        let mut spec = SpecQueue::new();
        let mut step = 0usize;
        for _round in 0..200 {
            let mut batch = Vec::new();
            for _ in 0..32 {
                let dt = SimDuration::from_nanos(rng.next_below(500));
                let time = q.now() + dt;
                let payload = rng.next_u64();
                batch.push((q.schedule(time, payload), spec.schedule(time, payload)));
                step += 1;
                check_invariants(&q, &spec, step);
            }
            for (tok, id) in batch {
                if rng.next_below(4) != 0 {
                    assert_eq!(q.cancel(tok), spec.cancel(id), "cancel diverged");
                    step += 1;
                    check_invariants(&q, &spec, step);
                }
            }
            for _ in 0..8 {
                assert_eq!(q.pop(), spec.pop(), "pop diverged at step {step}");
                step += 1;
                check_invariants(&q, &spec, step);
            }
        }
    }
}

/// Cancel storm concentrated on the wheel's *overflow-heap* region,
/// where cancellation is lazy (a flag plus a top sweep, unlike the
/// eager unlink inside the wheel levels). The heavy-cancellation test
/// above never leaves the first wheel level — its 500 ns deltas sit
/// five orders of magnitude short of the ~33.5 ms level-1 horizon —
/// so the lazy path's bookkeeping (slot retirement at promotion and
/// top-sweep) went entirely unexercised by it.
///
/// Well over half of the scheduled deltas here land beyond the
/// horizon; most entries get cancelled while still buried in the
/// overflow heap; pops force promotions across the boundary. The spec
/// comparison in `check_invariants` bounds the wheel's cancelled
/// backlog by the lazy-disposal model at every step, and the full
/// drain must end with zero backlog on both backends — a leaked
/// overflow slot (a cancelled entry whose slot is never retired)
/// would hold the backlog nonzero at the end.
#[test]
fn overflow_cancel_storm_retires_every_slot() {
    const HORIZON_NS: u64 = 33_500_000; // just under the level-1 span
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        let mut rng = Rng::new(0x5702_0CA7);
        let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
        let mut spec = SpecQueue::new();
        let mut tokens: Vec<(EventToken, u64)> = Vec::new();
        let mut next_payload = 0u64;
        let (mut far, mut total) = (0u64, 0u64);
        let mut step = 0usize;

        for _round in 0..300 {
            for _ in 0..16 {
                total += 1;
                let dt = if rng.next_below(10) < 7 {
                    // Deep in the overflow region: 34 ms ..= 500 ms.
                    far += 1;
                    SimDuration::from_nanos(34_000_000 + rng.next_below(466_000_000))
                } else {
                    // Inside the wheel levels, crossing both spans.
                    SimDuration::from_nanos(rng.next_below(33_000_000))
                };
                let time = q.now() + dt;
                let payload = next_payload;
                next_payload += 1;
                tokens.push((q.schedule(time, payload), spec.schedule(time, payload)));
            }
            // The storm: cancel roughly 3/4 of everything outstanding,
            // including stale tokens of already-fired entries (their
            // cancel must report false on both sides).
            for &(tok, id) in &tokens {
                if rng.next_below(4) < 3 {
                    assert_eq!(
                        q.cancel(tok),
                        spec.cancel(id),
                        "cancel return diverged at step {step}"
                    );
                    step += 1;
                }
            }
            check_invariants(&q, &spec, step);
            // A few pops advance time across the horizon, forcing
            // overflow promotion through cancelled runs.
            for _ in 0..6 {
                assert_eq!(q.pop(), spec.pop(), "pop diverged at step {step}");
                step += 1;
                check_invariants(&q, &spec, step);
            }
            // Keep the stale-token pool bounded (oldest first out);
            // enough survivors remain to exercise generation checks.
            if tokens.len() > 4096 {
                let excess = tokens.len() - 4096;
                tokens.drain(..excess);
            }
        }
        assert!(
            far * 2 > total,
            "storm drifted: only {far}/{total} deltas beyond the horizon"
        );
        assert!(
            far > 0 && 34_000_000 > HORIZON_NS,
            "constants drifted: far deltas must start past the horizon"
        );

        // Full drain: pop order stays identical, and both backends end
        // with every cancelled slot retired.
        loop {
            let a = q.pop();
            let b = spec.pop();
            assert_eq!(a, b, "pop diverged during drain at step {step}");
            step += 1;
            if a.is_none() {
                break;
            }
            check_invariants(&q, &spec, step);
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(
            q.cancelled_backlog(),
            0,
            "{backend:?}: leaked cancelled slots after full drain"
        );
    }
}

/// Cold-start and sparse-occupancy differential for grow-on-demand
/// storage: a wheel born with a 2-slot slab and *no* materialized
/// bucket-head chunks must stay observably identical to the heap
/// reference through:
///
/// - cold-start scheduling straight into absent chunks (the first
///   link must materialize exactly the right chunk, not disturb pop
///   order);
/// - sparse occupancy — event clusters separated by whole 64-bucket
///   chunk ranges, so most chunks stay absent while level hops cross
///   them;
/// - stale-token cancels on both queues, reaching arbitrarily far
///   back across slot reuse.
#[test]
fn cold_start_sparse_occupancy_matches_prewarmed_and_heap() {
    let mut rng = Rng::new(0xC01D_57A7);
    // A tiny slab and lazy chunks: every link starts cold.
    let mut small: EventQueue<u64> = EventQueue::with_backend_and_slots(QueueBackend::Wheel, 2);
    // The ordering reference.
    let mut heap: EventQueue<u64> = EventQueue::with_backend_and_slots(QueueBackend::Heap, 2);
    let mut tokens: Vec<(EventToken, EventToken)> = Vec::new();
    let mut next_payload = 0u64;
    let mut pops = 0usize;

    for step in 0..40_000usize {
        match rng.next_below(8) {
            0..=3 => {
                // Sparse clusters: a tight 1 us burst, based either
                // near now (level 0), a few ms out (level 1), or far
                // out (overflow) — chunk ranges between clusters stay
                // untouched.
                let base = match rng.next_below(8) {
                    0..=4 => rng.next_below(4) * 200_000,
                    5 | 6 => 2_000_000 + rng.next_below(3) * 5_000_000,
                    _ => 200_000_000,
                };
                let t = small.now() + SimDuration::from_nanos(base + rng.next_below(1_000));
                let payload = next_payload;
                next_payload += 1;
                tokens.push((small.schedule(t, payload), heap.schedule(t, payload)));
            }
            4 if !tokens.is_empty() => {
                // Cancels reach arbitrarily far back: tokens whose
                // slots were recycled must report dead on the small
                // queue exactly when they do on the heap.
                let i = rng.next_below(tokens.len() as u64) as usize;
                let (st, ht) = tokens[i];
                let a = small.cancel(st);
                let c = heap.cancel(ht);
                assert_eq!(a, c, "small/heap cancel diverged at step {step}");
            }
            _ => {
                let a = small.pop();
                let c = heap.pop();
                assert_eq!(a, c, "small/heap pop diverged at step {step}");
                pops += usize::from(a.is_some());
            }
        }
        assert_eq!(small.len(), heap.len(), "len diverged at step {step}");
        assert_eq!(
            small.peek_time(),
            heap.peek_time(),
            "peek_time diverged at step {step}"
        );
    }

    // Full drain, then one more restart over the recycled slots.
    loop {
        let a = small.pop();
        let c = heap.pop();
        assert_eq!(a, c, "small/heap pop diverged during drain");
        if a.is_none() {
            break;
        }
        pops += 1;
    }
    assert!(pops > 5_000, "differential exercised too few pops: {pops}");
    // Scheduling again reuses the drained slots under bumped
    // generations.
    for i in 0..100u64 {
        let t = small.now() + SimDuration::from_nanos(1 + i * 7);
        tokens.push((small.schedule(t, i), heap.schedule(t, i)));
    }
    loop {
        let a = small.pop();
        let c = heap.pop();
        assert_eq!(a, c, "regrown small/heap pop diverged");
        if a.is_none() {
            break;
        }
    }
    // Every token ever issued is now dead on both queues.
    for (st, ht) in tokens {
        assert!(!small.cancel(st), "stale token revived on small queue");
        assert!(!heap.cancel(ht));
    }
}

/// Draws a time delta that lands across all three wheel levels:
/// mostly dense near-future (level 0), a healthy share of level-1
/// distances, and an occasional far-future overflow entry — plus
/// exact-zero deltas to force same-timestamp FIFO runs.
fn mixed_delta(rng: &mut Rng) -> SimDuration {
    match rng.next_below(16) {
        // Same-instant burst: exercises per-timestamp FIFO.
        0 => SimDuration::ZERO,
        // Dense near-future timers (level 0: < 131 us).
        1..=9 => SimDuration::from_nanos(rng.next_below(100_000)),
        // Mid-range (level 1: up to ~33 ms).
        10..=13 => SimDuration::from_nanos(rng.next_below(30_000_000)),
        // Far future (overflow heap: up to 2 s).
        _ => SimDuration::from_nanos(rng.next_below(2_000_000_000)),
    }
}

/// ≥100k-op wheel-vs-heap differential: identical `(time, payload)`
/// pop sequences under interleaved push/cancel/advance, including
/// same-timestamp FIFO and limited pops across long idle gaps.
#[test]
fn wheel_and_heap_pop_identical_sequences() {
    const OPS: usize = 120_000;
    let mut rng = Rng::new(0xD1FF_5EED);
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
    let mut tokens: Vec<(EventToken, EventToken)> = Vec::new();
    let mut next_payload = 0u64;
    let mut pops = 0usize;

    let mut recent_times: Vec<SimTime> = Vec::new();

    for step in 0..OPS {
        match rng.next_below(8) {
            0..=3 => {
                // Same-timestamp runs matter most: occasionally push a
                // small burst at one instant, or re-land on the exact
                // deadline of a recent pending entry: both backends
                // must pop equal times in schedule order.
                let burst = if rng.next_below(8) == 0 { 4 } else { 1 };
                let time = match recent_times.get(rng.next_below(8) as usize) {
                    Some(&t) if rng.next_below(3) == 0 && t >= wheel.now() => t,
                    _ => wheel.now() + mixed_delta(&mut rng),
                };
                recent_times.push(time);
                if recent_times.len() > 32 {
                    recent_times.remove(0);
                }
                for _ in 0..burst {
                    let payload = next_payload;
                    next_payload += 1;
                    tokens.push((wheel.schedule(time, payload), heap.schedule(time, payload)));
                }
            }
            4 if !tokens.is_empty() => {
                let i = rng.next_below(tokens.len() as u64) as usize;
                let (wt, ht) = tokens[i];
                assert_eq!(
                    wheel.cancel(wt),
                    heap.cancel(ht),
                    "cancel return diverged at step {step}"
                );
            }
            5 => {
                // Limited pop: both backends must agree on whether the
                // front fires by `limit`, and on what it is. One pop in
                // four reaches seconds ahead — a long idle gap that
                // forces the wheel's bulk advance to hop level-1
                // stretches (and whole wheel spans) without touching
                // the per-slot cursor.
                let reach = if rng.next_below(4) == 0 {
                    3_000_000_000 // idle-gap skip: far past most entries
                } else {
                    40_000_000
                };
                let limit = wheel.now() + SimDuration::from_nanos(rng.next_below(reach));
                let a = wheel.pop_at_or_before(limit);
                let b = heap.pop_at_or_before(limit);
                assert_eq!(a, b, "limited pop diverged at step {step}");
                pops += usize::from(a.is_some());
            }
            _ => {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "pop diverged at step {step}");
                pops += usize::from(a.is_some());
            }
        }
        assert_eq!(wheel.len(), heap.len(), "len diverged at step {step}");
        assert_eq!(
            wheel.peek_time(),
            heap.peek_time(),
            "peek_time diverged at step {step}"
        );
        assert_eq!(wheel.now(), heap.now(), "now diverged at step {step}");
    }

    // Drain both queues completely; tails must match too.
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "pop diverged during final drain");
        if a.is_none() {
            break;
        }
        pops += 1;
    }
    assert!(wheel.is_empty() && heap.is_empty());
    assert!(pops > 10_000, "differential exercised too few pops: {pops}");
}
