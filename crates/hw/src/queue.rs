//! Emulated-NIC receive queues (descriptor rings).
//!
//! The accelerator deposits preprocessed packets into a bounded ring in
//! memory shared with the data-plane service; the service drains it in
//! bursts (`rte_eth_rx_burst`-style). Overflow drops are counted — the
//! evaluation uses the drop counter to verify that no mode under test
//! sheds load instead of absorbing it.
//!
//! Like a real NIC's rx ring, the ring holds small fixed-size
//! descriptors, not whole packet records: an [`RxSlot`] is 40 bytes
//! against [`Packet`]'s 64, because a queued packet has no completion
//! time yet and its delivery time fits a flag plus a bare instant. The
//! same descriptor carries a packet through the accelerator pipeline,
//! so delivery hands it to the ring as it is.

use crate::cpu::CpuId;
use crate::packet::{IoKind, Packet, PacketId, TenantId};
use taichi_sim::{Counter, SimTime};

use std::collections::VecDeque;

/// One queued descriptor: every [`Packet`] field except
/// `completed_at`, which no queued packet has. `delivered_at` is split
/// into a presence flag (in the byte the other narrow fields leave
/// spare) and an instant that is meaningful only when the flag is set,
/// so `None` is not confused with any real time.
#[derive(Clone, Copy, Debug)]
pub struct RxSlot {
    id: PacketId,
    submitted_at: SimTime,
    delivered_at: SimTime,
    size_bytes: u32,
    dest_cpu: CpuId,
    tenant: TenantId,
    dest_queue: u16,
    kind: IoKind,
    delivered: bool,
}

const _: () = assert!(std::mem::size_of::<RxSlot>() == 40);

impl RxSlot {
    /// Packs a packet that has not completed yet.
    ///
    /// # Panics
    ///
    /// Panics if the packet already has `completed_at` set: the
    /// descriptor has no room for a completion time, so the stamp
    /// would be lost.
    #[inline]
    pub fn pack(p: Packet) -> Self {
        assert!(
            p.completed_at.is_none(),
            "rx ring cannot queue completed packet {:?}",
            p.id
        );
        RxSlot {
            id: p.id,
            submitted_at: p.submitted_at,
            delivered_at: p.delivered_at.unwrap_or(SimTime::ZERO),
            size_bytes: p.size_bytes,
            dest_cpu: p.dest_cpu,
            tenant: p.tenant,
            dest_queue: p.dest_queue,
            kind: p.kind,
            delivered: p.delivered_at.is_some(),
        }
    }

    /// The packet's identifier.
    #[inline]
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// The CPU whose ring the packet is bound for.
    #[inline]
    pub fn dest_cpu(&self) -> CpuId {
        self.dest_cpu
    }

    /// The tenant that owns the packet.
    #[inline]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Rebuilds the packet exactly as it was packed.
    #[inline]
    pub fn unpack(self) -> Packet {
        Packet {
            id: self.id,
            kind: self.kind,
            size_bytes: self.size_bytes,
            dest_cpu: self.dest_cpu,
            dest_queue: self.dest_queue,
            tenant: self.tenant,
            submitted_at: self.submitted_at,
            delivered_at: self.delivered.then_some(self.delivered_at),
            completed_at: None,
        }
    }
}

/// A bounded receive descriptor ring.
#[derive(Clone, Debug)]
pub struct RxQueue {
    ring: VecDeque<RxSlot>,
    capacity: usize,
    enqueued: Counter,
    dequeued: Counter,
    dropped: Counter,
    rejected: Counter,
    high_watermark: usize,
}

impl RxQueue {
    /// Creates a ring with the given descriptor count.
    ///
    /// The descriptor-count bound is `capacity`, but the backing store
    /// grows on demand to the occupancy the workload actually reaches:
    /// `push` checks the logical length, so drop/reject accounting
    /// does not depend on the reservation, and a mostly-idle machine's
    /// rings hold a handful of descriptors, not 1024.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rx ring needs at least one descriptor");
        RxQueue {
            ring: VecDeque::new(),
            capacity,
            enqueued: Counter::new(),
            dequeued: Counter::new(),
            dropped: Counter::new(),
            rejected: Counter::new(),
            high_watermark: 0,
        }
    }

    /// Refuses one descriptor on injected backpressure (counts a fault
    /// reject). The machine draws the eNIC reject fault before offering
    /// the packet to [`RxQueue::push`] and calls this instead when it
    /// fires.
    ///
    /// The two loss causes are kept in separate counters: a fault
    /// reject is already attributed to the injector's `enic_rejects`
    /// stat, and folding it into the overflow counter double-charged it
    /// against the service-level drop metric the evaluation uses to
    /// check that no mode sheds load.
    pub fn reject(&mut self) {
        self.rejected.inc();
    }

    /// Deposits a packet; returns `false` when the ring is full (counts
    /// an overflow drop).
    ///
    /// # Panics
    ///
    /// Panics if the packet already has `completed_at` set: a ring
    /// queues work the service has yet to do (see [`RxSlot::pack`]).
    #[inline]
    pub fn push(&mut self, packet: Packet) -> bool {
        self.push_slot(RxSlot::pack(packet))
    }

    /// [`RxQueue::push`] for a packet already packed into its
    /// descriptor.
    #[inline]
    pub fn push_slot(&mut self, slot: RxSlot) -> bool {
        if self.ring.len() >= self.capacity {
            self.dropped.inc();
            return false;
        }
        self.ring.push_back(slot);
        self.high_watermark = self.high_watermark.max(self.ring.len());
        self.enqueued.inc();
        true
    }

    /// Dequeues the packet at the head of the ring, if any, rebuilt
    /// field for field as it was pushed. A burst drain pops packets
    /// one at a time, so it never allocates.
    #[inline]
    pub fn pop(&mut self) -> Option<Packet> {
        let slot = self.ring.pop_front()?;
        self.dequeued.inc();
        Some(slot.unpack())
    }

    /// Payload size of the packet at the head of the ring, if any —
    /// what a deficit-round-robin arbiter needs to decide whether the
    /// tenant's credit covers its next packet without popping it.
    #[inline]
    pub(crate) fn head_size(&self) -> Option<u32> {
        self.ring.front().map(|s| s.size_bytes)
    }

    /// Packets currently waiting.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no packets are waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity in descriptors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total packets ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued.get()
    }

    /// Total packets ever dequeued.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued.get()
    }

    /// Packets dropped on overflow (genuine load shedding).
    pub fn total_dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Packets rejected by injected descriptor backpressure faults.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Every packet this ring refused, for conservation accounting:
    /// overflow drops plus fault rejects.
    pub fn total_lost(&self) -> u64 {
        self.dropped.get() + self.rejected.get()
    }

    /// Deepest occupancy ever observed.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Resident bytes of the ring's backing storage (40 bytes per
    /// reserved descriptor).
    pub fn resident_bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<RxSlot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64) -> Packet {
        Packet::new(
            PacketId(id),
            IoKind::Network,
            64,
            CpuId(0),
            0,
            SimTime::ZERO,
        )
    }

    /// Pops up to `n` packets' ids in FIFO order.
    fn pop_ids(q: &mut RxQueue, n: usize) -> Vec<u64> {
        (0..n).map_while(|_| q.pop()).map(|p| p.id.0).collect()
    }

    #[test]
    fn fifo_order() {
        let mut q = RxQueue::new(8);
        for i in 0..5 {
            assert!(q.push(pkt(i)));
        }
        assert_eq!(pop_ids(&mut q, 3), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut q = RxQueue::new(2);
        assert!(q.push(pkt(0)));
        assert!(q.push(pkt(1)));
        assert!(!q.push(pkt(2)));
        assert_eq!(q.total_dropped(), 1);
        assert_eq!(q.total_enqueued(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn burst_larger_than_queue_drains_all() {
        let mut q = RxQueue::new(8);
        q.push(pkt(0));
        q.push(pkt(1));
        assert_eq!(pop_ids(&mut q, 32).len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.total_dequeued(), 2);
    }

    #[test]
    fn empty_burst_is_empty() {
        let mut q = RxQueue::new(4);
        assert!(q.pop().is_none());
        assert_eq!(q.total_dequeued(), 0);
    }

    #[test]
    fn high_watermark_tracks_peak() {
        let mut q = RxQueue::new(10);
        for i in 0..7 {
            q.push(pkt(i));
        }
        pop_ids(&mut q, 5);
        q.push(pkt(100));
        assert_eq!(q.high_watermark(), 7);
        assert_eq!(q.capacity(), 10);
    }

    #[test]
    fn pop_rebuilds_the_pushed_packet_exactly() {
        let undelivered = Packet::new(
            PacketId(u64::MAX),
            IoKind::Storage,
            u32::MAX,
            CpuId(u32::MAX),
            u16::MAX,
            SimTime::from_nanos(u64::MAX),
        )
        .with_tenant(TenantId(u32::MAX));
        // Delivered at time zero: the flag, not the instant, marks it.
        let mut at_zero = pkt(1);
        at_zero.delivered_at = Some(SimTime::ZERO);
        let mut late = pkt(2).with_tenant(TenantId(3));
        late.dest_queue = 1;
        late.submitted_at = SimTime::from_nanos(1_234);
        late.delivered_at = Some(SimTime::from_nanos(u64::MAX));
        let packets = [undelivered, at_zero, late, pkt(0)];
        let mut q = RxQueue::new(8);
        for p in packets {
            assert!(q.push(p));
        }
        for p in packets {
            assert_eq!(q.pop(), Some(p));
        }
    }

    #[test]
    #[should_panic(expected = "cannot queue completed packet")]
    fn pushing_a_completed_packet_panics() {
        let mut p = pkt(0);
        p.completed_at = Some(SimTime::from_nanos(5));
        RxQueue::new(4).push(p);
    }

    #[test]
    fn full_ring_holds_40_byte_descriptors() {
        let mut q = RxQueue::new(1024);
        for i in 0..1024 {
            assert!(q.push(pkt(i)));
        }
        assert!(!q.push(pkt(1024)));
        assert!(
            q.resident_bytes() <= 40 * 1024,
            "{} B for 1024 descriptors",
            q.resident_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "at least one descriptor")]
    fn zero_capacity_panics() {
        RxQueue::new(0);
    }
}
