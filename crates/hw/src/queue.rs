//! Emulated-NIC receive queues (descriptor rings).
//!
//! The accelerator deposits preprocessed packets into a bounded ring in
//! memory shared with the data-plane service; the service drains it in
//! bursts (`rte_eth_rx_burst`-style). Overflow drops are counted — the
//! evaluation uses the drop counter to verify that no mode under test
//! sheds load instead of absorbing it.

use crate::packet::Packet;
use taichi_sim::{Counter, FaultInjector};

use std::collections::VecDeque;

/// A bounded receive descriptor ring.
#[derive(Clone, Debug)]
pub struct RxQueue {
    ring: VecDeque<Packet>,
    capacity: usize,
    enqueued: Counter,
    dequeued: Counter,
    dropped: Counter,
    rejected: Counter,
    high_watermark: usize,
    fault: Option<FaultInjector>,
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
            fault: None,
        }
    }

    /// Attaches a fault injector (descriptor-reject backpressure).
    pub fn set_fault(&mut self, fault: FaultInjector) {
        self.fault = Some(fault);
    }

    /// Deposits a packet; returns `false` when the ring is full (counts
    /// an overflow drop) or the injected backpressure fault rejects the
    /// descriptor (counts a fault reject).
    ///
    /// The two loss causes are kept in separate counters: a fault
    /// reject is already attributed to the injector's `enic_rejects`
    /// stat, and folding it into the overflow counter double-charged it
    /// against the service-level drop metric the evaluation uses to
    /// check that no mode sheds load.
    #[inline]
    pub fn push(&mut self, packet: Packet) -> bool {
        if let Some(f) = &self.fault {
            if f.enic_reject(packet.dest_cpu.0) {
                self.rejected.inc();
                return false;
            }
        }
        if self.ring.len() >= self.capacity {
            self.dropped.inc();
            return false;
        }
        self.ring.push_back(packet);
        self.high_watermark = self.high_watermark.max(self.ring.len());
        self.enqueued.inc();
        true
    }

    /// Dequeues the packet at the head of the ring, if any.
    ///
    /// The allocation-free sibling of [`rx_burst`](Self::rx_burst):
    /// burst drains on the simulator's hot path pop packets one at a
    /// time instead of collecting them into a fresh `Vec`.
    #[inline]
    pub fn pop(&mut self) -> Option<Packet> {
        let p = self.ring.pop_front()?;
        self.dequeued.inc();
        Some(p)
    }

    /// Drains up to `burst` packets in FIFO order.
    pub fn rx_burst(&mut self, burst: usize) -> Vec<Packet> {
        let n = burst.min(self.ring.len());
        let out: Vec<Packet> = self.ring.drain(..n).collect();
        self.dequeued.add(out.len() as u64);
        out
    }

    /// Payload size of the packet at the head of the ring, if any —
    /// what a deficit-round-robin arbiter needs to decide whether the
    /// tenant's credit covers its next packet without popping it.
    #[inline]
    pub fn head_size(&self) -> Option<u32> {
        self.ring.front().map(|p| p.size_bytes)
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

    /// Resident bytes of the ring's backing storage.
    pub fn resident_bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuId;
    use crate::packet::{IoKind, PacketId};
    use taichi_sim::SimTime;

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

    #[test]
    fn fifo_order() {
        let mut q = RxQueue::new(8);
        for i in 0..5 {
            assert!(q.push(pkt(i)));
        }
        let burst = q.rx_burst(3);
        let ids: Vec<u64> = burst.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
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
        let burst = q.rx_burst(32);
        assert_eq!(burst.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.total_dequeued(), 2);
    }

    #[test]
    fn empty_burst_is_empty() {
        let mut q = RxQueue::new(4);
        assert!(q.rx_burst(16).is_empty());
    }

    #[test]
    fn high_watermark_tracks_peak() {
        let mut q = RxQueue::new(10);
        for i in 0..7 {
            q.push(pkt(i));
        }
        q.rx_burst(5);
        q.push(pkt(100));
        assert_eq!(q.high_watermark(), 7);
        assert_eq!(q.capacity(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one descriptor")]
    fn zero_capacity_panics() {
        RxQueue::new(0);
    }
}
