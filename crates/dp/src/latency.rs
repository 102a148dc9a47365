//! Latency and throughput recording for data-plane work.

use taichi_hw::Packet;
use taichi_sim::{Histogram, SimDuration, SimTime};

/// Records per-stage latencies and throughput for one service or one
/// benchmark run.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    total: Histogram,
    software: Histogram,
    packets: u64,
    bytes: u64,
    first_completion: Option<SimTime>,
    last_completion: Option<SimTime>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub const fn new() -> Self {
        LatencyRecorder {
            total: Histogram::new(),
            software: Histogram::new(),
            packets: 0,
            bytes: 0,
            first_completion: None,
            last_completion: None,
        }
    }

    /// Records a completed packet (all stage timestamps stamped).
    pub fn record(&mut self, packet: &Packet) {
        let Some(total) = packet.total_latency() else {
            return;
        };
        self.total.record(total.as_nanos());
        if let Some(sw) = packet.software_latency() {
            self.software.record(sw.as_nanos());
        }
        self.packets += 1;
        self.bytes += packet.size_bytes as u64;
        let done = packet
            .completed_at
            .expect("total_latency implies completed");
        if self.first_completion.is_none() {
            self.first_completion = Some(done);
        }
        self.last_completion = Some(done);
    }

    /// Merges another recorder into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.total.merge(&other.total);
        self.software.merge(&other.software);
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.first_completion = match (self.first_completion, other.first_completion) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_completion = match (self.last_completion, other.last_completion) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Clears every record while keeping the histograms' bucket
    /// capacity. Observably identical to a fresh recorder — the basis
    /// of the allocation-free epoch drain ([`LatencyRecorder::drain_into`]).
    pub fn reset(&mut self) {
        self.total.reset();
        self.software.reset();
        self.packets = 0;
        self.bytes = 0;
        self.first_completion = None;
        self.last_completion = None;
    }

    /// Merges this recorder's records into `dest` and clears this one
    /// in place. Equivalent to `dest.merge(&take(self))` but without
    /// surrendering the histograms' bucket capacity, so an epoch drain
    /// performed every epoch on every machine allocates nothing once
    /// the buckets reach their working set.
    pub fn drain_into(&mut self, dest: &mut LatencyRecorder) {
        dest.merge(self);
        self.reset();
    }

    /// Heap bytes held by the two histograms' buckets.
    pub fn resident_bytes(&self) -> usize {
        self.total.resident_bytes() + self.software.resident_bytes()
    }

    /// End-to-end latency histogram.
    pub fn total_latency(&self) -> &Histogram {
        &self.total
    }

    /// Software-stage (queue wait + processing) latency histogram.
    pub fn software_latency(&self) -> &Histogram {
        &self.software
    }

    /// Completed packet count.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Completed payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean packets per second over a measurement window.
    pub fn pps(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.packets as f64 / window.as_secs_f64()
    }

    /// Mean payload bandwidth in Gb/s over a measurement window.
    pub fn gbps(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / window.as_secs_f64() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taichi_hw::{CpuId, IoKind, PacketId};

    fn done_packet(id: u64, submit_us: u64, complete_us: u64) -> Packet {
        let mut p = Packet::new(
            PacketId(id),
            IoKind::Network,
            1000,
            CpuId(0),
            0,
            SimTime::from_micros(submit_us),
        );
        p.delivered_at = Some(SimTime::from_micros(submit_us + 3));
        p.completed_at = Some(SimTime::from_micros(complete_us));
        p
    }

    #[test]
    fn records_all_stages() {
        let mut r = LatencyRecorder::new();
        r.record(&done_packet(1, 10, 20));
        assert_eq!(r.packets(), 1);
        assert_eq!(r.bytes(), 1000);
        assert_eq!(r.total_latency().mean(), 10_000.0);
        assert_eq!(r.software_latency().mean(), 7_000.0);
    }

    #[test]
    fn incomplete_packet_ignored() {
        let mut r = LatencyRecorder::new();
        let p = Packet::new(PacketId(1), IoKind::Storage, 64, CpuId(0), 0, SimTime::ZERO);
        r.record(&p);
        assert_eq!(r.packets(), 0);
    }

    #[test]
    fn throughput_math() {
        let mut r = LatencyRecorder::new();
        for i in 0..1000 {
            r.record(&done_packet(i, i, i + 5));
        }
        let window = SimDuration::from_millis(1);
        assert!((r.pps(window) - 1_000_000.0).abs() < 1.0);
        // 1000 packets * 1000 B * 8 bits / 1 ms = 8 Gb/s.
        assert!((r.gbps(window) - 8.0).abs() < 0.01);
        assert_eq!(r.pps(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(&done_packet(1, 0, 10));
        b.record(&done_packet(2, 5, 25));
        a.merge(&b);
        assert_eq!(a.packets(), 2);
        assert_eq!(a.bytes(), 2000);
        assert_eq!(a.total_latency().count(), 2);
    }
}
