//! The programmable I/O accelerator pipeline.
//!
//! Models the Fig. 6 data path: the device driver submits an I/O request
//! (①); the accelerator preprocesses it for 2.7 µs (②) — moving the
//! payload into an internal buffer and processing headers — then
//! transfers the result into the memory shared with the data-plane
//! service in 0.5 µs (③). Stages ② and ③ form the 3.2 µs window that
//! Tai Chi's hardware workload probe uses to hide the 2 µs vCPU switch.
//!
//! The pipeline is modelled per hardware channel: packets on one channel
//! serialize at the channel's issue rate (line-rate bound), while their
//! preprocessing latencies overlap — matching a deeply pipelined ASIC.

use crate::cpu::CpuId;
use crate::packet::Packet;
use crate::probe::HwWorkloadProbe;
use crate::queue::RxQueue;
use taichi_sim::{round_u64, vec_bytes, Counter, SimDuration, SimTime};

/// Latency of stage ② (header/payload preprocessing). Paper: 2.7 µs.
pub const PREPROCESS: SimDuration = SimDuration::from_nanos(2_700);
/// Latency of stage ③ (transfer to shared memory). Paper: 0.5 µs.
pub const TRANSFER: SimDuration = SimDuration::from_nanos(500);
/// The full preprocessing window (② + ③) the probe can hide
/// scheduling latency inside.
pub const WINDOW: SimDuration =
    SimDuration::from_nanos(PREPROCESS.as_nanos() + TRANSFER.as_nanos());
/// Minimum gap between packet issues on one channel (pipeline
/// initiation interval). 40 ns ≈ 300 Mpps aggregate on 12 channels,
/// far above anything the evaluation drives.
const ISSUE_GAP: SimDuration = SimDuration::from_nanos(40);

/// Line-rate and channel configuration for the accelerator.
#[derive(Clone, Debug)]
pub struct AcceleratorConfig {
    /// Additional serialization per payload byte (line-rate bound);
    /// 0.04 ns/B ≈ 200 Gb/s.
    pub ns_per_byte: f64,
    /// Number of independent hardware channels (typically one per DP
    /// CPU's queue group).
    pub channels: u32,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            ns_per_byte: 0.04,
            channels: 12,
        }
    }
}

/// Result of ingesting one packet into the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineOutput {
    /// Whether the hardware probe raised an IRQ towards the destination
    /// CPU (it was in V-state) — raised at `irq_at`, i.e. the *start* of
    /// preprocessing, before the packet is visible to software.
    pub probe_irq: Option<CpuId>,
    /// When the probe IRQ fires (= preprocessing start).
    pub irq_at: SimTime,
    /// When stage ② completes.
    pub preprocess_done: SimTime,
    /// When stage ③ completes and the packet is visible to the DP
    /// service's poll loop.
    pub delivered_at: SimTime,
}

/// Per-tenant eNIC ingress: bounded rx rings in front of the shared
/// accelerator ingest port, drained in deficit-round-robin order
/// (DESIGN.md §3.11).
///
/// The arbiter models the one resource N tenants genuinely share
/// *before* the per-channel pipelines: the eNIC→accelerator link.
/// Each issued packet occupies the port for its wire time
/// (`max(size × ns_per_byte, ISSUE_GAP)` — 200 Gb/s line rate), so a
/// tenant bursting to line rate backlogs every ring, and the DRR
/// credits decide whose head-of-line packet enters the pipeline next.
///
/// Classic DRR (Shreedhar & Varghese): when the round-robin cursor
/// *arrives* at a backlogged ring, the tenant's deficit grows by
/// `quantum × weight` bytes; the ring is then served while the deficit
/// covers its head-of-line packet. A ring that empties forfeits its
/// remaining credit — idle tenants cannot bank bandwidth, which is
/// what makes the discipline work-conserving.
#[derive(Clone, Debug)]
struct DrrArbiter {
    rings: Vec<RxQueue>,
    weights: Vec<u64>,
    deficit: Vec<u64>,
    /// Bytes of credit granted per weight unit per round visit.
    quantum: u64,
    cursor: usize,
    /// True when the cursor has just moved to `rings[cursor]` and the
    /// round-visit credit has not been granted yet.
    fresh_visit: bool,
    /// When the shared ingest port frees up.
    port_free: SimTime,
    issued_pkts: Vec<u64>,
    issued_bytes: Vec<u64>,
}

impl DrrArbiter {
    fn new(weights: &[u64], quantum: u64, ring_capacity: usize) -> Self {
        assert!(!weights.is_empty(), "arbiter needs at least one tenant");
        assert!(
            weights.iter().all(|&w| w > 0),
            "tenant weights must be positive"
        );
        assert!(quantum > 0, "DRR quantum must be positive");
        let n = weights.len();
        DrrArbiter {
            rings: (0..n).map(|_| RxQueue::new(ring_capacity)).collect(),
            weights: weights.to_vec(),
            deficit: vec![0; n],
            quantum,
            cursor: 0,
            fresh_visit: true,
            port_free: SimTime::ZERO,
            issued_pkts: vec![0; n],
            issued_bytes: vec![0; n],
        }
    }

    #[inline]
    fn backlog(&self) -> usize {
        self.rings.iter().map(|q| q.len()).sum()
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.rings.len();
        self.fresh_visit = true;
    }

    /// Pops the next packet in DRR order. Terminates because every full
    /// cycle grants at least `quantum` bytes to each backlogged ring.
    fn pop_next(&mut self) -> Option<Packet> {
        if self.backlog() == 0 {
            return None;
        }
        loop {
            let i = self.cursor;
            if self.rings[i].is_empty() {
                self.deficit[i] = 0;
                self.advance();
                continue;
            }
            if self.fresh_visit {
                self.deficit[i] = self.deficit[i].saturating_add(self.quantum * self.weights[i]);
                self.fresh_visit = false;
            }
            let head = u64::from(self.rings[i].head_size().expect("ring is non-empty"));
            if self.deficit[i] >= head {
                self.deficit[i] -= head;
                let p = self.rings[i].pop().expect("ring is non-empty");
                self.issued_pkts[i] += 1;
                self.issued_bytes[i] += head;
                if self.rings[i].is_empty() {
                    // Forfeit leftover credit: no banking while idle.
                    self.deficit[i] = 0;
                    self.advance();
                }
                return Some(p);
            }
            self.advance();
        }
    }
}

/// The accelerator pipeline state.
#[derive(Clone, Debug)]
pub struct Accelerator {
    config: AcceleratorConfig,
    /// Per-channel earliest next issue time.
    channel_free: Vec<SimTime>,
    ingested: Counter,
    /// Stall the next ingest pays before its pipeline entry (see
    /// [`Accelerator::stall_next`]).
    pending_stall: SimDuration,
    /// Multi-tenant ingress arbiter; `None` in the single-tenant
    /// configuration, where packets enter the pipeline directly and the
    /// engine is byte-identical to the pre-tenant code path.
    arbiter: Option<DrrArbiter>,
}

impl Accelerator {
    /// Creates an idle accelerator.
    ///
    /// Panics on a nonsensical timing config: a NaN or negative
    /// `ns_per_byte` would silently serialize every payload in zero
    /// time (`f64 as u64` saturates), and zero channels has no issue
    /// slot to serialize on.
    pub fn new(config: AcceleratorConfig) -> Self {
        assert!(
            config.ns_per_byte.is_finite() && config.ns_per_byte >= 0.0,
            "accelerator ns_per_byte must be finite and non-negative, got {}",
            config.ns_per_byte
        );
        assert!(
            config.channels > 0,
            "accelerator needs at least one hardware channel"
        );
        let channels = config.channels as usize;
        Accelerator {
            config,
            channel_free: vec![SimTime::ZERO; channels],
            ingested: Counter::new(),
            pending_stall: SimDuration::ZERO,
            arbiter: None,
        }
    }

    /// Stalls the pipeline stage for the next ingested packet: its
    /// entry is delayed by `stall`, which also pushes back its
    /// channel's next issue slot, so a stall propagates as
    /// backpressure, exactly like a real ASIC hiccup.
    pub fn stall_next(&mut self, stall: SimDuration) {
        self.pending_stall = stall;
    }

    /// Ingests `packet` at `now`, consulting (and counting on) the
    /// hardware probe before preprocessing begins.
    ///
    /// Stamps `delivered_at` on the packet and returns the stage times
    /// (stage ② ends at `preprocess_done`) plus any probe IRQ. The
    /// channel is chosen by the packet's destination CPU so one DP
    /// CPU's traffic is serialized.
    pub fn ingest(
        &mut self,
        packet: &mut Packet,
        now: SimTime,
        probe: &mut HwWorkloadProbe,
    ) -> PipelineOutput {
        let ch = packet.dest_cpu.index() % self.channel_free.len();
        let start = now.max(self.channel_free[ch]) + std::mem::take(&mut self.pending_stall);

        // Probe check happens before stage ② begins (Fig. 10).
        let probe_irq = if probe.check_on_packet(packet.dest_cpu) {
            Some(packet.dest_cpu)
        } else {
            None
        };

        let serialize = SimDuration::from_nanos(round_u64(
            packet.size_bytes as f64 * self.config.ns_per_byte,
        ))
        .max(ISSUE_GAP);
        self.channel_free[ch] = start + serialize;

        let preprocess_done = start + PREPROCESS;
        let delivered_at = preprocess_done + TRANSFER;
        packet.delivered_at = Some(delivered_at);

        self.ingested.inc();

        PipelineOutput {
            probe_irq,
            irq_at: start,
            preprocess_done,
            delivered_at,
        }
    }

    /// Switches the ingress to multi-tenant mode: one bounded eNIC rx
    /// ring per tenant, drained by a weighted deficit-round-robin
    /// arbiter in front of the shared ingest port.
    ///
    /// `weights[i]` scales tenant *i*'s per-round byte credit;
    /// `quantum` is the base credit in bytes (one MTU is the classic
    /// choice); `ring_capacity` bounds each tenant's staging ring
    /// (overflow packets are dropped and counted against that tenant).
    pub fn enable_tenants(&mut self, weights: &[u64], quantum: u64, ring_capacity: usize) {
        self.arbiter = Some(DrrArbiter::new(weights, quantum, ring_capacity));
    }

    /// True when the multi-tenant ingress arbiter is active.
    pub fn multi_tenant(&self) -> bool {
        self.arbiter.is_some()
    }

    /// Number of tenants the arbiter was configured with (1 when the
    /// arbiter is disabled).
    pub fn tenant_count(&self) -> usize {
        self.arbiter.as_ref().map_or(1, |a| a.rings.len())
    }

    /// Stages a packet on its tenant's rx ring; returns `false` (and
    /// counts a per-tenant drop) when the ring is full. Only valid in
    /// multi-tenant mode.
    pub fn stage(&mut self, packet: Packet) -> bool {
        let a = self
            .arbiter
            .as_mut()
            .expect("stage() needs enable_tenants()");
        let i = packet.tenant.index() % a.rings.len();
        a.rings[i].push(packet)
    }

    /// Packets currently waiting across all tenant rings.
    pub fn staged(&self) -> u64 {
        self.arbiter.as_ref().map_or(0, |a| a.backlog() as u64)
    }

    /// Packets dropped on tenant-ring overflow, summed over tenants.
    pub fn staged_dropped(&self) -> u64 {
        self.arbiter
            .as_ref()
            .map_or(0, |a| a.rings.iter().map(|q| q.total_lost()).sum())
    }

    /// Deepest occupancy ever observed across the tenant staging rings
    /// (0 when single-tenant).
    pub fn staged_high_watermark(&self) -> usize {
        self.arbiter.as_ref().map_or(0, |a| {
            a.rings
                .iter()
                .map(|q| q.high_watermark())
                .max()
                .unwrap_or(0)
        })
    }

    /// Heap bytes the accelerator holds: the channel table, and with
    /// several tenants the arbiter's tables and staging rings' backing
    /// stores.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.channel_free)
            + self.arbiter.as_ref().map_or(0, |a| {
                vec_bytes(&a.rings)
                    + vec_bytes(&a.weights)
                    + vec_bytes(&a.deficit)
                    + vec_bytes(&a.issued_pkts)
                    + vec_bytes(&a.issued_bytes)
                    + a.rings.iter().map(RxQueue::resident_bytes).sum::<usize>()
            })
    }

    /// When the shared ingest port next frees up — the earliest time
    /// `issue_next` can do useful work.
    pub fn port_free(&self) -> SimTime {
        self.arbiter.as_ref().map_or(SimTime::ZERO, |a| a.port_free)
    }

    /// Issues the next staged packet (DRR order) into the pipeline at
    /// `now`, occupying the shared ingest port for the packet's wire
    /// time. Returns the packet plus its pipeline schedule, or `None`
    /// when every tenant ring is empty.
    pub fn issue_next(
        &mut self,
        now: SimTime,
        probe: &mut HwWorkloadProbe,
    ) -> Option<(Packet, PipelineOutput)> {
        let a = self.arbiter.as_mut()?;
        let mut packet = a.pop_next()?;
        let wire = SimDuration::from_nanos(round_u64(
            packet.size_bytes as f64 * self.config.ns_per_byte,
        ))
        .max(ISSUE_GAP);
        self.arbiter.as_mut().expect("checked above").port_free = now + wire;
        let out = self.ingest(&mut packet, now, probe);
        Some((packet, out))
    }

    /// Per-tenant ingress accounting: `(issued packets, issued bytes,
    /// ring drops)` for each configured tenant. Empty when the arbiter
    /// is disabled.
    pub fn tenant_ingress_stats(&self) -> Vec<(u64, u64, u64)> {
        let Some(a) = self.arbiter.as_ref() else {
            return Vec::new();
        };
        (0..a.rings.len())
            .map(|i| (a.issued_pkts[i], a.issued_bytes[i], a.rings[i].total_lost()))
            .collect()
    }

    /// Per-tenant staging-ring ledger for the conservation audit:
    /// `(enqueued, dequeued, backlog, lost)` per tenant ring — the
    /// ring balances when `enqueued + lost` equals the packets offered
    /// to it and `enqueued == dequeued + backlog`. Empty when the
    /// arbiter is disabled.
    pub fn tenant_staging_stats(&self) -> Vec<(u64, u64, u64, u64)> {
        let Some(a) = self.arbiter.as_ref() else {
            return Vec::new();
        };
        a.rings
            .iter()
            .map(|q| {
                (
                    q.total_enqueued(),
                    q.total_dequeued(),
                    q.len() as u64,
                    q.total_lost(),
                )
            })
            .collect()
    }

    /// Total packets ingested.
    pub fn packets_ingested(&self) -> u64 {
        self.ingested.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{IoKind, PacketId};

    fn packet(dest: u32, size: u32, at_us: u64) -> Packet {
        Packet::new(
            PacketId(0),
            IoKind::Network,
            size,
            CpuId(dest),
            0,
            SimTime::from_micros(at_us),
        )
    }

    #[test]
    fn default_window_is_3_2_us() {
        assert_eq!(WINDOW, SimDuration::from_nanos(3_200));
    }

    #[test]
    fn stage_times_match_paper_breakdown() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        let mut p = packet(0, 64, 10);
        let out = acc.ingest(&mut p, SimTime::from_micros(10), &mut probe);
        assert_eq!(out.irq_at, SimTime::from_micros(10));
        assert_eq!(out.preprocess_done.as_nanos(), 10_000 + 2_700);
        assert_eq!(out.delivered_at.as_nanos(), 10_000 + 3_200);
        assert_eq!(p.delivered_at, Some(out.delivered_at));
    }

    #[test]
    fn probe_irq_on_vstate_destination() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        probe.set_state(CpuId(2), crate::probe::CpuExecState::VState);
        let mut p = packet(2, 64, 1);
        let out = acc.ingest(&mut p, SimTime::from_micros(1), &mut probe);
        assert_eq!(out.probe_irq, Some(CpuId(2)));
        // IRQ precedes delivery by the full window.
        assert_eq!(out.delivered_at - out.irq_at, WINDOW);
    }

    #[test]
    fn same_channel_serializes_issue() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        let t = SimTime::from_micros(5);
        let mut p1 = packet(0, 64, 5);
        let mut p2 = packet(0, 64, 5);
        let o1 = acc.ingest(&mut p1, t, &mut probe);
        let o2 = acc.ingest(&mut p2, t, &mut probe);
        // Second packet starts one issue gap later but latencies overlap.
        assert_eq!(o2.irq_at - o1.irq_at, SimDuration::from_nanos(40));
        assert_eq!(
            o2.delivered_at - o1.delivered_at,
            SimDuration::from_nanos(40)
        );
    }

    #[test]
    fn different_channels_do_not_serialize() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        let t = SimTime::from_micros(5);
        let mut p1 = packet(0, 64, 5);
        let mut p2 = packet(1, 64, 5);
        let o1 = acc.ingest(&mut p1, t, &mut probe);
        let o2 = acc.ingest(&mut p2, t, &mut probe);
        assert_eq!(o1.irq_at, o2.irq_at);
    }

    #[test]
    fn a_stall_delays_only_the_next_ingest_and_its_channel() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        let t = SimTime::from_micros(5);
        let stall = SimDuration::from_micros(2);
        acc.stall_next(stall);
        let o1 = acc.ingest(&mut packet(0, 64, 5), t, &mut probe);
        assert_eq!(o1.irq_at, t + stall);
        // The stall was consumed, but the channel stays busy behind it.
        let o2 = acc.ingest(&mut packet(0, 64, 5), t, &mut probe);
        assert_eq!(o2.irq_at, t + stall + ISSUE_GAP);
        let o3 = acc.ingest(&mut packet(1, 64, 5), t, &mut probe);
        assert_eq!(o3.irq_at, t, "other channels are unaffected");
    }

    #[test]
    fn large_packets_serialize_at_line_rate() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        let t = SimTime::from_micros(0);
        let mut p1 = packet(0, 4096, 0);
        let mut p2 = packet(0, 64, 0);
        let o1 = acc.ingest(&mut p1, t, &mut probe);
        let o2 = acc.ingest(&mut p2, t, &mut probe);
        // 4096 B * 0.04 ns/B ≈ 164 ns > 40 ns issue gap.
        let gap = o2.irq_at - o1.irq_at;
        assert_eq!(gap, SimDuration::from_nanos(164));
    }

    #[test]
    fn counters_accumulate() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        for i in 0..5 {
            let mut p = packet(i % 3, 100, 1);
            acc.ingest(&mut p, SimTime::from_micros(1), &mut probe);
        }
        assert_eq!(acc.packets_ingested(), 5);
    }

    #[test]
    #[should_panic(expected = "ns_per_byte must be finite")]
    fn rejects_nan_line_rate() {
        let cfg = AcceleratorConfig {
            ns_per_byte: f64::NAN,
            ..AcceleratorConfig::default()
        };
        let _ = Accelerator::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one hardware channel")]
    fn rejects_zero_channels() {
        let cfg = AcceleratorConfig {
            channels: 0,
            ..AcceleratorConfig::default()
        };
        let _ = Accelerator::new(cfg);
    }

    fn tenant_packet(id: u64, tenant: u32, size: u32) -> Packet {
        Packet::new(
            PacketId(id),
            IoKind::Network,
            size,
            CpuId(0),
            0,
            SimTime::ZERO,
        )
        .with_tenant(crate::packet::TenantId(tenant))
    }

    #[test]
    fn drr_equal_weights_serve_equal_demand_within_one_quantum() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        acc.enable_tenants(&[1, 1], 1500, 4096);
        for i in 0..1000u64 {
            assert!(acc.stage(tenant_packet(i, (i % 2) as u32, 512)));
        }
        let mut bytes = [0u64; 2];
        let mut t = SimTime::ZERO;
        for _ in 0..600 {
            let (p, _) = acc.issue_next(t, &mut probe).expect("backlogged");
            bytes[p.tenant.index()] += u64::from(p.size_bytes);
            t = acc.port_free();
        }
        let diff = bytes[0].abs_diff(bytes[1]);
        assert!(
            diff <= 1500,
            "equal-weight DRR must stay within one quantum of fair share, diff {diff}"
        );
    }

    #[test]
    fn drr_weights_partition_port_bandwidth() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        acc.enable_tenants(&[3, 1], 1500, 8192);
        for i in 0..4000u64 {
            assert!(acc.stage(tenant_packet(i, (i % 2) as u32, 500)));
        }
        let mut t = SimTime::ZERO;
        for _ in 0..2000 {
            acc.issue_next(t, &mut probe).expect("backlogged");
            t = acc.port_free();
        }
        let stats = acc.tenant_ingress_stats();
        let ratio = stats[0].1 as f64 / stats[1].1 as f64;
        assert!(
            (ratio - 3.0).abs() < 0.1,
            "3:1 weights must yield a ~3:1 byte split, got {ratio:.3}"
        );
    }

    #[test]
    fn drr_is_work_conserving_when_one_tenant_idles() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        acc.enable_tenants(&[1, 1], 1500, 64);
        for i in 0..10u64 {
            assert!(acc.stage(tenant_packet(i, 1, 512)));
        }
        let mut served = 0;
        let mut t = SimTime::ZERO;
        while let Some((p, _)) = acc.issue_next(t, &mut probe) {
            assert_eq!(p.tenant.index(), 1);
            served += 1;
            t = acc.port_free();
        }
        assert_eq!(served, 10, "idle tenant 0 must not block tenant 1");
        assert_eq!(acc.staged(), 0);
    }

    #[test]
    fn tenant_ring_overflow_counts_per_tenant() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        acc.enable_tenants(&[1, 1], 1500, 2);
        for i in 0..5u64 {
            acc.stage(tenant_packet(i, 0, 64));
        }
        assert!(acc.stage(tenant_packet(9, 1, 64)));
        assert_eq!(acc.staged_dropped(), 3);
        let stats = acc.tenant_ingress_stats();
        assert_eq!(stats[0].2, 3);
        assert_eq!(stats[1].2, 0);
        assert_eq!(acc.staged(), 3);
    }

    #[test]
    fn issue_occupies_shared_port_at_line_rate() {
        let mut acc = Accelerator::new(AcceleratorConfig::default());
        let mut probe = HwWorkloadProbe::new(12);
        acc.enable_tenants(&[1], 1500, 64);
        acc.stage(tenant_packet(0, 0, 4096));
        let (_, out) = acc.issue_next(SimTime::ZERO, &mut probe).unwrap();
        // 4096 B × 0.04 ns/B ≈ 164 ns of port occupancy.
        assert_eq!(acc.port_free(), SimTime::from_nanos(164));
        assert_eq!(out.delivered_at.as_nanos(), 3_200);
    }
}
