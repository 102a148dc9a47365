//! The poll-mode data-plane service.
//!
//! One [`DpService`] is pinned to one SmartNIC CPU and owns that CPU's
//! receive queue. The real service runs the Fig. 9 loop:
//!
//! ```c
//! while (true) {
//!     n = rte_eth_rx_burst(qid);
//!     if (n == 0) empty_polling_num++;
//!     else { empty_polling_num = 0; /* process */ }
//!     if (empty_polling_num > threshold) notify_idle_DP_CPU_cycles();
//! }
//! ```
//!
//! Simulating every ~100 ns poll iteration would melt the event queue,
//! so the loop is modelled *analytically*: while the queue is empty the
//! threshold-crossing instant is `last_activity + threshold ×
//! poll_iteration`; a packet arrival before that instant resets the
//! counter. The observable behaviour (when the yield notification
//! fires) is identical to iterating the loop.
//!
//! The service also models the cache/TLB pollution left behind by a
//! vCPU that borrowed the core (§6.5 attributes Tai Chi's residual
//! ≤1.92 % DP overhead to exactly this): for a short window after
//! [`DpService::mark_polluted`], per-packet processing pays a
//! multiplicative surcharge.

use std::sync::Arc;

use crate::latency::LatencyRecorder;
use taichi_hw::{CpuId, Packet, RxQueue};
use taichi_sim::{Dist, FaultInjector, PreparedDist, Rng, SimDuration, SimTime, UtilizationMeter};

/// Tuning constants for one data-plane service.
#[derive(Clone, Debug)]
pub struct DpServiceConfig {
    /// Cost of one empty poll iteration (queue probe + loop overhead).
    pub poll_iteration: SimDuration,
    /// Per-packet software processing cost (ns).
    pub proc_cost_ns: Dist,
    /// Max packets drained per burst.
    pub burst: usize,
    /// Receive ring capacity.
    pub ring_capacity: usize,
    /// Cache/TLB pollution window after a vCPU vacates the core.
    pub pollution_window: SimDuration,
    /// Multiplicative processing surcharge inside the window.
    pub pollution_tax: f64,
}

impl Default for DpServiceConfig {
    fn default() -> Self {
        DpServiceConfig {
            poll_iteration: SimDuration::from_nanos(120),
            proc_cost_ns: Dist::LogNormal {
                mean: 1_500.0,
                sigma: 0.4,
            },
            burst: 32,
            ring_capacity: 1024,
            pollution_window: SimDuration::from_micros(8),
            pollution_tax: 1.18,
        }
    }
}

/// A poll-mode service pinned to `cpu`.
#[derive(Clone, Debug)]
pub struct DpService {
    cpu: CpuId,
    /// Shared, read-only after construction: a machine builds one
    /// config and hands every service the same `Arc`, so constructing
    /// N services costs one deep clone instead of N.
    config: Arc<DpServiceConfig>,
    queue: RxQueue,
    /// The service is software-processing packets until this instant.
    busy_until: SimTime,
    /// Start of the current empty-poll run (None while packets flow).
    empty_since: Option<SimTime>,
    /// Empty-poll iterations from *closed* runs, accumulated in closed
    /// form (`gap / poll_iteration`) instead of one event per
    /// iteration — the engine's fast-forward ledger.
    ff_polls: u64,
    /// Cache pollution expires at this instant.
    polluted_until: SimTime,
    meter: UtilizationMeter,
    /// `config.proc_cost_ns` with sampling constants hoisted (drawn
    /// once per processed packet — the hottest sampler in the machine).
    proc_cost: PreparedDist,
    recorder: LatencyRecorder,
    tagged: LatencyRecorder,
    /// Per-tenant latency/throughput recorders, indexed by `TenantId`.
    /// Empty in the single-tenant configuration — the pre-tenant hot
    /// path does not touch them (DESIGN.md §3.11).
    tenant_recorders: Vec<LatencyRecorder>,
    /// Per-tenant processed-packet counts (empty when single-tenant).
    tenant_processed: Vec<u64>,
    /// Per-tenant ring-overflow drops (empty when single-tenant).
    tenant_drops: Vec<u64>,
    processed: u64,
    /// Extra execution tax applied to all processing (used by the
    /// Tai Chi-vDP mode, where the service itself runs in a vCPU).
    exec_tax: f64,
}

impl DpService {
    /// Creates an idle service pinned to `cpu`.
    pub fn new(cpu: CpuId, config: DpServiceConfig) -> Self {
        Self::with_shared_config(cpu, Arc::new(config))
    }

    /// Creates an idle service sharing an already-built config (the
    /// bulk-construction path: one `Arc` clone per service instead of
    /// a deep config clone).
    pub fn with_shared_config(cpu: CpuId, config: Arc<DpServiceConfig>) -> Self {
        let ring = RxQueue::new(config.ring_capacity);
        let proc_cost = config.proc_cost_ns.prepared();
        DpService {
            cpu,
            config,
            proc_cost,
            queue: ring,
            busy_until: SimTime::ZERO,
            empty_since: Some(SimTime::ZERO),
            ff_polls: 0,
            polluted_until: SimTime::ZERO,
            meter: UtilizationMeter::new(SimTime::ZERO),
            recorder: LatencyRecorder::new(),
            tagged: LatencyRecorder::new(),
            tenant_recorders: Vec::new(),
            tenant_processed: Vec::new(),
            tenant_drops: Vec::new(),
            processed: 0,
            exec_tax: 1.0,
        }
    }

    /// The CPU this service is pinned to.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Applies a multiplicative execution tax to all software
    /// processing (nested-page-table cost when the service runs inside
    /// a vCPU — the Tai Chi-vDP / type-1 configuration).
    pub fn set_exec_tax(&mut self, tax: f64) {
        self.exec_tax = tax.max(1.0);
    }

    /// Switches the service to multi-tenant accounting: per-tenant
    /// latency recorders plus per-tenant processed/drop counters for
    /// `tenants` tenants. A no-op (and free) when never called — the
    /// single-tenant path stays byte-identical to the pre-tenant
    /// engine.
    pub fn set_tenants(&mut self, tenants: usize) {
        if tenants > 1 {
            self.tenant_recorders = (0..tenants).map(|_| LatencyRecorder::new()).collect();
            self.tenant_processed = vec![0; tenants];
            self.tenant_drops = vec![0; tenants];
        }
    }

    /// Deposits a delivered packet into the service's ring.
    ///
    /// Returns `false` when the ring overflowed (packet dropped).
    pub fn enqueue(&mut self, packet: Packet, now: SimTime) -> bool {
        let was_empty = self.queue.is_empty();
        let tenant = packet.tenant.index();
        let before = self.queue.total_dropped();
        let ok = self.queue.push(packet);
        if !ok && !self.tenant_drops.is_empty() && self.queue.total_dropped() > before {
            let n = self.tenant_drops.len();
            self.tenant_drops[tenant % n] += 1;
        }
        if ok && was_empty {
            // The empty-poll run ends the instant a packet lands in
            // the ring. (A rejected descriptor never reaches the ring,
            // so the real loop would keep seeing it empty — the run
            // stays open in that case.)
            self.close_empty_run(now);
        }
        ok
    }

    /// Attaches a fault injector to the receive ring (descriptor-
    /// reject backpressure faults).
    pub fn set_fault(&mut self, fault: FaultInjector) {
        self.queue.set_fault(fault);
    }

    /// Packets waiting in the ring.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when the service has nothing to do at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.queue.is_empty() && now >= self.busy_until
    }

    /// The instant software processing of in-flight packets finishes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Marks the core as cache/TLB-polluted (a vCPU just vacated it).
    pub fn mark_polluted(&mut self, now: SimTime) {
        self.polluted_until = now + self.config.pollution_window;
    }

    /// Drains and processes up to one burst starting no earlier than
    /// `ready` (the instant the DP context is actually restored on the
    /// CPU). Returns the completion time of the last packet, or `None`
    /// when the ring was empty.
    ///
    /// Every processed packet gets `completed_at` stamped and is
    /// recorded in the latency recorder.
    pub fn process_burst(&mut self, ready: SimTime, rng: &mut Rng) -> Option<SimTime> {
        let n = self.config.burst.min(self.queue.len());
        if n == 0 {
            return None;
        }
        self.empty_since = None;
        let mut t = ready.max(self.busy_until);
        self.meter.set_busy(t);
        // Pop straight off the ring — `rx_burst` would materialise the
        // batch in a fresh Vec on every call, and this is the hottest
        // packet path in the simulator.
        for _ in 0..n {
            // `n` is bounded by the queue length above, so `pop`
            // cannot fail today; break instead of panicking so a
            // future concurrent-drain refactor degrades to a shorter
            // burst rather than taking the whole run down.
            let Some(mut p) = self.queue.pop() else { break };
            let mut cost_ns = self.proc_cost.sample(rng) * self.exec_tax;
            if t < self.polluted_until {
                cost_ns *= self.config.pollution_tax;
            }
            t += SimDuration::from_nanos(cost_ns.round().max(1.0) as u64);
            p.completed_at = Some(t);
            self.recorder.record(&p);
            if p.dest_queue != 0 {
                self.tagged.record(&p);
            }
            if !self.tenant_recorders.is_empty() {
                let i = p.tenant.index() % self.tenant_recorders.len();
                self.tenant_recorders[i].record(&p);
                self.tenant_processed[i] += 1;
            }
            self.processed += 1;
        }
        self.busy_until = t;
        self.meter.set_idle(t);
        if self.queue.is_empty() {
            self.empty_since = Some(t);
        }
        Some(t)
    }

    /// Analytic Fig. 9 loop: the instant at which `threshold`
    /// consecutive empty polls will have accumulated, given the queue
    /// stays empty. `None` while packets are pending.
    pub fn idle_notify_time(&self, threshold: u32) -> Option<SimTime> {
        let since = self.empty_since?;
        if !self.queue.is_empty() {
            return None;
        }
        Some(
            since
                + self
                    .config
                    .poll_iteration
                    .saturating_mul(threshold as u64 + 1),
        )
    }

    /// Consecutive empty polls accumulated by `now` (analytic).
    pub(crate) fn empty_polls(&self, now: SimTime) -> u64 {
        match self.empty_since {
            Some(since) if self.queue.is_empty() && now > since => {
                now.saturating_since(since).as_nanos()
                    / self.config.poll_iteration.as_nanos().max(1)
            }
            _ => 0,
        }
    }

    /// Ends the open empty-poll run at `now`, folding its closed-form
    /// iteration count (`gap / poll_iteration`) into the fast-forward
    /// ledger — the O(1) replacement for iterating the Fig. 9 loop
    /// across the gap. A run opened in the future (processing still
    /// completing) contributes nothing.
    fn close_empty_run(&mut self, now: SimTime) {
        if let Some(since) = self.empty_since.take() {
            if now > since {
                self.ff_polls += now.saturating_since(since).as_nanos()
                    / self.config.poll_iteration.as_nanos().max(1);
            }
        }
    }

    /// Suspends the poll loop (a vCPU is about to take the core): the
    /// current empty-poll run closes at `now`, and no iterations
    /// accumulate until [`DpService::restart_polling`] — the grant
    /// window is vCPU time, not polling time.
    pub fn pause_polling(&mut self, now: SimTime) {
        self.close_empty_run(now);
    }

    /// Resets the empty-poll run to start at `now` (called when the DP
    /// context resumes polling after a vCPU borrowed the core). Any
    /// still-open run is discarded, not counted: polling was not
    /// executing in between (callers pair this with
    /// [`DpService::pause_polling`]).
    pub fn restart_polling(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            self.empty_since = Some(now.max(self.busy_until));
        } else {
            self.empty_since = None;
        }
    }

    /// Empty-poll iterations elided by the analytic Fig. 9 loop:
    /// every closed run plus the still-open run measured at `now`. A
    /// pure function of the packet/grant schedule, so the value is
    /// identical across queue backends and skip modes.
    pub fn fast_forwarded_polls(&self, now: SimTime) -> u64 {
        self.ff_polls + self.empty_polls(now)
    }

    /// Latency/throughput records.
    pub fn recorder(&self) -> &LatencyRecorder {
        &self.recorder
    }

    /// Latency records for probe packets (non-zero destination queue).
    pub fn tagged_recorder(&self) -> &LatencyRecorder {
        &self.tagged
    }

    /// Merges the accumulated latency records into `dest` and clears
    /// them in place, without allocating. Epoch-oriented drivers (the
    /// fleet layer) drain each machine per epoch and fold the delta
    /// into a streaming aggregate, so no service retains its full
    /// history; counters (`processed`, `dropped`) stay cumulative.
    pub fn drain_recorder_into(&mut self, dest: &mut LatencyRecorder) {
        self.recorder.drain_into(dest);
    }

    /// Per-tenant latency recorders (empty when single-tenant).
    pub fn tenant_recorders(&self) -> &[LatencyRecorder] {
        &self.tenant_recorders
    }

    /// Merges each tenant's records into `dest[t]` (growing `dest` to
    /// the tenant count if needed) and clears them in place — the
    /// per-tenant sibling of [`DpService::drain_recorder_into`].
    /// Counters stay cumulative.
    pub fn drain_tenant_recorders_into(&mut self, dest: &mut Vec<LatencyRecorder>) {
        if dest.len() < self.tenant_recorders.len() {
            dest.resize_with(self.tenant_recorders.len(), LatencyRecorder::new);
        }
        for (rec, d) in self.tenant_recorders.iter_mut().zip(dest.iter_mut()) {
            rec.drain_into(d);
        }
    }

    /// Per-tenant `(processed, ring drops)` counters (empty when
    /// single-tenant).
    pub fn tenant_counts(&self) -> Vec<(u64, u64)> {
        self.tenant_processed
            .iter()
            .zip(&self.tenant_drops)
            .map(|(&p, &d)| (p, d))
            .collect()
    }

    /// Total packets processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Packets dropped at the ring on overflow (genuine load
    /// shedding). Fault-injected descriptor rejects are *not* included
    /// — they are the injector's doing, already counted in its
    /// `enic_rejects` stat, and folding them in here double-charged
    /// the service (see [`DpService::rejected`]).
    pub fn dropped(&self) -> u64 {
        self.queue.total_dropped()
    }

    /// Packets rejected at the ring by injected backpressure faults.
    pub fn rejected(&self) -> u64 {
        self.queue.total_rejected()
    }

    /// Every packet this service's ring refused (overflow + fault
    /// rejects) — the conservation-audit view.
    pub fn lost(&self) -> u64 {
        self.queue.total_lost()
    }

    /// Deepest rx-ring occupancy ever observed.
    pub fn ring_high_watermark(&self) -> usize {
        self.queue.high_watermark()
    }

    /// Resident bytes of the rx ring's backing storage.
    pub fn ring_resident_bytes(&self) -> usize {
        self.queue.resident_bytes()
    }

    /// Busy fraction of the service since creation.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.meter.lifetime_utilization(now)
    }

    /// Busy fraction over the window since the last call, resetting it.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        self.meter.sample_and_reset(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taichi_hw::{IoKind, PacketId};

    fn mk_service() -> DpService {
        DpService::new(
            CpuId(0),
            DpServiceConfig {
                proc_cost_ns: Dist::constant(1_000.0),
                ..DpServiceConfig::default()
            },
        )
    }

    fn delivered(id: u64, at_us: u64) -> Packet {
        let mut p = Packet::new(
            PacketId(id),
            IoKind::Network,
            256,
            CpuId(0),
            0,
            SimTime::from_micros(at_us.saturating_sub(4)),
        );
        let deliver = SimTime::from_micros(at_us);
        p.preprocessed_at = Some(
            deliver
                - deliver
                    .saturating_since(SimTime::ZERO)
                    .min(SimDuration::from_nanos(500)),
        );
        p.delivered_at = Some(deliver);
        p
    }

    #[test]
    fn burst_processing_is_serial() {
        let mut s = mk_service();
        let mut rng = Rng::new(1);
        let t = SimTime::from_micros(10);
        for i in 0..3 {
            assert!(s.enqueue(delivered(i, 10), t));
        }
        let done = s.process_burst(t, &mut rng).unwrap();
        assert_eq!(done.as_nanos(), 10_000 + 3_000);
        assert_eq!(s.processed(), 3);
        assert_eq!(s.recorder().packets(), 3);
        assert!(s.is_idle(done));
    }

    #[test]
    fn empty_burst_returns_none() {
        let mut s = mk_service();
        let mut rng = Rng::new(1);
        assert!(s.process_burst(SimTime::from_micros(1), &mut rng).is_none());
    }

    #[test]
    fn idle_notify_time_analytic() {
        let s = mk_service();
        // Idle since t=0, 120 ns/iteration, threshold 100: notify at
        // (100+1)*120 ns.
        let t = s.idle_notify_time(100).unwrap();
        assert_eq!(t.as_nanos(), 101 * 120);
    }

    #[test]
    fn empty_polls_accumulate_then_reset() {
        let mut s = mk_service();
        let mut rng = Rng::new(2);
        assert_eq!(s.empty_polls(SimTime::from_micros(12)), 100);
        // A packet arrives and is processed: counter resets, idle run
        // restarts at completion.
        let t = SimTime::from_micros(20);
        s.enqueue(delivered(1, 20), t);
        assert!(s.idle_notify_time(100).is_none());
        let done = s.process_burst(t, &mut rng).unwrap();
        assert_eq!(s.empty_polls(done), 0);
        assert!(s.idle_notify_time(100).unwrap() > done);
    }

    #[test]
    fn pollution_taxes_processing() {
        let mut s = mk_service();
        let mut rng = Rng::new(3);
        let t = SimTime::from_micros(100);
        s.mark_polluted(t);
        s.enqueue(delivered(1, 100), t);
        let done = s.process_burst(t, &mut rng).unwrap();
        // 1000 ns * 1.18 = 1180 ns.
        assert_eq!(done.as_nanos(), 100_000 + 1_180);
        // Past the window the tax disappears.
        let t2 = t + s.config.pollution_window + SimDuration::from_micros(1);
        s.enqueue(delivered(2, t2.as_nanos() / 1_000), t2);
        let done2 = s.process_burst(t2, &mut rng).unwrap();
        assert_eq!(done2.as_nanos(), t2.as_nanos() + 1_000);
    }

    #[test]
    fn exec_tax_applies_to_all_processing() {
        let mut s = mk_service();
        s.set_exec_tax(1.07);
        let mut rng = Rng::new(4);
        let t = SimTime::from_micros(50);
        s.enqueue(delivered(1, 50), t);
        let done = s.process_burst(t, &mut rng).unwrap();
        assert_eq!(done.as_nanos(), 50_000 + 1_070);
    }

    #[test]
    fn exec_tax_cannot_speed_up() {
        let mut s = mk_service();
        s.set_exec_tax(0.5);
        let mut rng = Rng::new(5);
        let t = SimTime::from_micros(50);
        s.enqueue(delivered(1, 50), t);
        let done = s.process_burst(t, &mut rng).unwrap();
        assert_eq!(done.as_nanos(), 50_000 + 1_000);
    }

    #[test]
    fn ring_overflow_drops() {
        let mut s = DpService::new(
            CpuId(0),
            DpServiceConfig {
                ring_capacity: 2,
                ..DpServiceConfig::default()
            },
        );
        let t = SimTime::from_micros(1);
        assert!(s.enqueue(delivered(1, 1), t));
        assert!(s.enqueue(delivered(2, 1), t));
        assert!(!s.enqueue(delivered(3, 1), t));
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn utilization_reflects_processing() {
        let mut s = mk_service();
        let mut rng = Rng::new(6);
        let t = SimTime::from_micros(0);
        for i in 0..5 {
            s.enqueue(delivered(i, 0), t);
        }
        s.process_burst(t, &mut rng);
        // 5 µs busy out of 10 µs elapsed.
        let u = s.utilization(SimTime::from_micros(10));
        assert!((u - 0.5).abs() < 0.01, "utilization {u}");
    }

    #[test]
    fn fast_forward_counts_closed_and_open_runs() {
        let mut s = mk_service();
        let mut rng = Rng::new(8);
        // Idle run 0 → 12 µs closed by an arriving packet: 12000/120 =
        // 100 iterations, accounted in closed form.
        let t = SimTime::from_micros(12);
        s.enqueue(delivered(1, 12), t);
        assert_eq!(s.fast_forwarded_polls(t), 100);
        let done = s.process_burst(t, &mut rng).unwrap();
        // The new open run accumulates analytically from completion.
        let later = done + SimDuration::from_nanos(240);
        assert_eq!(s.fast_forwarded_polls(later), 102);
        // A grant window pauses the loop: the pre-grant tail counts,
        // the window itself does not.
        s.pause_polling(later);
        let resume = later + SimDuration::from_micros(50);
        s.restart_polling(resume);
        assert_eq!(s.fast_forwarded_polls(resume), 102);
    }

    #[test]
    fn restart_polling_after_vcpu_window() {
        let mut s = mk_service();
        // Service idle since 0; a vCPU borrowed the core until 500 µs.
        let resume = SimTime::from_micros(500);
        s.restart_polling(resume);
        let t = s.idle_notify_time(100).unwrap();
        assert_eq!(t.as_nanos(), 500_000 + 101 * 120);
    }

    #[test]
    fn sample_mid_burst_carries_busy_into_next_window() {
        let mut s = mk_service();
        let mut rng = Rng::new(9);
        let t = SimTime::ZERO;
        for i in 0..5 {
            s.enqueue(delivered(i, 0), t);
        }
        // Burst busy-time [0, 5 µs] is folded eagerly at t=0.
        s.process_burst(t, &mut rng);
        // A utilization sample lands mid-burst: the window must read
        // saturated (not >1.0), and the overhang must spill into the
        // next window instead of vanishing.
        let u1 = s.sample_utilization(SimTime::from_micros(2));
        assert!((u1 - 1.0).abs() < 1e-9, "mid-burst window: {u1}");
        let u2 = s.sample_utilization(SimTime::from_micros(10));
        assert!((u2 - 3.0 / 8.0).abs() < 1e-9, "spill window: {u2}");
        let u3 = s.sample_utilization(SimTime::from_micros(20));
        assert!(u3.abs() < 1e-9, "post-burst window must be idle: {u3}");
    }

    #[test]
    fn pause_restart_straddling_sample_stays_bounded() {
        let mut s = mk_service();
        let mut rng = Rng::new(10);
        let t = SimTime::ZERO;
        for i in 0..5 {
            s.enqueue(delivered(i, 0), t);
        }
        // Burst keeps the core busy over [0, 5 µs]. A vCPU takes the
        // core at 6 µs; the sample boundary at 7 µs falls inside the
        // grant window; polling resumes at 9 µs.
        s.process_burst(t, &mut rng);
        s.pause_polling(SimTime::from_micros(6));
        let u1 = s.sample_utilization(SimTime::from_micros(7));
        assert!(
            (0.0..=1.0).contains(&u1),
            "straddled window out of range: {u1}"
        );
        assert!((u1 - 5.0 / 7.0).abs() < 1e-9, "straddled window: {u1}");
        s.restart_polling(SimTime::from_micros(9));
        s.enqueue(delivered(9, 10), SimTime::from_micros(10));
        s.process_burst(SimTime::from_micros(10), &mut rng); // busy [10, 11 µs]
        let u2 = s.sample_utilization(SimTime::from_micros(12));
        assert!(
            (u2 - 1.0 / 5.0).abs() < 1e-9,
            "post-grant window must count only real processing: {u2}"
        );
    }

    #[test]
    fn fast_forwarded_empty_polls_are_not_busy_time() {
        let mut s = mk_service();
        // 0 → 12 µs of analytically fast-forwarded empty polling.
        assert_eq!(s.fast_forwarded_polls(SimTime::from_micros(12)), 100);
        let u = s.sample_utilization(SimTime::from_micros(12));
        assert!(
            u.abs() < 1e-9,
            "fast-forwarded empty-poll window must sample idle: {u}"
        );
        assert!(s.utilization(SimTime::from_micros(12)).abs() < 1e-9);
    }

    #[test]
    fn fault_rejects_do_not_count_as_service_drops() {
        use taichi_sim::{FaultInjector, FaultPlan};
        let mut s = mk_service();
        let f = FaultInjector::from_plan(
            &FaultPlan {
                enic_reject_rate: 1.0,
                ..FaultPlan::default()
            },
            7,
        )
        .expect("active plan");
        s.set_fault(f);
        let t = SimTime::from_micros(1);
        assert!(!s.enqueue(delivered(1, 1), t));
        assert_eq!(s.dropped(), 0, "a fault reject is not load shedding");
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.lost(), 1);
    }

    #[test]
    fn tenant_accounting_splits_by_packet_tag() {
        use taichi_hw::TenantId;
        let mut s = mk_service();
        s.set_tenants(2);
        let mut rng = Rng::new(11);
        let t = SimTime::from_micros(5);
        for i in 0..6u64 {
            let p = delivered(i, 5).with_tenant(TenantId((i % 2) as u32));
            assert!(s.enqueue(p, t));
        }
        s.process_burst(t, &mut rng);
        let counts = s.tenant_counts();
        assert_eq!(counts[0].0, 3);
        assert_eq!(counts[1].0, 3);
        assert_eq!(s.tenant_recorders()[0].packets(), 3);
        assert_eq!(s.tenant_recorders()[1].packets(), 3);
        // The merged recorder still sees everything.
        assert_eq!(s.recorder().packets(), 6);
        let mut drained = Vec::new();
        s.drain_tenant_recorders_into(&mut drained);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].packets(), 3);
        assert_eq!(drained[1].packets(), 3);
        assert_eq!(s.tenant_recorders()[0].packets(), 0);
    }

    #[test]
    fn queue_wait_included_in_latency() {
        let mut s = mk_service();
        let mut rng = Rng::new(7);
        // Delivered at 10 µs but the DP context is only restored at
        // 60 µs (vCPU was on the core): software latency ≈ 51 µs.
        let t_deliver = SimTime::from_micros(10);
        s.enqueue(delivered(1, 10), t_deliver);
        let ready = SimTime::from_micros(60);
        s.process_burst(ready, &mut rng);
        let sw = s.recorder().software_latency().mean();
        assert!((sw - 51_000.0).abs() < 100.0, "software latency {sw}");
    }
}
