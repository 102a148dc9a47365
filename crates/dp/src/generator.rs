//! Packet/request arrival generators.
//!
//! Three arrival shapes cover the evaluation:
//!
//! - [`ArrivalPattern::OpenLoop`]: independent inter-arrival gaps (use
//!   an exponential for Poisson traffic) — netperf/sockperf streams.
//! - [`ArrivalPattern::OnOff`]: alternating bursts and silences —
//!   the bursty pattern that forces over-provisioning (§3.1).
//! - [`ArrivalPattern::Modulated`]: a base gap scaled by a repeating
//!   profile (e.g. a 24-point diurnal curve) — used to reproduce the
//!   Fig. 3 production utilization CDF.
//!
//! A [`TrafficGen`] combines a pattern with a size distribution and
//! sprays each packet to a uniformly random target CPU, as hardware
//! RSS hashing of many flows does.

use taichi_hw::{CpuId, IoKind, Packet, PacketId, TenantId};
use taichi_sim::{round_u64, vec_bytes, Dist, Rng, SimDuration, SimTime};

/// When packets arrive.
#[derive(Clone, Debug)]
pub enum ArrivalPattern {
    /// Independent inter-arrival gaps (µs).
    OpenLoop {
        /// Gap distribution in microseconds.
        gap_us: Dist,
    },
    /// Bursts of `on_us` with gaps `burst_gap_us`, separated by
    /// silences of `off_us`.
    OnOff {
        /// Burst duration (µs).
        on_us: Dist,
        /// Silence duration (µs).
        off_us: Dist,
        /// Inter-arrival gap inside a burst (µs).
        burst_gap_us: Dist,
    },
    /// Open-loop gaps scaled by a repeating profile: slot `i` of the
    /// profile divides the arrival rate (multiplies the gap).
    Modulated {
        /// Base gap distribution (µs).
        base_gap_us: Dist,
        /// Rate multipliers per slot (>= 0; 1.0 = base rate).
        profile: Vec<f64>,
        /// Duration of one profile slot.
        slot: SimDuration,
    },
}

/// A packet source: synthetic arrivals from a pattern and a size
/// distribution, each sprayed to a uniformly random target CPU
/// (RSS-like, so per-CPU arrivals look Poisson).
#[derive(Clone, Debug)]
pub struct TrafficGen {
    pattern: ArrivalPattern,
    size_bytes: Dist,
    targets: Vec<CpuId>,
    /// End of the current [`ArrivalPattern::OnOff`] burst, set at the
    /// first packet.
    onoff: Option<SimTime>,
    kind: IoKind,
    queue: u16,
    tenant: TenantId,
    next_id: u64,
    clock: SimTime,
}

impl TrafficGen {
    /// Heap bytes the generator holds: its target list, the arrival
    /// pattern's profile and the distributions' tables.
    pub fn resident_bytes(&self) -> usize {
        let pattern = match &self.pattern {
            ArrivalPattern::OpenLoop { gap_us } => gap_us.resident_bytes(),
            ArrivalPattern::OnOff {
                on_us,
                off_us,
                burst_gap_us,
            } => on_us.resident_bytes() + off_us.resident_bytes() + burst_gap_us.resident_bytes(),
            ArrivalPattern::Modulated {
                base_gap_us,
                profile,
                ..
            } => base_gap_us.resident_bytes() + vec_bytes(profile),
        };
        vec_bytes(&self.targets) + pattern + self.size_bytes.resident_bytes()
    }

    /// Creates a generator spraying packets uniformly over `targets`.
    ///
    /// # Panics
    ///
    /// Panics when `targets` is empty.
    pub fn new(
        pattern: ArrivalPattern,
        size_bytes: Dist,
        kind: IoKind,
        targets: Vec<CpuId>,
    ) -> Self {
        assert!(!targets.is_empty(), "traffic generator needs target CPUs");
        TrafficGen {
            pattern,
            size_bytes,
            targets,
            onoff: None,
            kind,
            queue: 0,
            tenant: TenantId::HOST,
            next_id: 0,
            clock: SimTime::ZERO,
        }
    }

    /// Tags generated packets with a destination queue index. Queue 0
    /// is bulk traffic; services record non-zero queues separately,
    /// which latency-probe benchmarks (ping, sockperf) use to sample
    /// the data path sparsely and uniformly in time.
    pub fn with_queue(mut self, queue: u16) -> Self {
        self.queue = queue;
        self
    }

    /// Tags generated packets with an owning tenant (default: the
    /// implicit single-operator tenant 0). Pure relabelling — no RNG
    /// draw — so a tenant-0 generator is byte-identical to a
    /// pre-tenant one.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Current generator clock (submission time of the next packet is
    /// strictly after this).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Generates the next packet, advancing the internal clock.
    pub fn next_packet(&mut self, rng: &mut Rng) -> Packet {
        // Draw order (gap, size, destination) is part of the output
        // contract: every seeded run depends on it.
        let gap = self.next_gap(rng);
        self.clock += gap;
        let size = round_u64(self.size_bytes.sample(rng)).clamp(1, u32::MAX as u64) as u32;
        let dest = self.targets[rng.next_below(self.targets.len() as u64) as usize];
        let id = PacketId(self.next_id);
        self.next_id += 1;
        Packet::new(id, self.kind, size, dest, self.queue, self.clock).with_tenant(self.tenant)
    }

    fn next_gap(&mut self, rng: &mut Rng) -> SimDuration {
        let clock = self.clock;
        match &self.pattern {
            ArrivalPattern::OpenLoop { gap_us } => gap_us.sample_micros(rng),
            ArrivalPattern::OnOff {
                on_us,
                off_us,
                burst_gap_us,
            } => {
                // Initialise the first burst lazily.
                let burst_ends = self
                    .onoff
                    .get_or_insert_with(|| clock + on_us.sample_micros(rng));
                let gap = burst_gap_us.sample_micros(rng);
                if clock + gap <= *burst_ends {
                    gap
                } else {
                    // Burst exhausted: jump over the off period and
                    // start a new burst.
                    let off = off_us.sample_micros(rng);
                    let next_start = *burst_ends + off;
                    let on = on_us.sample_micros(rng);
                    let silent = next_start.saturating_since(clock);
                    *burst_ends = next_start + on;
                    silent + burst_gap_us.sample_micros(rng)
                }
            }
            ArrivalPattern::Modulated {
                base_gap_us,
                profile,
                slot,
            } => {
                let base = base_gap_us.sample_micros(rng);
                if profile.is_empty() || slot.is_zero() {
                    return base;
                }
                let idx = (clock.as_nanos() / slot.as_nanos().max(1)) as usize % profile.len();
                let rate = profile[idx].max(1e-6);
                SimDuration::from_nanos(round_u64(base.as_nanos() as f64 / rate))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_rate_matches() {
        let mut g = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(10.0),
            },
            Dist::constant(512.0),
            IoKind::Network,
            vec![CpuId(0), CpuId(1)],
        );
        let mut rng = Rng::new(42);
        let n = 50_000;
        for _ in 0..n {
            g.next_packet(&mut rng);
        }
        // Mean gap 10 µs ⇒ 50k packets ≈ 500 ms.
        let elapsed_ms = g.clock().as_millis_f64();
        assert!((elapsed_ms - 500.0).abs() / 500.0 < 0.03, "{elapsed_ms} ms");
    }

    #[test]
    fn random_spray_covers_all_targets() {
        let mut g = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::constant(1.0),
            },
            Dist::constant(64.0),
            IoKind::Network,
            (0..8).map(CpuId).collect(),
        );
        let mut rng = Rng::new(2);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[g.next_packet(&mut rng).dest_cpu.0 as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "cpu{i} got {c}");
        }
    }

    #[test]
    fn ids_and_times_monotone() {
        let mut g = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(5.0),
            },
            Dist::uniform(64.0, 1500.0),
            IoKind::Storage,
            vec![CpuId(0)],
        );
        let mut rng = Rng::new(2);
        let mut last_t = SimTime::ZERO;
        for i in 0..1000 {
            let p = g.next_packet(&mut rng);
            assert_eq!(p.id.0, i);
            assert!(p.submitted_at >= last_t);
            assert!((64..=1500).contains(&p.size_bytes));
            last_t = p.submitted_at;
        }
    }

    #[test]
    fn onoff_produces_bursts_and_silences() {
        let mut g = TrafficGen::new(
            ArrivalPattern::OnOff {
                on_us: Dist::constant(100.0),
                off_us: Dist::constant(900.0),
                burst_gap_us: Dist::constant(2.0),
            },
            Dist::constant(64.0),
            IoKind::Network,
            vec![CpuId(0)],
        );
        let mut rng = Rng::new(3);
        let mut gaps = Vec::new();
        let mut last = SimTime::ZERO;
        for _ in 0..2000 {
            let p = g.next_packet(&mut rng);
            gaps.push(p.submitted_at.saturating_since(last).as_nanos());
            last = p.submitted_at;
        }
        let big = gaps.iter().filter(|&&g| g > 500_000).count();
        let small = gaps.iter().filter(|&&g| g <= 5_000).count();
        // ~50 packets per 100 µs burst, ~1 silence per burst.
        assert!(big >= 20, "expected silences, got {big}");
        assert!(small > 1500, "expected dense bursts, got {small}");
    }

    #[test]
    fn modulated_changes_rate_by_slot() {
        let mut g = TrafficGen::new(
            ArrivalPattern::Modulated {
                base_gap_us: Dist::constant(10.0),
                profile: vec![1.0, 4.0],
                slot: SimDuration::from_millis(10),
            },
            Dist::constant(64.0),
            IoKind::Network,
            vec![CpuId(0)],
        );
        let mut rng = Rng::new(4);
        // Count arrivals in the first 10 ms (rate 1×) vs second (4×).
        let mut counts = [0u32; 2];
        loop {
            let p = g.next_packet(&mut rng);
            let t = p.submitted_at.as_nanos();
            if t >= 20_000_000 {
                break;
            }
            counts[(t / 10_000_000) as usize] += 1;
        }
        assert!(counts[1] > counts[0] * 3, "modulation missing: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "needs target CPUs")]
    fn empty_targets_panics() {
        TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::constant(1.0),
            },
            Dist::constant(64.0),
            IoKind::Network,
            vec![],
        );
    }
}
