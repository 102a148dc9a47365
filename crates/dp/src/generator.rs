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
//! A [`TrafficGen`] combines a pattern with a size distribution and a
//! destination-CPU spraying policy (round-robin over the DP CPUs,
//! matching RSS across queues).

use taichi_hw::{CpuId, IoKind, Packet, PacketId, TenantId};
use taichi_sim::{Dist, Rng, SimDuration, SimTime};

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

/// How packets are distributed across destination CPUs.
///
/// Hardware RSS hashes flows, so per-CPU arrivals look Poisson
/// ([`Spray::Random`], the default); [`Spray::RoundRobin`] produces
/// unrealistically smooth per-CPU gaps (Erlang-k) and is kept for
/// tests that need deterministic destinations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Spray {
    /// Uniformly random destination per packet (RSS-like).
    #[default]
    Random,
    /// Strict rotation over the target list.
    RoundRobin,
}

/// Internal on/off phase tracking.
#[derive(Clone, Debug)]
struct OnOffState {
    in_burst: bool,
    phase_ends: SimTime,
}

/// How the generator decides the next packet.
#[derive(Clone, Debug)]
enum Source {
    /// Synthetic arrivals from a pattern + size distribution.
    Synthetic {
        pattern: ArrivalPattern,
        size_bytes: Dist,
        targets: Vec<CpuId>,
        spray: Spray,
        next_target: usize,
        onoff: Option<OnOffState>,
    },
    /// Replay of a captured trace, looping with a cumulative offset.
    Replay {
        records: Vec<crate::trace::TraceRecord>,
        pos: usize,
        /// Time offset added on each loop iteration.
        offset_ns: u64,
        /// Gap inserted between iterations (one mean inter-arrival).
        wrap_gap_ns: u64,
    },
}

/// A packet source.
#[derive(Clone, Debug)]
pub struct TrafficGen {
    source: Source,
    kind: IoKind,
    queue: u32,
    tenant: TenantId,
    next_id: u64,
    clock: SimTime,
}

impl TrafficGen {
    /// Creates a generator spraying packets round-robin over `targets`.
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
            source: Source::Synthetic {
                pattern,
                size_bytes,
                targets,
                spray: Spray::Random,
                next_target: 0,
                onoff: None,
            },
            kind,
            queue: 0,
            tenant: TenantId::HOST,
            next_id: 0,
            clock: SimTime::ZERO,
        }
    }

    /// Creates a generator replaying a captured trace (see
    /// [`crate::trace::Trace::replayer`]). The replay loops with a
    /// cumulative offset so it provides a continuous workload.
    ///
    /// # Panics
    ///
    /// Panics when `records` is empty.
    pub fn replay(records: Vec<crate::trace::TraceRecord>, kind: IoKind) -> Self {
        assert!(!records.is_empty(), "cannot replay an empty trace");
        let duration = records.last().expect("non-empty").at_ns;
        let wrap_gap_ns = (duration / records.len() as u64).max(1);
        TrafficGen {
            source: Source::Replay {
                records,
                pos: 0,
                offset_ns: 0,
                wrap_gap_ns,
            },
            kind,
            queue: 0,
            tenant: TenantId::HOST,
            next_id: 0,
            clock: SimTime::ZERO,
        }
    }

    /// Sets the destination spraying policy (default [`Spray::Random`]).
    /// No effect on trace replay (destinations come from the trace).
    pub fn with_spray(mut self, spray: Spray) -> Self {
        if let Source::Synthetic { spray: s, .. } = &mut self.source {
            *s = spray;
        }
        self
    }

    /// Tags generated packets with a destination queue index. Queue 0
    /// is bulk traffic; services record non-zero queues separately,
    /// which latency-probe benchmarks (ping, sockperf) use to sample
    /// the data path sparsely and uniformly in time.
    pub fn with_queue(mut self, queue: u32) -> Self {
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
        let (at, size, dest) = match &mut self.source {
            Source::Replay {
                records,
                pos,
                offset_ns,
                wrap_gap_ns,
            } => {
                if *pos >= records.len() {
                    // Loop: shift the whole trace past the last packet.
                    let last = records.last().expect("non-empty").at_ns;
                    *offset_ns += last + *wrap_gap_ns;
                    *pos = 0;
                }
                let r = records[*pos];
                *pos += 1;
                (
                    SimTime::from_nanos(r.at_ns + *offset_ns),
                    r.size_bytes,
                    CpuId(r.dest_cpu),
                )
            }
            Source::Synthetic { .. } => {
                let gap = self.next_gap(rng);
                let at = self.clock + gap;
                let Source::Synthetic {
                    size_bytes,
                    targets,
                    spray,
                    next_target,
                    ..
                } = &mut self.source
                else {
                    unreachable!("matched Synthetic above");
                };
                let size = size_bytes.sample(rng).round().max(1.0) as u32;
                let dest = match spray {
                    Spray::Random => targets[rng.next_below(targets.len() as u64) as usize],
                    Spray::RoundRobin => {
                        let d = targets[*next_target % targets.len()];
                        *next_target += 1;
                        d
                    }
                };
                (at, size, dest)
            }
        };
        self.clock = at;
        let id = PacketId(self.next_id);
        self.next_id += 1;
        Packet::new(id, self.kind, size, dest, self.queue, self.clock).with_tenant(self.tenant)
    }

    fn next_gap(&mut self, rng: &mut Rng) -> SimDuration {
        let clock = self.clock;
        let Source::Synthetic { pattern, onoff, .. } = &mut self.source else {
            return SimDuration::ZERO;
        };
        match &*pattern {
            ArrivalPattern::OpenLoop { gap_us } => gap_us.sample_micros(rng),
            ArrivalPattern::OnOff {
                on_us,
                off_us,
                burst_gap_us,
            } => {
                // Initialise the first burst lazily.
                if onoff.is_none() {
                    let on = on_us.sample_micros(rng);
                    *onoff = Some(OnOffState {
                        in_burst: true,
                        phase_ends: clock + on,
                    });
                }
                let gap = burst_gap_us.sample_micros(rng);
                let st = onoff.as_mut().expect("initialised above");
                if clock + gap <= st.phase_ends {
                    gap
                } else {
                    // Burst exhausted: jump over the off period and
                    // start a new burst.
                    let off = off_us.sample_micros(rng);
                    let next_start = st.phase_ends + off;
                    let on = on_us.sample_micros(rng);
                    let silent = next_start.saturating_since(clock);
                    st.in_burst = true;
                    st.phase_ends = next_start + on;
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
                SimDuration::from_nanos((base.as_nanos() as f64 / rate).round() as u64)
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
    fn round_robin_spraying() {
        let mut g = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::constant(1.0),
            },
            Dist::constant(64.0),
            IoKind::Network,
            vec![CpuId(0), CpuId(1), CpuId(2)],
        )
        .with_spray(Spray::RoundRobin);
        let mut rng = Rng::new(1);
        let dests: Vec<u32> = (0..6).map(|_| g.next_packet(&mut rng).dest_cpu.0).collect();
        assert_eq!(dests, vec![0, 1, 2, 0, 1, 2]);
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

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::trace::{Trace, TraceRecord};

    fn trace() -> Trace {
        Trace::new(vec![
            TraceRecord {
                at_ns: 100,
                dest_cpu: 2,
                size_bytes: 64,
            },
            TraceRecord {
                at_ns: 300,
                dest_cpu: 5,
                size_bytes: 1500,
            },
        ])
    }

    #[test]
    fn replay_reproduces_records_exactly() {
        let mut g = trace().replayer(IoKind::Storage);
        let mut rng = Rng::new(123);
        let p1 = g.next_packet(&mut rng);
        let p2 = g.next_packet(&mut rng);
        assert_eq!(p1.submitted_at.as_nanos(), 100);
        assert_eq!(p1.dest_cpu, CpuId(2));
        assert_eq!(p1.size_bytes, 64);
        assert_eq!(p2.submitted_at.as_nanos(), 300);
        assert_eq!(p2.dest_cpu, CpuId(5));
        assert_eq!(p2.kind, IoKind::Storage);
    }

    #[test]
    fn replay_loops_with_offset() {
        let mut g = trace().replayer(IoKind::Network);
        let mut rng = Rng::new(1);
        let times: Vec<u64> = (0..6)
            .map(|_| g.next_packet(&mut rng).submitted_at.as_nanos())
            .collect();
        // wrap gap = 300/2 = 150; second loop offset 450, third 900.
        assert_eq!(times, vec![100, 300, 550, 750, 1000, 1200]);
    }

    #[test]
    fn replay_ignores_rng_seed() {
        let mut a = trace().replayer(IoKind::Network);
        let mut b = trace().replayer(IoKind::Network);
        let mut r1 = Rng::new(1);
        let mut r2 = Rng::new(999);
        for _ in 0..10 {
            let pa = a.next_packet(&mut r1);
            let pb = b.next_packet(&mut r2);
            assert_eq!(pa.submitted_at, pb.submitted_at);
            assert_eq!(pa.dest_cpu, pb.dest_cpu);
            assert_eq!(pa.size_bytes, pb.size_bytes);
        }
    }

    #[test]
    fn captured_trace_replays_through_a_machine_shape() {
        // Capture a synthetic trace, then verify the replayer emits the
        // identical packet sequence the capture saw.
        let mut synth = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(5.0),
            },
            Dist::uniform(64.0, 1500.0),
            IoKind::Network,
            (0..8).map(CpuId).collect(),
        );
        let mut rng = Rng::new(77);
        let t = Trace::capture(
            &mut synth,
            &mut rng,
            taichi_sim::SimDuration::from_millis(1),
        );
        assert!(t.len() > 100);
        let mut replay = t.replayer(IoKind::Network);
        let mut dummy = Rng::new(0);
        for r in t.records() {
            let p = replay.next_packet(&mut dummy);
            assert_eq!(p.submitted_at.as_nanos(), r.at_ns);
            assert_eq!(p.dest_cpu.0, r.dest_cpu);
            assert_eq!(p.size_bytes, r.size_bytes);
        }
    }
}
