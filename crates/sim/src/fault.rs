//! Seeded, deterministic fault injection.
//!
//! Tai Chi's central claim is that DP/CP co-scheduling stays safe under
//! adversarial timing — CP task storms, accelerator stalls, IPI
//! pressure — yet a simulator that only ever exercises the happy path
//! cannot test that. This module provides a **fault plan**: a set of
//! per-subsystem fault rates and magnitudes carried by the machine
//! configuration, plus an injector the machine owns and consults at
//! each decision point, just before the component call the fault
//! acts on (DESIGN.md §3.6 lists the draw sites in order).
//!
//! Determinism contract:
//!
//! - The injector draws from its own decorrelated RNG stream
//!   ([`Rng::stream`] with [`FAULT_STREAM`]), so enabling a fault knob
//!   never perturbs workload or traffic randomness — the *same packets
//!   arrive at the same times* and only the injected faults differ.
//! - An inactive plan ([`FaultPlan::is_active`] false) constructs **no
//!   injector at all**: every draw site is an untaken `None` branch, zero
//!   RNG draws happen, and runs are byte-identical to a build without
//!   the fault layer.
//! - Same seed + same plan ⇒ byte-identical runs, so every fault
//!   scenario is replayable and diffable from its trace TSV.
//!
//! The injector decides and counts ([`FaultStats`]); it emits nothing.
//! The machine traces each fired fault as a
//! [`TraceKind::FaultInject`](crate::trace::TraceKind::FaultInject)
//! event right after the draw, and its *reactions* as
//! [`TraceKind::Degrade`](crate::trace::TraceKind::Degrade) events, so
//! a trace diff shows both the blow and the parry.

use crate::rng::Rng;
use crate::time::SimDuration;

/// Stream index for the injector's decorrelated RNG (see
/// [`Rng::stream`]); chosen far from the traffic-generator indices.
pub const FAULT_STREAM: u64 = 0xFA_17;

/// How the scheduler responds to injected faults. Both knobs default
/// to the hardened behaviour; tests flip one off to prove the
/// invariant checker catches a broken policy. The rest of the
/// response (bounded IPI resends with backoff, the re-armed wakeup's
/// slack delay, the storm yield clamp) is fixed and lives with the
/// machine that applies it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradePolicy {
    /// Re-arm a kernel wakeup timer lost to fault injection.
    pub wakeup_rearm: bool,
    /// Re-raise the context-switch softirq when the raise was dropped.
    pub softirq_rearm: bool,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            wakeup_rearm: true,
            softirq_rearm: true,
        }
    }
}

/// A deterministic fault-injection plan. Rates are per-opportunity
/// probabilities in `[0, 1]`; a rate of zero disables the knob without
/// consuming randomness. The default plan is fully inactive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that an accelerator pipeline stage stalls while
    /// ingesting a packet.
    pub accel_stall_rate: f64,
    /// Stall length added to the packet's pipeline entry.
    pub accel_stall: SimDuration,
    /// Probability that an IPI/IRQ message is dropped in the fabric.
    pub ipi_drop_rate: f64,
    /// Probability that a surviving IPI/IRQ is delayed.
    pub ipi_delay_rate: f64,
    /// Fabric congestion delay applied to delayed interrupts.
    pub ipi_delay: SimDuration,
    /// Probability that a kernel wakeup timer is lost.
    pub wakeup_drop_rate: f64,
    /// Probability that a softirq raise is lost.
    pub softirq_drop_rate: f64,
    /// Probability that the eNIC rejects a descriptor (backpressure /
    /// transient overflow) even when the ring has room.
    pub enic_reject_rate: f64,
    /// Maximum jitter added to kernel timer programming (uniform in
    /// `[0, timer_jitter]`; zero disables the knob).
    pub timer_jitter: SimDuration,
    /// CP task-storm period; [`SimDuration::ZERO`] disables storms.
    pub storm_period: SimDuration,
    /// CP tasks spawned per storm burst.
    pub storm_tasks: u32,
    /// Graceful-degradation policy the scheduler applies in response.
    pub degrade: DegradePolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            accel_stall_rate: 0.0,
            accel_stall: SimDuration::from_micros(2),
            ipi_drop_rate: 0.0,
            ipi_delay_rate: 0.0,
            ipi_delay: SimDuration::from_micros(1),
            wakeup_drop_rate: 0.0,
            softirq_drop_rate: 0.0,
            enic_reject_rate: 0.0,
            timer_jitter: SimDuration::ZERO,
            storm_period: SimDuration::ZERO,
            storm_tasks: 4,
            degrade: DegradePolicy::default(),
        }
    }
}

impl FaultPlan {
    /// True when any fault knob can fire. An inactive plan builds no
    /// injector and leaves the simulation bit-for-bit unchanged.
    pub fn is_active(&self) -> bool {
        self.accel_stall_rate > 0.0
            || self.ipi_drop_rate > 0.0
            || self.ipi_delay_rate > 0.0
            || self.wakeup_drop_rate > 0.0
            || self.softirq_drop_rate > 0.0
            || self.enic_reject_rate > 0.0
            || !self.timer_jitter.is_zero()
            || !self.storm_period.is_zero()
    }

    /// A plan that fires every fault class at `rate`, with default
    /// magnitudes and a CP storm — the fault-matrix sweep ladder.
    pub fn uniform(rate: f64) -> Self {
        let mut p = FaultPlan {
            accel_stall_rate: rate,
            ipi_drop_rate: rate,
            ipi_delay_rate: rate,
            wakeup_drop_rate: rate,
            softirq_drop_rate: rate,
            enic_reject_rate: rate,
            ..FaultPlan::default()
        };
        if rate > 0.0 {
            p.timer_jitter = SimDuration::from_nanos(200);
            p.storm_period = SimDuration::from_millis(5);
        }
        p
    }

    /// Parses a compact `key=value,...` spec (the `TAICHI_FAULTS`
    /// format) on top of `self`. Keys: `accel`, `accel_stall_ns`,
    /// `ipi_drop`, `ipi_delay`, `ipi_delay_ns`, `wakeup_drop`,
    /// `softirq_drop`, `enic`, `jitter_ns`, `storm_us`, `storm_tasks`,
    /// `all` (sets every rate at once).
    pub fn apply_spec(mut self, spec: &str) -> Result<FaultPlan, String> {
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault knob {part:?} is not key=value"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("fault rate {v:?} for {key:?} is not a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault rate {r} for {key:?} is outside [0, 1]"));
                }
                Ok(r)
            };
            let nanos = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("fault magnitude {v:?} for {key:?} is not a u64"))
            };
            match key.trim() {
                "accel" => self.accel_stall_rate = rate(value)?,
                "accel_stall_ns" => self.accel_stall = SimDuration::from_nanos(nanos(value)?),
                "ipi_drop" => self.ipi_drop_rate = rate(value)?,
                "ipi_delay" => self.ipi_delay_rate = rate(value)?,
                "ipi_delay_ns" => self.ipi_delay = SimDuration::from_nanos(nanos(value)?),
                "wakeup_drop" => self.wakeup_drop_rate = rate(value)?,
                "softirq_drop" => self.softirq_drop_rate = rate(value)?,
                "enic" => self.enic_reject_rate = rate(value)?,
                "jitter_ns" => self.timer_jitter = SimDuration::from_nanos(nanos(value)?),
                "storm_us" => self.storm_period = SimDuration::from_micros(nanos(value)?),
                "storm_tasks" => {
                    self.storm_tasks = nanos(value)? as u32;
                }
                "all" => {
                    let r = rate(value)?;
                    self.accel_stall_rate = r;
                    self.ipi_drop_rate = r;
                    self.ipi_delay_rate = r;
                    self.wakeup_drop_rate = r;
                    self.softirq_drop_rate = r;
                    self.enic_reject_rate = r;
                }
                other => return Err(format!("unknown fault knob {other:?}")),
            }
        }
        Ok(self)
    }
}

/// What the fabric did to an interrupt message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiFate {
    /// Delivered normally.
    Deliver,
    /// Delivered after an extra congestion delay.
    Delay(SimDuration),
    /// Lost in the fabric.
    Drop,
}

/// Counters for every fault the injector fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Accelerator pipeline stalls injected.
    pub accel_stalls: u64,
    /// Interrupt messages dropped.
    pub ipi_drops: u64,
    /// Interrupt messages delayed.
    pub ipi_delays: u64,
    /// Kernel wakeup timers lost.
    pub wakeup_drops: u64,
    /// Softirq raises lost.
    pub softirq_drops: u64,
    /// eNIC descriptor rejections.
    pub enic_rejects: u64,
    /// Non-zero timer jitters applied.
    pub timer_jitters: u64,
    /// CP storm bursts fired.
    pub cp_storms: u64,
}

impl FaultStats {
    /// Total faults fired across all classes.
    pub fn total(&self) -> u64 {
        self.accel_stalls
            + self.ipi_drops
            + self.ipi_delays
            + self.wakeup_drops
            + self.softirq_drops
            + self.enic_rejects
            + self.timer_jitters
            + self.cp_storms
    }
}

/// The fault state a machine owns: the plan, its private RNG stream
/// and the counters of everything fired. Each draw takes `&mut self`
/// and reports its outcome; the owner traces what fired.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `plan`, drawing from a fault-private
    /// stream derived from the machine seed.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan,
            rng: Rng::stream(seed, FAULT_STREAM),
            stats: FaultStats::default(),
        }
    }

    /// Builds an injector only when the plan can fire; an inactive
    /// plan returns `None` so every draw site stays an untaken branch.
    pub fn from_plan(plan: &FaultPlan, seed: u64) -> Option<Self> {
        plan.is_active().then(|| FaultInjector::new(*plan, seed))
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The degradation policy in effect.
    pub fn degrade(&self) -> DegradePolicy {
        self.plan.degrade
    }

    /// Snapshot of everything fired so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// True (one draw) when a knob with probability `rate` fires; a
    /// zero rate never draws.
    fn fires(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.chance(rate)
    }

    /// Accelerator ingest: `Some(stall)` when the pipeline stage
    /// stalls for the next packet.
    pub fn accel_stall(&mut self) -> Option<SimDuration> {
        if !self.fires(self.plan.accel_stall_rate) {
            return None;
        }
        self.stats.accel_stalls += 1;
        Some(self.plan.accel_stall)
    }

    /// Interrupt fabric: what happens to one message. Drop is drawn
    /// before delay so a plan with both rates set drops at
    /// `ipi_drop_rate` and delays survivors at `ipi_delay_rate`.
    pub fn ipi_fate(&mut self) -> IpiFate {
        if self.fires(self.plan.ipi_drop_rate) {
            self.stats.ipi_drops += 1;
            return IpiFate::Drop;
        }
        if self.fires(self.plan.ipi_delay_rate) {
            self.stats.ipi_delays += 1;
            return IpiFate::Delay(self.plan.ipi_delay);
        }
        IpiFate::Deliver
    }

    /// Kernel timers: true when a wakeup arm is lost.
    pub fn wakeup_dropped(&mut self) -> bool {
        let fired = self.fires(self.plan.wakeup_drop_rate);
        self.stats.wakeup_drops += u64::from(fired);
        fired
    }

    /// Softirq subsystem: true when a raise is lost.
    pub fn softirq_dropped(&mut self) -> bool {
        let fired = self.fires(self.plan.softirq_drop_rate);
        self.stats.softirq_drops += u64::from(fired);
        fired
    }

    /// eNIC ring: true when a descriptor is rejected (backpressure).
    pub fn enic_reject(&mut self) -> bool {
        let fired = self.fires(self.plan.enic_reject_rate);
        self.stats.enic_rejects += u64::from(fired);
        fired
    }

    /// Timer programming: jitter to add, uniform in
    /// `[0, plan.timer_jitter]` (zero plan ⇒ zero without a draw). A
    /// non-zero jitter counts as fired.
    pub fn timer_jitter(&mut self) -> SimDuration {
        let max = self.plan.timer_jitter.as_nanos();
        if max == 0 {
            return SimDuration::ZERO;
        }
        let j = self.rng.gen_range(0, max + 1);
        self.stats.timer_jitters += u64::from(j > 0);
        SimDuration::from_nanos(j)
    }

    /// CP storm burst: counts the burst and returns a child RNG for
    /// building the storm's task programs.
    pub fn storm(&mut self) -> Rng {
        self.stats.cp_storms += 1;
        self.rng.fork()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive_and_builds_no_injector() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(FaultInjector::from_plan(&plan, 1).is_none());
    }

    #[test]
    fn uniform_plan_is_active() {
        assert!(FaultPlan::uniform(0.1).is_active());
        assert!(!FaultPlan::uniform(0.0).is_active());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::uniform(0.3);
        let mut a = FaultInjector::new(plan, 42);
        let mut b = FaultInjector::new(plan, 42);
        for _ in 0..64 {
            assert_eq!(a.ipi_fate(), b.ipi_fate());
            assert_eq!(a.accel_stall(), b.accel_stall());
            assert_eq!(a.wakeup_dropped(), b.wakeup_dropped());
            assert_eq!(a.timer_jitter(), b.timer_jitter());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "0.3 over 256 draws must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let plan = FaultPlan::uniform(0.5);
        let mut a = FaultInjector::new(plan, 1);
        let mut b = FaultInjector::new(plan, 2);
        let fa: Vec<IpiFate> = (0..64).map(|_| a.ipi_fate()).collect();
        let fb: Vec<IpiFate> = (0..64).map(|_| b.ipi_fate()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_does() {
        let plan = FaultPlan {
            softirq_drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut f = FaultInjector::new(plan, 7);
        assert!(f.softirq_dropped());
        assert!(!f.wakeup_dropped(), "zero-rate knob never fires");
        assert!(!f.enic_reject());
        assert_eq!(f.stats().softirq_drops, 1);
    }

    #[test]
    fn spec_parses_and_rejects_bad_input() {
        let p = FaultPlan::default()
            .apply_spec("ipi_drop=0.25, enic=0.1, jitter_ns=500, storm_us=2000, storm_tasks=6")
            .expect("valid spec");
        assert_eq!(p.ipi_drop_rate, 0.25);
        assert_eq!(p.enic_reject_rate, 0.1);
        assert_eq!(p.timer_jitter, SimDuration::from_nanos(500));
        assert_eq!(p.storm_period, SimDuration::from_micros(2000));
        assert_eq!(p.storm_tasks, 6);
        assert!(p.is_active());

        assert!(FaultPlan::default().apply_spec("bogus=1").is_err());
        assert!(FaultPlan::default().apply_spec("ipi_drop=2.0").is_err());
        assert!(FaultPlan::default().apply_spec("ipi_drop").is_err());
        assert!(FaultPlan::default().apply_spec("accel_stall_ns=x").is_err());
    }

    #[test]
    fn spec_all_sets_every_rate() {
        let p = FaultPlan::default().apply_spec("all=0.05").expect("valid");
        assert_eq!(p.accel_stall_rate, 0.05);
        assert_eq!(p.ipi_drop_rate, 0.05);
        assert_eq!(p.enic_reject_rate, 0.05);
        assert_eq!(p.wakeup_drop_rate, 0.05);
    }
}
