//! Online summary statistics and utilization meters.

use crate::time::{SimDuration, SimTime};

/// Welford online mean/variance accumulator.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A monotone event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Tracks the busy fraction of a resource over simulated time.
///
/// The meter is driven by `set_busy`/`set_idle` transitions; utilization
/// over any window is busy-time divided by elapsed time. Sampled
/// windows (e.g. per-second readings for the Fig. 3 CDF) are produced by
/// [`UtilizationMeter::sample_and_reset`].
#[derive(Clone, Debug)]
pub struct UtilizationMeter {
    busy_since: Option<SimTime>,
    busy_accum: SimDuration,
    window_start: SimTime,
    total_busy: SimDuration,
    created: SimTime,
    /// Furthest point in simulated time that busy spans have been
    /// folded to. Poll-mode services account whole bursts eagerly, so
    /// spans routinely end *after* the clock that later queries the
    /// meter — the frontier lets samples credit that overhang to the
    /// windows it actually occupies instead of the window that folded
    /// it (which read >1.0 before the clamp, and starved its
    /// successor).
    frontier: SimTime,
}

impl UtilizationMeter {
    /// Creates a meter that considers the resource idle at `now`.
    pub fn new(now: SimTime) -> Self {
        UtilizationMeter {
            busy_since: None,
            busy_accum: SimDuration::ZERO,
            window_start: now,
            total_busy: SimDuration::ZERO,
            created: now,
            frontier: now,
        }
    }

    /// Marks the resource busy starting at `now` (idempotent).
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the resource idle at `now` (idempotent). `now` may lie in
    /// the future relative to the querying clock — see `frontier`.
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            let d = now.saturating_since(since);
            self.busy_accum += d;
            self.total_busy += d;
            self.frontier = self.frontier.max(now);
        }
    }

    /// Returns the utilization of the window since the last sample and
    /// starts a new window.
    ///
    /// Busy time folded beyond `now` (a poll burst that ends after the
    /// sample boundary) is *carried* into the next window rather than
    /// credited to this one, so a window can neither exceed 1.0 from
    /// borrowed future work nor leave its successor short.
    pub fn sample_and_reset(&mut self, now: SimTime) -> f64 {
        // Close out any in-progress busy span into this window, then
        // re-open it for the next window.
        let reopen = self.busy_since.is_some();
        if reopen {
            self.set_idle(now);
        }
        let elapsed = now.saturating_since(self.window_start);
        let carry = SimDuration::from_nanos(
            self.frontier
                .saturating_since(now)
                .as_nanos()
                .min(self.busy_accum.as_nanos()),
        );
        let window_busy = self.busy_accum.as_nanos() - carry.as_nanos();
        let util = if elapsed.is_zero() {
            0.0
        } else {
            window_busy as f64 / elapsed.as_nanos() as f64
        };
        self.busy_accum = carry;
        self.window_start = now;
        if reopen {
            // Re-open past the fold frontier so the carried busy time
            // is never double-counted by the re-opened span.
            self.busy_since = Some(now.max(self.frontier));
        }
        util.min(1.0)
    }

    /// Lifetime utilization since creation. Busy time folded beyond
    /// `now` is clipped, so the ratio is exact rather than clamped.
    pub fn lifetime_utilization(&self, now: SimTime) -> f64 {
        let busy = self.total_busy(now);
        let elapsed = now.saturating_since(self.created);
        if elapsed.is_zero() {
            0.0
        } else {
            (busy.as_nanos() as f64 / elapsed.as_nanos() as f64).min(1.0)
        }
    }

    /// Total accumulated busy time up to `now`, including any open span
    /// and excluding busy time folded beyond `now`.
    pub fn total_busy(&self, now: SimTime) -> SimDuration {
        let mut busy = self.total_busy.as_nanos();
        if let Some(since) = self.busy_since {
            busy += now.saturating_since(since).as_nanos();
        }
        busy = busy.saturating_sub(self.frontier.saturating_since(now).as_nanos());
        SimDuration::from_nanos(busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn utilization_half_busy() {
        let mut m = UtilizationMeter::new(SimTime::ZERO);
        m.set_busy(SimTime::from_micros(0));
        m.set_idle(SimTime::from_micros(50));
        let u = m.sample_and_reset(SimTime::from_micros(100));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_spanning_window_boundary() {
        let mut m = UtilizationMeter::new(SimTime::ZERO);
        m.set_busy(SimTime::from_micros(80));
        // Busy spans the sample point; both windows should see their share.
        let u1 = m.sample_and_reset(SimTime::from_micros(100));
        assert!((u1 - 0.2).abs() < 1e-9, "u1 {u1}");
        m.set_idle(SimTime::from_micros(150));
        let u2 = m.sample_and_reset(SimTime::from_micros(200));
        assert!((u2 - 0.5).abs() < 1e-9, "u2 {u2}");
    }

    #[test]
    fn utilization_idempotent_transitions() {
        let mut m = UtilizationMeter::new(SimTime::ZERO);
        m.set_busy(SimTime::from_micros(10));
        m.set_busy(SimTime::from_micros(20)); // ignored
        m.set_idle(SimTime::from_micros(30));
        m.set_idle(SimTime::from_micros(40)); // ignored
        let u = m.sample_and_reset(SimTime::from_micros(100));
        assert!((u - 0.2).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn future_folded_span_is_carried_not_credited() {
        let mut m = UtilizationMeter::new(SimTime::ZERO);
        // A poll burst accounted eagerly: busy 80..120 folded at t=80,
        // i.e. before the t=100 sample boundary it straddles.
        m.set_busy(SimTime::from_micros(80));
        m.set_idle(SimTime::from_micros(120));
        let u1 = m.sample_and_reset(SimTime::from_micros(100));
        assert!((u1 - 0.2).abs() < 1e-9, "window 1 overcredited: {u1}");
        let u2 = m.sample_and_reset(SimTime::from_micros(200));
        assert!((u2 - 0.2).abs() < 1e-9, "window 2 starved: {u2}");
    }

    #[test]
    fn future_fold_never_exceeds_full_window() {
        let mut m = UtilizationMeter::new(SimTime::ZERO);
        // Bursts worth 150 µs of work folded inside a 100 µs window.
        m.set_busy(SimTime::ZERO);
        m.set_idle(SimTime::from_micros(150));
        let u1 = m.sample_and_reset(SimTime::from_micros(100));
        assert!((u1 - 1.0).abs() < 1e-9, "window 1 must saturate: {u1}");
        let u2 = m.sample_and_reset(SimTime::from_micros(200));
        assert!((u2 - 0.5).abs() < 1e-9, "window 2 gets the spill: {u2}");
        assert_eq!(
            m.total_busy(SimTime::from_micros(200)),
            SimDuration::from_micros(150)
        );
    }

    #[test]
    fn total_busy_clips_future_fold() {
        let mut m = UtilizationMeter::new(SimTime::ZERO);
        m.set_busy(SimTime::ZERO);
        m.set_idle(SimTime::from_micros(150));
        assert_eq!(
            m.total_busy(SimTime::from_micros(100)),
            SimDuration::from_micros(100)
        );
        let u = m.lifetime_utilization(SimTime::from_micros(100));
        assert!((u - 1.0).abs() < 1e-9, "lifetime clipped at now: {u}");
    }

    #[test]
    fn lifetime_utilization_counts_open_span() {
        let mut m = UtilizationMeter::new(SimTime::ZERO);
        m.set_busy(SimTime::from_micros(0));
        let u = m.lifetime_utilization(SimTime::from_micros(100));
        assert!((u - 1.0).abs() < 1e-9);
        assert_eq!(
            m.total_busy(SimTime::from_micros(100)),
            SimDuration::from_micros(100)
        );
    }
}
