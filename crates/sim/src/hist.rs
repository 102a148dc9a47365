//! HDR-style log-linear histogram for latency recording.
//!
//! Values (typically nanoseconds) are bucketed with bounded relative
//! error: each power-of-two range is split into `SUB_BUCKETS` linear
//! sub-buckets, giving ~1.6% worst-case relative error with the default
//! of 64 sub-buckets — more than enough to report the percentiles the
//! paper's tables use (p50/p99/p999, min/avg/max/mdev).

use std::fmt;

/// Sub-buckets per power-of-two range; must be a power of two.
const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// A log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    sum_sq: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            sum_sq: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value as u128);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let v = value as f64;
        self.sum_sq += v * v;
    }

    /// Merges another histogram into this one.
    ///
    /// Everything the fleet fold exports — bucket counts, `count`,
    /// `sum`, `min`/`max`, and therefore every quantile and the mean —
    /// is accumulated in saturating integer arithmetic, so the merge
    /// is exactly commutative and associative regardless of fold
    /// order. Only `sum_sq` (feeding [`Histogram::stddev`]) is a
    /// float accumulation and thus order-sensitive; order-invariant
    /// consumers must not export it.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.sum_sq += other.sum_sq;
    }

    /// Clears every sample while keeping the bucket vector's capacity,
    /// so epoch-oriented drivers can drain a histogram into an
    /// aggregate and reuse it allocation-free. Observably identical to
    /// a freshly constructed histogram: trailing zero buckets never
    /// affect counts, quantiles, or merges.
    pub fn reset(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum_sq = 0.0;
    }

    /// Heap bytes held by the bucket vector (its capacity, which
    /// [`Histogram::reset`] keeps).
    pub fn resident_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Population standard deviation (0.0 when fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.mean();
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Value at quantile `q` in `[0, 1]`, by bucket interpolation.
    ///
    /// Returns 0 for an empty histogram. `q <= 0` returns the minimum,
    /// `q >= 1` the maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                let (lo, hi) = Self::bucket_bounds(idx);
                // Report the bucket midpoint, clamped to observed range.
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience alias: percentile in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.quantile(p / 100.0)
    }

    /// Counts samples in `[lo, hi)` by whole-bucket attribution.
    pub fn count_between(&self, lo: u64, hi: u64) -> u64 {
        let mut total = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (blo, bhi) = Self::bucket_bounds(idx);
            let mid = blo + (bhi - blo) / 2;
            if mid >= lo && mid < hi {
                total += c;
            }
        }
        total
    }

    /// Maps a value to its bucket index.
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = ((value >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
        ((exp - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Returns the `[lo, hi)` value range covered by bucket `idx`.
    ///
    /// The top tier's last bucket nominally ends at 2^64, which does
    /// not fit in a `u64`; its upper bound saturates to `u64::MAX`
    /// (the bucket is closed at the top instead of half-open). Without
    /// the saturation, recording a value at or near `u64::MAX` and
    /// then asking for any quantile overflowed the bound computation.
    fn bucket_bounds(idx: usize) -> (u64, u64) {
        let tier = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if tier == 0 {
            return (sub, sub + 1);
        }
        let shift = tier as u32 - 1;
        let base = (SUB_BUCKETS as u64) << shift;
        let width = 1u64 << shift;
        (
            base.saturating_add(sub * width),
            base.saturating_add(sub.saturating_add(1).saturating_mul(width)),
        )
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("mean", &self.mean())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn empty_percentile_edges_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 0);
        assert_eq!(h.stddev(), 0.0);
    }

    #[test]
    fn quantile_extremes_hit_exact_min_and_max() {
        let mut h = Histogram::new();
        for v in [17u64, 900, 123_456, 7_777_777] {
            h.record(v);
        }
        // p=0 and p=100 bypass bucket interpolation and report the
        // exact observed extremes (as do out-of-range quantiles).
        assert_eq!(h.percentile(0.0), 17);
        assert_eq!(h.percentile(100.0), 7_777_777);
        assert_eq!(h.quantile(-0.5), 17);
        assert_eq!(h.quantile(1.5), 7_777_777);
    }

    #[test]
    fn merge_into_empty_adopts_other_extremes() {
        let mut empty = Histogram::new();
        let mut other = Histogram::new();
        other.record(5);
        other.record(50);
        empty.merge(&other);
        // An empty self starts with min = u64::MAX sentinel; the merge
        // must not leak it.
        assert_eq!(empty.min(), 5);
        assert_eq!(empty.max(), 50);
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(30);
        let before = (h.count(), h.min(), h.max(), h.mean());
        h.merge(&Histogram::new());
        assert_eq!((h.count(), h.min(), h.max(), h.mean()), before);
        // Merging two empties stays a well-formed empty histogram.
        let mut e = Histogram::new();
        e.merge(&Histogram::new());
        assert_eq!(e.min(), 0);
        assert_eq!(e.max(), 0);
        assert!(e.is_empty());
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 3, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 3.8).abs() < 1e-9);
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_contain_values() {
        let mut prev_hi = 0u64;
        for idx in 0..(SUB_BUCKETS * 10) {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(lo, prev_hi, "gap at bucket {idx}");
            assert!(hi > lo);
            prev_hi = hi;
        }
    }

    #[test]
    fn index_and_bounds_agree() {
        // Every probed value must land in a bucket whose bounds contain it.
        let probes: Vec<u64> = (0..64)
            .chain([
                64,
                65,
                100,
                127,
                128,
                1000,
                4096,
                1 << 20,
                (1 << 40) + 12345,
            ])
            .collect();
        for v in probes {
            let idx = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v && v < hi, "value {v} not in bucket [{lo},{hi})");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        let v = 1_234_567u64;
        h.record(v);
        let got = h.quantile(0.5);
        let err = (got as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.02, "relative error {err}");
    }

    #[test]
    fn percentiles_ordering() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 100);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        // p50 of uniform 100..=1_000_000 is ~500_000.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.05, "{p50}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for i in 0..500u64 {
            a.record(i * 3);
            combined.record(i * 3);
        }
        for i in 0..700u64 {
            b.record(i * 7 + 1);
            combined.record(i * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        assert_eq!(a.percentile(50.0), combined.percentile(50.0));
        assert_eq!(a.percentile(99.0), combined.percentile(99.0));
    }

    #[test]
    fn top_bucket_bounds_saturate_instead_of_overflowing() {
        // Recording a value in the topmost bucket and then asking for a
        // quantile used to overflow `bucket_bounds` (the nominal upper
        // bound of the last bucket is 2^64).
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Mid-bucket interpolation stays clamped to the observed range.
        let p50 = h.quantile(0.5);
        assert!(p50 >= h.min() && p50 <= h.max());
        let idx = Histogram::bucket_index(u64::MAX);
        let (lo, hi) = Histogram::bucket_bounds(idx);
        assert_eq!(hi, u64::MAX, "top bucket saturates instead of overflowing");
        assert!(hi > lo);
    }

    #[test]
    fn merge_of_disjoint_ranges_matches_combined() {
        // One histogram entirely below the other, with the upper one
        // reaching the saturated top bucket.
        let mut lo = Histogram::new();
        let mut hi = Histogram::new();
        let mut combined = Histogram::new();
        for v in [1u64, 2, 5, 60, 63] {
            lo.record(v);
            combined.record(v);
        }
        for v in [u64::MAX - 7, u64::MAX - 1, u64::MAX] {
            hi.record(v);
            combined.record(v);
        }
        let mut merged = lo.clone();
        merged.merge(&hi);
        assert_eq!(merged.count(), combined.count());
        assert_eq!(merged.min(), combined.min());
        assert_eq!(merged.max(), combined.max());
        assert_eq!(merged.quantile(0.0), 1);
        assert_eq!(merged.quantile(1.0), u64::MAX);
        for q in [0.1, 0.25, 0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q), combined.quantile(q), "q={q}");
        }
        // Merge in the opposite order: identical integer state.
        let mut rev = hi.clone();
        rev.merge(&lo);
        assert_eq!(rev.count(), merged.count());
        assert_eq!(rev.quantile(0.5), merged.quantile(0.5));
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        // Each self-merge doubles the count; 64 doublings of one sample
        // would wrap to zero without saturation.
        let mut a = Histogram::new();
        a.record(100);
        for _ in 0..64 {
            let copy = a.clone();
            a.merge(&copy);
        }
        assert_eq!(a.count(), u64::MAX);
        // Quantiles stay well-defined on a saturated histogram.
        let q = a.quantile(0.5);
        assert!(q >= a.min() && q <= a.max());
    }

    #[test]
    fn quantile_on_merged_then_empty_stays_zero() {
        // Folding nothing but empties (a fleet epoch where no machine
        // completed a packet) must leave every quantile at the empty
        // sentinel, not leak min = u64::MAX through interpolation.
        let mut acc = Histogram::new();
        for _ in 0..4 {
            acc.merge(&Histogram::new());
        }
        assert!(acc.is_empty());
        assert_eq!(acc.quantile(0.5), 0);
        assert_eq!(acc.percentile(99.0), 0);
        assert_eq!(acc.min(), 0);
        assert_eq!(acc.max(), 0);
    }

    /// Randomized merge trees: fold a pool of leaf histograms in a
    /// random binary-tree order and compare against recording every
    /// sample into one histogram. Everything integer-valued must match
    /// exactly, independent of tree shape.
    #[test]
    fn randomized_merge_trees_equal_combined_recording() {
        let mut rng = crate::rng::Rng::new(0x4157_0001);
        for round in 0..20 {
            let leaves = 2 + (round % 7) as usize;
            let mut pool = Vec::new();
            let mut combined = Histogram::new();
            for _ in 0..leaves {
                let mut h = Histogram::new();
                let samples = rng.gen_range(0, 200); // empties included
                for _ in 0..samples {
                    // Mix magnitudes: sub-bucket exact values, mid-range,
                    // and occasional top-tier extremes.
                    let v = match rng.next_below(10) {
                        0 => rng.next_below(64),
                        1..=7 => rng.next_below(10_000_000),
                        8 => u64::MAX - rng.next_below(1000),
                        _ => rng.next_u64(),
                    };
                    h.record(v);
                    combined.record(v);
                }
                pool.push(h);
            }
            // Random merge tree: repeatedly merge two random nodes.
            while pool.len() > 1 {
                let i = rng.next_below(pool.len() as u64) as usize;
                let right = pool.swap_remove(i);
                let j = rng.next_below(pool.len() as u64) as usize;
                pool[j].merge(&right);
            }
            let folded = &pool[0];
            assert_eq!(folded.count(), combined.count(), "round {round}");
            assert_eq!(folded.min(), combined.min(), "round {round}");
            assert_eq!(folded.max(), combined.max(), "round {round}");
            assert_eq!(
                folded.mean().to_bits(),
                combined.mean().to_bits(),
                "round {round}: integer sum/count mean must be exact"
            );
            for p in [0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    folded.percentile(p),
                    combined.percentile(p),
                    "round {round} p{p}"
                );
            }
        }
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(42);
        }
        assert!(h.stddev() < 1e-9);
    }

    #[test]
    fn stddev_known_case() {
        let mut h = Histogram::new();
        h.record(2);
        h.record(4);
        h.record(4);
        h.record(4);
        h.record(5);
        h.record(5);
        h.record(7);
        h.record(9);
        // Classic example: population stddev = 2.
        assert!((h.stddev() - 2.0).abs() < 1e-9, "{}", h.stddev());
    }
}
