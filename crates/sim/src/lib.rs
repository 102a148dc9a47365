//! Deterministic discrete-event simulation substrate for the Tai Chi
//! reproduction.
//!
//! This crate provides the building blocks every other crate in the
//! workspace rests on:
//!
//! - [`time`]: a nanosecond-resolution virtual clock ([`SimTime`],
//!   [`SimDuration`]).
//! - [`event`]: a deterministic event queue with FIFO tie-breaking and
//!   cancellation tokens, backed by a hierarchical timing wheel (test
//!   builds and the dev-only `oracle` feature add a heap-only reference
//!   mode).
//! - [`arena`]: a handle-addressed side table that keeps large event
//!   payloads out of the queue.
//! - [`inline_vec`]: an allocation-free small vector for hot-path
//!   scratch storage.
//! - [`alloc`]: a counting global-allocator wrapper backing the
//!   zero-allocations-per-event assertion.
//! - [`rng`]: a seedable, forkable pseudo-random number generator
//!   (SplitMix64-seeded xoshiro256**) so simulation runs are
//!   bit-reproducible across machines and Rust versions.
//! - [`dist`]: probability distributions (exponential, log-normal,
//!   Pareto, empirical, ...) used to model workloads and routine
//!   durations.
//! - [`hist`]: an HDR-style log-linear histogram for latency recording
//!   with percentile extraction.
//! - [`stats`]: online summary statistics, counters, and time-weighted
//!   utilization meters.
//! - [`fault`]: a seeded, deterministic fault-injection plan and the
//!   injector its one owner (the machine) draws from, decorrelated
//!   from workload randomness.
//! - [`report`]: plain-text table and CSV formatting used by the
//!   experiment binaries.
//!
//! Everything here is `std`-only and dependency-free by design: the
//! reproduction contract requires identical results for identical seeds.
//! Nothing here reads the process environment: every knob arrives as a
//! plain value from the caller's configuration.

pub mod alloc;
pub mod arena;
pub mod check;
pub mod dist;
pub mod event;
pub mod fault;
pub mod hist;
pub mod inline_vec;
pub mod par;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use arena::{Arena, ArenaStats};
pub use dist::{Dist, PreparedDist};
#[cfg(any(test, feature = "oracle"))]
pub use event::QueueBackend;
pub use event::{EventKey, EventQueue, EventToken};
pub use fault::{DegradePolicy, FaultInjector, FaultPlan, FaultStats, IpiFate};
pub use hist::Histogram;
pub use inline_vec::InlineVec;
pub use rng::Rng;
pub use stats::{Counter, OnlineStats, UtilizationMeter};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceConfig, TraceEvent, TraceKind, TraceTag, Tracer};

/// Heap bytes behind a `Vec`'s buffer: its capacity times the element
/// size. What the elements own in turn is the caller's to add.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// `x.round() as u64` — round half away from zero, saturating, NaN and
/// negatives to 0 — without a libm call. Baseline x86-64 has no
/// `roundsd`, so `f64::round` is a function call on the packet path.
/// Below 2^52 this truncates through `i64` and adds one when the
/// dropped fraction is at least one half; the signed conversions are
/// single instructions there, where the unsigned ones expand to
/// multi-instruction sequences that measured slower than the libm call.
/// Every `f64` at or above 2^52 is an integer, so truncation is exact,
/// and `as u64` already maps NaN and negatives to 0 and saturates.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    if x > 0.0 && x < 4_503_599_627_370_496.0 {
        let i = x as i64;
        (i + (x - i as f64 >= 0.5) as i64) as u64
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::round_u64;
    use crate::check::run_cases;

    fn assert_matches_libm(x: f64) {
        assert_eq!(
            round_u64(x),
            x.round() as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_u64_matches_libm_round_on_edge_cases() {
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        let p63 = (1u64 << 63) as f64;
        let p64 = 18_446_744_073_709_551_616.0;
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            -0.5,
            -0.4,
            -1.5,
            p52,
            p52 + 0.5,
            p52 - 0.5,
            p53,
            p53 - 1.0,
            p53 + 2.0,
            p63,
            p64,
            p64 * 2.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in edges {
            assert_matches_libm(x);
            assert_matches_libm(f64::from_bits(x.to_bits().wrapping_add(1)));
            assert_matches_libm(f64::from_bits(x.to_bits().wrapping_sub(1)));
        }
    }

    #[test]
    fn round_u64_matches_libm_round_on_random_values() {
        run_cases("round_u64", 64, |_, rng| {
            for _ in 0..4096 {
                // Random bit patterns cover every exponent, sign,
                // infinity and NaN payload.
                assert_matches_libm(f64::from_bits(rng.next_u64()));
                // Half-integers below 2^53 and their neighbours, the
                // values where truncate-and-compare could go wrong.
                let h = (rng.next_below(1 << 53) as f64) * 0.5;
                assert_matches_libm(h);
                assert_matches_libm(f64::from_bits(h.to_bits() + 1));
                assert_matches_libm(f64::from_bits(h.to_bits().saturating_sub(1)));
                // Magnitudes the simulator rounds: ns costs and sizes.
                assert_matches_libm(rng.next_f64() * 1e7);
            }
        });
    }
}
