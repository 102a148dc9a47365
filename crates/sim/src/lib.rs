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
//! - [`fault`]: a seeded, deterministic fault-injection plan the
//!   hardware and OS layers consult, decorrelated from workload
//!   randomness.
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
pub use event::{EventQueue, EventToken};
pub use fault::{DegradePolicy, FaultInjector, FaultPlan, FaultStats, IpiFate};
pub use hist::Histogram;
pub use inline_vec::InlineVec;
pub use rng::Rng;
pub use stats::{Counter, OnlineStats, UtilizationMeter};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceConfig, TraceEvent, TraceKind, TraceTag, Tracer};
