//! Steady-state allocation audit for the machine hot loop.
//!
//! Installs the counting allocator ([`taichi_sim::alloc`]) as this test
//! binary's global allocator, warms a full bench-grade machine up past
//! its allocation fixed point (slab growth, wheel ramp-up, histogram
//! resizes, scratch-buffer spills), and then asserts that dispatching
//! tens of thousands of further events performs **zero** heap
//! allocations, reallocations, or frees. This pins the perf contract
//! directly rather than via throughput numbers: any new per-event
//! `Vec`/`Box`/`clone` in the engine, kernel, or dataplane shows up
//! here as a hard failure, on any machine, regardless of how fast the
//! CI runner is.
//!
//! The warm-up is 40 ms of simulated time because every machine grows
//! its storage on demand (event slab, wheel bucket-head chunks, rx
//! rings, payload arena) and that first-touch growth ends by about
//! 40 ms on this workload: the window after it is the steady state.
//! The window must still end before the synth_cp batch completes, so
//! it keeps covering the vCPU harvest path (a [100, 200) ms window has
//! no vCPU yields at all); it asserts that it saw some.
//!
//! This file must stay a **single-test binary**: the allocator counters
//! are process-global, so a sibling test thread allocating concurrently
//! would leak into the measurement window.

use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_cp::SynthCp;
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::alloc::{self, CountingAlloc};
use taichi_sim::{Dist, Rng, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The `bench_engine` machine: bursty 8-CPU network traffic plus an
/// 8-task synth_cp batch — the workload the perf acceptance numbers
/// are quoted on.
fn build(mode: Mode) -> Machine {
    let mut m = Machine::new(MachineConfig::default(), mode);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));
    let synth = SynthCp::default();
    let mut rng = Rng::new(1);
    m.schedule_cp_batch(synth.workload(8, &mut rng), SimTime::ZERO);
    m
}

#[test]
fn steady_state_dispatch_is_allocation_free() {
    assert!(alloc::is_installed(), "counting allocator not installed");

    let mut m = build(Mode::TaiChi);

    // Warm-up: 40 ms of simulated time brings every reusable buffer to
    // its high-water capacity (event slab, wheel chunks, rx rings,
    // kernel run queues, latency histograms, scratch vectors).
    m.run_until(SimTime::from_millis(40));
    let warm_events = m.events_processed();
    let warm_yields = m.vsched().total_yields();
    assert!(
        warm_events > 10_000,
        "warm-up too quiet ({warm_events} events) — workload drifted?"
    );

    // Measurement window: another 10 ms of simulated time.
    let before = alloc::snapshot();
    m.run_until(SimTime::from_millis(50));
    let delta = alloc::snapshot().since(before);

    let events = m.events_processed() - warm_events;
    assert!(
        events > 40_000,
        "measurement window too quiet ({events} events) — workload drifted?"
    );
    let yields = m.vsched().total_yields() - warm_yields;
    assert!(
        yields > 0,
        "measurement window saw no vCPU yield — it no longer covers the harvest path"
    );
    assert_eq!(
        delta.allocation_events(),
        0,
        "hot loop allocated: {} allocs + {} reallocs ({} bytes) over {} events",
        delta.allocs,
        delta.reallocs,
        delta.bytes,
        events
    );
    assert_eq!(
        delta.deallocs, 0,
        "hot loop freed memory ({} deallocs) — something is dropping per event",
        delta.deallocs
    );
}
