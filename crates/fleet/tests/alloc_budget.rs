//! Steady-state allocation budget for pooled fleet epochs.
//!
//! The pooled `EpochParallel` driver promises that once a rack is
//! warm, each additional epoch costs **O(machines)** allocator events
//! — one recycled `WorkerDelta` ping-pong per worker plus bounded
//! per-machine bookkeeping — never O(events): plan vectors, epoch
//! scratch, recorders, and channel messages are all reused, and every
//! simulated event runs inside preallocated (or lazily-grown, then
//! stable) machine storage.
//!
//! Measured differentially so fixed costs cancel: run the same rack
//! twice, once for `BASE_EPOCHS` and once for `BASE_EPOCHS + EXTRA`
//! epochs, under the counting global allocator. The difference is the
//! marginal cost of `EXTRA` steady-state epochs — thread spawns, rack
//! construction, machine warm-up, and result assembly appear in both
//! runs and subtract out (up to the small O(epochs) result rows).
//!
//! This lives in its own single-test integration binary because the
//! counting allocator's counters are process-global: a concurrent test
//! in the same process would pollute the measurement.

use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_sim::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MACHINES: usize = 64;
const BASE_EPOCHS: usize = 2;
const EXTRA_EPOCHS: usize = 4;

fn config(epochs: usize) -> FleetConfig {
    FleetConfig {
        machines: MACHINES,
        epochs,
        churn_per_epoch: 2.0,
        // No storm: the storm's rack-wide VM creation burst is a
        // deliberate, bounded allocation spike; the budget here pins
        // the steady state.
        storm_epoch: None,
        ..FleetConfig::default()
    }
}

#[test]
fn steady_state_epochs_allocate_per_machine_not_per_event() {
    assert!(alloc::is_installed(), "counting allocator must be global");
    let driver = FleetDriver::EpochParallel { workers: 2 };

    // Warm-up run so lazily initialized process state (thread-pool
    // bookkeeping, environment caches) does not bill the first
    // measured run.
    let _ = run(&config(BASE_EPOCHS), driver);

    let before_short = alloc::snapshot();
    let short = run(&config(BASE_EPOCHS), driver);
    let short_delta = alloc::snapshot().since(before_short);

    let before_long = alloc::snapshot();
    let long = run(&config(BASE_EPOCHS + EXTRA_EPOCHS), driver);
    let long_delta = alloc::snapshot().since(before_long);

    assert_eq!(short.violation_count, 0);
    assert_eq!(long.violation_count, 0);

    // The marginal epochs must be doing real per-event work, or the
    // O(machines) bound below would be vacuous.
    let short_events: u64 = short.epochs.iter().map(|r| r.events).sum();
    let long_events: u64 = long.epochs.iter().map(|r| r.events).sum();
    let extra_events = long_events - short_events;
    assert!(
        extra_events > 100_000,
        "marginal epochs simulated too little: {extra_events} events"
    );

    let extra_allocs = long_delta
        .allocation_events()
        .saturating_sub(short_delta.allocation_events());

    // Budget: a small constant per machine per marginal epoch. The
    // real costs are the per-worker delta recycling (O(workers) ≪
    // O(machines)), per-plan flow/VM pushes that exceed a previous
    // epoch's high-water capacity, diurnal load growth re-sizing
    // machine slabs toward their plateau, and O(epochs) result rows.
    // 32 events per machine-epoch gives those room while sitting three
    // orders of magnitude below the per-event regime (~7k events per
    // machine-epoch here).
    let budget = (MACHINES * EXTRA_EPOCHS * 32) as u64;
    eprintln!(
        "marginal cost of {EXTRA_EPOCHS} epochs x {MACHINES} machines: \
         {extra_allocs} allocator events over {extra_events} simulated \
         events (budget {budget})"
    );
    assert!(
        extra_allocs <= budget,
        "steady-state fleet epochs allocated O(events): {extra_allocs} \
         allocator events for {EXTRA_EPOCHS} marginal epochs x {MACHINES} \
         machines ({extra_events} simulated events; budget {budget})"
    );
}
