//! Fleet determinism matrix: the rack-level CSV and aggregate
//! fingerprint must be **byte-identical** across
//! `{wheel, heap}` queue backends × `{skip on, skip off}` ×
//! `{sequential, epoch-parallel}` drivers × `{1, 4}` workers ×
//! `{hot, fleet}` footprint profiles.
//!
//! This is the fleet analogue of the machine-level `identity` harness
//! in `taichi-bench`: machine-level identity says one NIC's exports
//! don't depend on the scheduling core's implementation; fleet
//! identity additionally says the rack fold doesn't depend on how
//! machines are sharded across worker threads or in what order their
//! epoch deltas arrive. Every cell is selected through the fleet's
//! machine template (`FleetConfig::machine`), so nothing here touches
//! process-global state.

use taichi_core::SkipMode;
use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_sim::{FootprintProfile, QueueBackend, SimDuration};

fn config() -> FleetConfig {
    FleetConfig {
        machines: 6,
        epochs: 5,
        epoch_len: SimDuration::from_millis(2),
        seed: 0x0F1E_E71D,
        churn_per_epoch: 1.5,
        storm_epoch: Some(2),
        storm_vms_per_machine: 2,
        check_invariants: true,
        ..FleetConfig::default()
    }
}

struct Artifacts {
    fingerprint: Vec<u64>,
    epoch_csv: String,
    summary_csv: String,
}

fn collect(
    queue: QueueBackend,
    skip: SkipMode,
    driver: FleetDriver,
    footprint: FootprintProfile,
) -> Artifacts {
    let mut cfg = config();
    cfg.machine.queue = queue;
    cfg.machine.skip = skip;
    cfg.machine.footprint = footprint;
    let result = run(&cfg, driver);
    assert_eq!(
        result.violation_count, 0,
        "invariants must hold on every machine at every epoch boundary \
         ({queue:?}/{skip:?}/{driver:?}/{footprint:?}): {:?}",
        result.violations
    );
    Artifacts {
        fingerprint: result.fingerprint(),
        epoch_csv: result.epoch_table().to_csv(),
        summary_csv: result.summary_table().to_csv(),
    }
}

#[test]
fn rack_artifacts_are_byte_identical_across_the_matrix() {
    let drivers = [
        FleetDriver::Sequential,
        FleetDriver::EpochParallel { workers: 1 },
        FleetDriver::EpochParallel { workers: 4 },
    ];
    let cells = [
        (QueueBackend::Wheel, SkipMode::On),
        (QueueBackend::Wheel, SkipMode::Off),
        (QueueBackend::Heap, SkipMode::On),
        (QueueBackend::Heap, SkipMode::Off),
    ];

    let profiles = [FootprintProfile::Fleet, FootprintProfile::Hot];

    // Reference: the production cell under the reference driver.
    let baseline = collect(cells[0].0, cells[0].1, drivers[0], profiles[0]);
    assert!(
        baseline.epoch_csv.lines().count() == config().epochs + 1,
        "one CSV row per epoch plus the header"
    );
    // The run must actually exercise the fleet: east-west injections
    // and a storm both show up in the CSV.
    assert!(baseline.epoch_csv.contains(','), "CSV renders");

    for &(queue, skip) in &cells {
        for &driver in &drivers {
            for &footprint in &profiles {
                let other = collect(queue, skip, driver, footprint);
                let cell = format!("{queue:?}/{skip:?}/{driver:?}/{footprint:?}");
                assert_eq!(
                    baseline.fingerprint, other.fingerprint,
                    "aggregate fingerprint differs: Wheel/On/Sequential/Fleet vs {cell}"
                );
                assert_eq!(
                    baseline.epoch_csv, other.epoch_csv,
                    "rack CSV differs: Wheel/On/Sequential/Fleet vs {cell}"
                );
                assert_eq!(
                    baseline.summary_csv, other.summary_csv,
                    "summary CSV differs: Wheel/On/Sequential/Fleet vs {cell}"
                );
            }
        }
    }
}
