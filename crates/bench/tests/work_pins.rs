//! Work pins: exact, seed-deterministic engine work counts for three
//! fixed configurations shaped like the repo benchmark's `harvest`,
//! `dp_saturated` and `fleet_rack` workloads.
//!
//! Wall-time gates on a shared machine cannot be tight, but most
//! engine wins and losses are changes in *work* — events dispatched
//! vs. skipped vs. fast-forwarded, slab and ring high-water marks,
//! resident bytes — and those counts are exact for a seed. A change
//! that alters any of them fails here with a per-key diff. An
//! intended change updates the pin in the same commit and says why.
//!
//! The harvest-shaped config also pins the Tai Chi policy's decision
//! counts, and runs once more in each mode that never harvests
//! (Baseline, Type2), whose output no other pin covers. Every
//! single-machine config also pins its dispatch count per event kind,
//! and a reduced Figure 3 machine (Baseline, low load) pins what each
//! packet costs in events and how many wheel bucket-head chunks a 2 s
//! run holds.
//!
//! A test-local allocator counts each thread's allocation events, so
//! the allocation pins hold the exact count of one `run_until` call
//! while sibling tests run on other threads.
//!
//! The skip ledger is checked here too: the event counters must not
//! depend on how a run is chunked, and must equal the skip-off
//! oracle's at every boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use taichi_core::machine::{Machine, Mode};
use taichi_core::{MachineConfig, RunReport, SkipMode, TenantConfig};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, ServiceRecorders, TrafficGen};
use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::{Dist, FaultPlan, Rng, SimDuration, SimTime};

thread_local! {
    /// Allocation events (allocations and reallocations) made by this
    /// thread.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every thread's own allocation events.
struct PerThreadAllocs;

// SAFETY: pure delegation to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for PerThreadAllocs {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count_alloc() {
    // A thread being torn down has no counter left; nothing measures
    // it then.
    let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
}

#[global_allocator]
static ALLOC: PerThreadAllocs = PerThreadAllocs;

/// Allocation events `f` makes on the calling thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOC_EVENTS.with(Cell::get);
    f();
    ALLOC_EVENTS.with(Cell::get) - before
}

type Pins = [(&'static str, u64)];

/// Compares `actual` against `expected` key by key and panics with
/// every mismatching key (and any missing or extra one) listed.
fn check(config: &str, actual: &Pins, expected: &Pins) {
    let diff = mismatches(actual, expected);
    assert!(
        diff.is_empty(),
        "{config}: engine work changed\n{}",
        diff.join("\n")
    );
}

/// Every key on which `actual` and `expected` disagree, one line each.
fn mismatches(actual: &Pins, expected: &Pins) -> Vec<String> {
    let mut diff = Vec::new();
    for &(key, want) in expected {
        match actual.iter().find(|(k, _)| *k == key) {
            Some(&(_, got)) if got == want => {}
            Some(&(_, got)) => diff.push(format!("  {key}: pinned {want}, got {got}")),
            None => diff.push(format!("  {key}: pinned {want}, not measured")),
        }
    }
    for &(key, got) in actual {
        if !expected.iter().any(|(k, _)| *k == key) {
            diff.push(format!("  {key}: not pinned, got {got}"));
        }
    }
    diff
}

/// The per-machine counts every single-machine config pins, followed
/// by the dispatch count of each event kind that was dispatched at all
/// (keyed by the `Event` variant name).
fn machine_pins(m: &Machine) -> Vec<(&'static str, u64)> {
    let (slab_hwm, ring_hwm) = m.memory_high_watermarks();
    let mut pins = vec![
        ("events_processed", m.events_processed()),
        ("events_dispatched", m.events_dispatched()),
        ("events_skipped", m.events_skipped()),
        ("events_fast_forwarded", m.events_fast_forwarded()),
        ("slab_high_watermark", slab_hwm as u64),
        ("ring_high_watermark", ring_hwm as u64),
        ("resident_bytes", m.resident_bytes() as u64),
    ];
    let by_kind: Vec<_> = m
        .events_dispatched_by_kind()
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(
        by_kind.iter().map(|&(_, n)| n).sum::<u64>(),
        m.events_dispatched(),
        "per-kind dispatch counts must sum to events_dispatched: {by_kind:?}"
    );
    pins.extend(by_kind);
    pins
}

/// The Tai Chi policy's decision counts: yields, lock reschedules and
/// their CP fallbacks, VM-exits by cause, and orchestrator wake-ups.
fn decision_pins(m: &Machine) -> Vec<(&'static str, u64)> {
    let r = RunReport::collect(m);
    let vs = m.vsched();
    vec![
        ("yields", vs.total_yields()),
        ("lock_reschedules", vs.total_lock_reschedules()),
        ("lock_fallbacks", vs.total_lock_fallbacks()),
        ("hw_probe_exits", r.hw_probe_exits),
        ("slice_exits", r.slice_exits),
        ("halt_exits", r.halt_exits),
        ("woken", m.orchestrator().woken_count()),
    ]
}

/// Builds the harvest-shaped workload on `cfg` in `mode`: bursty
/// traffic on every DP CPU while a synth_cp batch and two VM creations
/// harvest their idle time (in the Tai Chi modes).
fn harvest_machine(cfg: MachineConfig, mode: Mode) -> Machine {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg, mode);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        m.dp_cpu_ids().to_vec(),
    ));
    let mut rng = Rng::new(seed ^ 0xC0);
    m.schedule_cp_batch(SynthCp::default().workload(8, &mut rng), SimTime::ZERO);
    let factory = TaskFactory::default();
    for v in 0..2 {
        let at = SimTime::from_millis(5 + 10 * v);
        m.schedule_vm_create(VmCreateRequest::at_density(v, 2, at), &factory);
    }
    m
}

/// The harvest-shaped machine's seed.
const HARVEST_SEED: u64 = 0x4A27;

/// Runs the harvest-shaped workload in `mode` for 20 ms.
fn harvest_shaped(mode: Mode) -> Machine {
    let mut m = harvest_machine(
        MachineConfig {
            seed: HARVEST_SEED,
            ..MachineConfig::default()
        },
        mode,
    );
    m.run_until(SimTime::from_millis(20));
    m
}

#[test]
fn harvest_shaped_machine() {
    let m = harvest_shaped(Mode::TaiChi);
    let mut actual = machine_pins(&m);
    actual.extend(decision_pins(&m));
    check(
        "harvest",
        &actual,
        &[
            ("events_processed", 86568),
            ("events_dispatched", 81994),
            ("events_skipped", 4574),
            ("events_fast_forwarded", 297196),
            ("slab_high_watermark", 54),
            ("ring_high_watermark", 27),
            ("resident_bytes", 154483),
            ("NextArrival", 30986),
            ("Delivered", 30971),
            ("ProbeIrq", 850),
            ("DpIdle", 1886),
            ("VcpuEntered", 1322),
            ("VcpuSliceExpire", 935),
            ("VcpuExited", 1319),
            ("KernelDecide", 162),
            ("DpBurstDone", 13560),
            ("VmCreate", 2),
            ("SpawnBatch", 1),
            ("yields", 1322),
            ("lock_reschedules", 688),
            ("lock_fallbacks", 175),
            ("hw_probe_exits", 382),
            ("slice_exits", 935),
            ("halt_exits", 2),
            ("woken", 10),
        ],
    );
}

#[test]
fn harvest_shaped_machine_without_harvesting() {
    // The same workload in the two modes that never harvest: the
    // kernel's native scheduling runs alone.
    let cases: [(Mode, &Pins); 2] = [
        (
            Mode::Baseline,
            &[
                ("events_processed", 72308),
                ("events_dispatched", 72147),
                ("events_skipped", 161),
                ("events_fast_forwarded", 944826),
                ("slab_high_watermark", 44),
                ("ring_high_watermark", 26),
                ("resident_bytes", 151519),
                ("NextArrival", 30986),
                ("Delivered", 30971),
                ("KernelDecide", 111),
                ("DpBurstDone", 10076),
                ("VmCreate", 2),
                ("SpawnBatch", 1),
                ("cp_finished", 5),
            ],
        ),
        (
            Mode::Type2,
            &[
                ("events_processed", 66575),
                ("events_dispatched", 66424),
                ("events_skipped", 151),
                ("events_fast_forwarded", 722803),
                ("slab_high_watermark", 46),
                ("ring_high_watermark", 51),
                ("resident_bytes", 157602),
                ("NextArrival", 30986),
                ("Delivered", 30971),
                ("KernelDecide", 102),
                ("DpBurstDone", 4362),
                ("VmCreate", 2),
                ("SpawnBatch", 1),
                ("cp_finished", 5),
            ],
        ),
    ];
    // Both modes are measured before either fails, so one run shows
    // every moved pin.
    let mut diff = Vec::new();
    for (mode, expected) in cases {
        let m = harvest_shaped(mode);
        let mut actual = machine_pins(&m);
        actual.push(("cp_finished", RunReport::collect(&m).cp_finished));
        let moved = mismatches(&actual, expected);
        if !moved.is_empty() {
            diff.push(format!("harvest/{mode}: engine work changed"));
            diff.extend(moved);
        }
    }
    assert!(diff.is_empty(), "{}", diff.join("\n"));
}

/// Figure 3's Baseline machine at reduced scale: diurnally modulated
/// low load on every DP CPU (the profile cycled in 200 ms instead of
/// 20 s) with utilization sampling, and no CP work.
fn fig3_machine() -> Machine {
    let mut m = Machine::new(
        MachineConfig {
            seed: 0xF163,
            ..MachineConfig::default()
        },
        Mode::Baseline,
    );
    let mut profile: Vec<f64> = (0..100)
        .map(|i| 1.0 + 0.6 * (i as f64 / 100.0 * std::f64::consts::TAU).sin())
        .collect();
    profile[84] = 3.7;
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::Modulated {
            base_gap_us: Dist::exponential(1.5 / 0.10 / 8.0),
            profile,
            slot: SimDuration::from_millis(2),
        },
        Dist::constant(512.0),
        IoKind::Network,
        m.dp_cpu_ids().to_vec(),
    ));
    m.enable_util_sampling(SimDuration::from_millis(10));
    m
}

#[test]
fn fig3_shaped_machine() {
    // Most bursts drain the ring here, so this pin shows what each
    // packet costs in events.
    let mut m = fig3_machine();
    m.run_until(SimTime::from_millis(200));
    check(
        "fig3",
        &machine_pins(&m),
        &[
            ("events_processed", 232882),
            ("events_dispatched", 232882),
            ("events_skipped", 0),
            ("events_fast_forwarded", 11912105),
            ("slab_high_watermark", 21),
            ("ring_high_watermark", 6),
            ("resident_bytes", 123464),
            ("NextArrival", 109993),
            ("Delivered", 109992),
            ("DpBurstDone", 12877),
            ("UtilSample", 20),
        ],
    );
}

#[test]
fn dp_saturated_shaped_machine() {
    // Two tenants' open-loop streams behind the DRR arbiter at equal
    // weights, no CP work.
    let mut m = Machine::new(
        MachineConfig {
            seed: 0x5A7,
            tenants: TenantConfig {
                count: 2,
                weights: vec![1, 1],
                ..TenantConfig::default()
            },
            ..MachineConfig::default()
        },
        Mode::TaiChi,
    );
    let dp = m.dp_cpu_ids().to_vec();
    let (first, second) = dp.split_at(dp.len() / 2);
    for (tenant, cpus) in [(0, first), (1, second)] {
        let gen = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(0.45),
            },
            Dist::constant(512.0),
            IoKind::Network,
            cpus.to_vec(),
        );
        m.add_traffic(gen.with_tenant(TenantId(tenant)));
    }
    m.run_until(SimTime::from_millis(20));
    check(
        "dp_saturated",
        &machine_pins(&m),
        &[
            ("events_processed", 326841),
            ("events_dispatched", 313425),
            ("events_skipped", 13416),
            ("events_fast_forwarded", 213955),
            ("slab_high_watermark", 50),
            ("ring_high_watermark", 26),
            ("resident_bytes", 261548),
            ("NextArrival", 88947),
            ("Delivered", 88935),
            ("DpIdle", 1391),
            ("DpBurstDone", 45205),
            ("ArbiterIssue", 88947),
        ],
    );
}

#[test]
fn fleet_rack_shaped_fleet() {
    // 16 machines, 8 epochs of 2 ms, churn and a startup storm.
    let cfg = FleetConfig {
        machines: 16,
        epochs: 8,
        churn_per_epoch: 2.0,
        storm_epoch: Some(4),
        storm_vms_per_machine: 2,
        ..FleetConfig::default()
    };
    let r = run(&cfg, FleetDriver::EpochParallel { workers: 2 });
    assert_eq!(r.violation_count, 0, "{:?}", r.violations);
    let actual = [
        ("epoch_events", r.epochs.iter().map(|e| e.events).sum()),
        ("slab_high_watermark", r.slab_high_watermark as u64),
        ("ring_high_watermark", r.ring_high_watermark as u64),
        ("resident_bytes", r.resident_bytes),
    ];
    check(
        "fleet_rack",
        &actual,
        &[
            ("epoch_events", 942106),
            ("slab_high_watermark", 72),
            ("ring_high_watermark", 11),
            // Final-epoch heap, not the peak: the storm's slab and ring
            // capacity is kept for reuse (nothing shrinks).
            ("resident_bytes", 688588),
        ],
    );
}

/// Feeds fleet machine `i` its epoch `e` starting at `start`, shaped
/// like the fleet's plans: a dozen east-west arrivals spread over the
/// epoch, VM churn on about one machine in eight, and a startup storm
/// at epoch 4. `rng` is shared across machines in index order.
fn feed_epoch(m: &mut Machine, i: usize, e: u64, start: SimTime, rng: &mut Rng) {
    for _ in 0..12 {
        let at = start + SimDuration::from_nanos(rng.next_below(EPOCH.as_nanos()));
        let cpu = CpuId(rng.next_below(8) as u32);
        m.inject_rx_for_tenant(at, IoKind::Network, 512, cpu, TenantId(0));
    }
    let creates = if e == 4 {
        2
    } else {
        u64::from(rng.chance(0.125))
    };
    for v in 0..creates {
        let id = ((i as u64) << 32) | (e << 8) | v;
        m.schedule_vm_create(
            VmCreateRequest::at_density(id, 2, start),
            &TaskFactory::default(),
        );
    }
}

/// The fleet-shaped rack the fleet tests below drive by hand.
const FLEET_MACHINES: usize = 16;
const EPOCHS: u64 = 8;
const EPOCH: SimDuration = SimDuration::from_millis(2);

#[test]
fn run_until_allocations() {
    // Harvest-shaped Tai Chi machine: one 20 ms `run_until` call,
    // including its first-touch growth.
    let mut m = harvest_machine(
        MachineConfig {
            seed: HARVEST_SEED,
            ..MachineConfig::default()
        },
        Mode::TaiChi,
    );
    let harvest = allocs_in(|| m.run_until(SimTime::from_millis(20)));

    // The 16-machine fleet: each epoch's `run_until` calls, summed
    // over the machines, with recorders lent as the fleet lends them.
    let cfg = FleetConfig::default();
    let mut machines: Vec<Machine> = (0..FLEET_MACHINES).map(|i| cfg.build_machine(i)).collect();
    let mut loan: Vec<Option<Box<ServiceRecorders>>> = Vec::new();
    let mut rng = Rng::new(0xA110C);
    let mut per_epoch = Vec::new();
    for e in 0..EPOCHS {
        let start = SimTime::ZERO + EPOCH.saturating_mul(e);
        let mut n = 0;
        for (i, m) in machines.iter_mut().enumerate() {
            feed_epoch(m, i, e, start, &mut rng);
            m.swap_dp_recorders(&mut loan);
            n += allocs_in(|| m.run_until(start + EPOCH));
            m.swap_dp_recorders(&mut loan);
            for r in loan.iter_mut().flatten() {
                r.merged.reset();
            }
        }
        per_epoch.push(n);
    }
    check(
        "run_until allocations",
        &[
            ("harvest", harvest),
            ("fleet_epoch_5", per_epoch[5]),
            ("fleet_epoch_6", per_epoch[6]),
            ("fleet_epoch_7", per_epoch[7]),
        ],
        &[
            ("harvest", 136),
            ("fleet_epoch_5", 51),
            ("fleet_epoch_6", 22),
            ("fleet_epoch_7", 24),
        ],
    );
}

#[test]
fn fig3_run_holds_few_head_chunks() {
    // The calendar sweeps all 36 bucket-head words many times over in
    // 2 s; emptied chunks are recycled, so the wheel holds only as many
    // as were ever in use at once.
    let mut m = fig3_machine();
    m.run_until(SimTime::from_secs(2));
    check(
        "fig3 2 s",
        &[("head_chunks", m.queue_head_chunks() as u64)],
        &[("head_chunks", 6)],
    );
}

/// `(events_processed, events_dispatched, events_skipped)`.
type Counters = (u64, u64, u64);

fn counters(m: &Machine) -> Counters {
    (
        m.events_processed(),
        m.events_dispatched(),
        m.events_skipped(),
    )
}

/// How a run reaches its end.
#[derive(Clone, Copy, Debug)]
enum Chunking {
    /// One `run_until` call.
    Whole,
    /// `run_until_or`'s 1 ms chunks.
    Millis,
    /// Seeded random chunk lengths, from 1 ns to 1.5 ms.
    Random(u64),
}

/// Runs `m` to `end` by `how`, logging the counters at every boundary
/// the run stops at, keyed by `(key, time)`.
fn run_logged(
    m: &mut Machine,
    end: SimTime,
    how: Chunking,
    key: usize,
    log: &mut BTreeMap<(usize, SimTime), Counters>,
) {
    match how {
        Chunking::Whole => m.run_until(end),
        Chunking::Millis => {
            m.run_until_or(end, |m| {
                log.insert((key, m.now()), counters(m));
                false
            });
        }
        Chunking::Random(seed) => {
            const GRID: u64 = 250_000;
            let mut rng = Rng::stream(seed, m.now().as_nanos());
            while m.now() < end {
                // Mostly a point of the 250 µs grid, so the boundaries
                // often meet the 1 ms grid; sometimes a ragged length.
                let now = m.now().as_nanos();
                let to = if rng.chance(0.75) {
                    (now / GRID + 1 + rng.next_below(6)) * GRID
                } else {
                    now + 1 + rng.next_below(1_500_000)
                };
                m.run_until(SimTime::from_nanos(to).min(end));
                log.insert((key, m.now()), counters(m));
            }
        }
    }
    log.insert((key, end), counters(m));
}

/// Drives the same run once per chunking with the skip layer on, and
/// once more with it off, through `drive`, and requires the counters
/// to agree at every boundary two of the runs share, and the skip-on
/// runs' `events_processed` to equal the skip-off oracle's there.
fn assert_chunking_invariant(
    name: &str,
    drive: impl Fn(SkipMode, Chunking, &mut BTreeMap<(usize, SimTime), Counters>),
) {
    let ways = [
        Chunking::Whole,
        Chunking::Millis,
        Chunking::Random(1),
        Chunking::Random(2),
    ];
    let logs: Vec<_> = ways
        .iter()
        .map(|&how| {
            let mut log = BTreeMap::new();
            drive(SkipMode::On, how, &mut log);
            (how, log)
        })
        .collect();
    let mut oracle = BTreeMap::new();
    drive(SkipMode::Off, Chunking::Millis, &mut oracle);
    drive(SkipMode::Off, Chunking::Random(1), &mut oracle);
    let mut shared = 0;
    for (i, (how_a, a)) in logs.iter().enumerate() {
        assert!(
            a.values().any(|c| c.2 > 0),
            "{name}/{how_a:?}: no timer was ever skipped"
        );
        for (how_b, b) in &logs[i + 1..] {
            for (at, ca) in a {
                if let Some(cb) = b.get(at) {
                    shared += 1;
                    assert_eq!(ca, cb, "{name}: {how_a:?} and {how_b:?} differ at {at:?}");
                }
            }
        }
        for (at, ca) in a {
            if let Some(co) = oracle.get(at) {
                assert_eq!(co.2, 0, "{name}: the oracle skipped a timer");
                assert_eq!(
                    ca.0, co.0,
                    "{name}: {how_a:?} processed differs from the skip-off oracle at {at:?}"
                );
            }
        }
    }
    assert!(shared >= 10, "{name}: only {shared} shared boundaries");
}

#[test]
fn skip_ledger_is_chunking_invariant_on_a_harvest_machine() {
    assert_chunking_invariant("harvest", |skip, how, log| {
        let cfg = MachineConfig {
            seed: HARVEST_SEED,
            skip,
            ..MachineConfig::default()
        };
        let mut m = harvest_machine(cfg, Mode::TaiChi);
        run_logged(&mut m, SimTime::from_millis(20), how, 0, log);
    });
}

#[test]
fn skip_ledger_is_chunking_invariant_under_a_fault_storm() {
    assert_chunking_invariant("fault storm", |skip, how, log| {
        let cfg = MachineConfig {
            seed: HARVEST_SEED,
            skip,
            faults: FaultPlan::default()
                .apply_spec("all=0.05,jitter_ns=1500,storm_us=4000,storm_tasks=4")
                .expect("valid fault spec"),
            ..MachineConfig::default()
        };
        let mut m = harvest_machine(cfg, Mode::TaiChi);
        run_logged(&mut m, SimTime::from_millis(20), how, 0, log);
    });
}

#[test]
fn skip_ledger_is_chunking_invariant_across_a_fleet() {
    assert_chunking_invariant("fleet", |skip, how, log| {
        let mut cfg = FleetConfig::default();
        cfg.machine.skip = skip;
        let mut machines: Vec<Machine> =
            (0..FLEET_MACHINES).map(|i| cfg.build_machine(i)).collect();
        let mut rng = Rng::new(0xF1EE7);
        for e in 0..EPOCHS {
            let start = SimTime::ZERO + EPOCH.saturating_mul(e);
            for (i, m) in machines.iter_mut().enumerate() {
                feed_epoch(m, i, e, start, &mut rng);
                run_logged(m, start + EPOCH, how, i, log);
            }
        }
    });
}

#[test]
fn timer_cancelled_beyond_u32_lead_counts_at_its_deadline() {
    // Up to 10 s of timer jitter puts most re-armed decision timers
    // more than 2^32 ns past the run's limit when they are cancelled.
    assert_chunking_invariant("10 s jitter", |skip, how, log| {
        let cfg = MachineConfig {
            seed: HARVEST_SEED,
            skip,
            faults: FaultPlan::default()
                .apply_spec("jitter_ns=10000000000")
                .expect("valid fault spec"),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, Mode::TaiChi);
        let mut rng = Rng::new(7);
        m.schedule_cp_batch(SynthCp::default().workload(8, &mut rng), SimTime::ZERO);
        // Whole seconds, so every deadline up to 10 s has a boundary
        // after it at which the counts must agree.
        for s in 1..=12 {
            run_logged(&mut m, SimTime::from_secs(s), how, 0, log);
        }
    });
}
