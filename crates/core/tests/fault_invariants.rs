//! Fault-injection property tests: across a randomized fault matrix
//! the scheduler must degrade gracefully — every machine-wide
//! invariant holds, replays are byte-identical, and an intentionally
//! broken degradation policy is *caught* by the invariant checker
//! (proving the checker has teeth, not just green lights).

use taichi_core::machine::{Machine, Mode};
use taichi_core::{assert_invariants, check_invariants, MachineConfig};
use taichi_cp::{CpTaskKind, SynthCp, TaskFactory};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::check::run_cases;
use taichi_sim::{DegradePolicy, Dist, FaultPlan, Rng, SimDuration, SimTime};

const HORIZON: SimDuration = SimDuration::from_millis(40);

/// Standard faulted workload: bursty traffic on every DP CPU (the off
/// periods are what lets vCPUs be granted idle cycles) plus a periodic
/// CP batch mix (monitoring tasks sleep between iterations, which is
/// what makes dropped wakeups observable).
fn build_machine(cfg: MachineConfig, mode: Mode) -> Machine {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg, mode);
    let dp = m.services().len() as u32;
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / dp as f64),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp).map(CpuId).collect(),
    ));
    let factory = TaskFactory::default();
    let mut rng = Rng::new(seed ^ 0xBAD);
    // A heavy synthetic batch up front saturates the dedicated CP
    // pCPUs, so spill-over work actually lands on vCPUs and the
    // grant/softirq/IPI fault paths are exercised.
    let synth = SynthCp::default();
    m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
    let mut t = SimTime::from_millis(1);
    while t < SimTime::ZERO + HORIZON {
        m.schedule_cp_batch(
            vec![
                factory.build(CpTaskKind::Monitoring, &mut rng),
                factory.build(CpTaskKind::DeviceManagement, &mut rng),
            ],
            t,
        );
        t += SimDuration::from_millis(4);
    }
    m
}

fn random_plan(rng: &mut Rng) -> FaultPlan {
    let rate = |rng: &mut Rng| rng.gen_range(0, 16) as f64 / 100.0;
    let mut p = FaultPlan {
        accel_stall_rate: rate(rng),
        ipi_drop_rate: rate(rng),
        ipi_delay_rate: rate(rng),
        wakeup_drop_rate: rate(rng),
        softirq_drop_rate: rate(rng),
        enic_reject_rate: rate(rng),
        ..FaultPlan::default()
    };
    if rng.chance(0.5) {
        p.timer_jitter = SimDuration::from_nanos(rng.gen_range(50, 500));
    }
    if rng.chance(0.5) {
        p.storm_period = SimDuration::from_micros(rng.gen_range(2_000, 10_000));
        p.storm_tasks = rng.gen_range(1, 6) as u32;
    }
    p
}

/// For any bounded fault plan, in any Tai Chi-family mode, the default
/// (hardened) degradation policy preserves every scheduler invariant.
#[test]
fn invariants_hold_across_random_fault_matrix() {
    run_cases("fault_matrix_invariants", 10, |case, rng| {
        let mode = *rng
            .pick(&[Mode::TaiChi, Mode::TaiChiNoHwProbe, Mode::Baseline])
            .expect("non-empty");
        let cfg = MachineConfig {
            seed: rng.next_u64(),
            faults: random_plan(rng),
            ..MachineConfig::default()
        };
        let mut m = build_machine(cfg, mode);
        m.run_until(SimTime::ZERO + HORIZON);
        assert_invariants(&m, &format!("fault_matrix case {case} ({mode})"));
    });
}

/// Every scheduling regime — the harvesting Tai Chi policy and the
/// two modes that never consult it — preserves the machine-wide
/// invariants across a graded fault matrix. The checker's violation list covers stranded
/// sleepers (dropped wakeups never re-armed) and leaked vCPU grants
/// (a raise rolled back without conserving the vCPU), so a policy
/// that mishandles a degradation path fails here by name.
#[test]
fn every_policy_survives_graded_fault_matrix() {
    for mode in [Mode::Baseline, Mode::TaiChi, Mode::Type2] {
        for pct in [0u64, 1, 5, 20] {
            let cfg = MachineConfig {
                seed: 0x5EED ^ (pct << 8),
                faults: FaultPlan::uniform(pct as f64 / 100.0),
                ..MachineConfig::default()
            };
            let mut m = build_machine(cfg, mode);
            m.run_until(SimTime::ZERO + HORIZON);
            assert_invariants(&m, &format!("mode {mode} @ {pct}% faults"));
        }
    }
}

/// Same seed + same plan ⇒ the entire schedule replays byte-identical
/// (trace TSV and fault statistics), so every fault scenario is
/// reproducible and diffable.
#[test]
fn same_seed_same_plan_replays_byte_identical() {
    let run = || {
        let mut cfg = MachineConfig {
            seed: 0xFEED,
            faults: FaultPlan::uniform(0.1),
            ..MachineConfig::default()
        };
        cfg.trace.enabled = true;
        let mut m = build_machine(cfg, Mode::TaiChi);
        m.run_until(SimTime::ZERO + HORIZON);
        (
            m.trace_tsv().expect("tracing enabled"),
            m.fault().expect("active plan").stats(),
            m.fault_health(),
        )
    };
    let (tsv_a, stats_a, health_a) = run();
    let (tsv_b, stats_b, health_b) = run();
    assert!(stats_a.total() > 0, "a 10% uniform plan must fire");
    assert_eq!(stats_a, stats_b, "fault decisions must replay exactly");
    assert_eq!(health_a, health_b, "recoveries must replay exactly");
    assert_eq!(tsv_a, tsv_b, "trace replay must be byte-identical");
}

/// Different seeds draw different fault schedules from the same plan.
#[test]
fn different_seed_diverges_under_same_plan() {
    let run = |seed: u64| {
        let cfg = MachineConfig {
            seed,
            faults: FaultPlan::uniform(0.1),
            ..MachineConfig::default()
        };
        let mut m = build_machine(cfg, Mode::TaiChi);
        m.run_until(SimTime::ZERO + HORIZON);
        m.fault().expect("active plan").stats()
    };
    assert_ne!(run(1), run(2), "seeds must decorrelate fault schedules");
}

/// An inactive plan constructs no injector at all: the fault layer is
/// a set of untaken branches.
#[test]
fn inactive_plan_builds_no_injector() {
    let cfg = MachineConfig::default();
    assert!(!cfg.faults.is_active());
    let mut m = build_machine(cfg, Mode::TaiChi);
    m.run_until(SimTime::ZERO + HORIZON);
    assert!(m.fault().is_none());
    let h = m.fault_health();
    assert_eq!(h, taichi_core::FaultHealth::default());
    assert_invariants(&m, "fault-free run");
}

/// The hardened policy recovers from a total wakeup blackout (every
/// timer re-armed late); flipping `wakeup_rearm` off strands sleeping
/// monitoring tasks forever — and the invariant checker must say so.
#[test]
fn broken_wakeup_policy_is_caught() {
    let run = |policy: DegradePolicy| {
        let cfg = MachineConfig {
            seed: 0xC0FE,
            faults: FaultPlan {
                wakeup_drop_rate: 1.0,
                degrade: policy,
                ..FaultPlan::default()
            },
            ..MachineConfig::default()
        };
        let mut m = build_machine(cfg, Mode::TaiChi);
        m.run_until(SimTime::ZERO + HORIZON);
        m
    };

    let hardened = run(DegradePolicy::default());
    assert!(
        hardened.fault_health().wakeup_rearms > 0,
        "the blackout must exercise the re-arm path"
    );
    assert_invariants(&hardened, "hardened wakeup policy");

    let broken = run(DegradePolicy {
        wakeup_rearm: false,
        ..DegradePolicy::default()
    });
    assert!(
        !broken.fault_health().lost_wakeups.is_empty(),
        "with re-arm off, dropped wakeups must strand sleepers"
    );
    let report = check_invariants(&broken);
    assert!(
        report.violations.iter().any(|v| v.contains("wakeup")),
        "checker must flag the stranded sleepers, got: {report}"
    );
}

/// A softirq blackout with re-arm disabled forces grant rollbacks (the
/// vCPU is conserved, never half-placed), and the hardened policy
/// instead recovers most grants via the re-raise.
#[test]
fn softirq_blackout_rolls_back_grants_safely() {
    let run = |rearm: bool| {
        let cfg = MachineConfig {
            seed: 0xD00D,
            faults: FaultPlan {
                softirq_drop_rate: if rearm { 0.4 } else { 1.0 },
                degrade: DegradePolicy {
                    softirq_rearm: rearm,
                    ..DegradePolicy::default()
                },
                ..FaultPlan::default()
            },
            ..MachineConfig::default()
        };
        let mut m = build_machine(cfg, Mode::TaiChi);
        m.run_until(SimTime::ZERO + HORIZON);
        assert_invariants(&m, "softirq blackout");
        m.fault_health()
    };
    let hardened = run(true);
    assert!(hardened.softirq_rearms > 0, "re-raise path must fire");
    let exposed = run(false);
    assert!(
        exposed.softirq_lost_grants > 0,
        "every dropped raise must roll its grant back"
    );
}
