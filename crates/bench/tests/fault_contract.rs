//! The fault layer's order contract, as digests of traced runs.
//!
//! Every fault the injector can fire draws from one RNG stream, so the
//! *order* in which the machine consults it is part of the schedule: a
//! draw moved before or after another, or skipped on some path, shifts
//! every later fault. Each case runs a TaiChi machine under a plan
//! with every fault kind active (accelerator stall, IPI drop and delay,
//! wakeup drop, softirq drop, eNIC reject, timer jitter, CP storms) on
//! a small rx ring that overflows, so the eNIC reject is drawn both
//! with and without ring room. The single-tenant machine ingests
//! packets directly; the two-tenant one issues them through the DRR
//! arbiter. The digest covers the trace TSV, the fault counters
//! ([`taichi_sim::FaultStats`]), the recovery counters
//! ([`taichi_core::FaultHealth`]) and the per-kind dispatch counts.

use taichi_core::machine::{Machine, Mode};
use taichi_core::{MachineConfig, TenantConfig};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::{Dist, FaultPlan, Rng, SimDuration, SimTime};

const SEEDS: [u64; 3] = [0xD1CE, 42, 7];

/// Every fault kind, each at a rate that fires in 20 ms (wakeup arms
/// are rare, so their drop rate is higher).
const PLAN: &str = "all=0.05,wakeup_drop=0.5,jitter_ns=1500,storm_us=5000";

/// FNV-1a over the digest text.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs the contract workload on a TaiChi machine with `tenants`
/// tenants at `seed`.
fn run(tenants: u32, seed: u64) -> Machine {
    let mut cfg = MachineConfig {
        seed,
        faults: FaultPlan::default().apply_spec(PLAN).expect("valid plan"),
        tenants: TenantConfig {
            count: tenants,
            ..TenantConfig::default()
        },
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    cfg.trace.capacity = 1 << 18;
    cfg.dp.ring_capacity = 48;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    let dp = m.services().len() as u32;
    for t in 0..tenants {
        m.add_traffic(
            TrafficGen::new(
                ArrivalPattern::OnOff {
                    on_us: Dist::constant(200.0),
                    off_us: Dist::exponential(300.0),
                    burst_gap_us: Dist::exponential(0.5 * tenants as f64 / dp as f64),
                },
                Dist::constant(512.0),
                IoKind::Network,
                (0..dp).map(CpuId).collect(),
            )
            .with_tenant(TenantId(t)),
        );
    }
    // Short-period monitors arm a wakeup timer every 200 µs.
    let mut rng = Rng::new(seed ^ 0x51);
    let factory = TaskFactory::default();
    let monitors = (0..8)
        .map(|_| factory.monitoring(20, SimDuration::from_micros(200), &mut rng))
        .collect();
    m.schedule_cp_batch(monitors, SimTime::ZERO);
    m.schedule_cp_batch(SynthCp::default().workload(12, &mut rng), SimTime::ZERO);
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(5)),
        &TaskFactory::default(),
    );
    m.run_until(SimTime::from_millis(20));
    m
}

/// Digests what the run exposes, after checking it reached every
/// fault kind and traced each fired fault once.
fn digest(m: &Machine, label: &str) -> u64 {
    let stats = m.fault().expect("active plan").stats();
    let fired = [
        ("accel_stalls", stats.accel_stalls),
        ("ipi_drops", stats.ipi_drops),
        ("ipi_delays", stats.ipi_delays),
        ("wakeup_drops", stats.wakeup_drops),
        ("softirq_drops", stats.softirq_drops),
        ("enic_rejects", stats.enic_rejects),
        ("timer_jitters", stats.timer_jitters),
        ("cp_storms", stats.cp_storms),
    ];
    for (kind, n) in fired {
        assert!(n > 0, "{label}: no {kind} fired");
    }
    let overflowed: u64 = m.services().iter().map(|s| s.dropped()).sum();
    assert!(overflowed > 0, "{label}: the rx rings never overflowed");
    let tracer = m.tracer().expect("traced");
    assert_eq!(
        tracer.counter("fault_inject"),
        stats.total(),
        "{label}: every fired fault is traced exactly once"
    );
    let mut text = m.trace_tsv().expect("traced");
    text += &format!("{stats:?}\n{:?}\n", m.fault_health());
    for (kind, n) in m.events_dispatched_by_kind() {
        text += &format!("{kind} {n}\n");
    }
    fnv64(text.as_bytes())
}

/// `(tenants, seed, digest)`, measured on the engine whose components
/// drew their own faults.
const EXPECTED: &[(u32, u64, u64)] = &[
    (1, 0xd1ce, 0x04856777d3ece793),
    (1, 0x2a, 0xe99cd4e6a8c7bcbf),
    (1, 0x7, 0xfa2b461a57cb4fd7),
    (2, 0xd1ce, 0xb3e60be33b5acbeb),
    (2, 0x2a, 0xcad4f6d21e5f63e2),
    (2, 0x7, 0xae61a5bd28c4bc02),
];

#[test]
fn fault_draw_order_matches_the_pinned_digests() {
    let mut diff = Vec::new();
    let mut got = Vec::new();
    for tenants in [1, 2] {
        for seed in SEEDS {
            let label = format!("{tenants} tenant(s) / seed {seed:#x}");
            let d = digest(&run(tenants, seed), &label);
            got.push(format!("({tenants}, {seed:#x}, {d:#018x}),"));
            let want = EXPECTED
                .iter()
                .find(|e| e.0 == tenants && e.1 == seed)
                .map(|e| e.2);
            if want != Some(d) {
                diff.push(format!("  {label}: pinned {want:x?}, got {d:#018x}"));
            }
        }
    }
    assert!(
        diff.is_empty(),
        "fault draw order changed\n{}\nmeasured:\n{}",
        diff.join("\n"),
        got.join("\n")
    );
}
