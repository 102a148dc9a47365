//! Causal scheduler invariants, asserted over the deterministic trace.
//!
//! These tests drive real workloads and then use the trace query API to
//! check *why* scheduling events happened, not just how many there
//! were: every hardware-probe VM-exit must be provoked by a probe
//! signal, every VM-enter must come through the dedicated softirq, and
//! every lock-context reschedule must sit between an exit and a
//! re-enter of the same vCPU.

use taichi::core::machine::{Machine, Mode};
use taichi::core::metrics::RunReport;
use taichi::core::MachineConfig;
use taichi::cp::{SynthCp, TaskFactory};
use taichi::dp::{ArrivalPattern, TrafficGen};
use taichi::hw::{CpuId, IoKind};
use taichi::os::{LockId, Program};
use taichi::sim::{Dist, Rng, SimTime, TraceKind, TraceTag};

fn bursty(dp_cpus: u32) -> TrafficGen {
    TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(0.21),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(CpuId).collect(),
    )
}

fn traced_config(seed: u64, capacity: usize) -> MachineConfig {
    let mut cfg = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    cfg.trace.capacity = capacity;
    cfg
}

/// A short mixed run (traffic + CP tasks) that exercises yields, probe
/// IRQs, and slice expiries in Tai Chi mode.
fn mixed_run(mode: Mode, seed: u64, millis: u64) -> Machine {
    let mut m = Machine::new(traced_config(seed, 1 << 20), mode);
    m.add_traffic(bursty(8));
    let synth = SynthCp::default();
    let mut rng = Rng::new(seed ^ 0x51);
    m.schedule_cp_batch(synth.workload(10, &mut rng), SimTime::ZERO);
    m.run_until(SimTime::from_millis(millis));
    m
}

#[test]
fn every_hw_probe_exit_has_a_probe_signal_on_its_cpu() {
    let m = mixed_run(Mode::TaiChi, 77, 20);
    let t = m.tracer().expect("trace enabled");
    assert_eq!(t.dropped(), 0, "ring evicted events; causal scan unsound");

    let pairs = t.causal_pairs(
        &[TraceTag::ProbeIrq, TraceTag::ProbeRecheck],
        &[TraceTag::VmExit],
    );
    let mut probe_exits = 0usize;
    for (cause, effect) in pairs {
        let TraceKind::VmExit { reason, .. } = effect.kind else {
            unreachable!()
        };
        if reason != "hw_probe" {
            continue;
        }
        probe_exits += 1;
        let cause = cause.unwrap_or_else(|| {
            panic!(
                "hw_probe exit at {:?} on cpu {} has no prior probe signal",
                effect.at, effect.cpu
            )
        });
        assert!(cause.seq < effect.seq);
        assert!(
            cause.at <= effect.at,
            "probe signal after its exit: {cause:?} -> {effect:?}"
        );
    }
    // Non-vacuity: this workload must actually provoke probe exits.
    assert!(probe_exits > 0, "workload produced no hw_probe exits");
    let r = RunReport::collect(&m);
    assert!(r.hw_probe_exits > 0);
}

#[test]
fn every_vm_enter_comes_through_the_taichi_softirq() {
    let m = mixed_run(Mode::TaiChi, 78, 20);
    let t = m.tracer().expect("trace enabled");
    assert_eq!(t.dropped(), 0, "ring evicted events; causal scan unsound");

    // Only SoftirqKind::TaiChiVcpu is ever raised in a machine run, so
    // a dispatch cause is necessarily the vCPU-switch softirq.
    let pairs = t.causal_pairs(&[TraceTag::SoftirqDispatch], &[TraceTag::VmEnter]);
    assert!(!pairs.is_empty(), "workload produced no VM-enters");
    for (cause, effect) in &pairs {
        let cause = cause.expect("VM-enter without a softirq dispatch on its CPU");
        let TraceKind::SoftirqDispatch { kind } = cause.kind else {
            unreachable!()
        };
        assert_eq!(kind, "taichi_vcpu");
        assert!(cause.seq < effect.seq);
    }

    // And the grant that raised the softirq names the vCPU that enters.
    for (grant, enter) in t.causal_pairs(&[TraceTag::YieldGrant], &[TraceTag::VmEnter]) {
        let grant = grant.expect("VM-enter without a grant on its CPU");
        let (TraceKind::YieldGrant { vcpu: g }, TraceKind::VmEnter { vcpu: e }) =
            (grant.kind, enter.kind)
        else {
            unreachable!()
        };
        assert_eq!(g, e, "grant/enter vCPU mismatch on cpu {}", enter.cpu);
    }
}

#[test]
fn lock_reschedules_sit_between_exit_and_reenter_of_the_same_vcpu() {
    // Lock storm: tasks hammering one driver lock under preempting
    // traffic — §4.1's safe rescheduling must move lock holders to
    // another host, and the trace must show exit → reschedule → enter.
    let mut m = Machine::new(traced_config(31, 1 << 20), Mode::TaiChi);
    m.add_traffic(bursty(8));
    let factory = TaskFactory::default();
    let mut rng = Rng::new(32);
    let progs: Vec<Program> = (0..30)
        .map(|_| factory.device_init(LockId(1), 3, &mut rng))
        .collect();
    m.schedule_cp_batch(progs, SimTime::ZERO);
    m.run_until(SimTime::from_millis(30));
    let t = m.tracer().expect("trace enabled");
    assert_eq!(t.dropped(), 0, "ring evicted events; causal scan unsound");

    let events = t.snapshot();
    let rescheds: Vec<_> = events
        .iter()
        .filter(|e| e.kind.tag() == TraceTag::LockReschedule)
        .collect();
    assert!(
        !rescheds.is_empty(),
        "workload produced no lock reschedules"
    );
    for r in rescheds {
        let TraceKind::LockReschedule { vcpu } = r.kind else {
            unreachable!()
        };
        let exited_before = events.iter().any(|e| {
            e.seq < r.seq && matches!(e.kind, TraceKind::VmExit { vcpu: v, .. } if v == vcpu)
        });
        assert!(
            exited_before,
            "lock reschedule of vcpu {vcpu} with no prior VM-exit"
        );
        // The reschedule re-places the vCPU on cpu `r.cpu`: the next
        // enter of this vCPU happens there.
        let reentered = events.iter().find(|e| {
            e.seq > r.seq && matches!(e.kind, TraceKind::VmEnter { vcpu: v } if v == vcpu)
        });
        if let Some(enter) = reentered {
            assert_eq!(
                enter.cpu, r.cpu,
                "vcpu {vcpu} re-entered on a different host than rescheduled"
            );
        }
    }
    let r = RunReport::collect(&m);
    assert!(r.lock_reschedules > 0);
}

#[test]
fn trace_is_available_in_every_mode() {
    for mode in Mode::all() {
        let m = mixed_run(mode, 99, 5);
        let t = m.tracer().unwrap_or_else(|| panic!("{mode}: no tracer"));
        assert!(!t.is_empty(), "{mode}: no events recorded");
        let tsv = m.trace_tsv().expect("tracer present");
        assert!(tsv.starts_with("# taichi-trace v1\n"), "{mode}: bad header");
        assert!(tsv.contains("# dropped\t"), "{mode}: missing footer");
        // Baseline has no Tai Chi scheduler: it must never record
        // yields, while Tai Chi modes must.
        let grants = t.matching(TraceTag::YieldGrant).len();
        if mode.has_taichi() {
            assert!(grants > 0, "{mode}: no yield grants traced");
        } else {
            assert_eq!(grants, 0, "{mode}: baseline traced yield grants");
        }
    }
}

#[test]
fn disabled_trace_records_nothing() {
    // Default config: trace off, whatever the environment says.
    let cfg = MachineConfig {
        seed: 7,
        ..MachineConfig::default()
    };
    assert!(!cfg.trace.enabled, "trace must default to off");
    let mut m = Machine::new(cfg, Mode::TaiChi);
    m.add_traffic(bursty(8));
    m.run_until(SimTime::from_millis(5));
    assert!(m.tracer().is_none(), "tracer allocated while disabled");
    assert!(m.trace_tsv().is_none());
    assert!(m.failure_dump("off").is_none());
}

#[test]
fn failure_dump_guard_is_silent_without_a_panic() {
    // The RAII guard writes $TAICHI_TRACE only while panicking; a
    // passing test must drop it without side effects.
    let m = mixed_run(Mode::TaiChi, 5, 2);
    let guard = m.failure_dump("trace_causality::no_panic");
    assert!(guard.is_some());
    drop(guard);
}

#[test]
fn bounded_ring_evicts_oldest_but_keeps_counting() {
    // A deliberately tiny ring under a real workload: memory stays
    // bounded while counters and the drop tally keep the totals.
    let mut m = Machine::new(traced_config(13, 256), Mode::TaiChi);
    m.add_traffic(bursty(8));
    m.run_until(SimTime::from_millis(5));
    let t = m.tracer().expect("trace enabled");
    assert_eq!(t.len(), 256, "ring should be full");
    assert!(t.dropped() > 0, "this workload must overflow 256 events");
    assert_eq!(t.total_emitted(), t.len() as u64 + t.dropped());
    // Survivors are the newest events, still in seq order.
    let snap = t.snapshot();
    assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(snap.last().unwrap().seq + 1, t.total_emitted());
}
