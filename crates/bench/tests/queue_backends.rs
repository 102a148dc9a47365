//! Backend-equivalence contract: the timing-wheel event queue must be
//! observationally indistinguishable from the binary-heap reference.
//!
//! `MachineConfig::queue` picks the scheduling core under a machine and
//! `MachineConfig::skip` toggles the idle-gap skip layer (cancelling
//! superseded timers instead of dispatching them as stale no-ops); both
//! exist only under the dev-only `oracle` feature. This
//! test runs the same seeded workloads under the full
//! `{wheel, heap} × {skip on, skip off}` matrix and asserts that
//! everything a user can export — the scheduler trace TSV, the
//! run-report statistics (including the logical event count and the
//! fast-forwarded poll ledger), and an `ext_faults`-style experiment
//! CSV with uniform fault rates — is **byte-identical** across all four
//! cells, and that the CSV is additionally invariant to the sweep worker
//! count (1 vs. 4). `identity.rs` runs the same matrix per mode; this
//! test keeps the fault-rate sweep as its workload.

use taichi_bench::sweep_with;
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::{MachineConfig, SkipMode};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::Table;
use taichi_sim::{Dist, FaultPlan, QueueBackend, Rng, SimTime};

const SEED: u64 = 0x0E77;

fn add_bench_traffic(m: &mut Machine) {
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
}

fn base_config(queue: QueueBackend, skip: SkipMode) -> MachineConfig {
    MachineConfig {
        seed: SEED,
        queue,
        skip,
        ..MachineConfig::default()
    }
}

/// One full-featured machine run (traffic + CP batch + VM create),
/// optionally traced, returning the report fingerprint and the trace
/// TSV.
fn run_machine(mut cfg: MachineConfig, trace: bool) -> (Vec<u64>, Option<String>) {
    cfg.trace.enabled = trace;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    add_bench_traffic(&mut m);
    let synth = SynthCp::default();
    let mut rng = Rng::new(SEED ^ 0x51);
    m.schedule_cp_batch(synth.workload(10, &mut rng), SimTime::ZERO);
    let factory = TaskFactory::default();
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(10)),
        &factory,
    );
    m.run_until(SimTime::from_millis(60));
    let r = RunReport::collect(&m);
    let fp = vec![
        m.events_processed(),
        m.events_fast_forwarded(),
        r.dp.packets(),
        r.dp.total_latency().mean().to_bits(),
        r.dp.total_latency().percentile(99.9),
        r.cp_finished,
        r.cp_turnaround.mean().to_bits(),
        r.cp_spin_time_ns,
        r.yields,
        r.hw_probe_exits,
        r.slice_exits,
        r.lock_reschedules,
        r.vm_startups.first().map(|d| d.as_nanos()).unwrap_or(0),
        m.orchestrator().woken_count(),
        m.posted_interrupts(),
    ];
    (fp, m.trace_tsv())
}

/// A reduced `ext_faults`-style matrix rendered to CSV exactly as the
/// experiment binary would (same Table machinery, same cell
/// formatting), fanned out over `workers` threads.
fn ext_style_csv(base: &MachineConfig, workers: usize) -> String {
    let cases = vec![(Mode::Baseline, 0.0f64), (Mode::TaiChi, 0.05)];
    let results = sweep_with(workers, cases.clone(), |(mode, rate)| {
        let cfg = MachineConfig {
            faults: FaultPlan::uniform(rate),
            ..base.clone()
        };
        let mut m = Machine::new(cfg, mode);
        add_bench_traffic(&mut m);
        let mut rng = Rng::new(SEED ^ 0xFA);
        m.schedule_cp_batch(SynthCp::default().workload(12, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(20));
        let r = RunReport::collect(&m);
        let h = m.fault_health();
        (
            m.events_processed(),
            r.dp_pps(),
            r.dp.total_latency().percentile(99.0),
            h.ipi_resends + h.wakeup_rearms + h.softirq_rearms + h.yield_clamps,
        )
    });
    let mut table = Table::new(
        "queue backend equivalence matrix",
        &["mode", "rate", "events", "pps", "dp p99 (ns)", "recoveries"],
    );
    for ((mode, rate), (events, pps, p99, recoveries)) in cases.iter().zip(&results) {
        table.row(&[
            mode.to_string(),
            format!("{rate:.2}"),
            events.to_string(),
            format!("{pps:.3}"),
            p99.to_string(),
            recoveries.to_string(),
        ]);
    }
    table.to_csv()
}

struct Artifacts {
    stats: Vec<u64>,
    trace: String,
    csv_serial: String,
    csv_parallel: String,
}

fn collect(queue: QueueBackend, skip: SkipMode) -> Artifacts {
    let cfg = base_config(queue, skip);
    let (stats, _) = run_machine(cfg.clone(), false);
    let (traced_stats, trace) = run_machine(cfg.clone(), true);
    assert_eq!(
        stats, traced_stats,
        "{queue:?}/{skip:?}: tracing must not perturb the run"
    );
    Artifacts {
        stats,
        trace: trace.expect("trace was enabled"),
        csv_serial: ext_style_csv(&cfg, 1),
        csv_parallel: ext_style_csv(&cfg, 4),
    }
}

#[test]
fn wheel_and_heap_artifacts_are_byte_identical() {
    // The wheel × skip-on cell is the production configuration; the
    // heap × skip-off cell is the oracle every optimization must
    // reproduce byte for byte. The off-diagonal cells isolate which
    // layer (queue backend vs. skip layer) broke identity.
    let cells = [
        (QueueBackend::Wheel, SkipMode::On),
        (QueueBackend::Wheel, SkipMode::Off),
        (QueueBackend::Heap, SkipMode::On),
        (QueueBackend::Heap, SkipMode::Off),
    ];
    let baseline = collect(cells[0].0, cells[0].1);

    // Trace TSV: the full scheduler timeline, byte for byte.
    assert!(
        baseline.trace.lines().count() > 100,
        "trace suspiciously short — workload drifted?"
    );
    // Experiment CSV: identical across cells AND worker counts.
    assert!(baseline.csv_serial.lines().count() > 2);
    assert_eq!(
        baseline.csv_serial, baseline.csv_parallel,
        "Wheel/On: CSV must be worker-count invariant"
    );

    for &(queue, skip) in &cells[1..] {
        let other = collect(queue, skip);
        assert_eq!(
            baseline.trace, other.trace,
            "trace TSV differs: Wheel/On vs {queue:?}/{skip:?}"
        );
        // Stats fingerprint (leads with the logical event count —
        // dispatched + skipped — so the pop loop cannot silently skip
        // or duplicate dispatches, and the skip layer cannot elide an
        // event that was not a stale no-op; second entry is the
        // fast-forward ledger, so the closed-form poll accounting is
        // pinned across backends and skip modes too).
        assert_eq!(
            baseline.stats, other.stats,
            "run-report statistics differ: Wheel/On vs {queue:?}/{skip:?}"
        );
        assert_eq!(
            other.csv_serial, other.csv_parallel,
            "{queue:?}/{skip:?}: CSV must be worker-count invariant"
        );
        assert_eq!(
            baseline.csv_serial, other.csv_serial,
            "experiment CSV differs: Wheel/On vs {queue:?}/{skip:?}"
        );
    }
}
