//! The engine's byte-identity contract, as one table of cases.
//!
//! A run is exactly its configuration, so every engine oracle is a
//! configuration value: the event-queue backend (`MachineConfig::queue`,
//! the timing wheel vs. its binary-heap reference) and idle-time
//! skipping (`MachineConfig::skip`, on vs. the dispatch-everything
//! reference). Both fields are test-only: they exist under the dev-only
//! `oracle` feature, which this crate's dev-dependencies turn on. Each
//! case names a machine configuration and a mode. It
//! runs in all four oracle cells, `{wheel, heap} × {skip on, skip off}`,
//! and everything a user can export must be byte-identical to the
//! case's reference run on the production cell (wheel, skip on):
//!
//! - the scheduler trace TSV;
//! - the named stats [`fingerprint`] (fast-forward ledger, fault
//!   counters per class, and recovery counters included);
//! - an `ext_*`-style sweep CSV, rendered at 1 and at 4 workers, with
//!   rows from machine-level runs and from `workloads::measure`.
//!
//! Every run also checks the invariants that hold cell by cell: tracing
//! does not perturb the fingerprint, the skip ledger balances
//! (`dispatched + skipped == processed`), skip on cancels some
//! superseded timers and skip off cancels none, single-tenant machines
//! expose no tenant artifacts, and an active timer-jitter plan fires.
//!
//! Nothing here touches process-global state, so every case is its own
//! test and the cases run in parallel. Each case writes its per-cell
//! fingerprints to `target/experiments/identity_<case>.tsv` (relative
//! to the crate directory) for before/after diffs across refactors.

use taichi_bench::sweep_with;
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::{MachineConfig, SkipMode, TenantConfig};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::report::Table;
use taichi_sim::{Dist, FaultPlan, QueueBackend, Rng, SimDuration, SimTime};
use taichi_workloads::{measure, BenchTraffic};

const SEED: u64 = 0x0E77;

/// The oracle cells; the first is the production configuration.
const CELLS: [(QueueBackend, SkipMode); 4] = [
    (QueueBackend::Wheel, SkipMode::On),
    (QueueBackend::Wheel, SkipMode::Off),
    (QueueBackend::Heap, SkipMode::On),
    (QueueBackend::Heap, SkipMode::Off),
];

/// One row of the case table.
struct Case {
    name: &'static str,
    mode: Mode,
    /// Applied to the default machine for every run of the case.
    config: fn(&mut MachineConfig),
    /// When set, the reference is this configuration on the production
    /// cell instead of `config` there.
    reference: Option<fn(&mut MachineConfig)>,
}

impl Case {
    fn mode(name: &'static str, mode: Mode) -> Case {
        Case {
            name,
            mode,
            config: |_| {},
            reference: None,
        }
    }
}

/// Bursty open-loop traffic on every DP CPU.
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

/// The workload every case runs: bench traffic, a 12-task synth_cp
/// batch at time zero, and one VM creation at 10 ms.
fn run(cfg: MachineConfig, mode: Mode, horizon: SimTime) -> Machine {
    let mut m = build(cfg, mode);
    m.run_until(horizon);
    m
}

/// A machine loaded with [`run`]'s workload, not started yet.
fn build(cfg: MachineConfig, mode: Mode) -> Machine {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg, mode);
    add_bench_traffic(&mut m);
    let mut rng = Rng::new(seed ^ 0x51);
    m.schedule_cp_batch(SynthCp::default().workload(12, &mut rng), SimTime::ZERO);
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(10)),
        &TaskFactory::default(),
    );
    m
}

/// The named stats fingerprint of a finished run. The skip ledger's
/// legs are left out on purpose: skip off dispatches the stale timers
/// skip on cancels, so only their sum (`events`) is cell-invariant.
fn fingerprint(m: &Machine) -> Vec<(&'static str, u64)> {
    let r = RunReport::collect(m);
    let f = m.fault().map(|f| f.stats()).unwrap_or_default();
    let h = m.fault_health();
    vec![
        ("events", m.events_processed()),
        ("fast_forwarded", m.events_fast_forwarded()),
        ("dp_packets", r.dp.packets()),
        ("dp_mean_bits", r.dp.total_latency().mean().to_bits()),
        ("dp_p999_ns", r.dp.total_latency().percentile(99.9)),
        ("cp_finished", r.cp_finished),
        ("cp_turnaround_mean_bits", r.cp_turnaround.mean().to_bits()),
        ("cp_spin_ns", r.cp_spin_time_ns),
        ("yields", r.yields),
        ("hw_probe_exits", r.hw_probe_exits),
        ("slice_exits", r.slice_exits),
        ("lock_reschedules", r.lock_reschedules),
        (
            "vm_startup_ns",
            r.vm_startups.first().map_or(0, |d| d.as_nanos()),
        ),
        ("woken", m.orchestrator().woken_count()),
        ("posted_interrupts", m.posted_interrupts()),
        ("fault_accel_stalls", f.accel_stalls),
        ("fault_ipi_drops", f.ipi_drops),
        ("fault_ipi_delays", f.ipi_delays),
        ("fault_wakeup_drops", f.wakeup_drops),
        ("fault_softirq_drops", f.softirq_drops),
        ("fault_enic_rejects", f.enic_rejects),
        ("fault_timer_jitters", f.timer_jitters),
        ("fault_cp_storms", f.cp_storms),
        ("ipi_resends", h.ipi_resends),
        ("wakeup_rearms", h.wakeup_rearms),
        ("softirq_rearms", h.softirq_rearms),
        ("yield_clamps", h.yield_clamps),
    ]
}

fn value(fp: &[(&str, u64)], key: &str) -> u64 {
    fp.iter()
        .find(|(k, _)| *k == key)
        .expect("fingerprint key")
        .1
}

/// An `ext_*`-style sweep over two seeds of `cfg`, rendered to CSV
/// exactly as the experiment binaries render theirs: per seed one
/// machine-level row (the harness workload) and one `workloads::measure`
/// row, fanned out over `workers` threads.
fn sweep_csv(cfg: &MachineConfig, mode: Mode, workers: usize) -> String {
    let jobs: Vec<(u64, bool)> = [cfg.seed, cfg.seed ^ 1]
        .into_iter()
        .flat_map(|seed| [(seed, false), (seed, true)])
        .collect();
    let traffic = BenchTraffic::net(512.0, 0.3, false);
    let rows = sweep_with(workers, jobs.clone(), |(seed, via_measure)| {
        let cfg = MachineConfig {
            seed,
            ..cfg.clone()
        };
        if via_measure {
            let d = measure(&cfg, mode, &traffic, SimDuration::from_millis(5));
            (d.pps, d.lat_p99_ns, d.yields)
        } else {
            let m = run(cfg, mode, SimTime::from_millis(20));
            let r = RunReport::collect(&m);
            (r.dp_pps(), r.dp.total_latency().percentile(99.0), r.yields)
        }
    });
    let mut table = Table::new(
        "identity sweep",
        &["mode", "seed", "source", "pps", "dp p99 (ns)", "yields"],
    );
    for ((seed, via_measure), (pps, p99, yields)) in jobs.iter().zip(&rows) {
        table.row(&[
            mode.to_string(),
            seed.to_string(),
            if *via_measure { "measure" } else { "machine" }.to_string(),
            format!("{pps:.3}"),
            p99.to_string(),
            yields.to_string(),
        ]);
    }
    table.to_csv()
}

/// Everything one configuration exports.
struct Artifacts {
    fingerprint: Vec<(&'static str, u64)>,
    trace: String,
    csv: String,
}

/// Runs `cfg` traced and untraced, checks the per-run invariants, and
/// collects its artifacts.
fn collect(cfg: &MachineConfig, mode: Mode, label: &str) -> Artifacts {
    let horizon = SimTime::from_millis(50);
    let plain = fingerprint(&run(cfg.clone(), mode, horizon));
    let mut traced_cfg = cfg.clone();
    traced_cfg.trace.enabled = true;
    let mut m = run(traced_cfg, mode, horizon);
    let fingerprint = fingerprint(&m);
    assert_eq!(
        plain, fingerprint,
        "{label}: tracing must not perturb the run"
    );

    assert_eq!(
        m.events_processed(),
        m.events_dispatched() + m.events_skipped(),
        "{label}: skip ledger out of balance"
    );
    match cfg.skip {
        SkipMode::On => assert!(
            m.events_skipped() > 0,
            "{label}: skip on must cancel timers"
        ),
        SkipMode::Off => assert_eq!(m.events_skipped(), 0, "{label}: skip off dispatches all"),
    }
    if !cfg.tenants.is_multi() {
        assert!(m.tenant_totals().is_empty(), "{label}: tenant totals");
        assert!(
            m.drain_tenant_recorders().is_empty(),
            "{label}: tenant recorders"
        );
    }
    if !cfg.faults.timer_jitter.is_zero() {
        assert!(
            value(&fingerprint, "fault_timer_jitters") > 0,
            "{label}: timer jitter must fire"
        );
    }

    let csv = sweep_csv(cfg, mode, 1);
    assert_eq!(csv.lines().count(), 5, "{label}: header plus four rows");
    assert_eq!(
        csv,
        sweep_csv(cfg, mode, 4),
        "{label}: sweep CSV must be worker-count invariant"
    );
    let trace = m.trace_tsv().expect("trace was enabled");
    assert!(
        trace.lines().count() > 100,
        "{label}: trace suspiciously short — workload drifted?"
    );
    Artifacts {
        fingerprint,
        trace,
        csv,
    }
}

/// FNV-1a: a stable content hash for the artifact file.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn check(case: &Case) {
    let config = |tweak: fn(&mut MachineConfig), (queue, skip)| {
        let mut cfg = MachineConfig {
            seed: SEED,
            queue,
            skip,
            ..MachineConfig::default()
        };
        tweak(&mut cfg);
        cfg
    };
    let cells: Vec<(String, Artifacts)> = CELLS
        .iter()
        .map(|&cell| {
            let label = format!("{}/{:?}/{:?}", case.name, cell.0, cell.1);
            let a = collect(&config(case.config, cell), case.mode, &label);
            (label, a)
        })
        .collect();
    let reference = case.reference.map(|tweak| {
        let label = format!("{}/reference", case.name);
        let a = collect(&config(tweak, CELLS[0]), case.mode, &label);
        (label, a)
    });

    let lines: Vec<String> = reference
        .iter()
        .chain(&cells)
        .map(|(label, a)| {
            let fp: Vec<String> = a
                .fingerprint
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!(
                "{label}\t{}\ttrace_fnv={:016x}\tcsv_fnv={:016x}",
                fp.join("\t"),
                fnv64(a.trace.as_bytes()),
                fnv64(a.csv.as_bytes())
            )
        })
        .collect();
    let out = taichi_bench::results_dir().join(format!("identity_{}.tsv", case.name));
    std::fs::write(&out, lines.join("\n") + "\n").expect("write fingerprint artifact");

    let (ref_label, want) = reference.as_ref().unwrap_or(&cells[0]);
    for (label, got) in &cells {
        for (w, g) in want.fingerprint.iter().zip(&got.fingerprint) {
            assert_eq!(w, g, "fingerprint differs: {ref_label} vs {label}");
        }
        assert!(
            want.trace == got.trace,
            "trace TSV differs: {ref_label} vs {label}"
        );
        assert_eq!(
            want.csv, got.csv,
            "sweep CSV differs: {ref_label} vs {label}"
        );
    }
}

macro_rules! identity_cases {
    ($($test:ident: $case:expr;)*) => {
        $(
            #[test]
            fn $test() {
                check(&$case);
            }
        )*
    };
}

identity_cases! {
    baseline_mode_is_identical_across_oracles: Case::mode("baseline", Mode::Baseline);
    taichi_mode_is_identical_across_oracles: Case::mode("taichi", Mode::TaiChi);
    taichi_no_hw_probe_mode_is_identical_across_oracles:
        Case::mode("taichi_no_hw_probe", Mode::TaiChiNoHwProbe);
    taichi_vdp_mode_is_identical_across_oracles: Case::mode("taichi_vdp", Mode::TaiChiVdp);
    type2_mode_is_identical_across_oracles: Case::mode("type2", Mode::Type2);
    // `tenants.count == 1` keeps the pre-tenant engine byte for byte
    // (no arbiter, no per-tenant recorders, zero extra RNG draws), no
    // matter what the other tenant knobs say.
    single_tenant_config_is_byte_identical_to_default: Case {
        name: "single_tenant",
        mode: Mode::TaiChi,
        config: |c| {
            c.tenants = TenantConfig {
                count: 1,
                weights: vec![7, 3, 1],
                quantum: 9_000,
                ring_capacity: 8,
            }
        },
        reference: Some(|_| {}),
    };
    // Timer jitter perturbs a kernel deadline before the timer is
    // programmed, which is exactly the path the skip layer intercepts:
    // a jitter draw that happened under one skip mode but not the
    // other would desync every stream downstream.
    skip_layer_is_identity_under_timer_jitter_faults: Case {
        name: "faults",
        mode: Mode::TaiChi,
        config: |c| {
            c.faults = FaultPlan::default()
                .apply_spec("all=0.05,jitter_ns=1500,storm_us=4000,storm_tasks=4")
                .expect("valid fault spec")
        },
        reference: None,
    };
}

/// Machine-level DRR fairness: two tenants with equal weights and
/// equal (saturating) demand on disjoint DP CPUs split the shared
/// ingest port evenly — issued byte totals match within one quantum's
/// worth of bytes.
#[test]
fn equal_weight_tenants_split_the_port_within_one_quantum() {
    let quantum = 1_500u64;
    let mut cfg = MachineConfig {
        seed: SEED,
        tenants: TenantConfig {
            count: 2,
            weights: vec![1, 1],
            quantum,
            ring_capacity: 1_024,
        },
        ..MachineConfig::default()
    };
    // Narrow the port so it saturates: 512 B ≈ 717 ns of port time per
    // packet while each tenant offers one packet per ~350 ns.
    cfg.accel.ns_per_byte = 1.4;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    let dp = m.services().len() as u32;
    let half = (dp / 2).max(1);
    for (t, cpus) in [
        (0u32, (0..half).map(CpuId).collect::<Vec<_>>()),
        (1u32, (half..dp).map(CpuId).collect::<Vec<_>>()),
    ] {
        m.add_traffic(
            TrafficGen::new(
                ArrivalPattern::OpenLoop {
                    gap_us: Dist::constant(0.35),
                },
                Dist::constant(512.0),
                IoKind::Network,
                cpus,
            )
            .with_tenant(TenantId(t)),
        );
    }
    m.run_until(SimTime::from_millis(10));
    taichi_core::audit::assert_invariants(&m, "equal_weight_split");
    let stats = m.accel().tenant_ingress_stats();
    assert_eq!(stats.len(), 2);
    let (b0, b1) = (stats[0].1, stats[1].1);
    assert!(b0 > 0 && b1 > 0, "both tenants must be served");
    assert!(
        b0.abs_diff(b1) <= quantum,
        "equal-weight equal-demand tenants diverged by more than one \
         quantum: {b0} vs {b1} bytes"
    );
}

/// `Machine` is `Send`: a traced, faulted run that moves to another
/// thread halfway exports exactly what a run kept on one thread does.
#[test]
fn machine_moved_to_another_thread_matches_a_single_thread_run() {
    let mut cfg = MachineConfig {
        seed: SEED,
        faults: FaultPlan::default()
            .apply_spec("all=0.05,jitter_ns=1500,storm_us=4000")
            .expect("valid fault spec"),
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    let mut m = build(cfg.clone(), Mode::TaiChi);
    m.run_until(SimTime::from_millis(50));
    let moved = std::thread::spawn(move || {
        m.run_until(SimTime::from_millis(100));
        m
    })
    .join()
    .expect("the moved run finished");
    let stayed = run(cfg, Mode::TaiChi, SimTime::from_millis(100));
    assert_eq!(fingerprint(&moved), fingerprint(&stayed));
    assert!(moved.trace_tsv() == stayed.trace_tsv(), "trace TSV differs");
}
