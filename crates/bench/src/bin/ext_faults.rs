//! Fault-matrix sweep: graceful degradation under injected faults.
//!
//! Runs the Tai Chi machine (and the static-partitioning baseline for
//! contrast) across a ladder of uniform fault rates — accelerator
//! stalls, IPI drops/delays, lost wakeups, lost softirqs, eNIC
//! rejections, timer jitter, and periodic CP task storms — and reports
//! how throughput, latency and the scheduler's recovery counters
//! degrade. Every row also sweeps the machine-wide invariant checker:
//! whatever the fault plan does, the scheduler must not lose a vCPU,
//! wedge a softirq, strand a sleeper, exceed its IPI retry budget, or
//! run time backwards.
//!
//! The sweep is deterministic: same seed + same plan produce a
//! byte-identical CSV regardless of the worker count (see the
//! `fault_matrix` integration test). The fault plan is this binary's
//! sweep axis, so `TAICHI_FAULTS` does not apply here.

use taichi_bench::{emit, emit_trace, sweep_with, Knobs};
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::{check_invariants, MachineConfig};
use taichi_cp::{CpTaskKind, TaskFactory};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::Table;
use taichi_sim::{Dist, FaultPlan, Rng, SimDuration, SimTime};

/// Uniform fault-rate ladder (0 is the fault-free control row).
const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

/// Simulated horizon per cell. Short enough that the full matrix runs
/// in CI, long enough to fire every fault class and several storms.
const HORIZON_MS: u64 = 200;

struct Outcome {
    pps: f64,
    dp_p99_us: f64,
    dp_dropped: u64,
    faults_fired: u64,
    ipi_resends: u64,
    ipi_lost: u64,
    wakeup_rearms: u64,
    softirq_rearms: u64,
    grant_rollbacks: u64,
    yield_clamps: u64,
    invariant_violations: Vec<String>,
}

fn run(base: &MachineConfig, mode: Mode, rate: f64) -> Outcome {
    let cfg = MachineConfig {
        faults: FaultPlan::uniform(rate),
        ..base.clone()
    };
    let mut m = Machine::new(cfg, mode);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / 8.0),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));
    let factory = TaskFactory::default();
    let mut rng = Rng::new(base.seed ^ 0xFA);
    let mut t = SimTime::from_millis(1);
    while t < SimTime::from_millis(HORIZON_MS) {
        m.schedule_cp_batch(
            vec![
                factory.build(CpTaskKind::DeviceManagement, &mut rng),
                factory.build(CpTaskKind::Monitoring, &mut rng),
            ],
            t,
        );
        t += SimDuration::from_millis(2);
    }
    m.run_until(SimTime::from_millis(HORIZON_MS));
    emit_trace(&format!("ext_faults_{mode}_{rate}"), &m);
    let r = RunReport::collect(&m);
    let health = m.fault_health();
    Outcome {
        pps: r.dp_pps(),
        dp_p99_us: r.dp.total_latency().percentile(99.0) as f64 / 1e3,
        dp_dropped: r.dp_dropped,
        faults_fired: m.fault().map(|f| f.stats().total()).unwrap_or(0),
        ipi_resends: health.ipi_resends,
        ipi_lost: health.ipi_lost,
        wakeup_rearms: health.wakeup_rearms,
        softirq_rearms: health.softirq_rearms,
        grant_rollbacks: health.softirq_lost_grants,
        yield_clamps: health.yield_clamps,
        invariant_violations: check_invariants(&m).violations,
    }
}

fn main() {
    let knobs = Knobs::init();
    let base = knobs.machine();
    let mut cases = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        for rate in RATES {
            cases.push((mode, rate));
        }
    }
    let results = sweep_with(knobs.workers, cases.clone(), |(mode, rate)| {
        run(&base, mode, rate)
    });

    let mut t = Table::new(
        "Fault-matrix degradation sweep (uniform rate per fault class)",
        &[
            "mode",
            "rate",
            "pps",
            "dp p99 (us)",
            "drops",
            "faults",
            "ipi resend/lost",
            "wake rearm",
            "sirq rearm/rb",
            "clamps",
            "invariants",
        ],
    );
    let mut broken = 0usize;
    for ((mode, rate), o) in cases.iter().zip(&results) {
        t.row(&[
            mode.to_string(),
            format!("{rate:.2}"),
            format!("{:.0}", o.pps),
            format!("{:.1}", o.dp_p99_us),
            o.dp_dropped.to_string(),
            o.faults_fired.to_string(),
            format!("{}/{}", o.ipi_resends, o.ipi_lost),
            o.wakeup_rearms.to_string(),
            format!("{}/{}", o.softirq_rearms, o.grant_rollbacks),
            o.yield_clamps.to_string(),
            if o.invariant_violations.is_empty() {
                "ok".to_string()
            } else {
                format!("{} VIOLATED", o.invariant_violations.len())
            },
        ]);
        broken += o.invariant_violations.len();
    }
    emit("ext_faults", &t);

    for ((mode, rate), o) in cases.iter().zip(&results) {
        for v in &o.invariant_violations {
            eprintln!("invariant violated ({mode}, rate {rate}): {v}");
        }
    }
    if broken > 0 {
        eprintln!("{broken} invariant violation(s) across the fault matrix");
        std::process::exit(1);
    }
    println!("all scheduler invariants held across the fault matrix");
}
