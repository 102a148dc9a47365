//! Simulation-engine throughput benchmark: events/sec and ns/event
//! for the engine primitives and for full-machine runs.
//!
//! This binary maintains the repo's committed perf trajectory,
//! `BENCH_engine.json` at the **repository root**:
//!
//! - the `"baseline"` block is the frozen before-numbers (the
//!   pre-timing-wheel binary-heap engine) and the `"gate"` block is the
//!   frozen `--check` threshold; both are **preserved verbatim** when
//!   the file already exists, so re-runs never move them;
//! - the `"current"` block is rewritten on every full run with fresh
//!   measurements.
//!
//! Every run writes `target/experiments/BENCH_engine.json`, the copy CI
//! uploads; a `--quick` run writes only that copy, so the working tree
//! keeps the full run's numbers.
//!
//! Flags:
//!
//! - `--quick`: fewer coarse iterations (CI smoke mode);
//! - `--check`: exit non-zero when the current TaiChi-mode *logical*
//!   events per CPU-second (`machine_events_per_cpu_s`) fall below the
//!   gate block's `threshold`, which was set from the spread of
//!   repeated `--quick` runs of this engine. The gate divides by the
//!   process's CPU time (`getrusage`, user + system), not wall time,
//!   so a busy host that stalls the run does not fail it; without CPU
//!   time (non-Linux) the check fails.
//!
//! Any other argument, or a bad `TAICHI_*` value, is a usage error
//! (exit status 2).
//!
//! Event accounting: `events` is the *logical* count (dispatched
//! handlers plus skip-layer-elided stale timers — invariant across
//! backends and skip modes), `fast_forwarded` is the empty-poll
//! iterations the closed-form Fig. 9 ledger elided, and the headline
//! `events_per_sec` is effective throughput — `(events +
//! fast_forwarded) / wall` — i.e. the rate a poll-stepping engine
//! would need to match this one's simulated coverage.
//! `machine_events_per_sec` keeps the raw logical rate per wall second,
//! the unit of the baseline block; `machine_events_per_cpu_s` is the
//! same count per CPU-second, the gate's unit. Outside the Tai Chi
//! modes a DP burst completion is queued only when its handler has
//! work, so Baseline and Type2 retire fewer logical events for the same
//! simulated work than the baseline block's engine did (the current
//! block's `note` says so).
//!
//! The `primitives` block times the engine's and the scheduler's
//! per-event and per-yield fast paths: event queue, kernel decision,
//! hardware probe check, adaptive yield and slice feedback, IPI
//! routing, the vCPU pick, histogram record and the RNG. The paper's
//! "negligible scheduling overhead" claim rests on all of them being
//! nanosecond-scale.
//!
//! Uses the in-repo timing loops ([`taichi_bench::bench_ns`] /
//! [`taichi_bench::bench_coarse_ms`]) so the workspace builds offline.

use std::fmt::Write as _;
use std::hint::black_box;

use taichi_bench::{
    bench_coarse_ms, bench_json_path, bench_ns, json_block, json_number, usage_error,
    write_bench_json, Knobs,
};
use taichi_core::machine::{Machine, Mode};
use taichi_core::orchestrator::IpiOrchestrator;
use taichi_core::probe_sw::AdaptiveYield;
use taichi_core::sched::TaiChiPolicy;
use taichi_core::slice::AdaptiveSlice;
use taichi_core::vcpu_sched::VcpuScheduler;
use taichi_core::MachineConfig;
use taichi_cp::SynthCp;
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuExecState, CpuId, HwWorkloadProbe, IoKind, IpiMessage, IrqVector};
use taichi_os::{ActionBuf, CpuSet, Kernel, KernelConfig, Program, SoftirqKind};
use taichi_sim::{Dist, EventQueue, Histogram, Rng, SimDuration, SimTime};
use taichi_virt::VmExitReason;

/// The representative machine: bursty 8-CPU network traffic plus an
/// 8-task synth_cp batch.
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

#[derive(Clone, Copy)]
struct MachineStats {
    ms: f64,
    /// Logical events: dispatched + skip-layer-elided.
    events: u64,
    /// Handlers physically dispatched (the wall-clock work).
    dispatched: u64,
    /// Empty-poll iterations elided in closed form by the Fig. 9
    /// fast-forward ledger.
    fast_forwarded: u64,
    /// `events + fast_forwarded` — the work a poll-stepping engine
    /// would have had to execute to cover the same simulated span.
    effective_events: u64,
    ns_per_event: f64,
    /// Effective throughput: `effective_events / wall`.
    events_per_sec: f64,
    /// Raw logical throughput: `events / wall`.
    machine_events_per_sec: f64,
    /// CPU milliseconds per run (`None` without CPU time).
    cpu_ms: Option<f64>,
    /// Raw logical throughput per CPU-second: `events / cpu`.
    machine_events_per_cpu_s: Option<f64>,
}

/// Wall-clock and CPU time per 20 ms of simulated time plus engine
/// events/sec, for one mode.
fn machine_stats(mode: Mode, iters: u32) -> MachineStats {
    let (ms, cpu_ms) = bench_coarse_ms(iters, || {
        let mut m = build(mode);
        m.run_until(SimTime::from_millis(20));
        black_box(m.kernel().finished_count())
    });
    let mut m = build(mode);
    m.run_until(SimTime::from_millis(20));
    let events = m.events_processed();
    let dispatched = m.events_dispatched();
    let fast_forwarded = m.events_fast_forwarded();
    let effective_events = events + fast_forwarded;
    MachineStats {
        ms,
        events,
        dispatched,
        fast_forwarded,
        effective_events,
        ns_per_event: ms * 1e6 / effective_events as f64,
        events_per_sec: effective_events as f64 / (ms / 1e3),
        machine_events_per_sec: events as f64 / (ms / 1e3),
        cpu_ms,
        machine_events_per_cpu_s: cpu_ms.map(|c| events as f64 / (c.max(1e-9) / 1e3)),
    }
}

fn mode_json(s: MachineStats) -> String {
    let or_null = |v: Option<f64>, digits: usize| match v {
        Some(v) => format!("{v:.digits$}"),
        None => "null".into(),
    };
    format!(
        "{{ \"ms_per_20ms_sim\": {:.2}, \"cpu_ms_per_20ms_sim\": {}, \"events\": {}, \
         \"dispatched\": {}, \"fast_forwarded\": {}, \"effective_events\": {}, \
         \"ns_per_event\": {:.1}, \"events_per_sec\": {:.0}, \
         \"machine_events_per_sec\": {:.0}, \"machine_events_per_cpu_s\": {} }}",
        s.ms,
        or_null(s.cpu_ms, 2),
        s.events,
        s.dispatched,
        s.fast_forwarded,
        s.effective_events,
        s.ns_per_event,
        s.events_per_sec,
        s.machine_events_per_sec,
        or_null(s.machine_events_per_cpu_s, 0)
    )
}

fn main() {
    const USAGE: &str = "[--quick] [--check]";
    // The machines below use a fixed configuration; the knobs are
    // parsed only so a bad `TAICHI_*` value or flag is a usage error.
    let (_, args) = Knobs::init_with_args(USAGE);
    if let Some(a) = args
        .iter()
        .find(|a| !["--quick", "--check"].contains(&a.as_str()))
    {
        usage_error(USAGE, &format!("unknown argument {a:?}"));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let iters: u32 = if quick { 3 } else { 10 };

    // ---- Primitive micro-benches (default = wheel backend). ----

    let mut primitives: Vec<(&str, f64)> = Vec::new();
    let mut prim = |name: &'static str, ns: f64| {
        println!("{name:<32}{ns:>12.1} ns/iter");
        primitives.push((name, ns));
    };

    // Event-queue fast path: steady-state schedule+pop (the slab and
    // free list reach a fixed point, so this is allocation-free).
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    prim(
        "event_queue_push_pop",
        bench_ns(|| {
            t += 100;
            q.schedule(SimTime::from_nanos(t), t);
            black_box(q.pop())
        }),
    );

    // Cancellation path: schedule two, cancel one, pop the survivor —
    // exercises the generation stamp + eager/lazy discard machinery.
    let mut q2: EventQueue<u64> = EventQueue::new();
    let mut t2 = 0u64;
    prim(
        "event_queue_push_cancel_pop",
        bench_ns(|| {
            t2 += 100;
            let tok = q2.schedule(SimTime::from_nanos(t2), t2);
            q2.schedule(SimTime::from_nanos(t2 + 1), t2);
            q2.cancel(tok);
            black_box(q2.pop())
        }),
    );

    // Kernel decision hot loop with the out-parameter scratch buffer:
    // two effectively endless compute threads share one CPU, and every
    // iteration takes the next scheduling decision (a time-slice
    // rotation — dispatch + preempt through the ActionBuf, exactly the
    // path `Machine::on_kernel_decide` drives per decision event).
    let cp: Vec<CpuId> = (0..4).map(CpuId).collect();
    let mut kernel = Kernel::new(KernelConfig::default(), &cp);
    let mut buf = ActionBuf::new();
    for _ in 0..2 {
        let prog = Program::new().compute(SimDuration::from_secs(10_000_000));
        buf.clear();
        kernel.spawn(prog, CpuSet::single(CpuId(0)), SimTime::ZERO, &mut buf);
    }
    let mut now = SimTime::ZERO;
    prim(
        "kernel_decide_rotate",
        bench_ns(|| {
            buf.clear();
            if let Some(t) = kernel.next_decision_time(CpuId(0), now) {
                now = t;
            }
            kernel.decide(CpuId(0), now, &mut buf);
            black_box(buf.len())
        }),
    );

    // Scheduler fast paths: the per-packet probe check, the per-exit
    // yield and slice feedback, and IPI routing.
    let mut probe = HwWorkloadProbe::new(12);
    probe.set_state(CpuId(3), CpuExecState::VState);
    prim(
        "hw_probe_check_on_packet",
        bench_ns(|| probe.check_on_packet(black_box(CpuId(3)))),
    );
    let mut y = AdaptiveYield::new(12, 200, 25, 6400);
    prim(
        "adaptive_yield_update",
        bench_ns(|| {
            y.on_vm_exit(black_box(CpuId(2)), VmExitReason::SliceExpired);
            y.on_vm_exit(black_box(CpuId(2)), VmExitReason::HwProbe);
        }),
    );
    let mut slice = AdaptiveSlice::new(
        12,
        SimDuration::from_micros(50),
        SimDuration::from_micros(1600),
    );
    prim(
        "adaptive_slice_update",
        bench_ns(|| {
            slice.on_vm_exit(black_box(CpuId(2)), VmExitReason::SliceExpired);
            slice.on_vm_exit(black_box(CpuId(2)), VmExitReason::HwProbe);
        }),
    );
    let cp_hosts: Vec<CpuId> = (8..12).map(CpuId).collect();
    let mut ipi_kernel = Kernel::new(KernelConfig::default(), &cp_hosts);
    let mut orch = IpiOrchestrator::new(12);
    orch.register_vcpus(&mut ipi_kernel, 8, SimTime::ZERO);
    let msg = IpiMessage {
        src: CpuId(8),
        dst: CpuId(14),
        vector: IrqVector::RESCHEDULE,
    };
    prim(
        "ipi_route",
        bench_ns(|| orch.route(black_box(msg), |i| i % 2 == 0)),
    );

    // The vCPU pick, end to end, reading real kernel state
    // (descheduled check + pending softirq work on the back half of
    // the pool).
    let mut pick_kernel = Kernel::new(KernelConfig::default(), &cp_hosts);
    let mut pick_orch = IpiOrchestrator::new(12);
    let vcpu_ids = pick_orch.register_vcpus(&mut pick_kernel, 8, SimTime::ZERO);
    for &v in &vcpu_ids[4..] {
        pick_kernel.softirqs().raise(v, SoftirqKind::TaiChiVcpu);
    }
    let vsched = VcpuScheduler::new(&vcpu_ids, 12);
    let mut policy = TaiChiPolicy::new(12);
    prim(
        "policy_pick_vcpu",
        bench_ns(|| policy.pick_vcpu(black_box(&vsched), &pick_kernel, &pick_orch)),
    );

    let mut h = Histogram::new();
    let mut rng = Rng::new(1);
    prim(
        "histogram_record",
        bench_ns(|| h.record(black_box(rng.next_below(1_000_000)))),
    );
    let mut rng = Rng::new(42);
    prim("rng_next_u64", bench_ns(|| black_box(rng.next_u64())));

    // ---- Full-machine throughput. ----

    let modes = [Mode::Baseline, Mode::TaiChi, Mode::Type2];
    let stats: Vec<MachineStats> = modes.iter().map(|&m| machine_stats(m, iters)).collect();
    for (mode, s) in modes.iter().zip(&stats) {
        println!(
            "simulate_20ms/{mode:<18} {:>9.2} ms/iter  {} events (+{} fast-forwarded)  \
             {:.0} ns/event  {:.0} events/sec effective  {:.0} logical  \
             {:.0} logical per CPU-second",
            s.ms,
            s.events,
            s.fast_forwarded,
            s.ns_per_event,
            s.events_per_sec,
            s.machine_events_per_sec,
            s.machine_events_per_cpu_s.unwrap_or(f64::NAN),
        );
    }

    // ---- Assemble the trajectory file. ----

    let root_path = bench_json_path("BENCH_engine.json");
    let existing = std::fs::read_to_string(&root_path).unwrap_or_default();
    let baseline_block = json_block(&existing, "baseline");
    let gate_block = json_block(&existing, "gate");

    let mut current = String::from(
        "\"current\": {\n    \"note\": \"events counts logical events. Baseline and Type2 \
         queue a DP burst completion only when its handler has work (packets left in the \
         ring or delivered during the burst), so their events and logical events/s count \
         fewer completions than the baseline block's engine did for the same simulated \
         work; TaiChi mode queues every completion, so its logical events/s compare \
         with the baseline block's. cpu_ms_per_20ms_sim and machine_events_per_cpu_s \
         divide by the process's CPU time (getrusage), the gate's unit\",\n    \
         \"primitives\": {\n",
    );
    for (i, (name, ns)) in primitives.iter().enumerate() {
        let sep = if i + 1 == primitives.len() { "" } else { "," };
        let _ = writeln!(current, "      \"{name}_ns\": {ns:.1}{sep}");
    }
    current.push_str("    },\n    \"modes\": {\n");
    for (i, (mode, s)) in modes.iter().zip(&stats).enumerate() {
        let _ = writeln!(
            current,
            "      \"{mode}\": {}{}",
            mode_json(*s),
            if i + 1 == modes.len() { "" } else { "," }
        );
    }
    // The gate and the speedup line pin the TaiChi mode specifically —
    // a Baseline- or Type2-mode improvement must never mask a
    // TaiChi-mode regression. Both count logical events; the speedup
    // line divides by wall time, the baseline block's unit, and the
    // gate by CPU time.
    let taichi = stats[1];
    assert!(matches!(modes[1], Mode::TaiChi));
    let baseline_eps = baseline_block.and_then(|b| {
        let at = b.find(&format!("\"{}\"", Mode::TaiChi))?;
        json_number(&b[at..], "events_per_sec")
    });
    let vs_baseline = baseline_eps
        .map(|b| taichi.machine_events_per_sec / b)
        .unwrap_or(f64::NAN);
    let _ = write!(
        current,
        "    }},\n    \"logical_speedup_TaiChi_vs_baseline\": {vs_baseline:.2}\n  }}"
    );

    let mut json = String::from("{\n");
    for block in [baseline_block, gate_block].into_iter().flatten() {
        let _ = writeln!(json, "  {block},");
    }
    let _ = write!(json, "  {current}\n}}\n");
    write_bench_json("BENCH_engine.json", &json, quick);

    // ---- Regression gate. ----

    if check {
        let Some(threshold) = gate_block.and_then(|b| json_number(b, "threshold")) else {
            eprintln!("check: no gate threshold in the committed BENCH_engine.json");
            std::process::exit(1);
        };
        let Some(cur) = taichi.machine_events_per_cpu_s else {
            eprintln!("check FAILED: no CPU time on this platform, so no gated metric");
            std::process::exit(1);
        };
        println!(
            "check: TaiChi {cur:.0} logical events per CPU-second vs gate threshold \
             {threshold:.0} ({:.2}x)",
            cur / threshold
        );
        if cur < threshold {
            eprintln!("check FAILED: TaiChi-mode logical throughput fell below the gate");
            std::process::exit(1);
        }
        println!("check passed");
    }
}
