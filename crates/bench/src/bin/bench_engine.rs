//! Simulation-engine throughput benchmark: events/sec and ns/event
//! for the engine primitives and for full-machine runs, on both queue
//! backends.
//!
//! This binary maintains the repo's committed perf trajectory,
//! `BENCH_engine.json` at the **repository root**:
//!
//! - the `"baseline"` block is the frozen before-numbers (the heap
//!   backend, i.e. the pre-timing-wheel engine) and is **preserved
//!   verbatim** when the file already exists, so the trajectory
//!   survives re-runs;
//! - the `"current"` block is rewritten on every run with fresh wheel
//!   and heap measurements plus the resulting speedups.
//!
//! A copy also lands in `target/experiments/` so CI can upload it as an
//! artifact without touching the working tree.
//!
//! Flags:
//!
//! - `--quick`: fewer coarse iterations (CI smoke mode);
//! - `--check`: exit non-zero when the current TaiChi-mode events/s
//!   falls below 80% of the committed baseline — a generous gate (the
//!   baseline is the *heap* engine, so the wheel normally clears it
//!   severalfold) that still catches real regressions without flaking
//!   on slower CI runners.
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
//! `machine_events_per_sec` keeps the raw logical rate.
//!
//! Uses the in-repo timing loops ([`taichi_bench::bench_ns`] /
//! [`taichi_bench::bench_coarse_ms`]) so the workspace builds offline.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;

use taichi_bench::{bench_coarse_ms, bench_ns, results_dir, usage_error, Knobs};
use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_cp::SynthCp;
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_os::{ActionBuf, CpuSet, Kernel, KernelConfig, Program};
use taichi_sim::{Dist, EventQueue, QueueBackend, Rng, SimDuration, SimTime};

/// The same representative machine as the `machine_throughput` bench:
/// bursty 8-CPU network traffic plus an 8-task synth_cp batch, on the
/// given event-queue backend.
fn build(mode: Mode, queue: QueueBackend) -> Machine {
    let cfg = MachineConfig {
        queue,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, mode);
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
    /// Logical events: dispatched + skip-layer-elided (invariant
    /// across backends and skip modes).
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
}

/// Wall-clock per 20 ms of simulated time plus engine events/sec, for
/// one mode on one event-queue backend.
fn machine_stats(mode: Mode, queue: QueueBackend, iters: u32) -> MachineStats {
    let ms = bench_coarse_ms(iters, || {
        let mut m = build(mode, queue);
        m.run_until(SimTime::from_millis(20));
        black_box(m.kernel().finished_count())
    });
    let mut m = build(mode, queue);
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
    }
}

fn mode_json(s: MachineStats) -> String {
    format!(
        "{{ \"ms_per_20ms_sim\": {:.2}, \"events\": {}, \"dispatched\": {}, \
         \"fast_forwarded\": {}, \"effective_events\": {}, \
         \"ns_per_event\": {:.1}, \"events_per_sec\": {:.0}, \
         \"machine_events_per_sec\": {:.0} }}",
        s.ms,
        s.events,
        s.dispatched,
        s.fast_forwarded,
        s.effective_events,
        s.ns_per_event,
        s.events_per_sec,
        s.machine_events_per_sec
    )
}

/// Extracts `"key": { ... }` (balanced braces) from `text`, including
/// the key itself — enough JSON awareness to carry the committed
/// baseline block forward without a parser dependency.
fn extract_block<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let start = text.find(key)?;
    let open = start + text[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[start..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Pulls `"events_per_sec": <number>` for `mode` out of a JSON block.
fn events_per_sec_of(block: &str, mode: &str) -> Option<f64> {
    let at = block.find(&format!("\"{mode}\""))?;
    let rest = &block[at..];
    let k = rest.find("\"events_per_sec\":")?;
    let num = rest[k + "\"events_per_sec\":".len()..]
        .trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .next()?;
    num.parse().ok()
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
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

    // Event-queue fast path: steady-state schedule+pop (the slab and
    // free list reach a fixed point, so this is allocation-free).
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    let push_pop = bench_ns(|| {
        t += 100;
        q.schedule(SimTime::from_nanos(t), t);
        black_box(q.pop())
    });
    println!("event_queue_push_pop            {push_pop:>12.1} ns/iter");

    // Cancellation path: schedule two, cancel one, pop the survivor —
    // exercises the generation stamp + eager/lazy discard machinery.
    let mut q2: EventQueue<u64> = EventQueue::new();
    let mut t2 = 0u64;
    let push_cancel_pop = bench_ns(|| {
        t2 += 100;
        let tok = q2.schedule(SimTime::from_nanos(t2), t2);
        q2.schedule(SimTime::from_nanos(t2 + 1), t2);
        q2.cancel(tok);
        black_box(q2.pop())
    });
    println!("event_queue_push_cancel_pop     {push_cancel_pop:>12.1} ns/iter");

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
    let decide_rotate = bench_ns(|| {
        buf.clear();
        if let Some(t) = kernel.next_decision_time(CpuId(0), now) {
            now = t;
        }
        kernel.decide(CpuId(0), now, &mut buf);
        black_box(buf.len())
    });
    println!("kernel_decide_rotate            {decide_rotate:>12.1} ns/iter");

    // ---- Full-machine throughput, wheel vs. heap. ----

    let modes = [Mode::Baseline, Mode::TaiChi, Mode::Type2];
    let stats = |queue| -> Vec<MachineStats> {
        modes
            .iter()
            .map(|&m| machine_stats(m, queue, iters))
            .collect()
    };
    let wheel = stats(QueueBackend::Wheel);
    let heap = stats(QueueBackend::Heap);

    for ((mode, w), h) in modes.iter().zip(&wheel).zip(&heap) {
        println!(
            "simulate_20ms/{mode:<18} {:>9.2} ms/iter  {} events (+{} fast-forwarded)  \
             {:.0} ns/event  {:.0} events/sec effective  ({:.2}x vs heap {:.0} ev/s)",
            w.ms,
            w.events,
            w.fast_forwarded,
            w.ns_per_event,
            w.events_per_sec,
            w.events_per_sec / h.events_per_sec,
            h.events_per_sec,
        );
    }

    // ---- Assemble the trajectory file. ----

    let root_path = repo_root().join("BENCH_engine.json");
    let existing = std::fs::read_to_string(&root_path).unwrap_or_default();
    let baseline_block = match extract_block(&existing, "\"baseline\"") {
        Some(b) => b.to_string(),
        None => {
            // First run: freeze this machine's heap numbers as the
            // before-trajectory.
            let mut b = String::from(
                "\"baseline\": {\n    \"backend\": \"heap\",\n    \
                 \"note\": \"pre-timing-wheel engine (binary-heap event queue)\",\n    \
                 \"modes\": {\n",
            );
            for (i, (mode, h)) in modes.iter().zip(&heap).enumerate() {
                let _ = writeln!(
                    b,
                    "      \"{mode}\": {}{}",
                    mode_json(*h),
                    if i + 1 == modes.len() { "" } else { "," }
                );
            }
            b.push_str("    }\n  }");
            b
        }
    };

    let mut current =
        String::from("\"current\": {\n    \"backend\": \"wheel\",\n    \"primitives\": {\n");
    let _ = write!(
        current,
        "      \"event_queue_push_pop_ns\": {push_pop:.1},\n      \
         \"event_queue_push_cancel_pop_ns\": {push_cancel_pop:.1},\n      \
         \"kernel_decide_rotate_ns\": {decide_rotate:.1}\n    }},\n    \"modes\": {{\n"
    );
    for (i, (mode, w)) in modes.iter().zip(&wheel).enumerate() {
        let _ = writeln!(
            current,
            "      \"{mode}\": {}{}",
            mode_json(*w),
            if i + 1 == modes.len() { "" } else { "," }
        );
    }
    current.push_str("    },\n    \"heap_modes\": {\n");
    for (i, (mode, h)) in modes.iter().zip(&heap).enumerate() {
        let _ = writeln!(
            current,
            "      \"{mode}\": {}{}",
            mode_json(*h),
            if i + 1 == modes.len() { "" } else { "," }
        );
    }
    // The gate (and both speedup lines) pin the TaiChi mode
    // specifically — a Baseline- or Type2-mode improvement must never
    // mask a TaiChi-mode regression.
    let taichi_idx = 1usize;
    assert!(matches!(modes[taichi_idx], Mode::TaiChi));
    let wheel_vs_heap = wheel[taichi_idx].events_per_sec / heap[taichi_idx].events_per_sec;
    let taichi_key = modes[taichi_idx].to_string();
    let baseline_eps = events_per_sec_of(&baseline_block, &taichi_key);
    let vs_baseline = baseline_eps
        .map(|b| wheel[taichi_idx].events_per_sec / b)
        .unwrap_or(f64::NAN);
    let _ = write!(
        current,
        "    }},\n    \"speedup_TaiChi_wheel_vs_heap\": {wheel_vs_heap:.2},\n    \
         \"speedup_TaiChi_vs_baseline\": {vs_baseline:.2}\n  }}"
    );

    let json = format!("{{\n  {baseline_block},\n  {current}\n}}\n");
    for path in [root_path.clone(), results_dir().join("BENCH_engine.json")] {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[json] {}", path.display());
        }
    }

    // ---- Regression gate. ----

    if check {
        let Some(base) = baseline_eps else {
            eprintln!("check: no TaiChi events_per_sec in the committed baseline");
            std::process::exit(1);
        };
        let cur = wheel[taichi_idx].events_per_sec;
        let ratio = cur / base;
        println!(
            "check: TaiChi {cur:.0} events/s vs committed baseline {base:.0} \
             ({ratio:.2}x, gate at 0.80x)"
        );
        if ratio < 0.80 {
            eprintln!("check FAILED: TaiChi-mode throughput regressed below 80% of the baseline");
            std::process::exit(1);
        }
        println!("check passed");
    }
}
