//! The single-machine workloads, `harvest` and `dp_saturated`.
//!
//! One operation is one machine run: build it, run it in 10 ms slices
//! of simulated time, audit it, drain it. A run cycles through
//! [`SEEDS_PER_RUN`] machine seeds derived from `--seed`, so every seed
//! runs more than once and its digest must repeat.

use std::time::{Duration, Instant};

use taichi_core::audit::check_invariants;
use taichi_core::machine::{Machine, Mode};
use taichi_core::{MachineConfig, TenantConfig};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{IoKind, TenantId};
use taichi_sim::trace::TraceTag;
use taichi_sim::{alloc, Dist, Rng, SimTime};

use crate::digests;
use crate::metrics::Report;
use crate::spans::{SpanId, Spans};
use crate::stats::{self, median};

/// Simulated time covered by one `run_until` call (one timed slice).
const SLICE_MS: u64 = 10;
/// Distinct machine seeds per run.
pub const SEEDS_PER_RUN: usize = 4;
/// `harvest`: one synth_cp batch of this many tasks ...
const CP_BATCH: u32 = 8;
/// ... every this many simulated milliseconds.
const CP_BATCH_MS: u64 = 80;
/// `harvest`: one VM creation every this many simulated milliseconds.
const VM_EVERY_MS: u64 = 100;
/// Salt separating the CP program stream from the machine's own.
const CP_SALT: u64 = 0xC0_5EED;

/// Tracer counters reported per layer, by metric name.
const TRACE_COUNTS: [(&str, TraceTag); 10] = [
    ("core.sched.yield_grant", TraceTag::YieldGrant),
    ("core.sched.yield_no_runnable", TraceTag::YieldNoRunnable),
    ("core.sched.lock_reschedule", TraceTag::LockReschedule),
    ("core.orchestrator.ipi_route", TraceTag::IpiRoute),
    ("core.probe.probe_irq", TraceTag::ProbeIrq),
    ("virt.vm_enter", TraceTag::VmEnter),
    ("virt.vm_exit", TraceTag::VmExit),
    ("os.softirq_dispatch", TraceTag::SoftirqDispatch),
    ("os.preempt", TraceTag::Preempt),
    ("os.nonpreemptible_enter", TraceTag::NonPreemptibleEnter),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The paper's case: bursty traffic on the DP CPUs while CP tasks
    /// and VM creations harvest their idle time.
    Harvest,
    /// Two tenants' open-loop streams at ~83% of DP capacity behind the
    /// DRR arbiter; no CP work, so the vCPU path stays idle.
    DpSaturated,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::Harvest => "harvest",
            Engine::DpSaturated => "dp_saturated",
        }
    }

    /// Simulated length of one machine run.
    pub fn sim_ms(self) -> u64 {
        match self {
            Engine::Harvest => 1_000,
            Engine::DpSaturated => 400,
        }
    }

    /// Builds and loads one machine; returns it with the time spent in
    /// `Machine::new` and in building CP programs.
    fn build(
        self,
        seed: u64,
        sim_ms: u64,
        traced: bool,
        spans: &mut Spans,
        parent: SpanId,
    ) -> (Machine, Duration, Duration) {
        let mut cfg = MachineConfig {
            seed,
            ..MachineConfig::default()
        };
        cfg.trace.enabled = traced;
        if self == Engine::DpSaturated {
            cfg.tenants = TenantConfig {
                count: 2,
                weights: vec![1, 1],
                ..TenantConfig::default()
            };
        }
        let (mut m, machine_new) =
            spans.time("machine_new", parent, || Machine::new(cfg, Mode::TaiChi));
        let dp = m.dp_cpu_ids().to_vec();
        let mut synth_build = Duration::ZERO;
        match self {
            Engine::Harvest => {
                m.add_traffic(TrafficGen::new(
                    ArrivalPattern::OnOff {
                        on_us: Dist::constant(200.0),
                        off_us: Dist::exponential(400.0),
                        burst_gap_us: Dist::exponential(0.21),
                    },
                    Dist::constant(512.0),
                    IoKind::Network,
                    dp,
                ));
                let (batches, d) = spans.time("synth_build", parent, || {
                    let synth = SynthCp::default();
                    let mut rng = Rng::new(seed ^ CP_SALT);
                    (0..sim_ms.div_ceil(CP_BATCH_MS))
                        .map(|_| synth.workload(CP_BATCH, &mut rng))
                        .collect::<Vec<_>>()
                });
                synth_build = d;
                for (b, programs) in (0u64..).zip(batches) {
                    m.schedule_cp_batch(programs, SimTime::from_millis(b * CP_BATCH_MS));
                }
                let factory = TaskFactory::default();
                for v in 0..sim_ms.div_ceil(VM_EVERY_MS) {
                    let at = SimTime::from_millis(v * VM_EVERY_MS + 5);
                    m.schedule_vm_create(VmCreateRequest::at_density(v, 2, at), &factory);
                }
            }
            Engine::DpSaturated => {
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
            }
        }
        (m, machine_new, synth_build)
    }
}

/// Exact counts from one machine run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub dispatched: u64,
    pub skipped: u64,
    pub processed_events: u64,
    pub fast_forwarded: u64,
    pub ingested: u64,
    pub staged_dropped: u64,
    pub dp_processed: u64,
    pub dp_lost: u64,
    pub finished_threads: u64,
    pub vm_startups: u64,
    /// Allocation events and bytes inside `run_until` calls.
    pub alloc_events: u64,
    pub alloc_bytes: u64,
    /// Tracer counters (traced runs only), in [`TRACE_COUNTS`] order.
    pub trace: Vec<u64>,
    pub trace_events: u64,
}

/// Everything one machine run measured.
pub struct Unit {
    pub wall: Duration,
    pub setup: Duration,
    pub machine_new: Duration,
    pub synth_build: Duration,
    pub run: Duration,
    pub slices_ms: Vec<f64>,
    pub audit: Duration,
    pub drain: Duration,
    pub digest: u64,
    pub violations: Vec<String>,
    pub counts: Counts,
}

/// Builds, runs, audits and drains one machine.
pub fn run_unit(
    engine: Engine,
    seed: u64,
    sim_ms: u64,
    traced: bool,
    spans: &mut Spans,
    parent: SpanId,
) -> Unit {
    let unit = spans.open(if traced { "unit_traced" } else { "unit" }, parent);
    let setup_span = spans.open("setup", unit.id());
    let (mut m, machine_new, synth_build) =
        engine.build(seed, sim_ms, traced, spans, setup_span.id());
    let setup = spans.close(setup_span);

    let run_span = spans.open("run", unit.id());
    let mut slices_ms = Vec::with_capacity(sim_ms.div_ceil(SLICE_MS) as usize);
    let (mut alloc_events, mut alloc_bytes) = (0, 0);
    for k in 1..=sim_ms.div_ceil(SLICE_MS) {
        let until = SimTime::from_millis((k * SLICE_MS).min(sim_ms));
        let slice = spans.open("run_until", run_span.id());
        let before = alloc::snapshot();
        m.run_until(until);
        let delta = alloc::snapshot().since(before);
        slices_ms.push(spans.close(slice).as_secs_f64() * 1e3);
        alloc_events += delta.allocation_events();
        alloc_bytes += delta.bytes;
    }
    let run = spans.close(run_span);

    let (report, audit) = spans.time("check_invariants", unit.id(), || check_invariants(&m));
    let tracer = m.tracer();
    let counts = Counts {
        dispatched: m.events_dispatched(),
        skipped: m.events_skipped(),
        processed_events: m.events_processed(),
        fast_forwarded: m.events_fast_forwarded(),
        ingested: m.accel().packets_ingested(),
        staged_dropped: m.accel().staged_dropped(),
        dp_processed: m.services().iter().map(|s| s.processed()).sum(),
        dp_lost: m.services().iter().map(|s| s.lost()).sum(),
        finished_threads: m.kernel().finished_count() as u64,
        vm_startups: m.vm_startup_times().len() as u64,
        alloc_events,
        alloc_bytes,
        trace: tracer.map_or(Vec::new(), |t| {
            TRACE_COUNTS
                .iter()
                .map(|(_, tag)| t.counter(tag.name()))
                .collect()
        }),
        trace_events: tracer.map_or(0, |t| t.total_emitted()),
    };
    let (digest, drain) = drain_digest(&mut m, &counts, spans, unit.id());
    let wall = spans.close(unit);
    Unit {
        wall,
        setup,
        machine_new,
        synth_build,
        run,
        slices_ms,
        audit,
        drain,
        digest,
        violations: report.violations,
        counts,
    }
}

/// Drains the latency recorders and digests the run's model
/// observables: per-tenant (or merged) packet counts and latency
/// percentiles, losses, finished CP threads, and VM startup times.
fn drain_digest(
    m: &mut Machine,
    counts: &Counts,
    spans: &mut Spans,
    parent: SpanId,
) -> (u64, Duration) {
    let span = spans.open("drain", parent);
    let tenants = m.drain_tenant_recorders();
    let merged = m.drain_dp_recorders();
    let drain = spans.close(span);
    let recorders = if tenants.is_empty() {
        std::slice::from_ref(&merged)
    } else {
        &tenants[..]
    };
    let mut text = String::new();
    for r in recorders {
        let h = r.total_latency();
        text += &format!(
            "dp {} {} {} {} {} {}\n",
            r.packets(),
            r.bytes(),
            h.percentile(50.0),
            h.percentile(99.0),
            h.percentile(99.9),
            h.max()
        );
    }
    text += &format!(
        "lost {} {}\ncp {}\nvm",
        counts.dp_lost, counts.staged_dropped, counts.finished_threads
    );
    for d in m.vm_startup_times() {
        text += &format!(" {}", d.as_nanos());
    }
    (stats::fnv64(text.as_bytes()), drain)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median_of(units: &[Unit], f: impl Fn(&Unit) -> f64) -> f64 {
    median(&units.iter().map(f).collect::<Vec<_>>())
}

/// Runs machines until `seconds` have passed (and every seed has run
/// at least once), then reports end-to-end metrics, or in a traced run
/// re-runs each seed traced and reports per-layer metrics.
pub fn run(
    engine: Engine,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: &mut Report,
    spans: &mut Spans,
) {
    let sim_ms = engine.sim_ms();
    let seeds: Vec<u64> = (0..SEEDS_PER_RUN as u64)
        .map(|i| stats::mix(seed, i))
        .collect();
    let budget = Duration::from_secs(seconds) / if traced { 2 } else { 1 };
    let start = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    while units.len() < seeds.len() || start.elapsed() < budget {
        let i = units.len() % seeds.len();
        let u = run_unit(engine, seeds[i], sim_ms, false, spans, None);
        let same = match units.get(i) {
            Some(first) => first.digest == u.digest,
            None => digests::matches(seed, engine.name(), &i.to_string(), u.digest),
        };
        report_unit(engine, seeds[i], &u, same, report);
        units.push(u);
    }

    if !traced {
        report.set("wall_s", median_of(&units, |u| secs(u.wall)));
        report.set("setup_s", median_of(&units, |u| secs(u.setup)));
        return;
    }

    let mut overhead = Vec::new();
    let mut traced_units = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let t = run_unit(engine, s, sim_ms, true, spans, None);
        let same_seed = units.iter().skip(i).step_by(seeds.len());
        let untraced = median(&same_seed.map(|u| secs(u.wall)).collect::<Vec<_>>());
        overhead.push(secs(t.wall) / untraced);
        report_unit(engine, s, &t, t.digest == units[i].digest, report);
        traced_units.push(t);
    }

    let c = &units[0].counts;
    let ff = c.fast_forwarded as f64;
    report.set("sim.fast_forwarded", ff);
    report.set(
        "sim.elided_frac",
        (c.skipped as f64 + ff) / (c.processed_events as f64 + ff).max(1.0),
    );
    report.set("sim.alloc_events", c.alloc_events as f64);
    report.set("sim.alloc_mb", c.alloc_bytes as f64 / (1u64 << 20) as f64);
    report.set(
        "sim.trace_events",
        traced_units[0].counts.trace_events as f64,
    );
    report.set("sim.trace_overhead", median(&overhead));
    report.set("core.dispatched", c.dispatched as f64);
    report.set("core.skipped", c.skipped as f64);
    report.set(
        "core.ns_per_dispatch",
        median_of(&units, |u| {
            u.run.as_nanos() as f64 / u.counts.dispatched.max(1) as f64
        }),
    );
    let slices: Vec<f64> = units[..seeds.len()]
        .iter()
        .flat_map(|u| u.slices_ms.iter().copied())
        .collect();
    report.set("core.slice_ms_p50", median(&slices));
    report.set(
        "core.slice_ms_tail",
        stats::tail(&slices).map_or(0.0, |(_, v)| v),
    );
    report.set("core.slice_samples", slices.len() as f64);
    report.set(
        "core.machine_new_us",
        median_of(&units, |u| secs(u.machine_new) * 1e6),
    );
    report.set("core.audit_us", median_of(&units, |u| secs(u.audit) * 1e6));
    for ((name, _), &v) in TRACE_COUNTS.iter().zip(&traced_units[0].counts.trace) {
        report.set(name, v as f64);
    }
    let grants = report.get("core.sched.yield_grant").unwrap_or(0.0);
    let idle = report.get("core.sched.yield_no_runnable").unwrap_or(0.0);
    report.set("core.sched.grant_ratio", grants / (grants + idle).max(1.0));
    report.set("os.finished_threads", c.finished_threads as f64);
    report.set("hw.ingested", c.ingested as f64);
    report.set("hw.staged_dropped", c.staged_dropped as f64);
    report.set("dp.processed", c.dp_processed as f64);
    report.set(
        "dp.lost_frac",
        (c.dp_lost + c.staged_dropped) as f64 / (c.ingested + c.staged_dropped).max(1) as f64,
    );
    report.set("dp.drain_us", median_of(&units, |u| secs(u.drain) * 1e6));
    report.set("cp.vm_startups", c.vm_startups as f64);
    if engine == Engine::Harvest {
        report.set(
            "cp.synth_build_us",
            median_of(&units, |u| secs(u.synth_build) * 1e6),
        );
    }
}

/// Counts one machine run, printing why it failed if it did.
fn report_unit(engine: Engine, seed: u64, u: &Unit, digest_ok: bool, report: &mut Report) {
    for v in &u.violations {
        eprintln!("{} seed {seed:#x}: invariant violated: {v}", engine.name());
    }
    if !digest_ok {
        eprintln!(
            "{} seed {seed:#x}: output digest {:016x} differs",
            engine.name(),
            u.digest
        );
    }
    report.tally(digest_ok && u.violations.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(engine: Engine, traced: bool) -> Unit {
        let mut u = run_unit(engine, 0x5EED, 30, traced, &mut Spans::new(false), None);
        // The allocation counters are process-wide, and tests run in
        // parallel threads.
        u.counts.alloc_events = 0;
        u.counts.alloc_bytes = 0;
        u
    }

    #[test]
    fn tiny_runs_repeat_and_hold_invariants() {
        for engine in [Engine::Harvest, Engine::DpSaturated] {
            let a = tiny(engine, false);
            let b = tiny(engine, false);
            assert!(a.violations.is_empty(), "{:?}", a.violations);
            assert_eq!(a.digest, b.digest, "{}", engine.name());
            assert_eq!(a.counts, b.counts, "{}", engine.name());
            assert_eq!(a.slices_ms.len(), 3);
            assert!(a.counts.dp_processed > 0);
            let t = tiny(engine, true);
            assert_eq!(
                a.digest,
                t.digest,
                "tracing must not perturb {}",
                engine.name()
            );
            assert!(t.counts.trace_events > 0);
        }
    }

    #[test]
    fn harvest_yields_and_dp_saturated_arbitrates() {
        let h = tiny(Engine::Harvest, true);
        assert!(h.counts.trace[0] > 0, "harvest grants vCPUs");
        assert!(h.counts.trace[5] > 0, "harvest enters vCPUs");
        let d = tiny(Engine::DpSaturated, true);
        assert_eq!(d.counts.trace[0], 0, "no CP work, no grants");
        assert!(d.counts.ingested > 0);
    }
}
