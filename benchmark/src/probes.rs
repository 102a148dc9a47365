//! Short probes that call one layer's public hot function directly and
//! report nanoseconds per call (or per packet). Every traced run ends
//! with them, so each workload reports the same layer costs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use taichi_dp::{ArrivalPattern, DpService, DpServiceConfig, LatencyRecorder, TrafficGen};
use taichi_hw::{
    Accelerator, AcceleratorConfig, CpuId, HwWorkloadProbe, IoKind, Packet, PacketId, SmartNicSpec,
    TenantId,
};
use taichi_os::{ActionBuf, CpuSet, Kernel, KernelConfig, Program};
use taichi_sim::{Dist, EventQueue, Rng, SimDuration, SimTime};

use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::median;

/// Rounds whose median is reported.
const ROUNDS: usize = 5;
/// Target length of one round.
const ROUND: Duration = Duration::from_millis(20);

/// Nanoseconds per call of `f`: a warm-up, a calibration that sizes a
/// round to about [`ROUND`], then the median of [`ROUNDS`] rounds.
fn ns_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut batch = |n: u64| {
        let start = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        start.elapsed()
    };
    batch(1_000);
    let mut n = 1_000u64;
    while batch(n) < ROUND / 10 {
        n *= 2;
    }
    n *= 10;
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| batch(n).as_nanos() as f64 / n as f64)
        .collect();
    median(&rounds)
}

fn packet(id: u64, cpu: u32, at: SimTime) -> Packet {
    Packet::new(PacketId(id), IoKind::Network, 512, CpuId(cpu), 0, at)
}

fn queue_push_pop() -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    ns_per_call(|| {
        t += 100;
        q.schedule(SimTime::from_nanos(t), t);
        q.pop()
    })
}

fn queue_push_cancel_pop() -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    ns_per_call(|| {
        t += 100;
        let tok = q.schedule(SimTime::from_nanos(t), t);
        q.schedule(SimTime::from_nanos(t + 1), t);
        q.cancel(tok);
        q.pop()
    })
}

/// One kernel scheduling decision: two endless compute threads share a
/// CPU, so every decision is a time-slice rotation.
fn os_decide() -> f64 {
    let cp: Vec<CpuId> = (0..4).map(CpuId).collect();
    let mut kernel = Kernel::new(KernelConfig::default(), &cp);
    let mut buf = ActionBuf::new();
    for _ in 0..2 {
        let prog = Program::new().compute(SimDuration::from_secs(10_000_000));
        buf.clear();
        kernel.spawn(prog, CpuSet::single(CpuId(0)), SimTime::ZERO, &mut buf);
    }
    let mut now = SimTime::ZERO;
    ns_per_call(|| {
        buf.clear();
        if let Some(t) = kernel.next_decision_time(CpuId(0), now) {
            now = t;
        }
        kernel.decide(CpuId(0), now, &mut buf);
        buf.len()
    })
}

fn hw_ingest() -> f64 {
    let mut accel = Accelerator::new(AcceleratorConfig::default());
    let mut probe = HwWorkloadProbe::new(SmartNicSpec::default().num_cpus);
    let mut i = 0u64;
    ns_per_call(|| {
        i += 1;
        let at = SimTime::from_nanos(i * 50);
        let mut p = packet(i, (i % 8) as u32, at);
        accel.ingest(&mut p, at, &mut probe)
    })
}

/// Stage one packet per tenant on the DRR arbiter, then issue both
/// into the pipeline: per packet, staging plus arbitration plus ingest.
fn hw_drr() -> f64 {
    let mut accel = Accelerator::new(AcceleratorConfig::default());
    accel.enable_tenants(&[1, 1], 1_500, 1_024);
    let mut probe = HwWorkloadProbe::new(SmartNicSpec::default().num_cpus);
    let mut i = 0u64;
    let per_pair = ns_per_call(|| {
        for t in 0..2u32 {
            i += 1;
            let at = SimTime::from_nanos(i * 50);
            accel.stage(packet(i, t, at).with_tenant(TenantId(t)));
        }
        let mut issued = 0;
        while issued < 2 {
            let now = accel.port_free().max(SimTime::from_nanos(i * 50));
            issued += usize::from(accel.issue_next(now, &mut probe).is_some());
        }
    });
    per_pair / 2.0
}

fn dp_gen() -> f64 {
    let mut gen = TrafficGen::new(
        ArrivalPattern::OpenLoop {
            gap_us: Dist::exponential(0.45),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..4).map(CpuId).collect(),
    );
    let mut rng = Rng::new(1);
    ns_per_call(|| gen.next_packet(&mut rng))
}

/// Enqueue a full burst on one service and process it: per packet.
fn dp_service() -> f64 {
    const BURST: u64 = 32;
    let mut s = DpService::new(CpuId(0), DpServiceConfig::default());
    let mut rng = Rng::new(2);
    let mut i = 0u64;
    let per_burst = ns_per_call(|| {
        let now = s.busy_until();
        for _ in 0..BURST {
            i += 1;
            let mut p = packet(i, 0, now);
            p.delivered_at = Some(now);
            s.enqueue(p, now);
        }
        s.process_burst(now, &mut rng)
    });
    per_burst / BURST as f64
}

fn dp_record() -> f64 {
    let mut rec = LatencyRecorder::new();
    let mut i = 0u64;
    ns_per_call(|| {
        i += 1;
        let at = SimTime::from_nanos(i * 1_000);
        let mut p = packet(i, 0, at);
        p.delivered_at = Some(at + SimDuration::from_nanos(3_200));
        p.completed_at = Some(at + SimDuration::from_nanos(3_200 + i % 4_096));
        rec.record(&p)
    })
}

/// A probe: the metric it reports and the function that measures it.
type Probe = (&'static str, fn() -> f64);

const PROBES: [Probe; 8] = [
    ("sim.queue_push_pop_ns", queue_push_pop),
    ("sim.queue_push_cancel_pop_ns", queue_push_cancel_pop),
    ("os.decide_ns", os_decide),
    ("hw.ingest_ns_per_pkt", hw_ingest),
    ("hw.drr_ns_per_pkt", hw_drr),
    ("dp.gen_ns_per_pkt", dp_gen),
    ("dp.service_ns_per_pkt", dp_service),
    ("dp.record_ns_per_pkt", dp_record),
];

/// Runs every probe, each inside its own span.
pub fn run(report: &mut Report, spans: &mut Spans) {
    let all = spans.open("probes", None);
    for (name, probe) in PROBES {
        let (ns, _) = spans.time(name, all.id(), probe);
        report.set(name, ns);
    }
    spans.close(all);
}
