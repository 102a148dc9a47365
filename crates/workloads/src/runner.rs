//! Shared benchmark driver.
//!
//! Builds a machine for one [`Mode`], applies a traffic specification
//! and a background control-plane load (device churn + monitoring —
//! present in every production measurement window, and required for
//! Tai Chi's scheduling machinery to be exercised *during* data-plane
//! benchmarks), runs it, and extracts the measured distribution.

use std::path::Path;

use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_cp::{CpTaskKind, TaskFactory};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::{Dist, Rng, SimDuration, SimTime};

/// Per-packet software processing cost mean at the default service
/// config (used to translate utilization targets into arrival rates).
pub const PROC_COST_US: f64 = 1.5;

/// Traffic specification for one benchmark case.
#[derive(Clone, Debug)]
pub struct BenchTraffic {
    /// Network or storage.
    pub kind: IoKind,
    /// Payload size in bytes.
    pub size_bytes: f64,
    /// Target mean per-CPU utilization (of the *baseline* 8-CPU pool);
    /// values ≥ 1.0 saturate the data plane.
    pub utilization: f64,
    /// Bursty on/off arrivals (production-shaped) instead of smooth
    /// Poisson.
    pub bursty: bool,
    /// Within-burst per-CPU utilization for bursty traffic (0-1].
    /// Production bursts rarely saturate; latency-sensitive cases use
    /// calmer bursts than throughput cases.
    pub burst_intensity: f64,
}

impl BenchTraffic {
    /// A network case with the default 0.9 burst intensity.
    pub fn net(size_bytes: f64, utilization: f64, bursty: bool) -> Self {
        BenchTraffic {
            kind: IoKind::Network,
            size_bytes,
            utilization,
            bursty,
            burst_intensity: 0.9,
        }
    }

    /// A storage case with the default 0.9 burst intensity.
    pub fn storage(size_bytes: f64, utilization: f64, bursty: bool) -> Self {
        BenchTraffic {
            kind: IoKind::Storage,
            size_bytes,
            utilization,
            bursty,
            burst_intensity: 0.9,
        }
    }

    /// Overrides the within-burst intensity.
    pub(crate) fn with_burst_intensity(mut self, intensity: f64) -> Self {
        self.burst_intensity = intensity.clamp(0.05, 1.0);
        self
    }
}

impl BenchTraffic {
    fn generator(&self, dp_cpus: u32) -> TrafficGen {
        // Rates are always computed against the baseline 8-CPU pool so
        // every mode receives the same offered load.
        let base_cpus = 8.0;
        let aggregate_gap = PROC_COST_US / self.utilization.max(0.01) / base_cpus;
        let pattern = if self.bursty {
            // 200 µs bursts at the configured within-burst utilization,
            // idle gaps sized for the target duty cycle.
            let intensity = self.burst_intensity.clamp(0.05, 1.0);
            let duty = (self.utilization / intensity).clamp(0.02, 1.0);
            ArrivalPattern::OnOff {
                on_us: Dist::constant(200.0),
                off_us: Dist::exponential(200.0 * (1.0 - duty) / duty.max(0.01)),
                burst_gap_us: Dist::exponential(PROC_COST_US / intensity / base_cpus),
            }
        } else {
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(aggregate_gap),
            }
        };
        TrafficGen::new(
            pattern,
            Dist::constant(self.size_bytes),
            self.kind,
            (0..dp_cpus).map(CpuId).collect(),
        )
    }
}

/// Measured data-plane behaviour of one run.
#[derive(Clone, Debug)]
pub struct MeasuredDp {
    /// Mode the run used.
    pub mode: Mode,
    /// Measurement window.
    pub window: SimDuration,
    /// One-way latency statistics (ns).
    pub lat_min_ns: u64,
    /// Mean one-way latency (ns).
    pub lat_mean_ns: f64,
    /// Median.
    pub lat_p50_ns: u64,
    /// 99th percentile.
    pub lat_p99_ns: u64,
    /// 99.9th percentile.
    pub lat_p999_ns: u64,
    /// Maximum.
    pub lat_max_ns: u64,
    /// Standard deviation.
    pub lat_stddev_ns: f64,
    /// Achieved packets/ops per second.
    pub pps: f64,
    /// Achieved payload bandwidth in Gb/s.
    pub gbps: f64,
    /// Packets dropped at rings (saturation indicator).
    pub drops: u64,
    /// DP→CP yields during the window (scheduler activity).
    pub yields: u64,
}

/// Runs one measurement: `traffic` for `horizon`, with background CP
/// activity, on a machine built from `cfg` in `mode`.
///
/// Background CP load: a rolling mix of device-management and
/// monitoring tasks (≈2 concurrent device inits plus monitors every
/// 5 ms) — enough to keep vCPUs populated without saturating the CP
/// plane.
pub fn measure(
    cfg: &MachineConfig,
    mode: Mode,
    traffic: &BenchTraffic,
    horizon: SimDuration,
) -> MeasuredDp {
    let mut m = machine_with_load(cfg, mode, traffic, horizon);
    m.run_until(SimTime::ZERO + horizon);
    maybe_dump_trace(&m);
    extract(&m, horizon, |s| s.recorder().clone())
}

/// Like [`measure`] but additionally injects a sparse latency-probe
/// stream (64 B packets, exponential inter-arrival with mean
/// `probe_gap_us`) tagged onto queue 1 so it samples the data path
/// uniformly in time — the measurement model of `ping` and
/// `sockperf`'s latency mode. Returns `(background, probe)` where the
/// probe's latency fields describe only the tagged packets.
pub(crate) fn measure_probed(
    cfg: &MachineConfig,
    mode: Mode,
    traffic: &BenchTraffic,
    probe_gap_us: f64,
    horizon: SimDuration,
) -> (MeasuredDp, MeasuredDp) {
    let mut m = machine_with_load(cfg, mode, traffic, horizon);
    let dp_cpus = m.services().len() as u32;
    let probe = TrafficGen::new(
        ArrivalPattern::OpenLoop {
            gap_us: Dist::exponential(probe_gap_us),
        },
        Dist::constant(64.0),
        traffic.kind,
        (0..dp_cpus).map(CpuId).collect(),
    )
    .with_queue(1);
    m.add_traffic(probe);
    m.run_until(SimTime::ZERO + horizon);
    maybe_dump_trace(&m);
    let background = extract(&m, horizon, |s| s.recorder().clone());
    let probe_stats = extract(&m, horizon, |s| s.tagged_recorder().clone());
    (background, probe_stats)
}

/// When the run recorded a scheduler trace (`cfg.trace.enabled`),
/// writes its TSV to `cfg.trace.dump` (when set) or to
/// `target/experiments/<mode>.trace.tsv`. Each run overwrites the
/// default destination, so that file holds the most recent run for the
/// mode — enough to replay the schedule behind the numbers a benchmark
/// just printed.
fn maybe_dump_trace(m: &Machine) {
    let default = Path::new("target/experiments").join(format!("{}.trace.tsv", m.mode()));
    if let Some(path) = m.export_trace(&default) {
        eprintln!("[trace] {}", path.display());
    }
}

/// Builds a machine with `traffic` plus the standard background CP
/// churn, ready to run until `horizon`.
fn machine_with_load(
    cfg: &MachineConfig,
    mode: Mode,
    traffic: &BenchTraffic,
    horizon: SimDuration,
) -> Machine {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg.clone(), mode);
    let dp_cpus = m.services().len() as u32;
    m.add_traffic(traffic.generator(dp_cpus));

    // Background control-plane churn, heavy enough that CP demand
    // exceeds the 4 dedicated CP pCPUs (the §3.1 starvation premise):
    // under Tai Chi the surplus continuously seeks idle DP cycles, so
    // every data-plane measurement runs with the scheduler active.
    let factory = TaskFactory::default();
    let mut rng = Rng::new(seed ^ 0xC0FFEE);
    let mut t = SimTime::from_millis(1);
    let end = SimTime::ZERO + horizon;
    while t < end {
        let mut batch = Vec::new();
        batch.push(factory.build(CpTaskKind::DeviceManagement, &mut rng));
        batch.push(factory.build(CpTaskKind::DeviceManagement, &mut rng));
        batch.push(factory.build(CpTaskKind::Monitoring, &mut rng));
        if rng.chance(0.5) {
            batch.push(factory.build(CpTaskKind::Orchestration, &mut rng));
        }
        m.schedule_cp_batch(batch, t);
        t += SimDuration::from_millis(2);
    }
    m
}

/// Extracts a [`MeasuredDp`] from a finished machine using the
/// recorder selected by `pick`.
fn extract(
    m: &Machine,
    horizon: SimDuration,
    pick: impl Fn(&taichi_dp::DpService) -> taichi_dp::LatencyRecorder,
) -> MeasuredDp {
    let mut rec = taichi_dp::LatencyRecorder::new();
    let mut drops = 0;
    for s in m.services() {
        rec.merge(&pick(s));
        drops += s.dropped();
    }
    let h = rec.total_latency();
    MeasuredDp {
        mode: m.mode(),
        window: horizon,
        lat_min_ns: h.min(),
        lat_mean_ns: h.mean(),
        lat_p50_ns: h.percentile(50.0),
        lat_p99_ns: h.percentile(99.0),
        lat_p999_ns: h.percentile(99.9),
        lat_max_ns: h.max(),
        lat_stddev_ns: h.stddev(),
        pps: rec.pps(horizon),
        gbps: rec.gbps(horizon),
        drops,
        yields: m.vsched().total_yields(),
    }
}

/// The default machine at `seed` (unit-test shorthand).
#[cfg(test)]
pub(crate) fn seeded(seed: u64) -> MachineConfig {
    MachineConfig {
        seed,
        ..MachineConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_traffic(util: f64, bursty: bool) -> BenchTraffic {
        BenchTraffic::net(512.0, util, bursty)
    }

    #[test]
    fn baseline_measurement_is_sane() {
        let d = measure(
            &seeded(1),
            Mode::Baseline,
            &net_traffic(0.3, true),
            SimDuration::from_millis(150),
        );
        assert!(d.pps > 100_000.0, "pps {}", d.pps);
        assert_eq!(d.yields, 0);
        assert!(d.lat_p50_ns > 3_200, "p50 {}", d.lat_p50_ns);
        assert!(d.lat_min_ns >= 3_200, "hardware floor");
    }

    #[test]
    fn taichi_yields_during_measurement() {
        let d = measure(
            &seeded(1),
            Mode::TaiChi,
            &net_traffic(0.3, true),
            SimDuration::from_millis(150),
        );
        assert!(d.yields > 0, "background CP must trigger yields");
    }

    #[test]
    fn saturation_drops_or_caps() {
        let d = measure(
            &seeded(2),
            Mode::Baseline,
            &net_traffic(1.3, false),
            SimDuration::from_millis(120),
        );
        // Achieved throughput caps near capacity: 8 CPUs / 1.5 µs.
        let cap = 8.0 / 1.5e-6;
        assert!(d.pps < cap * 1.05, "pps {} above capacity {cap}", d.pps);
        assert!(d.pps > cap * 0.8, "pps {} far below capacity {cap}", d.pps);
    }

    #[test]
    fn type2_achieves_less_at_saturation() {
        let base = measure(
            &seeded(3),
            Mode::Baseline,
            &net_traffic(1.3, false),
            SimDuration::from_millis(120),
        );
        let t2 = measure(
            &seeded(3),
            Mode::Type2,
            &net_traffic(1.3, false),
            SimDuration::from_millis(120),
        );
        let ratio = t2.pps / base.pps;
        assert!(
            (0.6..0.95).contains(&ratio),
            "type2/baseline throughput ratio {ratio}"
        );
    }

    #[test]
    fn deterministic_measurement() {
        let a = measure(
            &seeded(7),
            Mode::TaiChi,
            &net_traffic(0.3, true),
            SimDuration::from_millis(100),
        );
        let b = measure(
            &seeded(7),
            Mode::TaiChi,
            &net_traffic(0.3, true),
            SimDuration::from_millis(100),
        );
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
        assert_eq!(a.lat_mean_ns.to_bits(), b.lat_mean_ns.to_bits());
        assert_eq!(a.yields, b.yields);
    }
}
