//! Configuration for the Tai Chi framework and the machine composition.

use taichi_dp::DpServiceConfig;
use taichi_hw::accel::AcceleratorConfig;
use taichi_hw::SmartNicSpec;
use taichi_os::KernelConfig;
use taichi_sim::trace::TraceConfig;
use taichi_sim::FaultPlan;
#[cfg(feature = "oracle")]
use taichi_sim::QueueBackend;

/// Idle-time skipping for the machine driver (`MachineConfig::skip`),
/// a test-only choice under the dev-only `oracle` feature.
///
/// With skipping on (the default, and the only production behaviour)
/// the driver cancels superseded periodic timers — DP idle
/// notifications, vCPU slice expiries, kernel decision ticks — instead
/// of dispatching them later as stale-generation no-ops, and the
/// elided dispatches are folded into [`Machine::events_processed`] so
/// every observable (traces, stats fingerprints, CSVs) stays
/// byte-identical to a skip-off run.
///
/// [`Machine::events_processed`]: crate::machine::Machine::events_processed
#[cfg(feature = "oracle")]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SkipMode {
    /// Cancel superseded timers; count them as skipped (the default).
    #[default]
    On,
    /// Dispatch every scheduled event, stale ones included — the
    /// oracle configuration the identity tests compare against.
    Off,
}

/// Tuning knobs for the Tai Chi scheduler proper (§4). The paper's
/// fixed parameters (initial slice, yield-threshold bounds, softirq
/// and VM-switch latencies) are named constants next to the code that
/// reads them, not fields.
#[derive(Clone, Debug)]
pub struct TaiChiConfig {
    /// Number of vCPUs to create and register as native CPUs.
    ///
    /// The paper over-provisions the control plane; with 4 CP pCPUs the
    /// production deployment registers roughly the DP CPU count.
    pub num_vcpus: u32,
    /// §9 future work: multi-dimensional idle assessment. When set,
    /// the yield decision also consults the accelerator pipeline and
    /// vetoes a yield while packets for the CPU are still in flight
    /// (ingested but not yet visible to the poll loop) — avoiding
    /// guaranteed false-positive yields.
    pub pipeline_aware_yield: bool,
    /// §9 future work: cache/TLB isolation between vCPU grants and the
    /// data-plane service (e.g. way-partitioning). Removes the
    /// post-grant pollution surcharge entirely.
    pub cache_isolation: bool,
}

impl Default for TaiChiConfig {
    fn default() -> Self {
        TaiChiConfig {
            num_vcpus: 8,
            pipeline_aware_yield: false,
            cache_isolation: false,
        }
    }
}

/// Multi-tenant data-path configuration (DESIGN.md §3.11).
///
/// The default — one tenant — leaves the engine on the pre-tenant code
/// path, byte for byte: no arbiter is constructed, no per-tenant
/// recorder exists, and no extra RNG stream is drawn. With `count > 1`
/// the eNIC keeps one bounded rx ring per tenant and the accelerator's
/// shared ingest port is arbitrated with weighted deficit round robin.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Number of tenants sharing the data path (1 = the paper's
    /// single-operator configuration).
    pub count: u32,
    /// Per-tenant DRR weights. Empty means equal weights; a shorter
    /// vector is padded with 1s, a longer one is truncated.
    pub weights: Vec<u64>,
    /// DRR byte credit per weight unit per round (default: one MTU).
    pub quantum: u64,
    /// Capacity of each tenant's eNIC staging ring, in descriptors.
    pub ring_capacity: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            count: 1,
            weights: Vec::new(),
            quantum: 1_500,
            ring_capacity: 1_024,
        }
    }
}

/// Parses the `--tenants` flag (a tenant count >= 1).
pub fn parse_tenant_count(s: &str) -> Result<u32, String> {
    match s.trim().parse::<u32>() {
        Ok(0) | Err(_) => Err(format!(
            "--tenants {s:?} is not a valid tenant count (expected an integer >= 1)"
        )),
        Ok(n) => Ok(n),
    }
}

/// Parses the `--weights` flag: colon-separated DRR
/// weights, e.g. `3:1` (zero entries are rejected — a zero weight
/// would starve a tenant forever, which the `TenantConfig` layer bumps
/// to 1 anyway).
pub fn parse_tenant_weights(s: &str) -> Result<Vec<u64>, String> {
    let err = || {
        format!(
            "--weights {s:?} is not a valid weight vector \
             (expected colon-separated integers >= 1, e.g. \"3:1\")"
        )
    };
    let ws: Result<Vec<u64>, ()> = s
        .trim()
        .split(':')
        .map(|p| match p.trim().parse::<u64>() {
            Ok(0) | Err(_) => Err(()),
            Ok(w) => Ok(w),
        })
        .collect();
    match ws {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(err()),
    }
}

impl TenantConfig {
    /// True when the multi-tenant machinery should be constructed.
    pub fn is_multi(&self) -> bool {
        self.count > 1
    }

    /// The effective weight vector: `weights` normalized to exactly
    /// `count` entries (missing entries default to weight 1; zero
    /// weights are bumped to 1 — a starved tenant would deadlock the
    /// conservation audit, not model anything physical).
    pub(crate) fn effective_weights(&self) -> Vec<u64> {
        (0..self.count as usize)
            .map(|i| self.weights.get(i).copied().unwrap_or(1).max(1))
            .collect()
    }
}

/// Full-machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// SoC description (CPU counts, link speeds).
    pub spec: SmartNicSpec,
    /// Tai Chi knobs (ignored in baseline/type-2 modes).
    pub taichi: TaiChiConfig,
    /// Kernel scheduler knobs.
    pub kernel: KernelConfig,
    /// Accelerator pipeline timings.
    pub accel: AcceleratorConfig,
    /// Per-DP-service knobs.
    pub dp: DpServiceConfig,
    /// Multi-tenant data-path knobs (default: one tenant — the
    /// pre-tenant engine, byte for byte).
    pub tenants: TenantConfig,
    /// RNG seed — identical seeds give bit-identical runs.
    pub seed: u64,
    /// Scheduler trace layer (off by default; enabling it never
    /// perturbs the simulated schedule, only records it). Its `dump`
    /// path is where exports and failure dumps land.
    pub trace: TraceConfig,
    /// Fault-injection plan (inactive by default; an inactive plan
    /// constructs no injector and leaves runs byte-identical).
    pub faults: FaultPlan,
    /// Oracle: event-queue scheduling core, the timing wheel (the
    /// default) or the binary-heap reference it must match byte for
    /// byte.
    #[cfg(feature = "oracle")]
    pub queue: QueueBackend,
    /// Oracle: idle-time skipping, on (the default) or off, the
    /// reference the skip layer must match byte for byte.
    #[cfg(feature = "oracle")]
    pub skip: SkipMode,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            spec: SmartNicSpec::default(),
            taichi: TaiChiConfig::default(),
            kernel: KernelConfig::default(),
            accel: AcceleratorConfig::default(),
            dp: DpServiceConfig::default(),
            tenants: TenantConfig::default(),
            seed: 0xD1CE,
            trace: TraceConfig::default(),
            faults: FaultPlan::default(),
            #[cfg(feature = "oracle")]
            queue: QueueBackend::default(),
            #[cfg(feature = "oracle")]
            skip: SkipMode::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::VDP_EXEC_TAX;
    use crate::sched::{
        INITIAL_SLICE, INITIAL_YIELD_THRESHOLD, MAX_YIELD_THRESHOLD, MIN_YIELD_THRESHOLD,
    };
    use taichi_sim::SimDuration;
    use taichi_virt::cost::SWITCH_LATENCY;

    #[test]
    fn defaults_match_paper_constants() {
        assert_eq!(INITIAL_SLICE, SimDuration::from_micros(50));
        assert_eq!(SWITCH_LATENCY, SimDuration::from_micros(2));
        assert_eq!(
            (
                MIN_YIELD_THRESHOLD,
                INITIAL_YIELD_THRESHOLD,
                MAX_YIELD_THRESHOLD
            ),
            (25, 200, 6_400)
        );
    }

    #[test]
    fn machine_defaults_sane() {
        let m = MachineConfig::default();
        assert_eq!(m.spec.num_cpus, 12);
        assert_eq!(m.spec.dp_cpus, 8);
        assert_eq!(VDP_EXEC_TAX, 1.08);
        assert!(!m.tenants.is_multi(), "default must be single-tenant");
    }

    #[test]
    fn tenant_knob_parsers_accept_and_reject() {
        assert_eq!(parse_tenant_count("4"), Ok(4));
        assert!(parse_tenant_count("0").is_err());
        assert!(parse_tenant_count("many").is_err());
        assert_eq!(parse_tenant_weights("3:1"), Ok(vec![3, 1]));
        assert_eq!(parse_tenant_weights(" 8 : 2 : 1 "), Ok(vec![8, 2, 1]));
        assert!(parse_tenant_weights("3:0").is_err());
        assert!(parse_tenant_weights("").is_err());
        assert!(parse_tenant_weights("a:b").is_err());
    }

    #[test]
    fn tenant_weights_normalize() {
        let t = TenantConfig {
            count: 3,
            weights: vec![4, 0],
            ..TenantConfig::default()
        };
        assert_eq!(t.effective_weights(), vec![4, 1, 1]);
        let equal = TenantConfig {
            count: 2,
            ..TenantConfig::default()
        };
        assert_eq!(equal.effective_weights(), vec![1, 1]);
    }
}
