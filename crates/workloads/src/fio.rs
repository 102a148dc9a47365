//! fio `fio_rw` analogue (Table 3): 16 jobs, 4 KiB blocks, libaio.
//!
//! fio with deep libaio queues saturates the storage data plane, so
//! IOPS is capacity-bound: we offer ~120 % of the baseline capacity as
//! open-loop storage requests and report the *achieved* operation rate
//! — the quantity that differs across modes (type-2 loses an
//! emulation CPU plus interference, Tai Chi-vDP pays the guest tax,
//! Tai Chi pays only cache pollution).

use crate::runner::{measure, BenchTraffic, MeasuredDp};
use taichi_core::machine::Mode;
use taichi_core::MachineConfig;
use taichi_sim::SimDuration;

/// fio case configuration.
#[derive(Clone, Debug)]
pub struct FioRw {
    /// Block size (paper: 4 KiB).
    pub block_bytes: u32,
    /// Offered load as a multiple of baseline capacity.
    pub offered: f64,
    /// Measurement window.
    pub window: SimDuration,
}

impl Default for FioRw {
    fn default() -> Self {
        FioRw {
            block_bytes: 4096,
            offered: 1.2,
            window: SimDuration::from_millis(300),
        }
    }
}

/// fio results.
#[derive(Clone, Debug)]
pub struct FioResult {
    /// Achieved I/O operations per second.
    pub iops: f64,
    /// Achieved bandwidth in MiB/s.
    pub bw_mib_s: f64,
    /// p99 completion latency in microseconds.
    pub p99_lat_us: f64,
    /// Raw measurement.
    pub raw: MeasuredDp,
}

impl FioRw {
    /// Runs the case under `mode`.
    pub fn run(&self, mode: Mode, cfg: &MachineConfig) -> FioResult {
        let traffic = BenchTraffic::storage(self.block_bytes as f64, self.offered, false);
        let raw = measure(cfg, mode, &traffic, self.window);
        FioResult {
            iops: raw.pps,
            bw_mib_s: raw.pps * self.block_bytes as f64 / (1024.0 * 1024.0),
            p99_lat_us: raw.lat_p99_ns as f64 / 1e3,
            raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::seeded;

    #[test]
    fn fio_shape_across_modes() {
        let fio = FioRw {
            window: SimDuration::from_millis(120),
            ..FioRw::default()
        };
        let base = fio.run(Mode::Baseline, &seeded(5));
        let taichi = fio.run(Mode::TaiChi, &seeded(5));
        let vdp = fio.run(Mode::TaiChiVdp, &seeded(5));
        let t2 = fio.run(Mode::Type2, &seeded(5));
        // Tai Chi within ~2 % of baseline.
        let d_taichi = (base.iops - taichi.iops) / base.iops;
        assert!(d_taichi < 0.03, "taichi IOPS loss {:.3}", d_taichi);
        // vDP loses ~5-12 %.
        let d_vdp = (base.iops - vdp.iops) / base.iops;
        assert!((0.04..0.15).contains(&d_vdp), "vdp IOPS loss {:.3}", d_vdp);
        // Type-2 loses ~18-30 %.
        let d_t2 = (base.iops - t2.iops) / base.iops;
        assert!((0.15..0.35).contains(&d_t2), "type2 IOPS loss {:.3}", d_t2);
        // Ordering: baseline ≥ taichi > vdp > type2.
        assert!(taichi.iops > vdp.iops && vdp.iops > t2.iops);
        // Bandwidth consistent with IOPS.
        assert!((base.bw_mib_s - base.iops * 4096.0 / 1048576.0).abs() < 1.0);
    }
}
