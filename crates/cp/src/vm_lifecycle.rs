//! The VM-creation workflow (Fig. 1c, red path).
//!
//! Cluster management issues a create request (①); CP tasks parse it
//! (②) and coordinate the data plane to initialise every emulated
//! device (③, ④); once *all* devices are ready, QEMU on the host is
//! notified to instantiate the VM (⑤). VM startup time is therefore
//! gated by the slowest device-initialisation task — which is why CP
//! scheduling latency shows up directly in the Figs. 2/17 SLO metric.
//!
//! Instance density scales the device count: the paper's VMs carry one
//! dual-queue virtio-net plus four virtio-blk devices (Table 4), and
//! §3.1 notes the device count per CP grows ~linearly with density.

use crate::task::{locks, TaskFactory};
use taichi_os::{Program, ThreadId};
use taichi_sim::{Rng, SimDuration, SimTime};

/// One VM-creation request.
#[derive(Clone, Debug)]
pub struct VmCreateRequest {
    /// VM identifier.
    pub vm_id: u64,
    /// Network devices to initialise.
    pub nic_devices: u32,
    /// Block devices to initialise.
    pub blk_devices: u32,
    /// When cluster management issued the request.
    pub issued_at: SimTime,
    /// Host-side QEMU instantiation time once devices are ready
    /// (outside the SmartNIC; modelled as a constant).
    pub qemu_boot: SimDuration,
}

impl VmCreateRequest {
    /// A request matching the paper's Table 4 VM at the given density
    /// multiplier (1 = normal density).
    pub fn at_density(vm_id: u64, density: u32, issued_at: SimTime) -> Self {
        let d = density.max(1);
        VmCreateRequest {
            vm_id,
            nic_devices: d,
            blk_devices: 4 * d,
            issued_at,
            qemu_boot: SimDuration::from_millis(120),
        }
    }

    /// Total devices this request must initialise.
    pub fn device_count(&self) -> u32 {
        self.nic_devices + self.blk_devices
    }

    /// Builds the device-initialisation programs for this request.
    ///
    /// NIC inits contend on the NIC driver lock, block inits on the
    /// block driver lock — matching the per-subsystem driver locks the
    /// paper's Fig. 4 describes.
    pub fn device_programs(&self, factory: &TaskFactory, rng: &mut Rng) -> Vec<Program> {
        let mut out = Vec::with_capacity(self.device_count() as usize);
        for _ in 0..self.nic_devices {
            out.push(factory.device_init(locks::NIC_DRIVER, 3, rng));
        }
        for _ in 0..self.blk_devices {
            out.push(factory.device_init(locks::BLK_DRIVER, 2, rng));
        }
        out
    }
}

/// Tracks one in-flight VM creation to completion.
#[derive(Clone, Debug)]
pub struct VmStartupTracker {
    /// The request being tracked.
    pub request: VmCreateRequest,
    /// Device-init threads still outstanding.
    outstanding: Vec<ThreadId>,
    /// When the last device finished (devices ready).
    devices_ready_at: Option<SimTime>,
}

impl VmStartupTracker {
    /// Heap bytes of the outstanding device-thread list.
    pub fn resident_bytes(&self) -> usize {
        taichi_sim::vec_bytes(&self.outstanding)
    }

    /// Starts tracking `request` with the spawned device threads.
    pub fn new(request: VmCreateRequest, device_threads: Vec<ThreadId>) -> Self {
        assert_eq!(
            device_threads.len(),
            request.device_count() as usize,
            "one thread per device"
        );
        VmStartupTracker {
            request,
            outstanding: device_threads,
            devices_ready_at: None,
        }
    }

    /// Notifies the tracker that a thread finished at `now`. Returns
    /// `true` when this completed the last outstanding device.
    pub fn on_thread_finished(&mut self, tid: ThreadId, now: SimTime) -> bool {
        let before = self.outstanding.len();
        self.outstanding.retain(|&t| t != tid);
        if self.outstanding.is_empty() && before > 0 {
            self.devices_ready_at = Some(now);
            true
        } else {
            false
        }
    }

    /// Outstanding device-init threads.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// The VM startup time: request issue → devices ready → QEMU boot.
    ///
    /// `None` until all devices are initialised.
    pub fn startup_time(&self) -> Option<SimDuration> {
        self.devices_ready_at
            .map(|r| (r - self.request.issued_at) + self.request.qemu_boot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_scales_devices() {
        let r1 = VmCreateRequest::at_density(1, 1, SimTime::ZERO);
        assert_eq!(r1.nic_devices, 1);
        assert_eq!(r1.blk_devices, 4);
        assert_eq!(r1.device_count(), 5);
        let r4 = VmCreateRequest::at_density(2, 4, SimTime::ZERO);
        assert_eq!(r4.device_count(), 20);
        // Zero density clamps to 1.
        assert_eq!(
            VmCreateRequest::at_density(3, 0, SimTime::ZERO).device_count(),
            5
        );
    }

    #[test]
    fn device_programs_match_count_and_locks() {
        let r = VmCreateRequest::at_density(1, 2, SimTime::ZERO);
        let f = TaskFactory::default();
        let mut rng = Rng::new(1);
        let progs = r.device_programs(&f, &mut rng);
        assert_eq!(progs.len(), 10);
        for p in &progs {
            assert!(crate::task::has_locked_section(p));
        }
    }

    #[test]
    fn tracker_completes_on_last_device() {
        let r = VmCreateRequest::at_density(1, 1, SimTime::from_millis(10));
        let tids: Vec<ThreadId> = (0..5).map(ThreadId).collect();
        let mut tr = VmStartupTracker::new(r, tids.clone());
        assert_eq!(tr.outstanding(), 5);
        for (i, &tid) in tids.iter().enumerate() {
            let now = SimTime::from_millis(20 + i as u64 * 10);
            let last = tr.on_thread_finished(tid, now);
            assert_eq!(last, i == 4);
        }
        // issued at 10 ms, last device at 60 ms, qemu 120 ms → 170 ms.
        assert_eq!(tr.startup_time().unwrap(), SimDuration::from_millis(170));
    }

    #[test]
    fn unknown_thread_ignored() {
        let r = VmCreateRequest::at_density(1, 1, SimTime::ZERO);
        let tids: Vec<ThreadId> = (0..5).map(ThreadId).collect();
        let mut tr = VmStartupTracker::new(r, tids);
        assert!(!tr.on_thread_finished(ThreadId(99), SimTime::from_millis(1)));
        assert_eq!(tr.outstanding(), 5);
        assert!(tr.startup_time().is_none());
    }

    #[test]
    #[should_panic(expected = "one thread per device")]
    fn tracker_thread_count_mismatch_panics() {
        let r = VmCreateRequest::at_density(1, 1, SimTime::ZERO);
        VmStartupTracker::new(r, vec![ThreadId(0)]);
    }
}
