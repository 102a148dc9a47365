//! Run-level metrics extraction.
//!
//! A [`RunReport`] snapshots everything the evaluation harness needs
//! from a finished [`Machine`](crate::machine::Machine) run: data-plane
//! latency distributions and throughput, control-plane turnaround
//! statistics, Tai Chi scheduler counters, and VM startup times.

use crate::machine::Machine;
use taichi_dp::LatencyRecorder;
use taichi_os::ThreadState;
use taichi_sim::{Histogram, SimDuration, SimTime};

/// Aggregated results of one machine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Simulated run length.
    pub duration: SimDuration,
    /// Merged DP latency/throughput records across all services.
    pub dp: LatencyRecorder,
    /// Total packets dropped at rx rings.
    pub dp_dropped: u64,
    /// Lifetime utilization per DP CPU.
    pub dp_utilization: Vec<f64>,
    /// Turnaround times of all finished CP threads (ns histogram).
    pub cp_turnaround: Histogram,
    /// Number of finished CP threads.
    pub cp_finished: u64,
    /// Total CP CPU time consumed (ns).
    pub cp_cpu_time_ns: u64,
    /// Total CP spin time burned on contended locks (ns).
    pub cp_spin_time_ns: u64,
    /// DP→CP yields performed.
    pub yields: u64,
    /// VM-exits by the hardware probe.
    pub hw_probe_exits: u64,
    /// VM-exits by slice expiry.
    pub slice_exits: u64,
    /// Guest-halt exits.
    pub halt_exits: u64,
    /// Safe lock-context reschedules.
    pub lock_reschedules: u64,
    /// Completed VM startup times.
    pub vm_startups: Vec<SimDuration>,
}

impl RunReport {
    /// Collects a report from a machine at time `now`.
    pub fn collect(machine: &Machine) -> Self {
        let now = machine.now();
        let mut dp = LatencyRecorder::new();
        let mut dropped = 0;
        let mut util = Vec::new();
        for s in machine.services() {
            dp.merge(s.recorder());
            dropped += s.dropped();
            util.push(s.utilization(now));
        }

        let kernel = machine.kernel();
        let mut turnaround = Histogram::new();
        let mut finished = 0u64;
        let mut cpu_time = 0u64;
        let mut spin = 0u64;
        for tid in kernel.all_threads() {
            let t = kernel.thread_info(tid);
            cpu_time += t.cpu_time.as_nanos();
            spin += t.spin_time.as_nanos();
            if t.state == ThreadState::Finished {
                finished += 1;
                if let Some(d) = t.turnaround() {
                    turnaround.record(d.as_nanos());
                }
            }
        }

        let mut hw_probe_exits = 0;
        let mut slice_exits = 0;
        let mut halt_exits = 0;
        for v in machine.vsched().vcpus() {
            let e = v.exits();
            hw_probe_exits += e.hw_probe;
            slice_exits += e.slice_expired;
            halt_exits += e.guest_halt;
        }

        RunReport {
            duration: now.saturating_since(SimTime::ZERO),
            dp,
            dp_dropped: dropped,
            dp_utilization: util,
            cp_turnaround: turnaround,
            cp_finished: finished,
            cp_cpu_time_ns: cpu_time,
            cp_spin_time_ns: spin,
            yields: machine.vsched().total_yields(),
            hw_probe_exits,
            slice_exits,
            halt_exits,
            lock_reschedules: machine.vsched().total_lock_reschedules(),
            vm_startups: machine.vm_startup_times().to_vec(),
        }
    }

    /// Mean DP utilization across DP CPUs.
    pub fn mean_dp_utilization(&self) -> f64 {
        if self.dp_utilization.is_empty() {
            return 0.0;
        }
        self.dp_utilization.iter().sum::<f64>() / self.dp_utilization.len() as f64
    }

    /// Mean CP turnaround in milliseconds.
    pub fn mean_cp_turnaround_ms(&self) -> f64 {
        self.cp_turnaround.mean() / 1e6
    }

    /// DP packets per second over the run.
    pub fn dp_pps(&self) -> f64 {
        self.dp.pps(self.duration)
    }
}
