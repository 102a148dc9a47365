//! Tai Chi: hybrid-virtualization co-scheduling for SmartNICs.
//!
//! This is the facade crate of the Tai Chi reproduction (SOSP 2025,
//! Alibaba Group): a deterministic simulation of a SmartNIC SoC plus a
//! faithful implementation of the Tai Chi scheduling framework — the
//! softirq-based vCPU scheduler, the unified IPI orchestrator, and the
//! software/hardware workload probes — together with the paper's
//! baselines and its entire evaluation.
//!
//! # Quickstart
//!
//! ```
//! use taichi::core::machine::{Machine, Mode};
//! use taichi::core::MachineConfig;
//! use taichi::cp::SynthCp;
//! use taichi::sim::{Rng, SimTime};
//!
//! // A 12-CPU SmartNIC (8 data-plane + 4 control-plane) under Tai Chi.
//! let mut machine = Machine::new(MachineConfig::default(), Mode::TaiChi);
//!
//! // 8 concurrent 50 ms control-plane tasks, zero code modifications:
//! // they are plain programs bound by CPU affinity.
//! let synth = SynthCp::default();
//! let mut rng = Rng::new(42);
//! let batch = machine.schedule_cp_batch(synth.workload(8, &mut rng), SimTime::ZERO);
//!
//! machine.run_until(SimTime::from_millis(200));
//! assert_eq!(machine.batch_threads(batch).len(), 8);
//! ```
//!
//! # Crate map
//!
//! - [`core`]: the paper's contribution — scheduler, orchestrator,
//!   probes, machine composition, run reports.
//! - [`sim`]: deterministic discrete-event substrate.
//! - [`hw`]: SmartNIC hardware model (accelerator, rings, APIC, probe).
//! - [`os`]: kernel model (threads, fair scheduling, non-preemptible
//!   routines, spinlocks, hotplug).
//! - [`virt`]: vCPU contexts and virtualization cost models.
//! - [`dp`]: poll-mode data-plane services and traffic generators.
//! - [`cp`]: control-plane task programs and the VM lifecycle.
//! - [`workloads`]: fio/netperf/sockperf/ping/MySQL/Nginx analogues.

pub use taichi_core as core;
pub use taichi_cp as cp;
pub use taichi_dp as dp;
pub use taichi_hw as hw;
pub use taichi_os as os;
pub use taichi_sim as sim;
pub use taichi_virt as virt;
pub use taichi_workloads as workloads;
