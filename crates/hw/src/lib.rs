//! SmartNIC hardware model.
//!
//! This crate models the hardware substrate the paper's evaluation runs
//! on: a 12-CPU SmartNIC SoC with a programmable I/O accelerator,
//! emulated-NIC descriptor queues and an interrupt (APIC/IPI) fabric.
//! The timing constants default to the figures published in the paper
//! (Fig. 6: 2.7 µs accelerator preprocessing + 0.5 µs shared-memory
//! transfer; §3.4: 2 µs vCPU switch) and are all configurable.
//!
//! The crate also hosts the *hardware workload probe* state table
//! ([`probe::HwWorkloadProbe`]) — the ~30-line accelerator firmware
//! change that is half of Tai Chi's hardware/software co-design: a
//! per-CPU V-state/P-state register file consulted on every packet
//! arrival, raising an IRQ towards CPUs currently running a vCPU.

pub mod accel;
pub mod apic;
pub mod cpu;
pub mod packet;
pub mod probe;
pub mod queue;

pub use accel::{Accelerator, AcceleratorConfig, PipelineOutput};
pub use apic::{IpiMessage, IrqVector, IRQ_LATENCY};
pub use cpu::{CpuId, SmartNicSpec};
pub use packet::{IoKind, Packet, PacketId, TenantId};
pub use probe::{CpuExecState, HwWorkloadProbe};
pub use queue::{RxQueue, RxSlot};
