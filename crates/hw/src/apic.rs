//! The interrupt fabric: IPIs and IRQ lines.
//!
//! Models the interrupt fabric shared by all SmartNIC CPUs:
//! inter-processor interrupts carry `(source, destination, vector)` and
//! device IRQs reach their CPU after a fixed fabric latency, which an
//! attached fault injector may stretch or turn into a loss.
//!
//! Tai Chi's unified IPI orchestrator (in `taichi-core`) hooks the send
//! path *above* this fabric — this module is plain hardware.

use crate::cpu::CpuId;
use taichi_sim::{FaultInjector, IpiFate, SimDuration};

/// Interrupt vector number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IrqVector(pub u8);

impl IrqVector {
    /// Linux reschedule IPI vector.
    pub const RESCHEDULE: IrqVector = IrqVector(0xFD);
    /// Generic function-call IPI vector.
    pub const CALL_FUNCTION: IrqVector = IrqVector(0xFB);
}

/// One inter-processor interrupt message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpiMessage {
    /// Sending CPU.
    pub src: CpuId,
    /// Destination CPU.
    pub dst: CpuId,
    /// Interrupt vector.
    pub vector: IrqVector,
}

/// The interrupt fabric for all CPUs (physical and registered virtual).
#[derive(Clone, Debug)]
pub struct ApicFabric {
    latency: SimDuration,
    fault: Option<FaultInjector>,
}

impl ApicFabric {
    /// Creates a fabric with the given delivery latency (typical x2APIC
    /// IPI: several hundred ns).
    pub fn new(latency: SimDuration) -> Self {
        ApicFabric {
            latency,
            fault: None,
        }
    }

    /// Attaches a fault injector (fabric-level IRQ delay/drop).
    pub fn set_fault(&mut self, fault: FaultInjector) {
        self.fault = Some(fault);
    }

    /// Fault-aware delivery latency for a device IRQ headed to `cpu`:
    /// `None` when the message is lost in the fabric, otherwise the
    /// base latency plus any injected congestion delay. Without an
    /// injector this is always the base latency, so the happy path is
    /// byte-identical to the pre-fault fabric.
    pub fn irq_latency(&self, cpu: CpuId) -> Option<SimDuration> {
        let Some(f) = &self.fault else {
            return Some(self.latency);
        };
        match f.ipi_fate(cpu.0) {
            IpiFate::Drop => None,
            IpiFate::Delay(d) => Some(self.latency + d),
            IpiFate::Deliver => Some(self.latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_returns_delivery_time() {
        let f = ApicFabric::new(SimDuration::from_nanos(300));
        assert_eq!(f.irq_latency(CpuId(3)), Some(SimDuration::from_nanos(300)));
    }
}
