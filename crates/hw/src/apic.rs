//! The interrupt fabric: IPIs and IRQ lines.
//!
//! Models the interrupt fabric shared by all SmartNIC CPUs:
//! inter-processor interrupts carry `(source, destination, vector)` and
//! device IRQs reach their CPU after a fixed fabric latency
//! ([`IRQ_LATENCY`]), which the machine's fault plan may stretch or
//! turn into a loss.
//!
//! Tai Chi's unified IPI orchestrator (in `taichi-core`) hooks the send
//! path *above* this fabric — this module is plain hardware.

use crate::cpu::CpuId;
use taichi_sim::SimDuration;

/// Delivery latency of a device IRQ through the fabric (a typical
/// x2APIC message: several hundred ns).
pub const IRQ_LATENCY: SimDuration = SimDuration::from_nanos(300);

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_returns_delivery_time() {
        assert_eq!(IRQ_LATENCY, SimDuration::from_nanos(300));
    }
}
