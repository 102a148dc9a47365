//! I/O packet descriptors flowing through the SmartNIC.
//!
//! A [`Packet`] models one data-plane work item — a network frame or a
//! storage request — as it moves along the Fig. 1c blue path: submitted
//! by the host's device driver, preprocessed by the accelerator,
//! transferred into the memory shared with the data-plane service, then
//! software-processed by the poll-mode service. The packet carries its
//! submission, delivery and completion times, from which the latency
//! figures are computed; the accelerator's own stage times (the Fig. 6
//! breakdown) come from its [`PipelineOutput`](crate::PipelineOutput).

use crate::cpu::CpuId;
use taichi_sim::{SimDuration, SimTime};

/// Unique packet/request identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Which tenant a data-plane work item belongs to.
///
/// The single-operator configuration of the paper is tenant 0; the
/// multi-tenant extension (DESIGN.md §3.11) tags every packet so the
/// eNIC can keep per-tenant rx rings and the accelerator can arbitrate
/// ingest bandwidth with deficit round robin. Tagging is free: the id
/// is stamped by the traffic generator, never drawn from an RNG.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit tenant of every pre-multi-tenant workload.
    pub const HOST: TenantId = TenantId(0);

    /// Index into per-tenant tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which data-plane subsystem a work item belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Network frame (DPDK-like service).
    Network,
    /// Storage request (SPDK-like service).
    Storage,
}

/// One in-flight I/O work item with per-stage timestamps.
///
/// Exactly one cache line (64 bytes): the machine's in-flight arena
/// holds one per packet between ingest and delivery. Rx rings store a
/// narrower descriptor (see [`RxQueue`](crate::RxQueue)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Unique ID, assigned at submission.
    pub id: PacketId,
    /// Network or storage.
    pub kind: IoKind,
    /// Payload size in bytes (affects accelerator/PCIe occupancy).
    pub size_bytes: u32,
    /// Data-plane CPU that owns the destination queue.
    pub dest_cpu: CpuId,
    /// Destination rx queue index on that CPU's service.
    pub dest_queue: u16,
    /// Owning tenant (0 = the implicit single-operator tenant).
    pub tenant: TenantId,
    /// When the host driver submitted the request (stage ①).
    pub submitted_at: SimTime,
    /// When the packet landed in shared memory (stage ③).
    pub delivered_at: Option<SimTime>,
    /// When the DP service finished software processing (stage ④).
    pub completed_at: Option<SimTime>,
}

impl Packet {
    /// Creates a freshly submitted packet.
    pub fn new(
        id: PacketId,
        kind: IoKind,
        size_bytes: u32,
        dest_cpu: CpuId,
        dest_queue: u16,
        submitted_at: SimTime,
    ) -> Self {
        Packet {
            id,
            kind,
            size_bytes,
            dest_cpu,
            dest_queue,
            tenant: TenantId::HOST,
            submitted_at,
            delivered_at: None,
            completed_at: None,
        }
    }

    /// Tags the packet with its owning tenant (builder style).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// End-to-end latency (submission → completion), if completed.
    pub fn total_latency(&self) -> Option<SimDuration> {
        self.completed_at.map(|c| c - self.submitted_at)
    }

    /// Software time (delivery → completion), if completed.
    ///
    /// This includes any wait for the DP CPU to become available — the
    /// quantity Tai Chi's hardware probe exists to keep flat.
    pub fn software_latency(&self) -> Option<SimDuration> {
        match (self.delivered_at, self.completed_at) {
            (Some(d), Some(c)) => Some(c - d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::new(
            PacketId(1),
            IoKind::Network,
            1500,
            CpuId(2),
            0,
            SimTime::from_micros(10),
        )
    }

    #[test]
    fn latencies_none_until_stages_complete() {
        let p = pkt();
        assert!(p.total_latency().is_none());
        assert!(p.software_latency().is_none());
    }

    #[test]
    fn latency_accounting() {
        let mut p = pkt();
        p.delivered_at = Some(SimTime::from_nanos(13_200));
        p.completed_at = Some(SimTime::from_nanos(15_200));
        assert_eq!(
            p.software_latency().unwrap(),
            SimDuration::from_nanos(2_000)
        );
        assert_eq!(p.total_latency().unwrap(), SimDuration::from_nanos(5_200));
    }

    #[test]
    fn kinds_are_distinct() {
        assert_ne!(IoKind::Network, IoKind::Storage);
    }

    #[test]
    fn tenant_defaults_to_host_and_tags_via_builder() {
        let p = pkt();
        assert_eq!(p.tenant, TenantId::HOST);
        let p = p.with_tenant(TenantId(3));
        assert_eq!(p.tenant.index(), 3);
    }
}
