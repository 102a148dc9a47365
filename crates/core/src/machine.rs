//! Full-system composition: the SmartNIC machine simulator.
//!
//! A [`Machine`] wires every substrate together — accelerator, rx
//! rings, APIC fabric, kernel, DP services, CP tasks, vCPUs — and runs
//! the discrete-event loop. [`Mode`] selects the scheduling regime
//! under test:
//!
//! | Mode | CP placement | DP placement | Probes |
//! |------|--------------|--------------|--------|
//! | [`Mode::Baseline`] | 4 CP pCPUs (static) | 8 pCPUs native | — |
//! | [`Mode::TaiChi`] | CP pCPUs + vCPUs | pCPUs native | SW + HW |
//! | [`Mode::TaiChiNoHwProbe`] | CP pCPUs + vCPUs | pCPUs native | SW only |
//! | [`Mode::TaiChiVdp`] | CP pCPUs + vCPUs | inside vCPUs (taxed) | SW + HW |
//! | [`Mode::Type2`] | guest OS (taxed, RPC IPC) | 7 pCPUs (1 lost to QEMU) | — |
//!
//! # The two scheduling paths (Fig. 7b)
//!
//! **DP→CP yield**: a DP service's empty-poll count crosses the
//! adaptive threshold → `DpIdle` event → the vCPU scheduler picks a
//! runnable vCPU round-robin, raises the dedicated softirq, flips the
//! hardware probe register to V-state, and VM-enters the vCPU; the
//! kernel CPU behind the vCPU is resumed for exactly the grant.
//!
//! **CP→DP preempt**: a packet for a V-state CPU arrives at the
//! accelerator → probe IRQ → VM-exit begins immediately and completes
//! within the 2 µs switch latency, overlapped with the 3.2 µs
//! preprocess+transfer window, so the DP service is back on the core
//! before the packet reaches shared memory.

use crate::config::MachineConfig;
use crate::orchestrator::{IpiOrchestrator, RouteDecision};
use crate::probe_sw::AdaptiveYield;
use crate::sched::TaiChiPolicy;
use crate::vcpu_sched::VcpuScheduler;

use taichi_cp::{CpTaskKind, TaskFactory, VmCreateRequest, VmStartupTracker};
use taichi_dp::{DpService, TrafficGen};
use taichi_hw::{
    Accelerator, ApicFabric, CpuExecState, CpuId, HwWorkloadProbe, IoKind, IrqVector, Packet,
    PacketId,
};
use taichi_os::{
    ActionBuf, CpuSet, Kernel, KernelAction, Program, Segment, SoftirqKind, ThreadId, ThreadState,
};
use taichi_sim::trace::FailureDump;
use taichi_sim::{
    Arena, ArenaStats, EventQueue, EventToken, FaultInjector, IpiFate, Rng, SimDuration, SimTime,
    TraceKind, Tracer,
};
use taichi_virt::{VcpuState, VmExitReason};

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// CPU number used for fault/degrade trace events that are not tied to
/// any particular CPU (wakeup timers, storm bursts).
const NO_CPU: u32 = u32::MAX;

/// Simulated time between two checks of [`Machine::run_until_or`]'s
/// stop condition.
const DONE_POLL: SimDuration = SimDuration::from_millis(1);

/// Initial in-flight packet arena reservation. Like the event slab and
/// the rx rings, it grows on demand to the machine's working set, so a
/// rack of mostly idle machines never pays for worst-case storage.
const PACKET_SLOTS: usize = 32;

/// Initial skipped-deadline heap reservation (grows on demand).
const SKIPPED_DEADLINE_SLOTS: usize = 16;

/// Scheduling regime under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Production static partitioning (the paper's SOTA baseline).
    Baseline,
    /// Full Tai Chi.
    TaiChi,
    /// Tai Chi with the hardware workload probe disabled (Table 5
    /// ablation): vCPUs are only reclaimed at slice expiry.
    TaiChiNoHwProbe,
    /// Type-1-like: Tai Chi, but DP services also execute in vCPU
    /// contexts and pay the guest execution tax (§6.3's Tai Chi-vDP).
    TaiChiVdp,
    /// Traditional type-2 (QEMU+KVM): CP in a separate guest OS, one
    /// DP pCPU lost to emulation, IPC broken into RPC.
    Type2,
}

impl Mode {
    /// True for the modes that run the Tai Chi scheduler.
    pub fn has_taichi(self) -> bool {
        matches!(self, Mode::TaiChi | Mode::TaiChiNoHwProbe | Mode::TaiChiVdp)
    }

    /// All modes, in evaluation order.
    pub fn all() -> [Mode; 5] {
        [
            Mode::Baseline,
            Mode::TaiChi,
            Mode::TaiChiNoHwProbe,
            Mode::TaiChiVdp,
            Mode::Type2,
        ]
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Mode::Baseline => "baseline",
            Mode::TaiChi => "taichi",
            Mode::TaiChiNoHwProbe => "taichi-no-hwprobe",
            Mode::TaiChiVdp => "taichi-vdp",
            Mode::Type2 => "type2",
        };
        f.write_str(s)
    }
}

/// One queued machine event: a 16-byte `Copy` value, so the queue moves
/// two words per schedule and pop. Payloads that do not fit (packets,
/// CP jobs) are parked in the machine's arenas and travel as handles.
#[derive(Clone, Copy, Debug)]
enum Event {
    NextArrival {
        gen: usize,
    },
    /// Handle into [`Machine::packets`].
    Delivered {
        packet: u32,
    },
    ProbeIrq {
        host: CpuId,
    },
    DpIdle {
        host: CpuId,
        gen: u64,
    },
    VcpuEntered {
        idx: usize,
    },
    VcpuSliceExpire {
        idx: u32,
        gen: u64,
    },
    VcpuExited {
        idx: usize,
    },
    KernelDecide {
        cpu: CpuId,
        gen: u64,
    },
    KernelWake {
        tid: ThreadId,
    },
    DpBurstDone {
        si: usize,
    },
    /// Handle into [`Machine::vm_jobs`].
    VmCreate {
        job: u32,
    },
    /// Handle into [`Machine::spawn_jobs`].
    SpawnBatch {
        job: u32,
        batch: usize,
    },
    UtilSample,
    /// Multi-tenant ingress: the accelerator's shared ingest port is
    /// free — issue the next staged packet in DRR order. Never
    /// scheduled in the single-tenant configuration.
    ArbiterIssue,
    /// Bounded re-send of an IPI the fault layer dropped or delayed.
    IpiRetry {
        src: CpuId,
        dst: CpuId,
        vector: IrqVector,
        attempt: u32,
    },
    /// Periodic CP task-storm burst from the fault plan.
    FaultStorm,
    /// A cross-NIC packet injected by an external driver (the fleet
    /// layer's east-west delivery): enters the accelerator pipeline at
    /// its arrival time exactly like a wire arrival. Handle into
    /// [`Machine::packets`].
    RxInject {
        packet: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);
const _: () = assert!(std::mem::size_of::<EventToken>() == 16);

/// Degradation-bookkeeping counters for the fault layer: every
/// recovery action the scheduler took, plus the loss counters the
/// invariant checker audits. All-zero (and empty) on a fault-free run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultHealth {
    /// Dropped IPIs re-sent with backoff.
    pub ipi_resends: u64,
    /// IPIs abandoned after exhausting the retry budget.
    pub ipi_lost: u64,
    /// Highest retry attempt any IPI reached.
    pub ipi_max_attempt: u32,
    /// Wakeup timers re-armed after a drop.
    pub wakeup_rearms: u64,
    /// Threads whose wakeup was dropped and never re-armed — each one
    /// sleeps forever (an invariant violation).
    pub lost_wakeups: Vec<ThreadId>,
    /// Context-switch softirqs re-raised after a dropped raise.
    pub softirq_rearms: u64,
    /// vCPU grants rolled back because the switch softirq stayed lost.
    pub softirq_lost_grants: u64,
    /// Yield thresholds clamped to max on storm-induced starvation.
    pub yield_clamps: u64,
    /// Event timestamps observed running backwards (always zero with a
    /// well-ordered queue; audited by the invariant checker).
    pub clock_regressions: u64,
}

/// The full-system simulator.
pub struct Machine {
    cfg: MachineConfig,
    mode: Mode,
    now: SimTime,
    queue: EventQueue<Event>,
    rng: Rng,
    bootstrapped: bool,

    accel: Accelerator,
    hw_probe: HwWorkloadProbe,
    apic: ApicFabric,
    kernel: Kernel,
    orchestrator: IpiOrchestrator,
    vsched: VcpuScheduler,
    /// The scheduling policy, consulted at every vCPU decision point
    /// below (reached only in the Tai Chi modes, which build vCPUs).
    policy: TaiChiPolicy,

    services: Vec<DpService>,
    dp_cpu_ids: Vec<CpuId>,
    cp_cpu_ids: Vec<CpuId>,
    cp_affinity: CpuSet,

    generators: Vec<TrafficGen>,
    /// One independent RNG stream per generator, derived from the seed
    /// alone — so the offered load is bit-identical across modes and
    /// unaffected by how the run consumes the machine RNG.
    gen_rngs: Vec<Rng>,
    pending_packet: Vec<Option<Packet>>,

    /// Per-CPU decision-timer generation, indexed by `CpuId::index()`
    /// (dense — the hot loop must not hash).
    kernel_gen: Vec<u64>,
    /// Reusable scratch buffer for kernel calls (taken/restored around
    /// each call so reentrant action handling gets a fresh default).
    scratch: ActionBuf,
    /// True when kernel or vCPU-occupancy state changed since the last
    /// [`Machine::fill_idle_cp_hosts`] pass. Pure packet events leave
    /// it clear, so the majority of events skip the CP-host scan.
    cp_fill_dirty: bool,
    /// Events physically dispatched to handlers.
    events_dispatched: u64,
    /// Superseded timers cancelled before dispatch by the skip layer
    /// (each one a stale-generation no-op a skip-off run would have
    /// dispatched). `events_dispatched + events_skipped` is invariant
    /// across skip modes.
    events_skipped: u64,
    /// Oracle: `cfg.skip == SkipMode::On`, cached. Off dispatches
    /// superseded timers later as stale no-ops instead of cancelling
    /// them.
    #[cfg(feature = "oracle")]
    skip: bool,
    /// Outstanding timer tokens for the skip layer (the most recent
    /// DpIdle per service / slice expiry per vCPU / decision tick per
    /// CPU), each paired with its deadline. A stale entry is harmless:
    /// cancel on a fired token is a recorded-nothing no-op.
    dp_idle_tok: Vec<Option<(EventToken, SimTime)>>,
    vcpu_slice_tok: Vec<Option<(EventToken, SimTime)>>,
    kernel_tok: Vec<Option<(EventToken, SimTime)>>,
    /// Deadlines of cancelled timers not yet folded into
    /// `events_skipped`: a skip-off run dispatches a superseded timer
    /// only when the clock reaches its deadline, so a cancelled timer
    /// counts as skipped only once `now` passes it — deadlines beyond
    /// the final horizon would never have fired and must never count.
    skipped_deadlines: BinaryHeap<Reverse<u64>>,
    dp_idle_gen: Vec<u64>,
    dp_busy: Vec<bool>,
    /// Packets ingested into the accelerator but not yet delivered,
    /// per DP CPU (the §9 pipeline-occupancy signal).
    dp_inflight: Vec<u32>,
    yield_vetoes: u64,
    vcpu_gen: Vec<u64>,
    pending_preempt: Vec<bool>,
    yield_armed: Vec<bool>,
    grant_host: Vec<Option<CpuId>>,

    trackers: Vec<VmStartupTracker>,
    tid_to_tracker: HashMap<ThreadId, usize>,
    vm_startup_times: Vec<SimDuration>,

    batches: Vec<Vec<ThreadId>>,

    /// Packets between ingest (or injection) and shared-memory
    /// delivery, addressed by the `Delivered`/`RxInject` handles.
    packets: Arena<Packet>,
    /// Scheduled VM creations and CP batches awaiting their instant.
    vm_jobs: Arena<(VmCreateRequest, Vec<Program>)>,
    spawn_jobs: Arena<Vec<Program>>,
    /// O(1) `CpuId` → DP-service index, dense by `CpuId::index()`
    /// (`None` for non-DP CPUs). Replaces a linear scan that ran
    /// several times per packet event.
    dp_index_map: Vec<Option<usize>>,
    /// Reusable scratch for the lock-context reschedule host lists
    /// (capacity retained, so the §4.1 path stops allocating after its
    /// first use).
    scratch_idle_dp: Vec<CpuId>,
    scratch_cp_hosts: Vec<CpuId>,

    util_samples: Vec<f64>,
    util_interval: Option<SimDuration>,

    /// Packets delivered through [`Machine::inject_rx_for_tenant`];
    /// doubles as the sequence counter for their salted ID namespace.
    injected_rx: u64,
    /// True while an [`Event::ArbiterIssue`] is outstanding — at most
    /// one issue event is in flight, so the shared ingest port is
    /// modelled without event cancellation. Always false when
    /// single-tenant.
    arbiter_armed: bool,
    /// Packets ingested for a CPU with no DP service behind it (Type-2
    /// runs emulate away DP CPUs). Previously these vanished from
    /// every counter; the conservation audit (invariant 6) now
    /// balances against this. Counted at ingest so the equation holds
    /// even while such a packet is still in the pipeline.
    unrouted: u64,

    tracer: Option<Tracer>,
    /// Present only when `MachineConfig::faults` is active; a
    /// `None` here means zero fault branches are ever taken.
    fault: Option<FaultInjector>,
    health: FaultHealth,
    /// Consecutive probe-triggered VM-exits per physical CPU (the
    /// storm-starvation signal feeding the yield clamp).
    probe_starve: Vec<u32>,
}

/// Raw VM-exit reason name for the trace.
fn exit_reason_name(reason: VmExitReason) -> &'static str {
    match reason {
        VmExitReason::SliceExpired => "slice_expired",
        VmExitReason::HwProbe => "hw_probe",
        VmExitReason::IpiSend => "ipi_send",
        VmExitReason::GuestHalt => "guest_halt",
        VmExitReason::Forced => "forced",
    }
}

impl Machine {
    /// Builds a machine in the given mode. `cfg` and `mode` are the
    /// whole truth about the run: nothing here reads the environment.
    pub fn new(cfg: MachineConfig, mode: Mode) -> Self {
        let policy = TaiChiPolicy::new(&cfg);
        // Borrowed, not cloned: thousands of short-lived machines go
        // through here under `par::sweep_with`, and the spec is only read
        // during construction.
        let spec = &cfg.spec;
        let num_cpus = spec.num_cpus;
        let rng = Rng::new(cfg.seed);
        let dp_count = match mode {
            Mode::Type2 => cfg.type2.effective_dp_cpus(spec.dp_cpus),
            _ => spec.dp_cpus,
        };
        let dp_cpu_ids: Vec<CpuId> = (0..dp_count).map(CpuId).collect();
        let cp_cpu_ids = spec.cp_cpu_ids();

        let mut kernel = Kernel::new(cfg.kernel.clone(), &cp_cpu_ids);
        let mut orchestrator = IpiOrchestrator::new(spec.num_cpus);
        let num_vcpus = if mode.has_taichi() {
            cfg.taichi.num_vcpus
        } else {
            0
        };
        let vcpu_ids = orchestrator.register_vcpus(&mut kernel, num_vcpus, SimTime::ZERO);
        let mut boot_acts = ActionBuf::new();
        for &v in &vcpu_ids {
            // vCPUs start with no physical time. Boot-time actions are
            // moot: the event loop re-arms every CPU on bootstrap.
            kernel.pause_cpu(v, SimTime::ZERO, &mut boot_acts);
            boot_acts.clear();
        }
        let vsched = VcpuScheduler::new(&vcpu_ids, spec.num_cpus);

        // One shared config for every service (the per-service deep
        // clone used to dominate `Machine::new` for sweep workloads).
        let mut dp_cfg = cfg.dp.clone();
        if cfg.taichi.cache_isolation {
            // §9: cache/TLB partitioning removes grant pollution.
            dp_cfg.pollution_tax = 1.0;
        }
        let dp_cfg = Arc::new(dp_cfg);
        let mut services: Vec<DpService> = dp_cpu_ids
            .iter()
            .map(|&c| DpService::with_shared_config(c, Arc::clone(&dp_cfg)))
            .collect();
        let mut dp_index_map = vec![None; num_cpus as usize];
        for (i, c) in dp_cpu_ids.iter().enumerate() {
            dp_index_map[c.index()] = Some(i);
        }
        if mode == Mode::TaiChiVdp {
            for s in &mut services {
                s.set_exec_tax(cfg.vdp_exec_tax);
            }
        }
        if mode == Mode::Type2 {
            for s in &mut services {
                s.set_exec_tax(cfg.type2.dp_interference_tax);
            }
        }

        let mut cp_affinity: CpuSet = cp_cpu_ids.iter().copied().collect();
        for &v in &vcpu_ids {
            cp_affinity.insert(v);
        }

        let mut hw_probe = HwWorkloadProbe::new(spec.num_cpus);
        if !matches!(mode, Mode::TaiChi | Mode::TaiChiVdp) {
            hw_probe.set_enabled(false);
        }

        // The tracer only records the schedule; it never influences it.
        let tracer = Tracer::from_config(&cfg.trace);
        let mut accel = Accelerator::new(cfg.accel.clone());
        if let Some(t) = &tracer {
            kernel.set_tracer(t.clone());
            accel.set_tracer(t.clone());
        }

        // Fault layer: the injector exists only when the plan can
        // actually fire, so inactive plans leave every subsystem on its
        // pre-fault fast path and runs byte-identical.
        let fault = FaultInjector::from_plan(&cfg.faults, cfg.seed);
        let mut apic = ApicFabric::new(SimDuration::from_nanos(300));
        if let Some(f) = &fault {
            if let Some(t) = &tracer {
                f.set_tracer(t.clone());
            }
            kernel.set_fault(f.clone());
            accel.set_fault(f.clone());
            apic.set_fault(f.clone());
            for s in &mut services {
                s.set_fault(f.clone());
            }
        }

        // Multi-tenant data path (DESIGN.md §3.11): constructed only
        // when asked for, so the default single-tenant machine carries
        // zero tenant state and stays byte-identical to the pre-tenant
        // engine.
        if cfg.tenants.is_multi() {
            accel.enable_tenants(
                &cfg.tenants.effective_weights(),
                cfg.tenants.quantum,
                cfg.tenants.ring_capacity,
            );
            for s in &mut services {
                s.set_tenants(cfg.tenants.count as usize);
            }
        }

        let n_v = vcpu_ids.len();
        Machine {
            accel,
            hw_probe,
            apic,
            kernel,
            orchestrator,
            vsched,
            policy,
            services,
            dp_cpu_ids,
            cp_cpu_ids,
            cp_affinity,
            generators: Vec::new(),
            gen_rngs: Vec::new(),
            pending_packet: Vec::new(),
            kernel_gen: Vec::new(),
            scratch: ActionBuf::new(),
            cp_fill_dirty: true,
            events_dispatched: 0,
            events_skipped: 0,
            #[cfg(feature = "oracle")]
            skip: cfg.skip == crate::config::SkipMode::On,
            dp_idle_tok: vec![None; dp_count as usize],
            vcpu_slice_tok: vec![None; n_v],
            kernel_tok: Vec::new(),
            skipped_deadlines: BinaryHeap::with_capacity(SKIPPED_DEADLINE_SLOTS),
            dp_idle_gen: vec![0; dp_count as usize],
            dp_busy: vec![false; dp_count as usize],
            dp_inflight: vec![0; dp_count as usize],
            yield_vetoes: 0,
            vcpu_gen: vec![0; n_v],
            pending_preempt: vec![false; n_v],
            yield_armed: vec![false; dp_count as usize],
            grant_host: vec![None; n_v],
            trackers: Vec::new(),
            tid_to_tracker: HashMap::new(),
            vm_startup_times: Vec::new(),
            batches: Vec::new(),
            packets: Arena::with_capacity(PACKET_SLOTS),
            vm_jobs: Arena::default(),
            spawn_jobs: Arena::default(),
            dp_index_map,
            scratch_idle_dp: Vec::new(),
            scratch_cp_hosts: Vec::new(),
            util_samples: Vec::new(),
            util_interval: None,
            injected_rx: 0,
            arbiter_armed: false,
            unrouted: 0,
            tracer,
            fault,
            health: FaultHealth::default(),
            probe_starve: vec![0; num_cpus as usize],
            now: SimTime::ZERO,
            #[cfg(not(feature = "oracle"))]
            queue: EventQueue::new(),
            #[cfg(feature = "oracle")]
            queue: EventQueue::with_backend(cfg.queue),
            rng,
            bootstrapped: false,
            cfg,
            mode,
        }
    }

    /// The mode this machine runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    // ---------------------------------------------------------------
    // Workload setup.
    // ---------------------------------------------------------------

    /// Adds a traffic generator; arrivals flow once the machine runs.
    ///
    /// Each generator gets its own RNG stream derived purely from the
    /// seed and its index, so identical seeds offer bit-identical
    /// arrival processes to every scheduling mode.
    pub fn add_traffic(&mut self, mut generator: TrafficGen) {
        let idx = self.generators.len();
        let mut rng = Rng::stream(self.cfg.seed, idx as u64);
        let first = generator.next_packet(&mut rng);
        let at = first.submitted_at.max(self.now);
        self.generators.push(generator);
        self.gen_rngs.push(rng);
        self.pending_packet.push(Some(first));
        self.queue.schedule(at, Event::NextArrival { gen: idx });
    }

    /// Injects one cross-NIC rx packet arriving at `at` (clamped to
    /// the current clock): the fleet layer delivers east-west traffic
    /// originating on other machines through this hook. The packet is
    /// assigned a machine-unique ID in a dedicated high-bit-salted
    /// namespace — injected IDs never collide with generator-produced
    /// ones — and enters the accelerator pipeline exactly like a wire
    /// arrival (preprocess, V-state probe check, shared-memory
    /// delivery). Injection order is part of the deterministic
    /// schedule: identical injection sequences give bit-identical
    /// runs.
    ///
    /// `tenant` tags the packet for a multi-tenant fleet. Tagging is
    /// pure relabelling: with one tenant the tag is ignored by every
    /// downstream component.
    pub fn inject_rx_for_tenant(
        &mut self,
        at: SimTime,
        kind: IoKind,
        size_bytes: u32,
        dest_cpu: CpuId,
        tenant: taichi_hw::TenantId,
    ) -> PacketId {
        const INJECT_SALT: u64 = 1 << 63;
        let id = PacketId(INJECT_SALT | self.injected_rx);
        self.injected_rx += 1;
        let at = at.max(self.now);
        let packet = Packet::new(id, kind, size_bytes, dest_cpu, 0, at).with_tenant(tenant);
        let packet = self.packets.park(packet);
        self.queue.schedule(at, Event::RxInject { packet });
        id
    }

    /// Drains every DP service's accumulated latency records into one
    /// merged recorder, leaving the services empty. The fleet layer
    /// calls this at each epoch boundary and folds the returned delta
    /// straight into its rack-level aggregate, so no per-machine
    /// history accumulates anywhere. Whole-run reporting
    /// ([`crate::metrics::RunReport::collect`]) reads the recorders
    /// cumulatively and must not be mixed with per-epoch draining on
    /// the same machine.
    pub fn drain_dp_recorders(&mut self) -> taichi_dp::LatencyRecorder {
        let mut merged = taichi_dp::LatencyRecorder::new();
        self.drain_dp_recorders_into(&mut merged);
        merged
    }

    /// [`Machine::drain_dp_recorders`] into a caller-owned recorder:
    /// each service's records are merged into `dest` and cleared in
    /// place, so a fleet driver draining every machine every epoch
    /// reuses one scratch recorder instead of allocating per drain.
    pub fn drain_dp_recorders_into(&mut self, dest: &mut taichi_dp::LatencyRecorder) {
        for s in &mut self.services {
            s.drain_recorder_into(dest);
        }
    }

    /// Memory high-water marks for fleet footprint accounting: the
    /// event slab's peak slot count and the deepest rx-ring occupancy
    /// across DP services and tenant staging rings.
    pub fn memory_high_watermarks(&self) -> (usize, usize) {
        let ring = self
            .services
            .iter()
            .map(|s| s.ring_high_watermark())
            .max()
            .unwrap_or(0)
            .max(self.accel.staged_high_watermark());
        (self.queue.slab_high_watermark(), ring)
    }

    /// Occupancy of the payload arenas: in-flight packets, pending VM
    /// creations, pending CP batches. Every parked payload is unparked
    /// when its event fires, so a quiescent machine reports zero live.
    pub fn arena_stats(&self) -> [ArenaStats; 3] {
        [
            self.packets.stats(),
            self.vm_jobs.stats(),
            self.spawn_jobs.stats(),
        ]
    }

    /// Approximate resident bytes of the machine's variable-size
    /// structures (event queue storage, payload arenas, rx-ring backing
    /// stores, tenant staging rings). Fixed-size machine state is
    /// excluded; the counting allocator gives the authoritative total.
    pub fn resident_bytes(&self) -> usize {
        self.queue.resident_bytes()
            + self.packets.resident_bytes()
            + self.vm_jobs.resident_bytes()
            + self.spawn_jobs.resident_bytes()
            + self
                .services
                .iter()
                .map(|s| s.ring_resident_bytes())
                .sum::<usize>()
            + self.accel.tenant_ring_resident_bytes()
    }

    /// Spawns one CP task now with the mode's default CP affinity.
    pub(crate) fn spawn_cp_now(&mut self, program: Program) -> ThreadId {
        let program = self.maybe_transform(program);
        let aff = self.cp_affinity;
        self.with_kernel(|k, now, out| k.spawn(program, aff, now, out))
    }

    /// Schedules a batch of CP tasks to spawn at `at`; returns a batch
    /// handle whose thread IDs become available once the batch fires
    /// (see [`Machine::batch_threads`]).
    pub fn schedule_cp_batch(&mut self, programs: Vec<Program>, at: SimTime) -> usize {
        let batch = self.batches.len();
        self.batches.push(Vec::new());
        let job = self.spawn_jobs.park(programs);
        self.queue
            .schedule(at.max(self.now), Event::SpawnBatch { job, batch });
        batch
    }

    /// Thread IDs spawned for a batch (empty until the batch fires).
    pub fn batch_threads(&self, batch: usize) -> &[ThreadId] {
        &self.batches[batch]
    }

    /// Schedules a VM-creation request; device programs are generated
    /// deterministically from the machine RNG.
    pub fn schedule_vm_create(&mut self, request: VmCreateRequest, factory: &TaskFactory) {
        let programs = request.device_programs(factory, &mut self.rng);
        let at = request.issued_at.max(self.now);
        let job = self.vm_jobs.park((request, programs));
        self.queue.schedule(at, Event::VmCreate { job });
    }

    /// Enables periodic DP utilization sampling (for the Fig. 3 CDF).
    pub fn enable_util_sampling(&mut self, interval: SimDuration) {
        self.util_interval = Some(interval);
        self.queue.schedule(self.now + interval, Event::UtilSample);
    }

    /// Applies the type-2 program transformation (guest taxes + IPC→RPC
    /// penalties); identity in all other modes.
    fn maybe_transform(&self, program: Program) -> Program {
        if self.mode != Mode::Type2 {
            return program;
        }
        let m = &self.cfg.type2;
        let mut out = Program::new();
        for seg in program.segments() {
            let seg = match seg {
                Segment::UserCompute(d) => Segment::UserCompute(m.guest_cp_time(*d)),
                Segment::KernelPreemptible(d) => {
                    // Guest CP syscalls coordinating with the host-side
                    // data plane cross the OS boundary: guest tax plus
                    // the IPC→RPC penalty.
                    Segment::KernelPreemptible(m.ipc_cost(m.guest_cp_time(*d)))
                }
                Segment::NonPreemptible { dur, lock } => Segment::NonPreemptible {
                    dur: m.guest_cp_time(*dur),
                    lock: *lock,
                },
                other => other.clone(),
            };
            out = out.then(seg);
        }
        out
    }

    // ---------------------------------------------------------------
    // Event loop.
    // ---------------------------------------------------------------

    /// Runs the machine until simulated time `t`.
    ///
    /// Events pop one at a time in global `(time, seq)` order, each a
    /// 16-byte `Copy` `Event` (packets and CP jobs stay parked in the
    /// machine's arenas). Handlers scheduling *at the current instant*
    /// get later sequence numbers, so they fire after every event
    /// already queued for that instant. A skip-layer cancel of a
    /// superseded timer due at the current instant removes it before
    /// it pops; its deadline has already matured, so the next settle
    /// counts it as skipped.
    pub fn run_until(&mut self, t: SimTime) {
        self.bootstrap();
        while let Some((at, ev)) = self.queue.pop_at_or_before(t) {
            if at < self.now {
                // The queue contract forbids this; count instead of
                // panicking so the invariant checker can report it with
                // a trace dump attached.
                self.health.clock_regressions += 1;
            }
            self.now = at;
            // Fold matured skip-layer deadlines as the clock advances:
            // settling here keeps the ledger bounded by the timers
            // still pending, not by run length.
            self.settle_skipped();
            if let Some(tr) = &self.tracer {
                tr.set_time(at);
            }
            self.events_dispatched += 1;
            self.handle(ev);
        }
        self.now = t.max(self.now);
        self.settle_skipped();
    }

    /// Runs like [`Machine::run_until`]`(limit)`, but checks `done`
    /// every millisecond of simulated time and stops as soon as it
    /// holds; returns whether it did. Events pop in the same `(time,
    /// seq)` order whatever the chunking, so a run stopped here matches
    /// the first part of the full run event for event. When `done`
    /// never holds the run ends at `limit`, exactly as `run_until`.
    pub fn run_until_or(&mut self, limit: SimTime, mut done: impl FnMut(&Machine) -> bool) -> bool {
        loop {
            if done(self) {
                return true;
            }
            if self.now >= limit {
                return false;
            }
            self.run_until((self.now + DONE_POLL).min(limit));
        }
    }

    /// True when no CP work is running or can still arrive: no VM
    /// creation or CP batch is parked, no fault storm is armed, and
    /// every kernel thread has finished. From here on no CP thread
    /// spawns or finishes, so CP turnarounds and VM startup times are
    /// final.
    pub fn cp_quiescent(&self) -> bool {
        let storm_armed = self
            .fault
            .as_ref()
            .is_some_and(|f| !f.plan().storm_period.is_zero());
        !storm_armed
            && self.vm_jobs.stats().live == 0
            && self.spawn_jobs.stats().live == 0
            && self
                .kernel
                .all_threads()
                .all(|tid| self.kernel.thread_info(tid).state == ThreadState::Finished)
    }

    fn bootstrap(&mut self) {
        if self.bootstrapped {
            return;
        }
        self.bootstrapped = true;
        if let Some(f) = &self.fault {
            let period = f.plan().storm_period;
            if !period.is_zero() {
                self.queue.schedule(self.now + period, Event::FaultStorm);
            }
        }
        for cpu in self.kernel.known_cpus() {
            self.rearm_kernel(cpu);
        }
        if self.mode.has_taichi() {
            for i in 0..self.services.len() {
                let host = self.dp_cpu_ids[i];
                self.arm_dp_idle(host);
            }
        }
    }

    /// Skip layer: cancels the superseded timer behind `tok` (when the
    /// event is still queued) and records its deadline, keeping
    /// [`Machine::events_processed`] identical to a skip-off run —
    /// which dispatches the timer as a stale-generation no-op when the
    /// clock reaches the deadline, and never if the run ends first.
    /// [`Machine::settle_skipped`] folds the matured deadlines in.
    fn skip_stale(&mut self, tok: Option<(EventToken, SimTime)>) {
        #[cfg(feature = "oracle")]
        if !self.skip {
            return; // the skip-off oracle dispatches the stale timer
        }
        if let Some((tok, deadline)) = tok {
            if self.queue.cancel(tok) {
                self.skipped_deadlines.push(Reverse(deadline.as_nanos()));
            }
        }
    }

    /// Counts every cancelled timer whose deadline the clock has now
    /// passed — the instants where a skip-off run dispatched the same
    /// timer as a no-op.
    fn settle_skipped(&mut self) {
        while let Some(&Reverse(d)) = self.skipped_deadlines.peek() {
            if d > self.now.as_nanos() {
                break;
            }
            self.skipped_deadlines.pop();
            self.events_skipped += 1;
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::NextArrival { gen } => self.on_next_arrival(gen),
            Event::Delivered { packet } => {
                let packet = self.packets.unpark(packet);
                self.on_delivered(packet);
            }
            Event::DpBurstDone { si } => self.on_burst_done(si),
            Event::ProbeIrq { host } => self.on_probe_irq(host),
            Event::DpIdle { host, gen } => self.on_dp_idle(host, gen),
            Event::VcpuEntered { idx } => self.on_vcpu_entered(idx),
            Event::VcpuSliceExpire { idx, gen } => self.on_slice_expire(idx as usize, gen),
            Event::VcpuExited { idx } => self.on_vcpu_exited(idx),
            Event::KernelDecide { cpu, gen } => self.on_kernel_decide(cpu, gen),
            Event::KernelWake { tid } => {
                self.with_kernel(|k, now, out| k.wakeup(tid, now, out));
            }
            Event::VmCreate { job } => {
                let (request, programs) = self.vm_jobs.unpark(job);
                self.on_vm_create(request, programs);
            }
            Event::SpawnBatch { job, batch } => {
                for p in self.spawn_jobs.unpark(job) {
                    let tid = self.spawn_cp_now(p);
                    self.batches[batch].push(tid);
                }
            }
            Event::UtilSample => {
                let now = self.now;
                for s in &mut self.services {
                    self.util_samples.push(s.sample_utilization(now));
                }
                if let Some(iv) = self.util_interval {
                    self.queue.schedule(self.now + iv, Event::UtilSample);
                }
            }
            Event::IpiRetry {
                src,
                dst,
                vector,
                attempt,
            } => self.route_ipi(src, dst, vector, attempt),
            Event::FaultStorm => self.on_fault_storm(),
            Event::ArbiterIssue => self.on_arbiter_issue(),
            Event::RxInject { packet } => {
                let packet = self.packets.unpark(packet);
                self.ingest_packet(packet);
            }
        }
        // Only kernel mutations and vCPU exits can free a CP host or
        // make a vCPU runnable, and all of them set the dirty flag —
        // pure packet events skip the scan entirely.
        if self.cp_fill_dirty {
            self.cp_fill_dirty = false;
            self.fill_idle_cp_hosts();
        }
    }

    /// Work-conserving vCPU multiplexing over the control plane's own
    /// pCPUs: a CP pCPU with nothing native to run hosts a runnable
    /// vCPU for one slice. Without this, a thread that is *current* on
    /// a descheduled vCPU would strand whenever the data plane has no
    /// harvestable idle cycles (the kernel cannot migrate a running
    /// task off a CPU, exactly like Linux). This is the same placement
    /// machinery §4.1 uses for the lock-safety CP-pCPU fallback.
    fn fill_idle_cp_hosts(&mut self) {
        if !self.mode.has_taichi() {
            return;
        }
        for i in 0..self.cp_cpu_ids.len() {
            let cp = self.cp_cpu_ids[i];
            if !self.vsched.host_free(cp) || self.kernel.cpu_load(cp) > 0 {
                continue;
            }
            let Some(idx) = self
                .policy
                .pick_vcpu(&self.vsched, &self.kernel, &self.orchestrator)
            else {
                break;
            };
            self.place_vcpu(idx, cp);
        }
    }

    // ---------------------------------------------------------------
    // Packet path.
    // ---------------------------------------------------------------

    fn on_next_arrival(&mut self, gen: usize) {
        let packet = self.pending_packet[gen]
            .take()
            .expect("NextArrival implies a pending packet");
        let next = self.generators[gen].next_packet(&mut self.gen_rngs[gen]);
        let at = next.submitted_at.max(self.now);
        self.pending_packet[gen] = Some(next);
        self.queue.schedule(at, Event::NextArrival { gen });
        self.ingest_packet(packet);
    }

    fn ingest_packet(&mut self, mut packet: Packet) {
        if self.accel.multi_tenant() {
            // Multi-tenant path: park the packet in its tenant's eNIC
            // staging ring; the DRR arbiter pulls it through the shared
            // ingest port when the port frees up. A full ring drops at
            // the ring (counted per tenant) — the packet never reaches
            // the accelerator pipeline.
            if self.accel.stage(packet) {
                self.kick_arbiter();
            }
            return;
        }
        let out = self.accel.ingest(&mut packet, self.now, &mut self.hw_probe);
        self.schedule_pipeline(packet, out);
    }

    /// Ledgers a packet the accelerator just ingested and schedules its
    /// probe IRQ and shared-memory delivery (shared by the direct
    /// single-tenant path and the arbiter issue path).
    fn schedule_pipeline(&mut self, packet: Packet, out: taichi_hw::accel::PipelineOutput) {
        if let Some(si) = self.dp_index(packet.dest_cpu) {
            self.dp_inflight[si] += 1;
        } else {
            // Destined for a CPU with no service (Type-2 emulated it
            // away): ledger it now so conservation (audit invariant 6)
            // balances even while the packet is still in the pipeline.
            self.unrouted += 1;
        }
        if let Some(cpu) = out.probe_irq {
            // A probe IRQ lost in the fabric is survivable: the probe
            // re-checks the CPU state when the packet reaches shared
            // memory (`on_delivered`), which bounds the preemption
            // latency at the pipeline transfer time.
            if let Some(lat) = self.apic.irq_latency(cpu) {
                let irq_arrives = out.irq_at + lat;
                self.queue
                    .schedule(irq_arrives.max(self.now), Event::ProbeIrq { host: cpu });
            }
        }
        let packet = self.packets.park(packet);
        self.queue
            .schedule(out.delivered_at.max(self.now), Event::Delivered { packet });
    }

    /// Arms the next [`Event::ArbiterIssue`] if staged packets exist
    /// and none is outstanding — at most one issue event is ever in
    /// flight, so the port model needs no cancellation.
    fn kick_arbiter(&mut self) {
        if self.arbiter_armed || self.accel.staged() == 0 {
            return;
        }
        self.arbiter_armed = true;
        let at = self.accel.port_free().max(self.now);
        self.queue.schedule(at, Event::ArbiterIssue);
    }

    /// The shared ingest port is free: issue the next staged packet in
    /// DRR order and re-arm while backlog remains.
    fn on_arbiter_issue(&mut self) {
        self.arbiter_armed = false;
        let now = self.now;
        if let Some((packet, out)) = self.accel.issue_next(now, &mut self.hw_probe) {
            self.schedule_pipeline(packet, out);
        }
        self.kick_arbiter();
    }

    fn on_delivered(&mut self, packet: Packet) {
        let host = packet.dest_cpu;
        self.trace(host, TraceKind::AccelTransferDone { pkt: packet.id.0 });
        let Some(si) = self.dp_index(host) else {
            // CPU lost to emulation in type-2: no service behind it.
            // Already ledgered as unrouted at ingest (audit invariant
            // 6 balances against that counter) — it used to vanish.
            return;
        };
        self.dp_inflight[si] = self.dp_inflight[si].saturating_sub(1);
        // A rejected enqueue is already accounted at the ring (overflow
        // drop or fault reject), so the bool needs no handling here.
        self.services[si].enqueue(packet, self.now);
        self.yield_armed[si] = false;
        if self.vsched.host_free(host) {
            self.start_processing(host);
            return;
        }
        // A vCPU occupies the core. The probe's arrival-time check can
        // race with a yield that begins while the packet is in flight
        // through the 3.2 µs pipeline (the core was still P-state at
        // ingest), so the probe re-checks at shared-memory delivery —
        // stage ③ runs through the same accelerator, making the
        // second check as cheap as the first.
        if self.hw_probe.is_enabled() {
            self.probe_preempt(host, true);
        }
        // The occupant's VM-exit path drains the backlog.
    }

    /// Starts (or continues) burst processing on an available DP core.
    ///
    /// Bursts are processed one event at a time so the service's real
    /// per-core capacity bounds throughput: under overload the ring
    /// backs up and drops, exactly like a saturated PMD.
    fn start_processing(&mut self, host: CpuId) {
        let Some(si) = self.dp_index(host) else {
            return;
        };
        if self.dp_busy[si] || !self.vsched.host_free(host) {
            return;
        }
        if self.services[si].pending() == 0 {
            self.arm_dp_idle(host);
            return;
        }
        let Some(done) = self.services[si].process_burst(self.now, &mut self.rng) else {
            // `pending() > 0` was checked above, so today this branch
            // is dead — but a concurrent-drain refactor could make the
            // check stale, and silently wedging the core busy-flag is
            // the worst possible response. Re-arm idle detection.
            self.arm_dp_idle(host);
            return;
        };
        self.dp_busy[si] = true;
        self.queue.schedule(done, Event::DpBurstDone { si });
    }

    fn on_burst_done(&mut self, si: usize) {
        self.dp_busy[si] = false;
        let host = self.dp_cpu_ids[si];
        self.start_processing(host);
    }

    // ---------------------------------------------------------------
    // DP→CP yield path.
    // ---------------------------------------------------------------

    fn arm_dp_idle(&mut self, host: CpuId) {
        if !self.mode.has_taichi() {
            return;
        }
        let Some(si) = self.dp_index(host) else {
            return;
        };
        if !self.vsched.host_free(host) {
            return;
        }
        let threshold = self.policy.yield_threshold(host);
        let Some(t) = self.services[si].idle_notify_time(threshold) else {
            return;
        };
        self.dp_idle_gen[si] += 1;
        let gen = self.dp_idle_gen[si];
        // Re-arming supersedes the previous notification: elide it
        // instead of letting it fire as a gen-mismatch no-op. The early
        // returns above leave the prior timer untouched — its
        // generation still matches, so it is not stale.
        let old = self.dp_idle_tok[si].take();
        self.skip_stale(old);
        let at = t.max(self.now);
        let tok = self.queue.schedule(at, Event::DpIdle { host, gen });
        self.dp_idle_tok[si] = Some((tok, at));
    }

    fn on_dp_idle(&mut self, host: CpuId, gen: u64) {
        let Some(si) = self.dp_index(host) else {
            return;
        };
        if self.dp_idle_gen[si] != gen {
            return; // superseded by later activity
        }
        if self.dp_busy[si] || !self.vsched.host_free(host) || !self.services[si].is_idle(self.now)
        {
            return;
        }
        if self.cfg.taichi.pipeline_aware_yield && self.dp_inflight[si] > 0 {
            // §9: packets are already in the accelerator pipeline for
            // this CPU — yielding now would be a guaranteed false
            // positive. Their delivery re-arms the idle probe.
            self.yield_vetoes += 1;
            self.trace(
                host,
                TraceKind::YieldVeto {
                    inflight: self.dp_inflight[si],
                },
            );
            return;
        }
        let pick = self
            .policy
            .pick_vcpu(&self.vsched, &self.kernel, &self.orchestrator);
        match pick {
            Some(idx) => self.place_vcpu(idx, host),
            None => {
                // Nothing runnable: stay armed so a CP kick can use
                // this already-idle core immediately.
                self.trace(host, TraceKind::YieldNoRunnable);
                self.yield_armed[si] = true;
            }
        }
    }

    fn place_vcpu(&mut self, idx: usize, host: CpuId) {
        self.trace(host, TraceKind::YieldGrant { vcpu: idx as u32 });
        if let Some(si) = self.dp_index(host) {
            self.yield_armed[si] = false;
            // The grant stops the poll loop: close the service's open
            // empty-poll run so the Fig. 9 fast-forward ledger only
            // covers spans where polling actually executed. (The
            // rollback path below re-opens it via `restart_polling`.)
            let now = self.now;
            self.services[si].pause_polling(now);
        } else {
            // Hosting on a CP pCPU (lock-safety fallback): suspend the
            // native kernel context for the duration of the grant.
            self.with_kernel(|k, now, out| k.pause_cpu(host, now, out));
        }
        self.vsched.vcpu_mut(idx).place(host, self.now);
        self.vsched.record_placement(idx, host);
        self.grant_host[idx] = Some(host);
        // The scheduler updates the hardware state table *before* the
        // switch so packets arriving mid-enter still trigger the probe.
        self.hw_probe.set_state(host, CpuExecState::VState);
        // Raise the dedicated softirq whose handler performs the
        // context switch, then VM-enter. The raise can be lost to
        // fault injection: `raise` returns false with the pending bit
        // clear (an honest "already pending" leaves the bit set).
        self.kernel.softirqs().raise(host, SoftirqKind::TaiChiVcpu);
        if self.fault.is_some()
            && !self
                .kernel
                .softirq_state()
                .is_pending(host, SoftirqKind::TaiChiVcpu)
        {
            let rearm = self
                .fault
                .as_ref()
                .map(|f| f.degrade().softirq_rearm)
                .unwrap_or(false);
            if rearm {
                self.health.softirq_rearms += 1;
                self.trace(
                    host,
                    TraceKind::Degrade {
                        action: "softirq_rearm",
                    },
                );
                // The re-raise can itself be dropped; the handle check
                // below decides whether the grant survives.
                self.kernel.softirqs().raise(host, SoftirqKind::TaiChiVcpu);
            }
        }
        if !self.kernel.softirqs().handle(host, SoftirqKind::TaiChiVcpu) {
            // The switch softirq stayed lost: the VM-enter never
            // starts. Unwind the placement so the host keeps running
            // its native context instead of wedging half-switched.
            self.health.softirq_lost_grants += 1;
            self.trace(
                host,
                TraceKind::Degrade {
                    action: "grant_rollback",
                },
            );
            self.vsched.vcpu_mut(idx).abort_place(self.now);
            self.vsched.clear_placement(host);
            self.grant_host[idx] = None;
            self.pending_preempt[idx] = false;
            self.hw_probe.set_state(host, CpuExecState::PState);
            if let Some(si) = self.dp_index(host) {
                let now = self.now;
                self.services[si].restart_polling(now);
                self.start_processing(host);
            } else {
                self.with_kernel(|k, now, out| k.resume_cpu(host, now, out));
            }
            return;
        }
        let enter_done =
            self.now + self.cfg.taichi.softirq_latency + self.cfg.taichi.costs.vm_enter;
        self.queue.schedule(enter_done, Event::VcpuEntered { idx });
    }

    fn on_vcpu_entered(&mut self, idx: usize) {
        let host = self.grant_host[idx].unwrap_or_else(|| {
            panic!(
                "VcpuEntered for vCPU {idx} with no host (state {:?})",
                self.vsched.vcpu(idx).state()
            )
        });
        self.trace(host, TraceKind::VmEnter { vcpu: idx as u32 });
        let slice = self.policy.grant_slice(host);
        let slice_end = self.now + slice;
        self.vsched
            .vcpu_mut(idx)
            .enter_complete(self.now, slice_end);
        let vid = self.orchestrator.vcpu_cpu_id(idx);
        self.with_kernel(|k, now, out| k.resume_cpu(vid, now, out));
        if self.pending_preempt[idx] {
            self.pending_preempt[idx] = false;
            self.begin_vcpu_exit(idx, VmExitReason::HwProbe);
            return;
        }
        if !self.kernel.cpu_has_work(vid) {
            // Guest went idle between selection and entry: HLT out.
            self.begin_vcpu_exit(idx, VmExitReason::GuestHalt);
            return;
        }
        self.vcpu_gen[idx] += 1;
        let gen = self.vcpu_gen[idx];
        let tok = self.queue.schedule(
            slice_end,
            Event::VcpuSliceExpire {
                idx: idx as u32,
                gen,
            },
        );
        // Any previous slice timer was already cancelled (or fired)
        // when the prior grant exited; overwriting is safe because
        // stale tokens cancel as no-ops.
        self.vcpu_slice_tok[idx] = Some((tok, slice_end));
    }

    fn on_slice_expire(&mut self, idx: usize, gen: u64) {
        if self.vcpu_gen[idx] != gen {
            return;
        }
        if !matches!(self.vsched.vcpu(idx).state(), VcpuState::Running { .. }) {
            return;
        }
        self.begin_vcpu_exit(idx, VmExitReason::SliceExpired);
    }

    fn begin_vcpu_exit(&mut self, idx: usize, reason: VmExitReason) {
        if let Some(host) = self.grant_host[idx] {
            self.trace(
                host,
                TraceKind::VmExit {
                    vcpu: idx as u32,
                    reason: exit_reason_name(reason),
                },
            );
        }
        let vid = self.orchestrator.vcpu_cpu_id(idx);
        self.with_kernel(|k, now, out| k.pause_cpu(vid, now, out));
        self.vsched.vcpu_mut(idx).begin_exit(reason, self.now);
        // Invalidate any pending slice timer. It can never match again,
        // so elide it; when this exit *is* the slice expiry, the token
        // is already stale and the cancel records nothing.
        self.vcpu_gen[idx] += 1;
        let old = self.vcpu_slice_tok[idx].take();
        self.skip_stale(old);
        // Full switch latency (VM-exit + pCPU context restore): the
        // 2 µs the hardware probe hides inside the I/O window.
        let done = self.now + self.cfg.taichi.costs.switch_latency();
        self.queue.schedule(done, Event::VcpuExited { idx });
    }

    fn on_vcpu_exited(&mut self, idx: usize) {
        // The vCPU becomes descheduled (and possibly frees a CP host):
        // a fill opportunity even when no kernel call follows.
        self.cp_fill_dirty = true;
        let reason = self.vsched.vcpu_mut(idx).exit_complete(self.now);
        let host = self.grant_host[idx].take().unwrap_or_else(|| {
            panic!("VcpuExited for vCPU {idx} with no recorded host (exit reason {reason:?})")
        });
        self.vsched.clear_placement(host);
        self.hw_probe.set_state(host, CpuExecState::PState);
        // Feedback signal for the adaptive controllers: a slice-expiry
        // exit that finds packets already waiting was a false-positive
        // yield (the software can see the rx ring at exit even without
        // the hardware probe), so it carries the probe signal.
        let effective = if reason == VmExitReason::SliceExpired
            && self
                .dp_index(host)
                .map(|si| self.services[si].pending() > 0)
                .unwrap_or(false)
        {
            VmExitReason::HwProbe
        } else {
            reason
        };
        let slice_before = self.policy.grant_slice(host);
        let threshold_before = self.policy.yield_threshold(host);
        self.policy.on_vm_exit(host, effective);
        let slice_after = self.policy.grant_slice(host);
        if slice_after != slice_before {
            self.trace(
                host,
                TraceKind::SliceAdapt {
                    ns: slice_after.as_nanos(),
                },
            );
        }
        let threshold_after = self.policy.yield_threshold(host);
        if threshold_after != threshold_before {
            self.trace(
                host,
                TraceKind::ThresholdAdapt {
                    polls: threshold_after as u64,
                },
            );
        }

        // Storm-starvation clamp: under a CP task storm every grant is
        // cut short by the probe, and the doubling feedback loop pays
        // a 2 µs switch per step on its way to the max threshold. Once
        // the probe signals `starvation_window` consecutive preempted
        // grants, jump the threshold straight to max. Only active with
        // an injector present so fault-free schedules are untouched.
        if let Some(f) = &self.fault {
            let d = f.degrade();
            let pi = host.index();
            if pi < self.probe_starve.len() {
                if effective == VmExitReason::HwProbe {
                    self.probe_starve[pi] += 1;
                    if d.yield_clamp && self.probe_starve[pi] >= d.starvation_window {
                        self.probe_starve[pi] = 0;
                        if self.policy.clamp_yield_to_max(host) {
                            self.health.yield_clamps += 1;
                            self.trace(
                                host,
                                TraceKind::Degrade {
                                    action: "yield_clamp",
                                },
                            );
                        }
                    }
                } else {
                    self.probe_starve[pi] = 0;
                }
            }
        }

        if let Some(si) = self.dp_index(host) {
            let now = self.now;
            self.services[si].mark_polluted(now);
            self.services[si].restart_polling(now);
            self.start_processing(host);
        } else {
            self.with_kernel(|k, now, out| k.resume_cpu(host, now, out));
        }

        // Safe lock-context rescheduling (§4.1). The candidate lists
        // are built into reusable scratch buffers (capacity retained)
        // so this path stops allocating after its first use.
        let vid = self.orchestrator.vcpu_cpu_id(idx);
        if self.kernel.in_lock_context(vid) {
            let mut idle_dp = std::mem::take(&mut self.scratch_idle_dp);
            let mut cp_hosts = std::mem::take(&mut self.scratch_cp_hosts);
            idle_dp.clear();
            cp_hosts.clear();
            // `dp_cpu_ids[i]` hosts `services[i]` by construction.
            for (i, &c) in self.dp_cpu_ids.iter().enumerate() {
                if c != host && self.vsched.host_free(c) && self.services[i].is_idle(self.now) {
                    idle_dp.push(c);
                }
            }
            for &c in &self.cp_cpu_ids {
                if self.vsched.host_free(c) {
                    cp_hosts.push(c);
                }
            }
            // The attempt is counted before the pick (a pick that
            // finds nowhere to place still attempted), the fallback
            // when the pick says so.
            self.vsched.note_lock_reschedule();
            let pick = self
                .policy
                .pick_reschedule_host(&self.vsched, &idle_dp, &cp_hosts);
            if let Some(p) = pick {
                if p.fallback {
                    self.vsched.note_lock_fallback();
                }
                if self.vsched.host_free(p.host) {
                    self.trace(p.host, TraceKind::LockReschedule { vcpu: idx as u32 });
                    self.place_vcpu(idx, p.host);
                }
            }
            self.scratch_idle_dp = idle_dp;
            self.scratch_cp_hosts = cp_hosts;
        }
    }

    fn on_probe_irq(&mut self, host: CpuId) {
        self.trace(host, TraceKind::ProbeIrq);
        self.probe_preempt(host, false);
    }

    /// Hardware-probe preemption of `host`'s vCPU occupant: a Running
    /// vCPU VM-exits now, an Entering one as soon as its entry
    /// completes; with no occupant (stale: the vCPU already left) or
    /// one already exiting, nothing happens. `recheck` traces
    /// [`TraceKind::ProbeRecheck`] before the preemption, and only
    /// when there is one.
    fn probe_preempt(&mut self, host: CpuId, recheck: bool) {
        let Some(idx) = self.vsched.occupant(host) else {
            return;
        };
        let running = match self.vsched.vcpu(idx).state() {
            VcpuState::Running { .. } => true,
            VcpuState::Entering { .. } => false,
            _ => return,
        };
        if recheck {
            self.trace(host, TraceKind::ProbeRecheck);
        }
        if running {
            self.begin_vcpu_exit(idx, VmExitReason::HwProbe);
        } else {
            self.pending_preempt[idx] = true;
        }
    }

    // ---------------------------------------------------------------
    // Kernel plumbing.
    // ---------------------------------------------------------------

    fn on_kernel_decide(&mut self, cpu: CpuId, gen: u64) {
        if self.kernel_gen.get(cpu.index()).copied().unwrap_or(0) != gen {
            return;
        }
        self.with_kernel(|k, now, out| k.decide(cpu, now, out));
        // A running vCPU whose guest went idle HLT-exits so the DP
        // core is returned early.
        if let Some(idx) = self.orchestrator.vcpu_index(cpu) {
            if matches!(self.vsched.vcpu(idx).state(), VcpuState::Running { .. })
                && !self.kernel.cpu_has_work(cpu)
            {
                self.begin_vcpu_exit(idx, VmExitReason::GuestHalt);
            }
        }
    }

    fn rearm_kernel(&mut self, cpu: CpuId) {
        if cpu.index() >= self.kernel_gen.len() {
            self.kernel_gen.resize(cpu.index() + 1, 0);
        }
        self.kernel_gen[cpu.index()] += 1;
        let gen = self.kernel_gen[cpu.index()];
        if cpu.index() >= self.kernel_tok.len() {
            self.kernel_tok.resize(cpu.index() + 1, None);
        }
        // The generation bump above permanently staled any pending
        // decision timer — whether or not a new one gets armed.
        let old = self.kernel_tok[cpu.index()].take();
        self.skip_stale(old);
        if let Some(mut t) = self.kernel.next_decision_time(cpu, self.now) {
            if let Some(f) = &self.fault {
                // Late decision timers are tolerated by the kernel (it
                // decides from wall-clock state, not the armed time),
                // which is exactly why jitter goes here.
                t += f.timer_jitter(cpu.0);
            }
            let at = t.max(self.now);
            let tok = self.queue.schedule(at, Event::KernelDecide { cpu, gen });
            self.kernel_tok[cpu.index()] = Some((tok, at));
        }
    }

    /// Runs one kernel call with the machine's scratch [`ActionBuf`]
    /// and applies the resulting actions.
    ///
    /// The buffer is *taken* out of `self` for the duration: action
    /// handling can reenter (`SendIpi` → kick vCPU → `place_vcpu` →
    /// `pause_cpu`), and each nested frame then takes a fresh default
    /// buffer — which costs nothing, since an empty `ActionBuf` never
    /// allocates.
    fn with_kernel<R>(&mut self, f: impl FnOnce(&mut Kernel, SimTime, &mut ActionBuf) -> R) -> R {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        let r = f(&mut self.kernel, self.now, &mut buf);
        self.apply_kernel_actions(&buf);
        buf.clear();
        self.scratch = buf;
        self.cp_fill_dirty = true;
        r
    }

    fn apply_kernel_actions(&mut self, acts: &ActionBuf) {
        for a in acts.iter() {
            match a {
                KernelAction::ArmWakeup { tid, at } => {
                    let mut at = at;
                    if let Some(f) = &self.fault {
                        if f.wakeup_dropped(NO_CPU) {
                            let d = f.degrade();
                            if d.wakeup_rearm {
                                // Slack-timer recovery: the wakeup
                                // lands late but it lands.
                                self.health.wakeup_rearms += 1;
                                self.trace(
                                    CpuId(NO_CPU),
                                    TraceKind::Degrade {
                                        action: "wakeup_rearm",
                                    },
                                );
                                at += d.wakeup_rearm_delay;
                            } else {
                                // Policy disabled: the thread sleeps
                                // forever. Recorded so the invariant
                                // checker catches the broken policy.
                                self.health.lost_wakeups.push(tid);
                                continue;
                            }
                        }
                    }
                    self.queue
                        .schedule(at.max(self.now), Event::KernelWake { tid });
                }
                KernelAction::ThreadFinished { tid } => self.on_thread_finished(tid),
                KernelAction::SendIpi { src, dst, vector } => self.route_ipi(src, dst, vector, 0),
                KernelAction::Rearm { cpu } => self.rearm_kernel(cpu),
            }
        }
    }

    /// Routes one IPI through the fabric-fault filter and then the
    /// unified orchestrator. `attempt` counts fabric redraws for this
    /// logical message: a drop is re-sent with exponential backoff (up
    /// to [`taichi_sim::DegradePolicy::max_ipi_retries`]), a delay
    /// redraws its fate at the deferred time, and an exhausted budget
    /// abandons the message (counted, and caught by the invariant
    /// checker when the bound is exceeded).
    fn route_ipi(&mut self, src: CpuId, dst: CpuId, vector: IrqVector, attempt: u32) {
        self.health.ipi_max_attempt = self.health.ipi_max_attempt.max(attempt);
        if let Some(f) = &self.fault {
            match f.ipi_fate(dst.0) {
                IpiFate::Drop => {
                    let d = f.degrade();
                    if d.ipi_resend && attempt < d.max_ipi_retries {
                        self.health.ipi_resends += 1;
                        self.trace(
                            dst,
                            TraceKind::Degrade {
                                action: "ipi_resend",
                            },
                        );
                        let backoff = SimDuration::from_nanos(
                            d.ipi_backoff.as_nanos().saturating_mul(1 << attempt),
                        );
                        self.queue.schedule(
                            self.now + backoff,
                            Event::IpiRetry {
                                src,
                                dst,
                                vector,
                                attempt: attempt + 1,
                            },
                        );
                    } else {
                        self.health.ipi_lost += 1;
                    }
                    return;
                }
                IpiFate::Delay(d) if attempt < f.degrade().max_ipi_retries => {
                    self.queue.schedule(
                        self.now + d,
                        Event::IpiRetry {
                            src,
                            dst,
                            vector,
                            attempt: attempt + 1,
                        },
                    );
                    return;
                }
                // Out of redraw budget: deliver in place.
                IpiFate::Delay(_) | IpiFate::Deliver => {}
            }
        }
        let msg = taichi_hw::IpiMessage { src, dst, vector };
        let vsched = &self.vsched;
        let decision = self
            .orchestrator
            .route(msg, |i| !vsched.vcpu(i).is_descheduled());
        let route = match &decision {
            RouteDecision::Direct => "direct",
            RouteDecision::Posted { .. } => "posted",
            RouteDecision::WakeAndInject { .. } => "wake",
        };
        self.trace(src, TraceKind::IpiRoute { dst: dst.0, route });
        if let RouteDecision::WakeAndInject { vcpu } = decision {
            self.try_kick_vcpu(vcpu);
        }
    }

    /// One CP task-storm burst: spawn `storm_tasks` control-plane
    /// programs (alternating monitoring and device management) built
    /// from the injector's forked RNG, then re-arm the next burst.
    fn on_fault_storm(&mut self) {
        let Some(f) = self.fault.clone() else {
            return;
        };
        let plan = f.plan();
        let mut rng = f.storm(NO_CPU);
        let factory = TaskFactory::default();
        for i in 0..plan.storm_tasks {
            let kind = if i % 2 == 0 {
                CpTaskKind::Monitoring
            } else {
                CpTaskKind::DeviceManagement
            };
            self.spawn_cp_now(factory.build(kind, &mut rng));
        }
        self.queue
            .schedule(self.now + plan.storm_period, Event::FaultStorm);
    }

    /// A descheduled vCPU received work: place it immediately if some
    /// DP core already crossed its yield threshold.
    fn try_kick_vcpu(&mut self, idx: usize) {
        if !self.vsched.vcpu(idx).is_descheduled() {
            return;
        }
        let vid = self.orchestrator.vcpu_cpu_id(idx);
        if !self.kernel.cpu_has_work(vid) {
            return;
        }
        let host = (0..self.services.len()).find_map(|si| {
            let c = self.dp_cpu_ids[si];
            if self.yield_armed[si]
                && self.vsched.host_free(c)
                && self.services[si].is_idle(self.now)
            {
                Some(c)
            } else {
                None
            }
        });
        if let Some(h) = host {
            self.place_vcpu(idx, h);
        }
    }

    fn on_thread_finished(&mut self, tid: ThreadId) {
        if let Some(&tr) = self.tid_to_tracker.get(&tid) {
            if self.trackers[tr].on_thread_finished(tid, self.now) {
                if let Some(d) = self.trackers[tr].startup_time() {
                    self.vm_startup_times.push(d);
                }
            }
        }
    }

    fn on_vm_create(&mut self, request: VmCreateRequest, programs: Vec<Program>) {
        let tids: Vec<ThreadId> = programs.into_iter().map(|p| self.spawn_cp_now(p)).collect();
        let tracker_idx = self.trackers.len();
        for &tid in &tids {
            self.tid_to_tracker.insert(tid, tracker_idx);
        }
        self.trackers.push(VmStartupTracker::new(request, tids));
    }

    // ---------------------------------------------------------------
    // Accessors for metrics and tests.
    // ---------------------------------------------------------------

    fn dp_index(&self, cpu: CpuId) -> Option<usize> {
        // Dense O(1) table — this runs several times per packet event.
        self.dp_index_map.get(cpu.index()).copied().flatten()
    }

    fn trace(&self, cpu: CpuId, kind: TraceKind) {
        if let Some(t) = &self.tracer {
            t.emit_at(self.now, cpu.0, kind);
        }
    }

    /// The scheduler tracer, when tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Renders the scheduler trace as TSV (`None` when tracing is
    /// disabled). See [`taichi_sim::trace`] for the format.
    pub fn trace_tsv(&self) -> Option<String> {
        self.tracer.as_ref().map(|t| t.to_tsv())
    }

    /// Arms a dump-on-panic guard: if the calling test fails while the
    /// guard is live, the trace TSV is written to the configured
    /// [`TraceConfig::dump`](taichi_sim::TraceConfig::dump) path.
    /// `None` when tracing is disabled.
    pub fn failure_dump(&self, label: &str) -> Option<FailureDump> {
        let dest = self.cfg.trace.dump.as_deref();
        self.tracer
            .as_ref()
            .map(|t| FailureDump::new(t, dest, label))
    }

    /// Writes the scheduler trace TSV and returns where it landed, or
    /// `None` when tracing is disabled or the write failed. The
    /// destination is the configured
    /// [`TraceConfig::dump`](taichi_sim::TraceConfig::dump) path,
    /// claimed per export so a later machine exporting to the same
    /// path lands at `<path>.<n>` instead of clobbering it; without
    /// one it is `default`, whose directory is created. A clash, a
    /// failed write, and ring evictions (a silently truncated trace
    /// reads as a complete schedule) are warned about on stderr.
    pub fn export_trace(&self, default: &Path) -> Option<PathBuf> {
        let tracer = self.tracer.as_ref()?;
        let path = match &self.cfg.trace.dump {
            Some(p) => {
                let (path, clash) = taichi_sim::trace::claim_export_path(p);
                if let Some(w) = clash {
                    eprintln!("warning: {w}");
                }
                path
            }
            None => {
                if let Some(dir) = default.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                default.to_path_buf()
            }
        };
        if let Err(e) = std::fs::write(&path, tracer.to_tsv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
            return None;
        }
        if let Some(w) = tracer.eviction_warning() {
            eprintln!("warning: {}: {w}", path.display());
        }
        Some(path)
    }

    /// The DP services (one per DP CPU).
    pub fn services(&self) -> &[DpService] {
        &self.services
    }

    /// The DP CPU IDs in service order.
    pub fn dp_cpu_ids(&self) -> &[CpuId] {
        &self.dp_cpu_ids
    }

    /// The kernel (thread stats, lock stats).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The vCPU scheduler (yields, placements, vCPU stats).
    pub fn vsched(&self) -> &VcpuScheduler {
        &self.vsched
    }

    /// The unified IPI orchestrator (routing counters).
    pub fn orchestrator(&self) -> &IpiOrchestrator {
        &self.orchestrator
    }

    /// The hardware workload probe (check/IRQ counters).
    pub fn hw_probe(&self) -> &HwWorkloadProbe {
        &self.hw_probe
    }

    /// The adaptive yield controller (the policy's view).
    pub fn yield_ctl(&self) -> &AdaptiveYield {
        self.policy.yield_view()
    }

    /// Completed VM startup times, in completion order.
    pub fn vm_startup_times(&self) -> &[SimDuration] {
        &self.vm_startup_times
    }

    /// DP utilization samples collected by
    /// [`Machine::enable_util_sampling`].
    pub fn util_samples(&self) -> &[f64] {
        &self.util_samples
    }

    /// Posted interrupts injected without a VM-exit.
    pub fn posted_interrupts(&self) -> u64 {
        self.orchestrator.posted_count()
    }

    /// Yields vetoed by the §9 pipeline-occupancy signal.
    pub fn yield_vetoes(&self) -> u64 {
        self.yield_vetoes
    }

    /// Logical events retired by [`Machine::run_until`] so far:
    /// dispatched handlers plus superseded timers the skip layer
    /// elided before dispatch. The sum is invariant across queue
    /// backends and skip modes (every elided timer would have been a
    /// stale-generation no-op), which is why the byte-identity
    /// fingerprints lead with this value.
    pub fn events_processed(&self) -> u64 {
        self.events_dispatched + self.events_skipped
    }

    /// Events physically dispatched to handlers — the wall-clock work
    /// the engine actually performed.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Superseded timers cancelled before dispatch by the skip layer
    /// (always zero under `SkipMode::Off`).
    pub fn events_skipped(&self) -> u64 {
        self.events_skipped
    }

    /// Empty-poll iterations elided in closed form by the Fig. 9
    /// fast-forward ledger, summed over the DP services at the current
    /// simulated time. A cycle-level simulator would have burned one
    /// event (or one loop iteration) per poll; the analytic ledger
    /// replaces them with O(1) arithmetic per idle gap.
    pub fn events_fast_forwarded(&self) -> u64 {
        let now = self.now;
        self.services
            .iter()
            .map(|s| s.fast_forwarded_polls(now))
            .sum()
    }

    /// The fault injector, when `MachineConfig::faults` is active.
    pub fn fault(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Degradation bookkeeping: every recovery the scheduler performed
    /// and every loss it conceded (see [`FaultHealth`]).
    pub fn fault_health(&self) -> FaultHealth {
        self.health.clone()
    }

    /// Current host of each vCPU (`None` when descheduled), indexed by
    /// vCPU pool index — the invariant checker cross-checks this
    /// against the occupancy map and the vCPU state machines.
    pub(crate) fn grant_hosts(&self) -> &[Option<CpuId>] {
        &self.grant_host
    }

    /// The accelerator (ingest/staging counters for the conservation
    /// audit and the per-tenant ingress statistics).
    pub fn accel(&self) -> &Accelerator {
        &self.accel
    }

    /// Packets ingested for a CPU with no DP service behind it (only
    /// possible in Type-2 runs, where emulation removes DP CPUs).
    pub(crate) fn unrouted_packets(&self) -> u64 {
        self.unrouted
    }

    /// Packets currently in flight through the accelerator pipeline
    /// (ingested, not yet delivered), summed over DP CPUs.
    pub fn dp_inflight_total(&self) -> u64 {
        self.dp_inflight.iter().map(|&n| n as u64).sum()
    }

    /// Number of tenants sharing the data path (1 unless multi-tenancy
    /// was configured).
    pub fn tenant_count(&self) -> usize {
        self.accel.tenant_count()
    }

    /// Drains every DP service's per-tenant latency records into one
    /// merged recorder per tenant, leaving the services empty — the
    /// per-tenant sibling of [`Machine::drain_dp_recorders`], with the
    /// same epoch-draining contract. Empty when single-tenant.
    pub fn drain_tenant_recorders(&mut self) -> Vec<taichi_dp::LatencyRecorder> {
        let mut merged = Vec::new();
        self.drain_tenant_recorders_into(&mut merged);
        merged
    }

    /// [`Machine::drain_tenant_recorders`] into a caller-owned vector
    /// (grown to the tenant count on first use, reused thereafter):
    /// the allocation-free epoch drain. Leaves `dest` untouched when
    /// single-tenant.
    pub fn drain_tenant_recorders_into(&mut self, dest: &mut Vec<taichi_dp::LatencyRecorder>) {
        if !self.accel.multi_tenant() {
            return;
        }
        let n = self.accel.tenant_count();
        if dest.len() < n {
            dest.resize_with(n, taichi_dp::LatencyRecorder::new);
        }
        for s in &mut self.services {
            s.drain_tenant_recorders_into(dest);
        }
    }

    /// Per-tenant SLO ledger: `(issued, issued_bytes, ring_losses,
    /// processed, queue_drops)` per tenant — ingress counters from the
    /// DRR arbiter joined with the DP services' completion/drop splits.
    /// Empty when single-tenant.
    pub fn tenant_totals(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        if !self.accel.multi_tenant() {
            return Vec::new();
        }
        let ingress = self.accel.tenant_ingress_stats();
        let mut totals: Vec<(u64, u64, u64, u64, u64)> = ingress
            .into_iter()
            .map(|(pkts, bytes, lost)| (pkts, bytes, lost, 0, 0))
            .collect();
        for s in &self.services {
            for (t, (processed, drops)) in s.tenant_counts().into_iter().enumerate() {
                if let Some(row) = totals.get_mut(t) {
                    row.3 += processed;
                    row.4 += drops;
                }
            }
        }
        totals
    }
}
