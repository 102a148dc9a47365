//! Fleet-scale rack simulation: many [`Machine`]s advanced in
//! conservative time epochs (ROADMAP item 1 — the paper's title says
//! *hyperscale clouds*, not "one SmartNIC").
//!
//! # Epoch model
//!
//! The rack advances in fixed-length epochs. Within an epoch every
//! machine is fully independent: it consumes only its own event queue,
//! its own RNG streams, and the east-west arrivals planned for it
//! *before* the epoch started. Cross-NIC traffic generated "during"
//! epoch `e` is delivered as rx injections in epoch `e + 1` under a
//! seeded network-latency model — a conservative (lookahead = one
//! epoch) synchronization, so no machine can observe another machine's
//! mid-epoch state. That independence is what lets the epoch-parallel
//! driver fan machines out across worker threads and still produce
//! **byte-identical** results for any worker count, either driver, and
//! both queue backends: the per-machine work is a pure function of
//! `(fleet seed, machine index, epoch plans)`, and everything the fold
//! exports is either accumulated in exact integer arithmetic
//! (commutative + associative, arrival order irrelevant) or folded on
//! the main thread in fixed epoch order.
//!
//! # Streaming aggregation and worker pooling
//!
//! Machines own no latency histograms between epochs. Each worker
//! (and the sequential driver) keeps one warm recorder set — one
//! [`ServiceRecorders`] per DP service — and lends it to each machine
//! for exactly one `run_until` ([`Machine::swap_dp_recorders`]). The
//! returned set is drained into the worker's delta and folded
//! immediately into one rack-level [`LatencyRecorder`] plus one
//! machine-utilization [`Histogram`], so histogram storage is
//! `O(workers × services)` regardless of fleet size. Per-epoch rack
//! throughput feeds two [`OnlineStats`] (pre- and post-storm), pushed
//! on the main thread in epoch order so the float accumulation is
//! deterministic too.
//!
//! Each epoch-parallel worker owns a *pool* of machines and reports
//! one batched `WorkerDelta` per epoch (not one message per
//! machine); the main thread drains the delta into the rack fold and
//! recycles its backing storage back to the worker inside the next
//! epoch command. Plans are never shipped at all — they are a pure
//! function of `(cfg, epoch, congested)`, so each worker recomputes
//! its own shard locally. Steady-state fleet epochs therefore perform
//! `O(machines)` work with channel traffic and allocations bounded by
//! the worker count, not the machine or event count.

use std::sync::mpsc;

use taichi_core::audit::check_invariants;
use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_cp::{TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, LatencyRecorder, ServiceRecorders, TrafficGen};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::report::Table;
use taichi_sim::{Dist, Histogram, OnlineStats, Rng, SimDuration, SimTime};

/// Salt for the east-west flow-plan RNG streams.
const EW_SALT: u64 = 0xEA57_F10C;
/// Salt for the churn-plan RNG stream.
const CHURN_SALT: u64 = 0xC4A2_1234;
/// Violation strings retained verbatim (the rest are counted).
const MAX_VIOLATIONS: usize = 8;

// The rack's traffic model.

/// Scheduling mode every machine runs in.
const MODE: Mode = Mode::TaiChi;
/// Base east-west flows each machine originates per epoch.
const EW_FLOWS_PER_MACHINE: u32 = 6;
/// Max packets per east-west flow (uniform in `1..=max`).
const EW_PACKETS_PER_FLOW: u32 = 4;
/// Payload size of east-west packets.
const EW_SIZE_BYTES: u32 = 512;
/// Minimum cross-NIC network latency.
const NET_BASE_LATENCY: SimDuration = SimDuration::from_micros(5);
/// Uniform cross-NIC latency jitter on top of the base.
const NET_JITTER: SimDuration = SimDuration::from_micros(20);
/// Diurnal period in epochs.
const DIURNAL_PERIOD: usize = 8;
/// Diurnal modulation amplitude in `[0, 1)`.
const DIURNAL_AMPLITUDE: f64 = 0.5;
/// Per-machine-per-epoch chance of a bursty epoch.
const BURST_PROB: f64 = 0.15;
/// East-west volume multiplier during a bursty epoch.
const BURST_FACTOR: f64 = 3.0;
/// Device density of churn/storm VM-create requests.
const VM_DENSITY: u32 = 2;

/// Fleet configuration: rack size, epoch schedule, churn, and the
/// startup storm. Every machine runs Tai Chi and the invariant checker
/// audits every machine at every epoch boundary.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Machines (SmartNICs) in the rack.
    pub machines: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Epoch length in simulated time.
    pub epoch_len: SimDuration,
    /// Fleet seed; machine `i` derives its own seed (and all its RNG
    /// streams) from this and `i` alone.
    pub seed: u64,
    /// Expected VM placements (creations) per epoch across the rack.
    pub churn_per_epoch: f64,
    /// Epoch at which a rack-wide VM startup storm fires (`None`
    /// disables it).
    pub storm_epoch: Option<usize>,
    /// VMs created on *every* machine at the storm epoch.
    pub storm_vms_per_machine: u32,
    /// Template every machine is built from; the fleet overrides only
    /// its `seed` (per machine, from [`FleetConfig::seed`]). Its
    /// `tenants` shape the fleet's traffic too: the default (one
    /// tenant) keeps the fleet on the pre-tenant code path byte for
    /// byte — no extra generators, no extra RNG draws, no tenant
    /// columns in any export. Every observable is byte-identical across
    /// the queue backends and skip modes the template can name — the
    /// `fleet_identity` matrix pins that.
    pub machine: MachineConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            machines: 16,
            epochs: 8,
            epoch_len: SimDuration::from_millis(2),
            seed: 0xF1EE7,
            churn_per_epoch: 1.0,
            storm_epoch: None,
            storm_vms_per_machine: 2,
            machine: MachineConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Start of epoch `e`.
    fn epoch_start(&self, e: usize) -> SimTime {
        SimTime::ZERO + self.epoch_len.saturating_mul(e as u64)
    }

    /// Builds machine `index` of the rack as the drivers do before its
    /// first epoch: the template with the machine's own seed, running
    /// Tai Chi, with the rack's local load on every DP CPU. A fleet
    /// machine is a pure function of this and the epoch plans it is
    /// fed.
    pub fn build_machine(&self, index: usize) -> Machine {
        let mcfg = MachineConfig {
            seed: self.machine_seed(index),
            ..self.machine.clone()
        };
        let mut machine = Machine::new(mcfg, MODE);
        // Baseline local (intra-NIC) load; east-west traffic rides on
        // top of this via `inject_rx_for_tenant`. In a multi-tenant
        // fleet each tenant originates its own share of the same
        // aggregate load (one generator — and one RNG stream — per
        // tenant); with one tenant the single pre-tenant generator is
        // reproduced exactly.
        let dp = machine.services().len() as u32;
        let tenants = self.machine.tenants.count.max(1);
        for t in 0..tenants {
            machine.add_traffic(
                TrafficGen::new(
                    ArrivalPattern::OnOff {
                        on_us: Dist::constant(200.0),
                        off_us: Dist::exponential(400.0),
                        burst_gap_us: Dist::exponential(2.5 * tenants as f64 / dp as f64),
                    },
                    Dist::constant(512.0),
                    IoKind::Network,
                    (0..dp).map(CpuId).collect(),
                )
                .with_tenant(TenantId(t)),
            );
        }
        machine
    }

    /// Per-machine seed: mixed so adjacent machines share no streams.
    fn machine_seed(&self, i: usize) -> u64 {
        let mut x = self
            .seed
            .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x
    }
}

/// How the fleet advances its machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetDriver {
    /// One thread, machines advanced in index order — the reference
    /// schedule the parallel driver must reproduce byte for byte.
    Sequential,
    /// Machines sharded across persistent worker threads (machine `i`
    /// lives on worker `i % workers`), synchronized at epoch
    /// boundaries.
    EpochParallel {
        /// Worker thread count (clamped to >= 1).
        workers: usize,
    },
}

// ---------------------------------------------------------------------
// Epoch plans (main thread, pure function of config + epoch + feedback).
// ---------------------------------------------------------------------

/// One cross-NIC packet to inject into a destination machine.
#[derive(Clone, Debug)]
struct InjectedArrival {
    at: SimTime,
    size: u32,
    dest_cpu: u32,
    /// Owning tenant (always 0 in a single-tenant fleet — no RNG draw
    /// happens for it, preserving the pre-tenant plan streams).
    tenant: u32,
}

/// Everything a machine must apply at an epoch boundary.
#[derive(Clone, Debug, Default)]
struct EpochPlan {
    flows: Vec<InjectedArrival>,
    vm_creates: u32,
}

/// Deterministic per-epoch load factor: diurnal sinusoid times the
/// machine's burst draw.
fn load_factor(epoch: usize, rng: &mut Rng) -> f64 {
    let phase = epoch as f64 / DIURNAL_PERIOD as f64;
    let diurnal = 1.0 + DIURNAL_AMPLITUDE * (std::f64::consts::TAU * phase).sin();
    let burst = if rng.chance(BURST_PROB) {
        BURST_FACTOR
    } else {
        1.0
    };
    diurnal * burst
}

/// Fills every machine's plan for `epoch` into `plans`, reusing the
/// vector's (and each plan's) backing storage across epochs.
/// `congested` is rack-level feedback from the previous epoch
/// (conservative: one epoch behind): when the rack dropped more than
/// 5% of its packets, every source backs off to 3/4 volume.
///
/// `shard = Some((w, workers))` keeps only the plans for machines
/// owned by worker `w` (`index % workers == w`), leaving the rest
/// empty. Every RNG draw still happens unconditionally — the streams
/// are consumed identically whether or not a destination is kept — so
/// the plan content for any machine is a pure function of
/// `(cfg, epoch, congested)` and each worker can recompute its own
/// shard locally instead of receiving it over a channel.
fn fill_plans(
    cfg: &FleetConfig,
    epoch: usize,
    congested: bool,
    plans: &mut Vec<EpochPlan>,
    shard: Option<(usize, usize)>,
) {
    let n = cfg.machines;
    plans.resize_with(n, EpochPlan::default);
    for p in plans.iter_mut() {
        p.flows.clear();
        p.vm_creates = 0;
    }
    let owned = |i: usize| match shard {
        Some((w, workers)) => i % workers == w,
        None => true,
    };
    let start = cfg.epoch_start(epoch);
    let epoch_ns = cfg.epoch_len.as_nanos();

    // East-west flows: source-major order, so the plan (and therefore
    // every destination's injection sequence) is independent of how
    // machines are sharded across workers.
    for src in 0..n {
        let mut rng = Rng::stream(
            cfg.seed ^ EW_SALT,
            (epoch as u64)
                .wrapping_mul(n as u64)
                .wrapping_add(src as u64),
        );
        let mut flows = (EW_FLOWS_PER_MACHINE as f64 * load_factor(epoch, &mut rng)).round() as u64;
        if congested {
            flows = flows * 3 / 4;
        }
        for _ in 0..flows {
            if n < 2 {
                break;
            }
            let dst = (src + 1 + rng.next_below(n as u64 - 1) as usize) % n;
            let packets = 1 + rng.next_below(EW_PACKETS_PER_FLOW as u64);
            // The whole flow belongs to one tenant; the draw is gated
            // so single-tenant plan streams stay byte-identical.
            let tenant = if cfg.machine.tenants.is_multi() {
                rng.next_below(cfg.machine.tenants.count as u64) as u32
            } else {
                0
            };
            // Flow arrivals spread uniformly over the delivery epoch,
            // each delayed by the network-latency draw. The draws are
            // unconditional; only the push is gated by ownership.
            for _ in 0..packets {
                let offset = rng.next_below(epoch_ns.max(1));
                let latency = NET_BASE_LATENCY
                    + SimDuration::from_nanos(rng.next_below(NET_JITTER.as_nanos()));
                let dest_cpu = rng.next_below(8) as u32;
                if owned(dst) {
                    plans[dst].flows.push(InjectedArrival {
                        at: start + SimDuration::from_nanos(offset) + latency,
                        size: EW_SIZE_BYTES,
                        dest_cpu,
                        tenant,
                    });
                }
            }
        }
    }

    // Placement churn: a seeded stream picks which machines gain a VM.
    let mut churn_rng = Rng::stream(cfg.seed ^ CHURN_SALT, epoch as u64);
    let mut creates = cfg.churn_per_epoch.floor() as u64;
    if churn_rng.chance(cfg.churn_per_epoch.fract()) {
        creates += 1;
    }
    for _ in 0..creates {
        let m = churn_rng.next_below(n as u64) as usize;
        if owned(m) {
            plans[m].vm_creates += 1;
        }
    }

    // Rack-wide startup storm (Fig. 17 at density): every machine
    // receives a burst of VM creations at the same epoch.
    if cfg.storm_epoch == Some(epoch) {
        for (i, p) in plans.iter_mut().enumerate() {
            if owned(i) {
                p.vm_creates += cfg.storm_vms_per_machine;
            }
        }
    }
}

/// Builds every machine's plan for `epoch` into a fresh vector — the
/// allocating convenience wrapper over [`fill_plans`].
#[cfg(test)]
fn make_plans(cfg: &FleetConfig, epoch: usize, congested: bool) -> Vec<EpochPlan> {
    let mut plans = Vec::new();
    fill_plans(cfg, epoch, congested, &mut plans, None);
    plans
}

// ---------------------------------------------------------------------
// Per-machine epoch execution (shared by both drivers).
// ---------------------------------------------------------------------

/// Per-epoch delta batched across every machine a worker owns. Plain
/// data (`Send`): the epoch-parallel driver ships exactly one of these
/// per worker per epoch (instead of one message per machine), and the
/// main thread sends it *back* inside the next [`EpochCmd`] so its
/// histogram buckets, tenant vector, and violation strings are reused
/// for the whole run. Everything in it is either exact integer
/// arithmetic or a capped sample of strings, so batching machines into
/// one delta cannot change any exported aggregate.
#[derive(Default)]
struct WorkerDelta {
    recorder: LatencyRecorder,
    /// Per-tenant latency deltas (empty in a single-tenant fleet).
    tenant_recorders: Vec<LatencyRecorder>,
    /// Per-machine utilization samples (permille), one per machine.
    util: Histogram,
    processed: u64,
    dropped: u64,
    events: u64,
    vm_creates: u64,
    injected: u64,
    /// First few violations verbatim (capped at [`MAX_VIOLATIONS`]).
    violations: Vec<String>,
    /// Total violations, including those over the cap.
    violation_count: u64,
    /// Max event-slab high-water mark across the worker's machines.
    slab_hwm: usize,
    /// Max rx/staging-ring high-water mark across the machines.
    ring_hwm: usize,
    /// Sum of `Machine::resident_bytes` across the worker's machines,
    /// sampled at the epoch boundary.
    resident_bytes: u64,
}

/// One machine plus the cumulative-counter snapshots that turn its
/// monotone counters into per-epoch deltas.
struct MachineSlot {
    index: usize,
    machine: Machine,
    factory: TaskFactory,
    vm_seq: u64,
    last_processed: u64,
    last_dropped: u64,
    last_events: u64,
}

impl MachineSlot {
    fn new(cfg: &FleetConfig, index: usize) -> Self {
        let machine = cfg.build_machine(index);
        MachineSlot {
            index,
            machine,
            factory: TaskFactory::default(),
            vm_seq: 0,
            last_processed: 0,
            last_dropped: 0,
            last_events: 0,
        }
    }

    /// Applies `plan`, advances to `end` with `loan` lent to the DP
    /// services, drains the epoch's stats into `out` (accumulating on
    /// top of whatever sibling machines already contributed this
    /// epoch). Steady state this allocates nothing: the loan's
    /// recorders drain in place and the counters are plain integer
    /// adds.
    fn run_epoch_into(
        &mut self,
        end: SimTime,
        plan: &EpochPlan,
        loan: &mut Vec<Option<Box<ServiceRecorders>>>,
        out: &mut WorkerDelta,
    ) {
        self.apply_plan(plan);
        // The machine records this epoch into the loan's empty, warm
        // recorders and holds none between epochs, so recorder storage
        // scales with workers, not machines. The drain merges services
        // in order, tenants within each service: the same merge order
        // into each destination as draining the machine's own
        // recorders, so even the order-sensitive `sum_sq` is
        // bit-identical.
        self.machine.swap_dp_recorders(loan);
        self.machine.run_until(end);
        self.machine.swap_dp_recorders(loan);
        for r in loan.iter_mut().flatten() {
            r.merged.drain_into(&mut out.recorder);
            if out.tenant_recorders.len() < r.tenants.len() {
                out.tenant_recorders
                    .resize_with(r.tenants.len(), LatencyRecorder::new);
            }
            for (rec, dest) in r.tenants.iter_mut().zip(out.tenant_recorders.iter_mut()) {
                rec.drain_into(dest);
            }
        }
        let (mut processed, mut dropped) = (0u64, 0u64);
        for s in self.machine.services() {
            processed += s.processed();
            dropped += s.dropped();
        }
        let events = self.machine.events_processed();
        let util: f64 = {
            let services = self.machine.services();
            let sum: f64 = services.iter().map(|s| s.utilization(end)).sum();
            sum / services.len().max(1) as f64
        };
        let report = check_invariants(&self.machine);
        out.violation_count += report.violations.len() as u64;
        for v in &report.violations {
            if out.violations.len() < MAX_VIOLATIONS {
                out.violations.push(format!("machine {}: {v}", self.index));
            }
        }
        out.processed += processed - self.last_processed;
        out.dropped += dropped - self.last_dropped;
        out.events += events - self.last_events;
        out.vm_creates += plan.vm_creates as u64;
        out.injected += plan.flows.len() as u64;
        out.util.record((util * 1000.0).round() as u64);
        self.last_processed = processed;
        self.last_dropped = dropped;
        self.last_events = events;

        let (slab, ring) = self.machine.memory_high_watermarks();
        out.slab_hwm = out.slab_hwm.max(slab);
        out.ring_hwm = out.ring_hwm.max(ring);
        out.resident_bytes += self.machine.resident_bytes() as u64;
    }

    /// Injects the plan's east-west arrivals and schedules its VM
    /// creations.
    fn apply_plan(&mut self, plan: &EpochPlan) {
        let now = self.machine.now();
        let dp = self.machine.services().len() as u64;
        for f in &plan.flows {
            self.machine.inject_rx_for_tenant(
                f.at,
                IoKind::Network,
                f.size,
                CpuId(f.dest_cpu % dp.max(1) as u32),
                TenantId(f.tenant),
            );
        }
        for _ in 0..plan.vm_creates {
            let vm_id = ((self.index as u64) << 32) | self.vm_seq;
            self.vm_seq += 1;
            self.machine.schedule_vm_create(
                VmCreateRequest::at_density(vm_id, VM_DENSITY, now),
                &self.factory,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rack-level streaming fold.
// ---------------------------------------------------------------------

/// One epoch's rack-level aggregate row.
#[derive(Clone, Debug)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: usize,
    /// Packets completed across the rack this epoch.
    pub packets: u64,
    /// Packets dropped at rx rings this epoch.
    pub dropped: u64,
    /// Logical events processed this epoch.
    pub events: u64,
    /// East-west packets injected this epoch.
    pub injected: u64,
    /// VM creations issued this epoch.
    pub vm_creates: u64,
    /// p50 end-to-end latency of this epoch's completions (ns).
    pub p50_ns: u64,
    /// p99 end-to-end latency of this epoch's completions (ns).
    pub p99_ns: u64,
}

/// Streaming rack aggregate: everything is folded as deltas arrive
/// (exact integer arithmetic, so arrival order is irrelevant) or
/// pushed on the main thread in epoch order (the [`OnlineStats`]).
struct RackAccum {
    rack: LatencyRecorder,
    /// Per-tenant rack aggregates (empty in a single-tenant fleet).
    /// Integer-exact merges, so fold order is irrelevant — same
    /// worker-count-invariance argument as the merged recorder.
    tenant_rack: Vec<LatencyRecorder>,
    util_hist: Histogram,
    rows: Vec<EpochRow>,
    pre_storm: OnlineStats,
    post_storm: OnlineStats,
    violations: Vec<String>,
    violation_count: u64,
    slab_hwm: usize,
    ring_hwm: usize,
    // Current-epoch scratch (reset per epoch).
    epoch_rec: LatencyRecorder,
    epoch_processed: u64,
    epoch_dropped: u64,
    epoch_events: u64,
    epoch_injected: u64,
    epoch_vm_creates: u64,
    epoch_resident: u64,
    resident_bytes: u64,
}

impl RackAccum {
    fn new() -> Self {
        RackAccum {
            rack: LatencyRecorder::new(),
            tenant_rack: Vec::new(),
            util_hist: Histogram::new(),
            rows: Vec::new(),
            pre_storm: OnlineStats::new(),
            post_storm: OnlineStats::new(),
            violations: Vec::new(),
            violation_count: 0,
            slab_hwm: 0,
            ring_hwm: 0,
            epoch_rec: LatencyRecorder::new(),
            epoch_processed: 0,
            epoch_dropped: 0,
            epoch_events: 0,
            epoch_injected: 0,
            epoch_vm_creates: 0,
            epoch_resident: 0,
            resident_bytes: 0,
        }
    }

    /// Folds one worker's batched epoch delta and fully resets it, so
    /// the caller can recycle the delta (its histogram buckets, tenant
    /// vector, and string storage) into the next epoch. The only
    /// histograms alive are the rack aggregates, the current-epoch
    /// scratch, and one in-flight delta per worker.
    fn fold_worker(&mut self, d: &mut WorkerDelta) {
        d.recorder.drain_into(&mut self.epoch_rec);
        if self.tenant_rack.len() < d.tenant_recorders.len() {
            self.tenant_rack
                .resize_with(d.tenant_recorders.len(), LatencyRecorder::new);
        }
        for (agg, rec) in self
            .tenant_rack
            .iter_mut()
            .zip(d.tenant_recorders.iter_mut())
        {
            rec.drain_into(agg);
        }
        self.epoch_processed += d.processed;
        self.epoch_dropped += d.dropped;
        self.epoch_events += d.events;
        self.epoch_injected += d.injected;
        self.epoch_vm_creates += d.vm_creates;
        self.util_hist.merge(&d.util);
        self.violation_count += d.violation_count;
        for v in d.violations.drain(..) {
            if self.violations.len() < MAX_VIOLATIONS {
                self.violations.push(v);
            }
        }
        self.slab_hwm = self.slab_hwm.max(d.slab_hwm);
        self.ring_hwm = self.ring_hwm.max(d.ring_hwm);
        self.epoch_resident += d.resident_bytes;
        d.util.reset();
        d.processed = 0;
        d.dropped = 0;
        d.events = 0;
        d.injected = 0;
        d.vm_creates = 0;
        d.violation_count = 0;
        d.slab_hwm = 0;
        d.ring_hwm = 0;
        d.resident_bytes = 0;
    }

    /// Closes the current epoch: emits its row, folds its latency
    /// records into the rack aggregate, resets the scratch.
    fn close_epoch(&mut self, cfg: &FleetConfig, epoch: usize) {
        let row = EpochRow {
            epoch,
            packets: self.epoch_processed,
            dropped: self.epoch_dropped,
            events: self.epoch_events,
            injected: self.epoch_injected,
            vm_creates: self.epoch_vm_creates,
            p50_ns: self.epoch_rec.total_latency().percentile(50.0),
            p99_ns: self.epoch_rec.total_latency().percentile(99.0),
        };
        // Main-thread epoch-order pushes: deterministic float folds.
        match cfg.storm_epoch {
            Some(s) if epoch >= s => self.post_storm.push(row.packets as f64),
            _ => self.pre_storm.push(row.packets as f64),
        }
        self.rack.merge(&self.epoch_rec);
        self.epoch_rec.reset();
        self.epoch_processed = 0;
        self.epoch_dropped = 0;
        self.epoch_events = 0;
        self.epoch_injected = 0;
        self.epoch_vm_creates = 0;
        // The run-level figure is the *latest* epoch-boundary sample:
        // resident memory after the final epoch.
        self.resident_bytes = self.epoch_resident;
        self.epoch_resident = 0;
        self.rows.push(row);
    }

    /// True when the just-closed epoch saw rack-level congestion
    /// (> 5% of completed packets' worth of drops).
    fn congested(&self) -> bool {
        match self.rows.last() {
            Some(r) => r.dropped * 20 > r.packets,
            None => false,
        }
    }
}

/// Rack-level results of a fleet run.
#[derive(Debug)]
pub struct FleetResult {
    /// Config snapshot the run used.
    pub machines: usize,
    /// Epoch length the run used.
    pub epoch_len: SimDuration,
    /// Storm epoch (when one fired).
    pub storm_epoch: Option<usize>,
    /// Per-epoch rack rows.
    pub epochs: Vec<EpochRow>,
    /// Rack-wide latency aggregate (every completion of the run).
    pub rack: LatencyRecorder,
    /// Per-tenant rack-wide latency aggregates (empty unless the fleet
    /// ran multi-tenant machines).
    pub tenant_rack: Vec<LatencyRecorder>,
    /// Distribution of per-machine-per-epoch utilization (permille).
    pub util_permille: Histogram,
    /// Per-epoch rack throughput stats before the storm epoch.
    pub pre_storm: OnlineStats,
    /// Per-epoch rack throughput stats at/after the storm epoch.
    pub post_storm: OnlineStats,
    /// Epochs from the storm until rack throughput recovered to 90% of
    /// the pre-storm mean (`None`: no storm, or never recovered).
    pub recovery_epochs: Option<u64>,
    /// First few invariant violations verbatim (see
    /// [`FleetResult::violation_count`] for the total).
    pub violations: Vec<String>,
    /// Total invariant violations across all machines and epochs.
    pub violation_count: u64,
    /// Max event-slab high-water mark (slots) across every machine.
    /// Diagnostic only: the slab fill differs between queue backends
    /// (the wheel frees a cancelled slot at once, the heap only when
    /// the entry surfaces), so this must never enter
    /// [`FleetResult::fingerprint`] or any identity-compared table.
    pub slab_high_watermark: usize,
    /// Max rx/staging-ring high-water mark (packets) across every
    /// machine. Diagnostic only, like the slab mark.
    pub ring_high_watermark: usize,
    /// Sum of the heap bytes each machine holds
    /// (`Machine::resident_bytes`) sampled at the final epoch boundary.
    /// Diagnostic only: depends on the backend.
    pub resident_bytes: u64,
}

impl FleetResult {
    /// Storm recovery: first epoch after the storm whose rack
    /// throughput is at least 90% of the pre-storm per-epoch mean
    /// (integer comparison — deterministic).
    fn compute_recovery(rows: &[EpochRow], storm: Option<usize>) -> Option<u64> {
        let s = storm?;
        let pre: Vec<u64> = rows.iter().take(s).map(|r| r.packets).collect();
        if pre.is_empty() {
            return None;
        }
        let baseline = pre.iter().sum::<u64>() / pre.len() as u64;
        rows.iter()
            .filter(|r| r.epoch > s && r.packets * 10 >= baseline * 9)
            .map(|r| (r.epoch - s) as u64)
            .next()
    }

    /// Deterministic fingerprint of everything the run exports; byte
    /// equality of two fingerprints plus the CSVs is the fleet
    /// identity contract. Float-valued entries are folded in exact
    /// epoch order and compared bit-for-bit.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.machines as u64,
            self.epochs.len() as u64,
            self.epochs.iter().map(|r| r.packets).sum::<u64>(),
            self.epochs.iter().map(|r| r.dropped).sum::<u64>(),
            self.epochs.iter().map(|r| r.events).sum::<u64>(),
            self.epochs.iter().map(|r| r.injected).sum::<u64>(),
            self.epochs.iter().map(|r| r.vm_creates).sum::<u64>(),
            self.rack.packets(),
            self.rack.bytes(),
            self.rack.total_latency().percentile(50.0),
            self.rack.total_latency().percentile(99.0),
            self.rack.total_latency().percentile(99.9),
            self.rack.total_latency().min(),
            self.rack.total_latency().max(),
            self.rack.total_latency().mean().to_bits(),
            self.util_permille.percentile(50.0),
            self.util_permille.max(),
            self.pre_storm.mean().to_bits(),
            self.post_storm.mean().to_bits(),
            self.recovery_epochs.map(|e| e + 1).unwrap_or(0),
            self.violation_count,
        ];
        for r in &self.epochs {
            fp.push(r.packets ^ (r.events << 1) ^ (r.p99_ns << 2));
        }
        // Tenant entries exist only for multi-tenant fleets, so the
        // single-tenant fingerprint is unchanged from the pre-tenant
        // contract.
        for rec in &self.tenant_rack {
            fp.push(rec.packets());
            fp.push(rec.total_latency().percentile(99.0));
        }
        fp
    }

    /// Per-epoch rack table (one row per epoch) — the rack CSV.
    pub fn epoch_table(&self) -> Table {
        let mut t = Table::new(
            "fleet rack per-epoch aggregates",
            &[
                "epoch",
                "packets",
                "pps",
                "dropped",
                "events",
                "ew_injected",
                "vm_creates",
                "p50 (ns)",
                "p99 (ns)",
            ],
        );
        let secs = self.epoch_len.as_secs_f64();
        for r in &self.epochs {
            t.row(&[
                r.epoch.to_string(),
                r.packets.to_string(),
                format!("{:.1}", r.packets as f64 / secs),
                r.dropped.to_string(),
                r.events.to_string(),
                r.injected.to_string(),
                r.vm_creates.to_string(),
                r.p50_ns.to_string(),
                r.p99_ns.to_string(),
            ]);
        }
        t
    }

    /// Header of the identity-compared summary row.
    const SUMMARY_HEADER: [&'static str; 12] = [
        "machines",
        "epochs",
        "packets",
        "p50 (ns)",
        "p99 (ns)",
        "p999 (ns)",
        "max (ns)",
        "mean (ns)",
        "util p50 (pm)",
        "storm epoch",
        "recovery (epochs)",
        "violations",
    ];

    fn summary_cells(&self) -> Vec<String> {
        let lat = self.rack.total_latency();
        vec![
            self.machines.to_string(),
            self.epochs.len().to_string(),
            self.rack.packets().to_string(),
            lat.percentile(50.0).to_string(),
            lat.percentile(99.0).to_string(),
            lat.percentile(99.9).to_string(),
            lat.max().to_string(),
            format!("{:.1}", lat.mean()),
            self.util_permille.percentile(50.0).to_string(),
            self.storm_epoch
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            self.recovery_epochs
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".into()),
            self.violation_count.to_string(),
        ]
    }

    /// Whole-run rack summary table (a single row). Every column here
    /// is part of the identity contract (byte-identical across
    /// backends, skip modes, drivers, and worker counts) —
    /// memory diagnostics live in
    /// [`FleetResult::summary_table_with_mem`] instead.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new("fleet rack summary", &Self::SUMMARY_HEADER);
        t.row(&self.summary_cells());
        t
    }

    /// The summary row extended with memory diagnostics: slab/ring
    /// high-water marks, resident bytes per machine, and (when the
    /// caller measured one) the process peak RSS. These extra columns
    /// are *not* identity-compared — slab fill and resident bytes
    /// differ between queue backends, and RSS between runs — so
    /// nothing here may feed
    /// [`FleetResult::fingerprint`].
    pub fn summary_table_with_mem(&self, peak_rss_kb: Option<u64>) -> Table {
        let mut header: Vec<&str> = Self::SUMMARY_HEADER.to_vec();
        header.extend([
            "slab hwm (slots)",
            "ring hwm (pkts)",
            "resident/machine (B)",
            "peak rss (kB)",
            "rss/machine (kB)",
        ]);
        let mut cells = self.summary_cells();
        let machines = self.machines.max(1) as u64;
        cells.push(self.slab_high_watermark.to_string());
        cells.push(self.ring_high_watermark.to_string());
        cells.push((self.resident_bytes / machines).to_string());
        cells.push(
            peak_rss_kb
                .map(|kb| kb.to_string())
                .unwrap_or_else(|| "-".into()),
        );
        cells.push(
            peak_rss_kb
                .map(|kb| (kb / machines).to_string())
                .unwrap_or_else(|| "-".into()),
        );
        let mut t = Table::new("fleet rack summary", &header);
        t.row(&cells);
        t
    }
}

// ---------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------

/// Runs the fleet to completion under `driver`.
pub fn run(cfg: &FleetConfig, driver: FleetDriver) -> FleetResult {
    match driver {
        FleetDriver::Sequential => run_sequential(cfg),
        FleetDriver::EpochParallel { workers } => run_epoch_parallel(cfg, workers.max(1)),
    }
}

fn finish(cfg: &FleetConfig, acc: RackAccum) -> FleetResult {
    let recovery = FleetResult::compute_recovery(&acc.rows, cfg.storm_epoch);
    FleetResult {
        machines: cfg.machines,
        epoch_len: cfg.epoch_len,
        storm_epoch: cfg.storm_epoch,
        epochs: acc.rows,
        rack: acc.rack,
        tenant_rack: acc.tenant_rack,
        util_permille: acc.util_hist,
        pre_storm: acc.pre_storm,
        post_storm: acc.post_storm,
        recovery_epochs: recovery,
        violations: acc.violations,
        violation_count: acc.violation_count,
        slab_high_watermark: acc.slab_hwm,
        ring_high_watermark: acc.ring_hwm,
        resident_bytes: acc.resident_bytes,
    }
}

fn run_sequential(cfg: &FleetConfig) -> FleetResult {
    let mut slots: Vec<MachineSlot> = (0..cfg.machines)
        .map(|i| MachineSlot::new(cfg, i))
        .collect();
    let mut acc = RackAccum::new();
    let mut plans: Vec<EpochPlan> = Vec::new();
    let mut loan: Vec<Option<Box<ServiceRecorders>>> = Vec::new();
    let mut scratch = WorkerDelta::default();
    for e in 0..cfg.epochs {
        fill_plans(cfg, e, acc.congested(), &mut plans, None);
        let end = cfg.epoch_start(e + 1);
        for slot in &mut slots {
            slot.run_epoch_into(end, &plans[slot.index], &mut loan, &mut scratch);
        }
        acc.fold_worker(&mut scratch);
        acc.close_epoch(cfg, e);
    }
    finish(cfg, acc)
}

/// Per-epoch command sent to a worker. Plans are *not* shipped: they
/// are a pure function of `(cfg, epoch, congested)` and each worker
/// recomputes its own shard locally ([`fill_plans`]). `recycle`
/// returns the worker's previous delta — drained by the fold — so its
/// backing storage is reused for the whole run.
struct EpochCmd {
    epoch: usize,
    end: SimTime,
    congested: bool,
    recycle: Option<WorkerDelta>,
}

fn run_epoch_parallel(cfg: &FleetConfig, workers: usize) -> FleetResult {
    let workers = workers.min(cfg.machines.max(1));
    let mut acc = RackAccum::new();
    std::thread::scope(|scope| {
        let (delta_tx, delta_rx) = mpsc::channel::<WorkerDelta>();
        let mut cmd_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (cmd_tx, cmd_rx) = mpsc::channel::<EpochCmd>();
            cmd_txs.push(cmd_tx);
            let delta_tx = delta_tx.clone();
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || {
                // Machines are built *inside* the worker and stay there
                // (machine affinity; DESIGN.md §3.9 measured per-epoch
                // threads at a higher peak RSS); worker `w` owns every
                // index congruent to `w` mod `workers` and advances them
                // in ascending order each epoch. The plan buffer, the
                // recorder loan and the recycled delta live for the
                // whole run, so a steady-state epoch performs
                // O(machines) work with no per-event allocation.
                let mut slots: Vec<MachineSlot> = (w..cfg.machines)
                    .step_by(workers)
                    .map(|i| MachineSlot::new(&cfg, i))
                    .collect();
                let mut plans: Vec<EpochPlan> = Vec::new();
                let mut loan: Vec<Option<Box<ServiceRecorders>>> = Vec::new();
                while let Ok(cmd) = cmd_rx.recv() {
                    let mut delta = cmd.recycle.unwrap_or_default();
                    fill_plans(
                        &cfg,
                        cmd.epoch,
                        cmd.congested,
                        &mut plans,
                        Some((w, workers)),
                    );
                    for slot in &mut slots {
                        slot.run_epoch_into(cmd.end, &plans[slot.index], &mut loan, &mut delta);
                    }
                    if delta_tx.send(delta).is_err() {
                        return;
                    }
                }
            }));
        }
        drop(delta_tx);
        // Drained deltas waiting to ride back out on the next command.
        let mut recycled: Vec<WorkerDelta> = Vec::new();
        for e in 0..cfg.epochs {
            let congested = acc.congested();
            let end = cfg.epoch_start(e + 1);
            for tx in &cmd_txs {
                tx.send(EpochCmd {
                    epoch: e,
                    end,
                    congested,
                    recycle: recycled.pop(),
                })
                .expect("worker alive while commands pending");
            }
            // Fold worker deltas as they arrive: every exported
            // aggregate is integer-exact (order-free), so arrival
            // order is irrelevant — one message per worker per epoch.
            for _ in 0..workers {
                let mut delta = delta_rx.recv().expect("every worker reports each epoch");
                acc.fold_worker(&mut delta);
                recycled.push(delta);
            }
            acc.close_epoch(cfg, e);
        }
        drop(cmd_txs); // workers exit on channel close

        // `scope` alone returns once the closures end, before the
        // threads have exited and handed their malloc arenas back; the
        // next rack's workers would then open fresh arenas while the
        // old ones keep their pages. Joining waits for the exit, so
        // each rack reuses the arenas of the one before (DESIGN.md
        // §3.9).
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    finish(cfg, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taichi_core::TenantConfig;

    fn tiny() -> FleetConfig {
        FleetConfig {
            machines: 4,
            epochs: 3,
            epoch_len: SimDuration::from_micros(500),
            storm_epoch: Some(1),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn plans_are_reproducible_and_shard_independent() {
        let cfg = tiny();
        let a = make_plans(&cfg, 2, false);
        let b = make_plans(&cfg, 2, false);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.flows.len(), y.flows.len());
            assert_eq!(x.vm_creates, y.vm_creates);
            for (f, g) in x.flows.iter().zip(&y.flows) {
                assert_eq!(f.at, g.at);
                assert_eq!(f.dest_cpu, g.dest_cpu);
            }
        }
        // Congestion feedback reduces (or keeps) volume.
        let c = make_plans(&cfg, 2, true);
        let total = |ps: &[EpochPlan]| ps.iter().map(|p| p.flows.len()).sum::<usize>();
        assert!(total(&c) <= total(&a));
    }

    #[test]
    fn sharded_fill_plans_partition_the_full_plan() {
        let cfg = FleetConfig {
            churn_per_epoch: 3.0,
            ..tiny()
        };
        // Storm epoch 1 exercises the vm_create path too.
        for epoch in [0, 1, 2] {
            let full = make_plans(&cfg, epoch, false);
            for workers in [1, 2, 3] {
                let mut shard = Vec::new();
                for w in 0..workers {
                    fill_plans(&cfg, epoch, false, &mut shard, Some((w, workers)));
                    for (i, (got, want)) in shard.iter().zip(&full).enumerate() {
                        if i % workers == w {
                            assert_eq!(got.vm_creates, want.vm_creates);
                            assert_eq!(got.flows.len(), want.flows.len());
                            for (f, g) in got.flows.iter().zip(&want.flows) {
                                assert_eq!(f.at, g.at);
                                assert_eq!(f.size, g.size);
                                assert_eq!(f.dest_cpu, g.dest_cpu);
                                assert_eq!(f.tenant, g.tenant);
                            }
                        } else {
                            assert!(got.flows.is_empty(), "unowned machine {i} got flows");
                            assert_eq!(got.vm_creates, 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn storm_epoch_plans_a_creation_burst_everywhere() {
        let cfg = tiny();
        let storm = make_plans(&cfg, 1, false);
        for p in &storm {
            assert!(p.vm_creates >= cfg.storm_vms_per_machine);
        }
    }

    #[test]
    fn sequential_run_produces_rows_and_aggregates() {
        let cfg = tiny();
        let r = run(&cfg, FleetDriver::Sequential);
        assert_eq!(r.epochs.len(), 3);
        assert!(r.rack.packets() > 0, "rack must complete packets");
        assert_eq!(
            r.rack.packets(),
            r.epochs.iter().map(|e| e.packets).sum::<u64>(),
            "rack aggregate must equal the per-epoch fold"
        );
        assert_eq!(r.violation_count, 0, "{:?}", r.violations);
        assert_eq!(r.util_permille.count(), (cfg.machines * cfg.epochs) as u64);
        // CSV renders.
        assert!(r.epoch_table().to_csv().lines().count() > 3);
        assert!(r.summary_table().to_csv().lines().count() == 2);
    }

    fn two_tenants(mut cfg: FleetConfig) -> FleetConfig {
        cfg.machine.tenants = TenantConfig {
            count: 2,
            weights: vec![3, 1],
            ..TenantConfig::default()
        };
        cfg
    }

    /// Everything a drained recorder exports, floats by bit pattern.
    fn recorder_summary(r: &LatencyRecorder) -> Vec<u64> {
        let mut v = vec![r.packets(), r.bytes()];
        for h in [r.total_latency(), r.software_latency()] {
            v.extend([
                h.count(),
                h.mean().to_bits(),
                h.min(),
                h.max(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.stddev().to_bits(),
            ]);
        }
        v
    }

    /// Histogram bytes the machine's own DP recorders hold.
    fn machine_recorder_bytes(m: &Machine) -> usize {
        m.services()
            .iter()
            .map(|s| {
                s.recorder().resident_bytes()
                    + s.tagged_recorder().resident_bytes()
                    + s.tenant_recorders()
                        .iter()
                        .map(LatencyRecorder::resident_bytes)
                        .sum::<usize>()
            })
            .sum()
    }

    #[test]
    fn recorder_loan_matches_in_place_drains() {
        for cfg in [tiny(), two_tenants(tiny())] {
            let mut lent: Vec<MachineSlot> = (0..cfg.machines)
                .map(|i| MachineSlot::new(&cfg, i))
                .collect();
            let mut owned: Vec<MachineSlot> = (0..cfg.machines)
                .map(|i| MachineSlot::new(&cfg, i))
                .collect();
            // One loan shared by every machine, as on a worker.
            let mut loan = Vec::new();
            let mut packets = vec![0u64; cfg.machine.tenants.count.max(1) as usize];
            for e in 0..cfg.epochs {
                let plans = make_plans(&cfg, e, false);
                let end = cfg.epoch_start(e + 1);
                for (a, b) in lent.iter_mut().zip(owned.iter_mut()) {
                    let mut out = WorkerDelta::default();
                    a.run_epoch_into(end, &plans[a.index], &mut loan, &mut out);
                    b.apply_plan(&plans[b.index]);
                    b.machine.run_until(end);
                    let merged = b.machine.drain_dp_recorders();
                    let tenants = b.machine.drain_tenant_recorders();
                    let at = format!("machine {} epoch {e}", a.index);
                    assert_eq!(
                        recorder_summary(&out.recorder),
                        recorder_summary(&merged),
                        "{at}"
                    );
                    assert_eq!(out.tenant_recorders.len(), tenants.len(), "{at}");
                    for (t, (x, y)) in out.tenant_recorders.iter().zip(&tenants).enumerate() {
                        assert_eq!(recorder_summary(x), recorder_summary(y), "{at} tenant {t}");
                        packets[t] += x.packets();
                    }
                    if tenants.is_empty() {
                        packets[0] += merged.packets();
                    }
                }
            }
            assert!(
                packets.iter().all(|&p| p > 0),
                "every tenant must complete packets: {packets:?}"
            );
        }
    }

    #[test]
    fn fleet_machines_hold_no_recorder_bytes_between_epochs() {
        for cfg in [tiny(), two_tenants(tiny())] {
            let mut slots: Vec<MachineSlot> = (0..cfg.machines)
                .map(|i| MachineSlot::new(&cfg, i))
                .collect();
            let mut loan = Vec::new();
            let mut out = WorkerDelta::default();
            for e in 0..cfg.epochs {
                let plans = make_plans(&cfg, e, false);
                let end = cfg.epoch_start(e + 1);
                for slot in &mut slots {
                    slot.run_epoch_into(end, &plans[slot.index], &mut loan, &mut out);
                    assert_eq!(
                        machine_recorder_bytes(&slot.machine),
                        0,
                        "machine {} kept recorder storage after epoch {e}",
                        slot.index
                    );
                }
                // The histogram storage lives in the one loan instead.
                let lent: usize = loan.iter().flatten().map(|r| r.resident_bytes()).sum();
                assert!(lent > 0, "the loan recorded nothing in epoch {e}");
            }
        }
    }

    #[test]
    fn multi_tenant_fleet_aggregates_per_tenant_and_stays_conserved() {
        let cfg = two_tenants(FleetConfig {
            storm_epoch: None,
            ..tiny()
        });
        let r = run(&cfg, FleetDriver::Sequential);
        assert_eq!(r.violation_count, 0, "{:?}", r.violations);
        assert_eq!(r.tenant_rack.len(), 2);
        let per_tenant: u64 = r.tenant_rack.iter().map(|t| t.packets()).sum();
        assert_eq!(
            per_tenant,
            r.rack.packets(),
            "tenant recorders must partition the rack aggregate"
        );
        assert!(per_tenant > 0, "both tenants must complete packets");
        // Worker-count invariance holds for tenant aggregates too.
        let p = run(&cfg, FleetDriver::EpochParallel { workers: 3 });
        assert_eq!(p.fingerprint(), r.fingerprint());
        // Single-tenant fleets export no tenant entries at all.
        let single = run(&tiny(), FleetDriver::Sequential);
        assert!(single.tenant_rack.is_empty());
    }
}
