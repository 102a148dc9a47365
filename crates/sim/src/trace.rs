//! Deterministic, bounded scheduler trace layer.
//!
//! Root-causing a scheduling bug in a discrete-event simulation needs
//! the *sequence* of decisions, not just end-of-run counters. This
//! module provides a zero-dependency trace facility:
//!
//! - [`Tracer`] is a plain owned value. The machine holds the only
//!   one (`Option<Tracer>`, so the disabled path is a single branch)
//!   and emits every event itself: components report what happened
//!   and never see the tracer.
//! - Events go into a **bounded ring** ([`TraceConfig::capacity`]):
//!   memory never grows with run length; the oldest events are dropped
//!   and counted ([`Tracer::dropped`]).
//! - Every emit also bumps a per-kind counter in a `BTreeMap`, so
//!   counter export order is deterministic.
//! - [`Tracer::to_tsv`] renders a stable, byte-identical-for-identical-
//!   seeds TSV (events in emission order, then counters) — the
//!   determinism tests fingerprint it.
//! - The query API ([`Tracer::matching`], [`Tracer::causal_pairs`])
//!   lets tests assert *causal* scheduler invariants ("every hw-probe
//!   VM-exit was preceded by a probe IRQ on that CPU") instead of
//!   aggregate ones.
//!
//! Event ordering is by emission sequence number. Timestamps are the
//! emitter's best-known simulation time and are *not* guaranteed to be
//! globally monotone: the kernel stamps intra-call times (e.g. a
//! dispatch at `now + context_switch`) that can run slightly ahead of
//! the machine clock. Causality queries therefore use `seq`, never
//! `at`.
//!
//! # Dump-on-failure
//!
//! Set [`TraceConfig::dump`]: a traced machine dropped while its
//! thread panics (a failing test) writes its trace TSV there, claimed
//! through [`claim_export_path`], so the failing schedule can be
//! inspected. (The experiment binaries and the paper-claim tests fill
//! `dump` from `TAICHI_TRACE=<path>`; this crate never reads the
//! environment.)

use crate::time::SimTime;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// CPU column value for events not attributable to a single CPU.
pub const NO_CPU: u32 = u32::MAX;

/// Trace knobs (carried by the machine configuration).
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Master switch. Off by default: no tracer is constructed and
    /// every hook is a `None` check.
    pub enabled: bool,
    /// Ring capacity in events. Oldest events are evicted (and
    /// counted) beyond this.
    pub capacity: usize,
    /// Where to write the trace TSV when a run exports it or a traced
    /// machine is dropped while its thread panics. `None` keeps each
    /// exporter's default destination, and disarms failure dumps.
    pub dump: Option<std::path::PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 65_536,
            dump: None,
        }
    }
}

/// What happened. Payloads are small `Copy` data; string payloads are
/// `&'static str` names so events stay `Copy` and allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// The vCPU scheduler granted `vcpu` the CPU (DP→CP yield or
    /// CP-pCPU fallback placement).
    YieldGrant {
        /// Index of the granted vCPU.
        vcpu: u32,
    },
    /// A yield was vetoed by the pipeline-occupancy signal (§9).
    YieldVeto {
        /// Packets in flight through the accelerator for this CPU.
        inflight: u32,
    },
    /// A DP core crossed its idle threshold but no vCPU was runnable.
    YieldNoRunnable,
    /// VM-enter completed; `vcpu` is now in guest mode.
    VmEnter {
        /// Index of the entered vCPU.
        vcpu: u32,
    },
    /// VM-exit began for `vcpu` with the *raw* hardware exit reason
    /// (the controllers may reinterpret a slice expiry as a probe hit;
    /// the trace records what the hardware saw).
    VmExit {
        /// Index of the exiting vCPU.
        vcpu: u32,
        /// Exit reason name (e.g. `"hw_probe"`, `"slice_expired"`).
        reason: &'static str,
    },
    /// The adaptive slice controller changed this CPU's slice.
    SliceAdapt {
        /// New slice length in nanoseconds.
        ns: u64,
    },
    /// The adaptive yield controller changed this CPU's empty-poll
    /// threshold.
    ThresholdAdapt {
        /// New threshold in polls.
        polls: u64,
    },
    /// §4.1 safe rescheduling: `vcpu` exited inside a lock context and
    /// is being re-placed on this CPU.
    LockReschedule {
        /// Index of the rescheduled vCPU.
        vcpu: u32,
    },
    /// The unified IPI orchestrator routed an IPI.
    IpiRoute {
        /// Destination CPU.
        dst: u32,
        /// Route taken: `"direct"`, `"posted"`, or `"wake"`.
        route: &'static str,
    },
    /// The hardware workload probe's IRQ arrived at a V-state CPU.
    ProbeIrq,
    /// The delivery-time probe re-check caught a packet that raced a
    /// yield (the core was P-state at ingest).
    ProbeRecheck,
    /// A softirq was newly raised on this CPU.
    SoftirqRaise {
        /// Softirq name (e.g. `"taichi_vcpu"`).
        kind: &'static str,
    },
    /// A pending softirq was dispatched on this CPU.
    SoftirqDispatch {
        /// Softirq name.
        kind: &'static str,
    },
    /// The kernel preempted the running thread at slice expiry.
    Preempt {
        /// Preempted thread.
        tid: u64,
    },
    /// A thread entered a non-preemptible routine.
    NonPreemptibleEnter {
        /// The thread.
        tid: u64,
    },
    /// A thread left a non-preemptible routine.
    NonPreemptibleLeave {
        /// The thread.
        tid: u64,
    },
    /// The accelerator began preprocessing a packet (stage ②).
    AccelPreprocess {
        /// Packet ID.
        pkt: u64,
    },
    /// The accelerator consulted the V-state table for a packet.
    AccelVCheck {
        /// Packet ID.
        pkt: u64,
        /// Whether the destination CPU was in V-state.
        vstate: bool,
    },
    /// A packet finished stage ③ and became visible to software.
    AccelTransferDone {
        /// Packet ID.
        pkt: u64,
    },
    /// The fault-injection layer fired a planned fault.
    FaultInject {
        /// Fault name (e.g. `"ipi_drop"`, `"accel_stall"`).
        kind: &'static str,
    },
    /// The scheduler invoked a graceful-degradation policy in response
    /// to an injected fault.
    Degrade {
        /// Degradation action name (e.g. `"ipi_resend"`,
        /// `"yield_clamp"`).
        action: &'static str,
    },
}

/// Payload-free discriminant of [`TraceKind`], used for queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum TraceTag {
    YieldGrant,
    YieldVeto,
    YieldNoRunnable,
    VmEnter,
    VmExit,
    SliceAdapt,
    ThresholdAdapt,
    LockReschedule,
    IpiRoute,
    ProbeIrq,
    ProbeRecheck,
    SoftirqRaise,
    SoftirqDispatch,
    Preempt,
    NonPreemptibleEnter,
    NonPreemptibleLeave,
    AccelPreprocess,
    AccelVCheck,
    AccelTransferDone,
    FaultInject,
    Degrade,
}

impl TraceTag {
    /// Stable snake_case name used in the TSV and counter registry.
    pub fn name(self) -> &'static str {
        match self {
            TraceTag::YieldGrant => "yield_grant",
            TraceTag::YieldVeto => "yield_veto",
            TraceTag::YieldNoRunnable => "yield_no_runnable",
            TraceTag::VmEnter => "vm_enter",
            TraceTag::VmExit => "vm_exit",
            TraceTag::SliceAdapt => "slice_adapt",
            TraceTag::ThresholdAdapt => "threshold_adapt",
            TraceTag::LockReschedule => "lock_reschedule",
            TraceTag::IpiRoute => "ipi_route",
            TraceTag::ProbeIrq => "probe_irq",
            TraceTag::ProbeRecheck => "probe_recheck",
            TraceTag::SoftirqRaise => "softirq_raise",
            TraceTag::SoftirqDispatch => "softirq_dispatch",
            TraceTag::Preempt => "preempt",
            TraceTag::NonPreemptibleEnter => "nonpreemptible_enter",
            TraceTag::NonPreemptibleLeave => "nonpreemptible_leave",
            TraceTag::AccelPreprocess => "accel_preprocess",
            TraceTag::AccelVCheck => "accel_vcheck",
            TraceTag::AccelTransferDone => "accel_transfer_done",
            TraceTag::FaultInject => "fault_inject",
            TraceTag::Degrade => "degrade",
        }
    }
}

impl TraceKind {
    /// The payload-free discriminant.
    pub fn tag(&self) -> TraceTag {
        match self {
            TraceKind::YieldGrant { .. } => TraceTag::YieldGrant,
            TraceKind::YieldVeto { .. } => TraceTag::YieldVeto,
            TraceKind::YieldNoRunnable => TraceTag::YieldNoRunnable,
            TraceKind::VmEnter { .. } => TraceTag::VmEnter,
            TraceKind::VmExit { .. } => TraceTag::VmExit,
            TraceKind::SliceAdapt { .. } => TraceTag::SliceAdapt,
            TraceKind::ThresholdAdapt { .. } => TraceTag::ThresholdAdapt,
            TraceKind::LockReschedule { .. } => TraceTag::LockReschedule,
            TraceKind::IpiRoute { .. } => TraceTag::IpiRoute,
            TraceKind::ProbeIrq => TraceTag::ProbeIrq,
            TraceKind::ProbeRecheck => TraceTag::ProbeRecheck,
            TraceKind::SoftirqRaise { .. } => TraceTag::SoftirqRaise,
            TraceKind::SoftirqDispatch { .. } => TraceTag::SoftirqDispatch,
            TraceKind::Preempt { .. } => TraceTag::Preempt,
            TraceKind::NonPreemptibleEnter { .. } => TraceTag::NonPreemptibleEnter,
            TraceKind::NonPreemptibleLeave { .. } => TraceTag::NonPreemptibleLeave,
            TraceKind::AccelPreprocess { .. } => TraceTag::AccelPreprocess,
            TraceKind::AccelVCheck { .. } => TraceTag::AccelVCheck,
            TraceKind::AccelTransferDone { .. } => TraceTag::AccelTransferDone,
            TraceKind::FaultInject { .. } => TraceTag::FaultInject,
            TraceKind::Degrade { .. } => TraceTag::Degrade,
        }
    }

    /// Stable snake_case name.
    pub fn name(&self) -> &'static str {
        self.tag().name()
    }

    fn detail(&self) -> String {
        match self {
            TraceKind::YieldGrant { vcpu } => format!("vcpu={vcpu}"),
            TraceKind::YieldVeto { inflight } => format!("inflight={inflight}"),
            TraceKind::YieldNoRunnable => "-".into(),
            TraceKind::VmEnter { vcpu } => format!("vcpu={vcpu}"),
            TraceKind::VmExit { vcpu, reason } => {
                format!("vcpu={vcpu} reason={reason}")
            }
            TraceKind::SliceAdapt { ns } => format!("ns={ns}"),
            TraceKind::ThresholdAdapt { polls } => format!("polls={polls}"),
            TraceKind::LockReschedule { vcpu } => format!("vcpu={vcpu}"),
            TraceKind::IpiRoute { dst, route } => format!("dst={dst} route={route}"),
            TraceKind::ProbeIrq | TraceKind::ProbeRecheck => "-".into(),
            TraceKind::SoftirqRaise { kind } | TraceKind::SoftirqDispatch { kind } => {
                format!("kind={kind}")
            }
            TraceKind::Preempt { tid }
            | TraceKind::NonPreemptibleEnter { tid }
            | TraceKind::NonPreemptibleLeave { tid } => format!("tid={tid}"),
            TraceKind::AccelPreprocess { pkt } | TraceKind::AccelTransferDone { pkt } => {
                format!("pkt={pkt}")
            }
            TraceKind::AccelVCheck { pkt, vstate } => {
                format!("pkt={pkt} vstate={vstate}")
            }
            TraceKind::FaultInject { kind } => format!("kind={kind}"),
            TraceKind::Degrade { action } => format!("action={action}"),
        }
    }
}

/// One trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emission sequence number (total order over the whole run,
    /// including evicted events).
    pub seq: u64,
    /// Simulation time known to the emitter.
    pub at: SimTime,
    /// CPU the event concerns ([`NO_CPU`] when not applicable).
    pub cpu: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded trace ring plus its per-kind counters. Owned by one
/// machine; emitting takes `&mut self`.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    ring: VecDeque<TraceEvent>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// Approximate heap bytes: the event ring's buffer and the counter
    /// map's nodes.
    pub fn resident_bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<TraceEvent>()
            + self.counters.len() * std::mem::size_of::<(&'static str, u64)>()
    }

    /// Creates a tracer with the given ring capacity (min 1).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
            ring: VecDeque::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Creates a tracer from a config; `None` when disabled.
    pub fn from_config(cfg: &TraceConfig) -> Option<Self> {
        cfg.enabled.then(|| Tracer::new(cfg.capacity))
    }

    /// Emits an event stamped `at`.
    pub fn emit_at(&mut self, at: SimTime, cpu: u32, kind: TraceKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        *self.counters.entry(kind.name()).or_insert(0) += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent { seq, at, cpu, kind });
    }

    /// Bumps a named counter without emitting a ring event.
    pub fn bump(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Events currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted (including evicted ones).
    pub fn total_emitted(&self) -> u64 {
        self.next_seq
    }

    /// Value of a named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in deterministic (name) order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// A copy of the buffered events in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.iter().copied().collect()
    }

    /// Buffered events whose kind matches `tag`, in emission order.
    pub fn matching(&self, tag: TraceTag) -> Vec<TraceEvent> {
        self.ring
            .iter()
            .filter(|e| e.kind.tag() == tag)
            .copied()
            .collect()
    }

    /// For every buffered event whose tag is in `effects`, pairs it
    /// with the most recent *earlier* event on the **same CPU** whose
    /// tag is in `causes` (`None` when no such cause exists in the
    /// buffer). Ordering is by emission sequence, so a cause emitted
    /// at the same simulated instant still counts.
    pub fn causal_pairs(
        &self,
        causes: &[TraceTag],
        effects: &[TraceTag],
    ) -> Vec<(Option<TraceEvent>, TraceEvent)> {
        let mut latest_cause: BTreeMap<u32, TraceEvent> = BTreeMap::new();
        let mut out = Vec::new();
        for e in self.ring.iter() {
            let tag = e.kind.tag();
            if effects.contains(&tag) {
                out.push((latest_cause.get(&e.cpu).copied(), *e));
            }
            if causes.contains(&tag) {
                latest_cause.insert(e.cpu, *e);
            }
        }
        out
    }

    /// Per-ring eviction warning: `Some(message)` when this ring has
    /// evicted events, `None` when the buffer still holds the complete
    /// schedule. The message reports **this ring's** drop and survivor
    /// counts — when a process exports many machines' traces, each
    /// export must consult its own ring, never a process-global
    /// tally.
    pub fn eviction_warning(&self) -> Option<String> {
        if self.dropped == 0 {
            return None;
        }
        Some(format!(
            "trace ring evicted {} event(s); the TSV holds only the \
             newest {} (raise TraceConfig::capacity for a full schedule)",
            self.dropped,
            self.ring.len()
        ))
    }

    /// Renders the trace as a stable TSV: a header, one line per
    /// buffered event, then the counter registry and drop count as
    /// `#`-prefixed footer lines. Identical seeds produce byte-
    /// identical output.
    pub fn to_tsv(&self) -> String {
        let mut s = String::with_capacity(64 + self.ring.len() * 48);
        s.push_str("# taichi-trace v1\n");
        s.push_str("# seq\tns\tcpu\tkind\tdetail\n");
        for e in self.ring.iter() {
            let _ = write!(s, "{}\t{}\t", e.seq, e.at.as_nanos());
            if e.cpu == NO_CPU {
                s.push('-');
            } else {
                let _ = write!(s, "{}", e.cpu);
            }
            let _ = writeln!(s, "\t{}\t{}", e.kind.name(), e.kind.detail());
        }
        for (name, v) in self.counters.iter() {
            let _ = writeln!(s, "# counter\t{name}\t{v}");
        }
        let _ = writeln!(s, "# dropped\t{}", self.dropped);
        s
    }
}

/// Process-global registry of claimed trace-export destinations.
///
/// When many machines export TSVs in one process to one explicit
/// [`TraceConfig::dump`] path, writing the same path from every export
/// silently clobbers all rings but the last — and the eviction
/// warning printed alongside then describes a different ring than the
/// file holds. [`claim_export_path`] makes the destination per-export.
static EXPORT_PATHS: std::sync::Mutex<BTreeSet<String>> = std::sync::Mutex::new(BTreeSet::new());

/// Claims an explicit trace-export destination for one ring's TSV.
///
/// Outside a [`sweep_with`](crate::par::sweep_with) job the wanted
/// name is `path`; inside one it is `<path>.<i>`, `i` being the job's
/// input position, so a sweep's dumps are named the same whatever the
/// worker count and whichever job finishes first. The first claim of
/// a name gets it verbatim; a name already handed out in this process
/// becomes the first free `<name>.<n>` (n counting from 1), with a
/// warning message explaining the rename, so no export overwrites
/// another ring's schedule. Claims are process-global and
/// thread-safe.
pub fn claim_export_path(path: &std::path::Path) -> (std::path::PathBuf, Option<String>) {
    let wanted = match crate::par::job_index() {
        Some(i) => format!("{}.{i}", path.display()),
        None => path.display().to_string(),
    };
    let mut claimed = EXPORT_PATHS.lock().unwrap_or_else(|e| e.into_inner());
    let unique = std::iter::once(wanted.clone())
        .chain((1..).map(|n| format!("{wanted}.{n}")))
        .find(|name| !claimed.contains(name))
        .expect("a free name exists");
    claimed.insert(unique.clone());
    let warning = (unique != wanted).then(|| {
        format!(
            "trace destination {wanted} was already written by an \
             earlier export in this process; writing {unique} instead \
             so the earlier ring's schedule survives"
        )
    });
    (std::path::PathBuf::from(unique), warning)
}

/// Forgets all claimed export destinations (test helper).
#[doc(hidden)]
pub fn reset_export_paths() {
    EXPORT_PATHS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tracer: &mut Tracer, at_ns: u64, cpu: u32, kind: TraceKind) {
        tracer.emit_at(SimTime::from_nanos(at_ns), cpu, kind);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut t = Tracer::new(4);
        for i in 0..10 {
            ev(&mut t, i, 0, TraceKind::ProbeIrq);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.capacity(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total_emitted(), 10);
        // The survivors are the newest four, in order.
        let seqs: Vec<u64> = t.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Counters see every emit, not just survivors.
        assert_eq!(t.counter("probe_irq"), 10);
    }

    #[test]
    fn queries_filter_by_cpu_and_tag() {
        let mut t = Tracer::new(64);
        ev(&mut t, 1, 0, TraceKind::ProbeIrq);
        ev(&mut t, 2, 1, TraceKind::VmEnter { vcpu: 3 });
        ev(
            &mut t,
            3,
            0,
            TraceKind::VmExit {
                vcpu: 3,
                reason: "hw_probe",
            },
        );
        assert_eq!(t.matching(TraceTag::VmEnter).len(), 1);
        assert_eq!(t.matching(TraceTag::SoftirqRaise).len(), 0);
    }

    #[test]
    fn causal_pairs_match_nearest_prior_cause_on_same_cpu() {
        let mut t = Tracer::new(64);
        ev(&mut t, 1, 0, TraceKind::ProbeIrq); // cause on cpu 0
        ev(
            &mut t,
            2,
            1,
            TraceKind::VmExit {
                vcpu: 9,
                reason: "x",
            },
        ); // no cause on cpu 1
        ev(&mut t, 3, 0, TraceKind::ProbeIrq); // newer cause on cpu 0
        ev(
            &mut t,
            4,
            0,
            TraceKind::VmExit {
                vcpu: 9,
                reason: "x",
            },
        );
        let pairs = t.causal_pairs(&[TraceTag::ProbeIrq], &[TraceTag::VmExit]);
        assert_eq!(pairs.len(), 2);
        assert!(pairs[0].0.is_none(), "cpu 1 exit has no probe IRQ");
        let (cause, effect) = (&pairs[1].0, &pairs[1].1);
        assert_eq!(cause.expect("paired").seq, 2, "nearest prior cause");
        assert_eq!(effect.seq, 3);
    }

    #[test]
    fn effect_at_same_instant_still_pairs() {
        let mut t = Tracer::new(8);
        ev(&mut t, 5, 2, TraceKind::ProbeIrq);
        ev(
            &mut t,
            5,
            2,
            TraceKind::VmExit {
                vcpu: 0,
                reason: "hw_probe",
            },
        );
        let pairs = t.causal_pairs(&[TraceTag::ProbeIrq], &[TraceTag::VmExit]);
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].0.is_some());
    }

    #[test]
    fn tsv_is_stable_and_self_describing() {
        let mut t = Tracer::new(8);
        ev(
            &mut t,
            10,
            3,
            TraceKind::SoftirqRaise {
                kind: "taichi_vcpu",
            },
        );
        ev(&mut t, 12, NO_CPU, TraceKind::SliceAdapt { ns: 100_000 });
        let tsv = t.to_tsv();
        assert!(tsv.starts_with("# taichi-trace v1\n"));
        assert!(tsv.contains("0\t10\t3\tsoftirq_raise\tkind=taichi_vcpu\n"));
        assert!(tsv.contains("1\t12\t-\tslice_adapt\tns=100000\n"));
        assert!(tsv.contains("# counter\tslice_adapt\t1\n"));
        assert!(tsv.contains("# counter\tsoftirq_raise\t1\n"));
        assert!(tsv.ends_with("# dropped\t0\n"));
        // Rendering twice is byte-identical.
        assert_eq!(tsv, t.to_tsv());
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut t = Tracer::new(8);
        ev(&mut t, 1, 0, TraceKind::VmEnter { vcpu: 0 });
        ev(&mut t, 1, 0, TraceKind::ProbeIrq);
        t.bump("custom");
        let names: Vec<&str> = t.counters().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(t.counter("custom"), 1);
        assert_eq!(t.counter("never"), 0);
    }

    #[test]
    fn eviction_accounting_is_per_ring() {
        // Two machines' rings in one process: only the overflowing
        // ring warns, and each ring's drop counter is its own.
        let mut small = Tracer::new(2);
        let mut large = Tracer::new(64);
        for i in 0..8 {
            ev(&mut small, i, 0, TraceKind::ProbeIrq);
            ev(&mut large, i, 0, TraceKind::ProbeIrq);
        }
        assert_eq!(small.dropped(), 6);
        assert_eq!(large.dropped(), 0);
        let w = small.eviction_warning().expect("small ring overflowed");
        assert!(w.contains("6 event(s)"), "{w}");
        assert!(w.contains("newest 2"), "{w}");
        assert!(large.eviction_warning().is_none());
        // Draining one ring's warning must not consume the other's.
        assert!(small.eviction_warning().is_some());
    }

    #[test]
    fn export_path_claims_disambiguate() {
        reset_export_paths();
        let (p1, w1) = claim_export_path("/tmp/taichi-claim-test.tsv".as_ref());
        assert_eq!(p1, std::path::PathBuf::from("/tmp/taichi-claim-test.tsv"));
        assert!(w1.is_none());
        let (p2, w2) = claim_export_path("/tmp/taichi-claim-test.tsv".as_ref());
        assert_eq!(p2, std::path::PathBuf::from("/tmp/taichi-claim-test.tsv.1"));
        assert!(w2.expect("second claim warns").contains("already written"));
        let (p3, _) = claim_export_path("/tmp/taichi-claim-test.tsv".as_ref());
        assert_eq!(p3, std::path::PathBuf::from("/tmp/taichi-claim-test.tsv.2"));
        // A different destination is untouched by earlier claims.
        let (q1, wq) = claim_export_path("/tmp/taichi-claim-other.tsv".as_ref());
        assert_eq!(q1, std::path::PathBuf::from("/tmp/taichi-claim-other.tsv"));
        assert!(wq.is_none());
        reset_export_paths();
        let (p4, w4) = claim_export_path("/tmp/taichi-claim-test.tsv".as_ref());
        assert_eq!(p4, std::path::PathBuf::from("/tmp/taichi-claim-test.tsv"));
        assert!(w4.is_none());
    }

    #[test]
    fn from_config_respects_enable() {
        assert!(Tracer::from_config(&TraceConfig::default()).is_none());
        let on = TraceConfig {
            enabled: true,
            capacity: 16,
            ..TraceConfig::default()
        };
        assert!(Tracer::from_config(&on).is_some());
    }
}
