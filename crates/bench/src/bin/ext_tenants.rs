//! Multi-tenant noisy-neighbor isolation curve (DESIGN.md §3.11).
//!
//! One machine, two active tenants on a deliberately narrow ingest
//! port: a *victim* offering a steady ~70% of port bandwidth on its
//! own DP CPUs, and an *aggressor* swept from idle to 2× line rate on
//! the other DP CPUs. The only shared resource is the eNIC→accelerator
//! ingest port, which the DRR arbiter apportions. Three scenarios per
//! sweep point:
//!
//! - `fair`     — weight 1:1. Once the aggressor's demand pushes the
//!   victim below its offered load, victim p99 degrades monotonically
//!   (staging-ring queueing, then ring drops).
//! - `weighted` — victim-protecting weights (default 3:1). The
//!   victim's guaranteed share covers its demand, so degradation stays
//!   bounded no matter how hard the aggressor bursts.
//! - `storm`    — weight 1:1 plus a λ-NIC-style handler storm (the
//!   fault layer's periodic CP task bursts riding on the same
//!   machine), stacking compute interference on port contention.
//!
//! Emits the victim-p99-vs-aggressor-load curve as a deterministic
//! CSV: same seed + flags give a byte-identical file for any
//! `TAICHI_WORKERS` count (the CI `tenant-smoke` job diffs 1 vs 4).
//! Exits non-zero if any scheduler or packet-conservation invariant is
//! violated in any cell.
//!
//! Flags: `--tenants N`, `--weights A:B[:C...]`, `--aggressor I`,
//! `--horizon-ms N`, plus the shared knobs (`--trace`, `TAICHI_*`).

use taichi_bench::{emit, sweep_with, usage_error, Knobs};
use taichi_core::audit::check_invariants;
use taichi_core::machine::{Machine, Mode};
use taichi_core::{MachineConfig, TenantConfig};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::report::Table;
use taichi_sim::{Dist, SimDuration, SimTime};

/// Aggressor load multipliers swept (×50% of port bandwidth).
const AGGRESSOR_MULTS: &[f64] = &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0];
/// Ingest-port pace for this experiment: 512 B ≈ 717 ns, so the port
/// (not the DP services) is the contended resource the arbiter guards.
const PORT_NS_PER_BYTE: f64 = 1.4;
/// Victim packet size (bytes).
const VICTIM_SIZE: f64 = 512.0;
/// Aggressor packet size (bytes) — MTU bursts.
const AGGRESSOR_SIZE: f64 = 1500.0;

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Fair,
    Weighted,
    Storm,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Fair => "fair",
            Scenario::Weighted => "weighted",
            Scenario::Storm => "storm",
        }
    }
}

/// The curve's settings, resolved from the flags.
struct Curve {
    tenants: u32,
    weights: Vec<u64>,
    aggressor: usize,
    horizon: SimDuration,
    /// Base machine (seed, trace, faults from the shared knobs).
    base: MachineConfig,
}

struct Cell {
    victim_pkts: u64,
    victim_p50: u64,
    victim_p99: u64,
    victim_lost: u64,
    aggr_pkts: u64,
    aggr_lost: u64,
    ingested: u64,
}

const USAGE: &str =
    "[--tenants N] [--weights A:B[:C...]] [--aggressor I] [--horizon-ms N] [--trace]";

fn run_cell(k: &Curve, scenario: Scenario, mult: f64) -> Cell {
    let mut tenants = TenantConfig {
        count: k.tenants,
        weights: vec![1; k.tenants as usize],
        ..TenantConfig::default()
    };
    if scenario == Scenario::Weighted {
        // Victim-protecting weights: knob-supplied, padded with 1s.
        tenants.weights = k.weights.clone();
    }
    let mut cfg = MachineConfig {
        tenants,
        ..k.base.clone()
    };
    cfg.accel.ns_per_byte = PORT_NS_PER_BYTE;
    if scenario == Scenario::Storm {
        // λ-NIC-style handler storm: periodic CP task bursts contend
        // for the same cores the data plane harvests.
        cfg.faults.storm_period = SimDuration::from_millis(2);
        cfg.faults.storm_tasks = 6;
    }
    let mut m = Machine::new(cfg, Mode::TaiChi);

    // Victim on the first half of the DP CPUs, aggressor on the rest:
    // the service planes are disjoint, so the ingest port is the only
    // shared resource (except in the storm scenario, by design).
    let dp = m.services().len() as u32;
    let half = (dp / 2).max(1);
    let victim_cpus: Vec<CpuId> = (0..half).map(CpuId).collect();
    let aggr_cpus: Vec<CpuId> = (half..dp).map(CpuId).collect();

    // Victim: ~70% of port bandwidth (512 B / ~1 µs mean gap vs 717 ns
    // wire time), comfortably within its DP CPUs' service capacity.
    m.add_traffic(
        TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(1.0),
            },
            Dist::constant(VICTIM_SIZE),
            IoKind::Network,
            victim_cpus,
        )
        .with_tenant(TenantId(0)),
    );
    // Aggressor: `mult` × 50% of port bandwidth (1500 B / 4.2 µs base
    // gap vs 2.1 µs wire time). mult=0 keeps the generator (and its
    // RNG stream) but pushes the first arrival past the horizon, so
    // every sweep point consumes identical stream indices.
    let gap_us = if mult > 0.0 { 4.2 / mult } else { 1e9 };
    m.add_traffic(
        TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(gap_us),
            },
            Dist::constant(AGGRESSOR_SIZE),
            IoKind::Network,
            aggr_cpus,
        )
        .with_tenant(TenantId(k.aggressor as u32)),
    );

    m.run_until(SimTime::ZERO + k.horizon);

    let report = check_invariants(&m);
    if !report.ok() {
        eprintln!(
            "scenario {} mult {mult}: invariants violated:\n{report}",
            scenario.name()
        );
        std::process::exit(1);
    }

    let recorders = m.drain_tenant_recorders();
    let totals = m.tenant_totals();
    let victim = &recorders[0];
    let vt = totals[0];
    let at = totals[k.aggressor % totals.len()];
    Cell {
        victim_pkts: victim.packets(),
        victim_p50: victim.total_latency().percentile(50.0),
        victim_p99: victim.total_latency().percentile(99.0),
        victim_lost: vt.2 + vt.4,
        aggr_pkts: at.0,
        aggr_lost: at.2 + at.4,
        ingested: m.accel().packets_ingested(),
    }
}

fn main() {
    let (knobs, rest) = Knobs::init_with_args(USAGE);
    let mut k = Curve {
        tenants: 2,
        weights: vec![3, 1],
        aggressor: 0, // resolved below: default = last tenant
        horizon: SimDuration::from_millis(20),
        base: knobs.machine(),
    };
    let mut aggressor: Option<usize> = None;

    let die = |msg: &str| -> ! { usage_error(USAGE, msg) };
    let mut args = rest.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--tenants" => match taichi_core::parse_tenant_count(&value("--tenants")) {
                Ok(v) if v >= 2 => k.tenants = v,
                Ok(v) => die(&format!(
                    "--tenants {v} leaves no aggressor (expected >= 2: victim 0 plus an aggressor)"
                )),
                Err(e) => die(&e),
            },
            "--weights" => match taichi_core::parse_tenant_weights(&value("--weights")) {
                Ok(v) => k.weights = v,
                Err(e) => die(&e),
            },
            "--aggressor" => match value("--aggressor").trim().parse::<usize>() {
                Ok(v) => aggressor = Some(v),
                Err(_) => die("--aggressor needs a tenant index"),
            },
            "--horizon-ms" => match value("--horizon-ms").trim().parse::<u64>() {
                Ok(v) if v >= 1 => k.horizon = SimDuration::from_millis(v),
                _ => die("--horizon-ms needs an integer >= 1"),
            },
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    // Whichever flag came first: a weight per tenant at most (fewer
    // are padded with 1s).
    if k.weights.len() > k.tenants as usize {
        let weights: Vec<String> = k.weights.iter().map(u64::to_string).collect();
        die(&format!(
            "--weights {} gives {} weights for {} tenants (expected at most one per tenant)",
            weights.join(":"),
            k.weights.len(),
            k.tenants
        ));
    }
    // Tenant 0 is always the victim; the default aggressor is the last.
    k.aggressor = match aggressor {
        None => k.tenants as usize - 1,
        Some(a) if (1..k.tenants as usize).contains(&a) => a,
        Some(a) => die(&format!(
            "--aggressor {a} is not an aggressor tenant (expected 1..={}; tenant 0 is the victim)",
            k.tenants - 1
        )),
    };
    println!(
        "tenants: {} (victim 0 vs aggressor {}), weighted scenario {:?}, \
         horizon {} ms",
        k.tenants,
        k.aggressor,
        k.weights,
        k.horizon.as_nanos() / 1_000_000,
    );

    let cases: Vec<(Scenario, f64)> = [Scenario::Fair, Scenario::Weighted, Scenario::Storm]
        .iter()
        .flat_map(|&s| AGGRESSOR_MULTS.iter().map(move |&m| (s, m)))
        .collect();
    let results = sweep_with(knobs.workers, cases.clone(), |(s, m)| run_cell(&k, s, m));

    let mut table = Table::new(
        "noisy-neighbor isolation curve (victim p99 vs aggressor load)",
        &[
            "scenario",
            "aggr_load",
            "victim_pkts",
            "victim_p50 (ns)",
            "victim_p99 (ns)",
            "victim_lost",
            "aggr_pkts",
            "aggr_lost",
            "ingested",
        ],
    );
    for ((s, mult), c) in cases.iter().zip(&results) {
        table.row(&[
            s.name().to_string(),
            format!("{mult:.2}"),
            c.victim_pkts.to_string(),
            c.victim_p50.to_string(),
            c.victim_p99.to_string(),
            c.victim_lost.to_string(),
            c.aggr_pkts.to_string(),
            c.aggr_lost.to_string(),
            c.ingested.to_string(),
        ]);
    }
    emit("ext_tenants", &table);

    // The acceptance shape, checked in-process so CI fails loudly:
    // fair-share degradation is monotone (non-decreasing p99 with
    // aggressor load), weighted-fair protection bounds it.
    let p99 = |s: Scenario, i: usize| {
        let idx = cases
            .iter()
            .position(|&(cs, cm)| cs == s && cm == AGGRESSOR_MULTS[i])
            .expect("cell exists");
        results[idx].victim_p99
    };
    let last = AGGRESSOR_MULTS.len() - 1;
    let fair_idle = p99(Scenario::Fair, 0);
    let fair_peak = p99(Scenario::Fair, last);
    let weighted_peak = p99(Scenario::Weighted, last);
    println!(
        "victim p99: idle {fair_idle} ns | fair@max {fair_peak} ns | \
         weighted@max {weighted_peak} ns"
    );
    if fair_peak <= fair_idle {
        eprintln!("error: fair-share victim p99 did not degrade under aggressor load");
        std::process::exit(1);
    }
    if weighted_peak * 2 >= fair_peak {
        eprintln!(
            "error: weighted-fair protection did not bound victim p99 \
             (weighted {weighted_peak} ns vs fair {fair_peak} ns)"
        );
        std::process::exit(1);
    }
    println!("isolation contract held: monotone fair-share degradation, bounded under weights");
}
