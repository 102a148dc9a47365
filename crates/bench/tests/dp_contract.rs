//! The data path's behaviour contract in the two modes that never
//! harvest (Baseline and Type2), as digests of model observables.
//!
//! Each case runs one traffic shape on a machine with no CP work and
//! digests what a user can read off the data path: completed packets
//! and bytes, total and software latency percentiles, mean and stddev
//! bits, ring drops, and every utilization sample's bits. Three shapes
//! cover the ways a DP core's burst loop can end:
//!
//! - `fig3`: Figure 3's modulated low load, where nearly every burst
//!   drains the ring and the core goes idle;
//! - `saturated`: open-loop load near capacity (past it under Type2's
//!   interference tax), where the ring backlog outgrows one burst (32
//!   packets) and bursts run back to back;
//! - `overflow`: bursty traffic into a small ring, which overflows and
//!   drops.
//!
//! The digests were taken from an engine that queued a completion
//! event for every burst. An engine change that alters what the data
//! path computes fails here with the case named; one that only changes
//! how many events it takes to compute it passes.

use taichi_core::machine::{Machine, Mode};
use taichi_core::MachineConfig;
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::{Dist, SimDuration, SimTime};

const SEEDS: [u64; 3] = [0xD1CE, 42, 7];

/// FNV-1a over the digest text.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// A traffic shape: how the machine is configured and loaded, and how
/// long it runs.
struct Shape {
    name: &'static str,
    config: fn(&mut MachineConfig),
    traffic: fn(u32) -> TrafficGen,
    horizon: SimTime,
    /// Checks the shape exercised what it is named for.
    reaches: fn(&Machine) -> Result<(), String>,
}

fn every_dp_cpu(dp: u32) -> Vec<CpuId> {
    (0..dp).map(CpuId).collect()
}

fn max_ring(m: &Machine) -> usize {
    m.memory_high_watermarks().1
}

fn drops(m: &Machine) -> u64 {
    m.services().iter().map(|s| s.dropped()).sum()
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "fig3",
        config: |_| {},
        traffic: |dp| {
            let mut profile: Vec<f64> = (0..100)
                .map(|i| 1.0 + 0.6 * (i as f64 / 100.0 * std::f64::consts::TAU).sin())
                .collect();
            profile[84] = 3.7;
            TrafficGen::new(
                ArrivalPattern::Modulated {
                    base_gap_us: Dist::exponential(1.5 / 0.10 / 8.0),
                    profile,
                    slot: SimDuration::from_millis(1),
                },
                Dist::constant(512.0),
                IoKind::Network,
                every_dp_cpu(dp),
            )
        },
        horizon: SimTime::from_millis(100),
        reaches: |m| match max_ring(m) {
            n if n <= 32 => Ok(()),
            n => Err(format!("low load backed a ring up to {n}")),
        },
    },
    Shape {
        name: "saturated",
        config: |_| {},
        traffic: |dp| {
            TrafficGen::new(
                ArrivalPattern::OpenLoop {
                    gap_us: Dist::exponential(1.6 / dp as f64),
                },
                Dist::constant(512.0),
                IoKind::Network,
                every_dp_cpu(dp),
            )
        },
        horizon: SimTime::from_millis(10),
        reaches: |m| match max_ring(m) {
            n if n > 32 => Ok(()),
            n => Err(format!("the ring backlog peaked at {n}")),
        },
    },
    Shape {
        name: "overflow",
        config: |cfg| cfg.dp.ring_capacity = 48,
        traffic: |dp| {
            TrafficGen::new(
                ArrivalPattern::OnOff {
                    on_us: Dist::constant(200.0),
                    off_us: Dist::exponential(300.0),
                    burst_gap_us: Dist::exponential(0.5 / dp as f64),
                },
                Dist::constant(512.0),
                IoKind::Network,
                every_dp_cpu(dp),
            )
        },
        horizon: SimTime::from_millis(20),
        reaches: |m| match drops(m) {
            0 => Err("the ring never overflowed".into()),
            _ => Ok(()),
        },
    },
];

/// Runs `shape` in `mode` at `seed` and digests its model observables.
fn digest(shape: &Shape, mode: Mode, seed: u64) -> u64 {
    let mut cfg = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    (shape.config)(&mut cfg);
    let mut m = Machine::new(cfg, mode);
    let dp = m.services().len() as u32;
    m.add_traffic((shape.traffic)(dp));
    m.enable_util_sampling(SimDuration::from_millis(2));
    m.run_until(shape.horizon);
    if let Err(e) = (shape.reaches)(&m) {
        panic!("{} / {mode} / seed {seed}: {e}", shape.name);
    }
    let mut text = String::new();
    for s in m.services() {
        let r = s.recorder();
        text += &format!("dp {} {} {}", r.packets(), r.bytes(), s.dropped());
        for h in [r.total_latency(), r.software_latency()] {
            text += &format!(
                " | {} {} {} {} {} {:x} {:x}",
                h.min(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.max(),
                h.mean().to_bits(),
                h.stddev().to_bits()
            );
        }
        text += "\n";
    }
    text += "util";
    for u in m.util_samples() {
        text += &format!(" {:x}", u.to_bits());
    }
    fnv64(text.as_bytes())
}

/// `(shape, mode, seed, digest)`, measured on the eager-completion
/// engine.
const EXPECTED: &[(&str, Mode, u64, u64)] = &[
    ("fig3", Mode::Baseline, 0xd1ce, 0x060b552d890ec30f),
    ("fig3", Mode::Baseline, 0x2a, 0x7ce63c1b2cf5a6af),
    ("fig3", Mode::Baseline, 0x7, 0xf7d7336c5c0aead8),
    ("fig3", Mode::Type2, 0xd1ce, 0x282c559cfb42f84d),
    ("fig3", Mode::Type2, 0x2a, 0x5c0f267bf98a20dd),
    ("fig3", Mode::Type2, 0x7, 0x272b69e671693e76),
    ("saturated", Mode::Baseline, 0xd1ce, 0x9320f229680de937),
    ("saturated", Mode::Baseline, 0x2a, 0xdaa9741c88bf95a4),
    ("saturated", Mode::Baseline, 0x7, 0x911e6f710c2f6e76),
    ("saturated", Mode::Type2, 0xd1ce, 0x9630d3dc23a79cba),
    ("saturated", Mode::Type2, 0x2a, 0xbd16b79b4797317c),
    ("saturated", Mode::Type2, 0x7, 0x1434ad264bb82a85),
    ("overflow", Mode::Baseline, 0xd1ce, 0x98f9580d76fad0f0),
    ("overflow", Mode::Baseline, 0x2a, 0xf82f1c45c99d9a4a),
    ("overflow", Mode::Baseline, 0x7, 0x795a9add3e772283),
    ("overflow", Mode::Type2, 0xd1ce, 0x0937a7b6d9ca86d5),
    ("overflow", Mode::Type2, 0x2a, 0xe2d485838d27b131),
    ("overflow", Mode::Type2, 0x7, 0xa49f7ff42d91f6b5),
];

#[test]
fn dp_observables_match_the_eager_completion_engine() {
    let mut diff = Vec::new();
    let mut got = Vec::new();
    for shape in &SHAPES {
        for mode in [Mode::Baseline, Mode::Type2] {
            for seed in SEEDS {
                let d = digest(shape, mode, seed);
                got.push(format!(
                    "(\"{}\", Mode::{mode:?}, {seed:#x}, {d:#018x}),",
                    shape.name
                ));
                let want = EXPECTED
                    .iter()
                    .find(|e| e.0 == shape.name && e.1 == mode && e.2 == seed)
                    .map(|e| e.3);
                if want != Some(d) {
                    diff.push(format!(
                        "  {} / {mode} / seed {seed:#x}: pinned {want:x?}, got {d:#018x}",
                        shape.name
                    ));
                }
            }
        }
    }
    assert!(
        diff.is_empty(),
        "data-path observables changed\n{}\nmeasured:\n{}",
        diff.join("\n"),
        got.join("\n")
    );
}
