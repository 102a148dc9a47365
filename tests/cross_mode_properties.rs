//! Cross-mode invariants: properties that must hold in *every*
//! scheduling regime, exercised through the public facade.

use taichi::core::machine::{Machine, Mode};
use taichi::core::metrics::RunReport;
use taichi::core::MachineConfig;
use taichi::cp::SynthCp;
use taichi::dp::{ArrivalPattern, TrafficGen};
use taichi::hw::{CpuId, IoKind};
use taichi::sim::{Dist, Rng, SimTime};

fn bursty(dp_cpus: u32) -> TrafficGen {
    TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / dp_cpus as f64),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(CpuId).collect(),
    )
}

fn loaded_machine(mode: Mode, seed: u64) -> Machine {
    let cfg = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, mode);
    let dp = m.services().len() as u32;
    m.add_traffic(bursty(dp));
    let synth = SynthCp::default();
    let mut rng = Rng::new(seed ^ 0xAB);
    m.schedule_cp_batch(synth.workload(12, &mut rng), SimTime::ZERO);
    m
}

#[test]
fn every_mode_completes_cp_work() {
    for mode in Mode::all() {
        let mut m = loaded_machine(mode, 1);
        m.run_until(SimTime::from_secs(3));
        let r = RunReport::collect(&m);
        assert_eq!(r.cp_finished, 12, "{mode}: CP tasks must complete");
    }
}

#[test]
fn no_mode_drops_packets_below_saturation() {
    for mode in Mode::all() {
        let mut m = loaded_machine(mode, 2);
        m.run_until(SimTime::from_millis(400));
        let r = RunReport::collect(&m);
        assert_eq!(r.dp_dropped, 0, "{mode}: drops below saturation");
        assert!(r.dp.packets() > 50_000, "{mode}: traffic flows");
    }
}

#[test]
fn baseline_and_type2_never_yield() {
    for mode in [Mode::Baseline, Mode::Type2] {
        let mut m = loaded_machine(mode, 3);
        m.run_until(SimTime::from_millis(300));
        let r = RunReport::collect(&m);
        assert_eq!(r.yields, 0, "{mode} has no vCPUs to yield to");
        assert_eq!(r.hw_probe_exits, 0);
    }
}

#[test]
fn taichi_modes_yield_and_account_exits() {
    for mode in [Mode::TaiChi, Mode::TaiChiNoHwProbe, Mode::TaiChiVdp] {
        let mut m = loaded_machine(mode, 4);
        m.run_until(SimTime::from_millis(500));
        let r = RunReport::collect(&m);
        assert!(r.yields > 0, "{mode}: expected yields");
        // Every yield eventually produces exactly one completed exit;
        // in-flight grants at the horizon account for any remainder.
        let exits = r.hw_probe_exits + r.slice_exits + r.halt_exits;
        assert!(
            exits <= r.yields && exits + 16 >= r.yields,
            "{mode}: yields {} vs exits {exits}",
            r.yields
        );
        if mode == Mode::TaiChiNoHwProbe {
            assert_eq!(r.hw_probe_exits, 0, "probe disabled");
        }
    }
}

#[test]
fn dp_latency_ordering_matches_design() {
    // Mean DP latency: baseline <= taichi (tiny pollution) << vdp
    // (guest tax); type2 is higher than baseline (interference tax).
    let mut means = std::collections::HashMap::new();
    for mode in Mode::all() {
        let mut m = loaded_machine(mode, 5);
        m.run_until(SimTime::from_millis(400));
        let r = RunReport::collect(&m);
        means.insert(format!("{mode}"), r.dp.software_latency().mean());
    }
    let g = |k: &str| means[k];
    assert!(g("taichi") < g("baseline") * 1.06, "taichi near-native");
    assert!(g("taichi-vdp") > g("baseline") * 1.04, "vdp pays guest tax");
    assert!(g("type2") > g("baseline") * 1.05, "type2 pays interference");
}

#[test]
fn report_utilization_and_duration_consistent() {
    let mut m = loaded_machine(Mode::TaiChi, 6);
    m.run_until(SimTime::from_millis(250));
    let r = RunReport::collect(&m);
    assert_eq!(r.duration.as_millis_f64(), 250.0);
    assert_eq!(r.dp_utilization.len(), 8);
    for (i, u) in r.dp_utilization.iter().enumerate() {
        assert!((0.0..=1.0).contains(u), "cpu{i} utilization {u}");
    }
    // pps derived from packets and duration.
    let expect = r.dp.packets() as f64 / 0.25;
    assert!((r.dp_pps() - expect).abs() < 1.0);
}

#[test]
fn posted_interrupts_only_with_vcpus() {
    let mut base = loaded_machine(Mode::Baseline, 7);
    base.run_until(SimTime::from_millis(200));
    assert_eq!(base.posted_interrupts(), 0);
    assert_eq!(base.orchestrator().woken_count(), 0);
}

#[test]
fn every_mode_sees_identical_offered_load() {
    // Each generator draws from its own RNG stream, derived from the
    // seed alone, so the same generator must offer exactly the same
    // packets in every mode, however differently the modes schedule.
    let offered_load = |mode: Mode| {
        let cfg = MachineConfig {
            seed: 5,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, mode);
        m.add_traffic(bursty(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(1);
        m.schedule_cp_batch(synth.workload(8, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(150));
        // Offered = everything that reached a ring: processed, still
        // queued, or dropped (slower modes may have more in flight at
        // the horizon, but arrivals must match).
        m.services()
            .iter()
            .map(|s| s.processed() + s.pending() as u64 + s.dropped())
            .sum::<u64>()
    };
    let taichi = offered_load(Mode::TaiChi);
    assert!(taichi > 10_000, "offered load too small: {taichi}");
    for mode in [Mode::Baseline, Mode::TaiChiNoHwProbe] {
        assert_eq!(offered_load(mode), taichi, "{mode} vs taichi offered load");
    }
    // vdp processes slower; a handful of packets may still sit in the
    // accelerator pipeline (not yet in any ring) at the horizon.
    let diff = taichi.abs_diff(offered_load(Mode::TaiChiVdp));
    assert!(diff <= 8, "taichi vs vdp offered load differs by {diff}");
}
