//! Randomized property tests for the hardware model, driven by the
//! in-repo deterministic harness ([`taichi_sim::check`]).

use taichi_hw::{
    Accelerator, AcceleratorConfig, CpuExecState, CpuId, HwWorkloadProbe, IoKind, Packet, PacketId,
    RxQueue,
};
use taichi_sim::check::run_cases;
use taichi_sim::SimTime;

/// The rx ring behaves exactly like a bounded VecDeque: FIFO order,
/// drops only when full, conservation of packets.
#[test]
fn rx_queue_matches_model() {
    run_cases("rx_queue_matches_model", 128, |_, rng| {
        let cap = rng.gen_range(1, 64) as usize;
        let burst = rng.gen_range(1, 16) as usize;
        let nops = rng.next_below(200);
        let mut q = RxQueue::new(cap);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut pushed = 0u64;
        let mut dropped = 0u64;
        let mut popped = 0u64;
        for _ in 0..nops {
            if rng.chance(0.5) {
                let id = rng.gen_range(1, 1000);
                let p = Packet::new(
                    PacketId(id),
                    IoKind::Network,
                    64,
                    CpuId(0),
                    0,
                    SimTime::ZERO,
                );
                if model.len() < cap {
                    model.push_back(id);
                    assert!(q.push(p));
                    pushed += 1;
                } else {
                    assert!(!q.push(p));
                    dropped += 1;
                }
            } else {
                let got: Vec<u64> = q.rx_burst(burst).iter().map(|p| p.id.0).collect();
                let want: Vec<u64> = (0..burst.min(model.len()))
                    .map(|_| model.pop_front().expect("len checked"))
                    .collect();
                assert_eq!(&got, &want);
                popped += got.len() as u64;
            }
        }
        assert_eq!(q.len(), model.len());
        assert_eq!(q.total_enqueued(), pushed);
        assert_eq!(q.total_dropped(), dropped);
        assert_eq!(q.total_dequeued(), popped);
        assert_eq!(pushed, popped + q.len() as u64);
    });
}

/// Accelerator stage times are exact and per-channel issue order is
/// monotone regardless of arrival pattern.
#[test]
fn accelerator_timing_invariants() {
    run_cases("accelerator_timing_invariants", 128, |_, rng| {
        let n = rng.gen_range(1, 100);
        let mut arrivals: Vec<(u64, u32, u32)> = (0..n)
            .map(|_| {
                (
                    rng.next_below(1_000_000),
                    rng.next_below(8) as u32,
                    rng.gen_range(64, 9000) as u32,
                )
            })
            .collect();
        let cfg = AcceleratorConfig::default();
        let window = cfg.window();
        let mut acc = Accelerator::new(cfg);
        let mut probe = HwWorkloadProbe::new(12);
        arrivals.sort();
        let mut last_start = [SimTime::ZERO; 12];
        for (i, &(at_us, cpu, size)) in arrivals.iter().enumerate() {
            let at = SimTime::from_micros(at_us);
            let mut p = Packet::new(PacketId(i as u64), IoKind::Network, size, CpuId(cpu), 0, at);
            let out = acc.ingest(&mut p, at, &mut probe);
            // Stage arithmetic is exact.
            assert_eq!(out.delivered_at - out.irq_at, window);
            assert!(out.irq_at >= at, "cannot start before arrival");
            // Per-channel issue order is monotone.
            let ch = cpu as usize % 12;
            assert!(out.irq_at >= last_start[ch]);
            last_start[ch] = out.irq_at;
            // Timestamps are stamped on the packet.
            assert_eq!(p.delivered_at, Some(out.delivered_at));
        }
        assert_eq!(acc.packets_ingested(), arrivals.len() as u64);
    });
}

/// The probe raises an IRQ iff enabled and the destination is in
/// V-state, for any update/check interleaving.
#[test]
fn probe_is_a_pure_state_table() {
    run_cases("probe_is_a_pure_state_table", 128, |_, rng| {
        let mut probe = HwWorkloadProbe::new(12);
        let mut model = [CpuExecState::PState; 12];
        let mut enabled = true;
        let nops = rng.next_below(200);
        for _ in 0..nops {
            let cpu = rng.next_below(12) as u32;
            let set_vstate = rng.chance(0.5);
            let toggle_enable = rng.chance(0.5);
            if toggle_enable {
                enabled = !enabled;
                probe.set_enabled(enabled);
            }
            let state = if set_vstate {
                CpuExecState::VState
            } else {
                CpuExecState::PState
            };
            probe.set_state(CpuId(cpu), state);
            model[cpu as usize] = state;
            let want = enabled && model[cpu as usize] == CpuExecState::VState;
            assert_eq!(probe.check_on_packet(CpuId(cpu)), want);
        }
    });
}
