//! `Machine::resident_bytes` against the heap a fleet machine really
//! holds.
//!
//! A test-local global allocator tracks live heap bytes. The test
//! builds 16 machines as the fleet does, feeds them east-west
//! injections, VM churn and a startup storm through 8 epochs of 2 ms
//! with the fleet's recorder loans, and requires the summed
//! `resident_bytes` to land within 10 % of the heap the machines hold.
//! On failure it prints the per-component table.
//!
//! This file must stay a **single-test binary**: the live-byte counter
//! is process-global, so a sibling test thread would leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use taichi_core::machine::Machine;
use taichi_cp::{TaskFactory, VmCreateRequest};
use taichi_dp::{LatencyRecorder, ServiceRecorders};
use taichi_fleet::FleetConfig;
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::{Rng, SimDuration, SimTime};

static LIVE: AtomicI64 = AtomicI64::new(0);

/// Counts live heap bytes: requested sizes, allocator overhead aside.
struct LiveBytes;

// SAFETY: pure delegation to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const MACHINES: usize = 16;
const EPOCHS: u64 = 8;
const EPOCH: SimDuration = SimDuration::from_millis(2);

#[test]
fn resident_bytes_track_the_live_heap() {
    let factory = TaskFactory::default();
    let mut rng = Rng::new(0x5EED);
    let mut vm_id = 0;
    // Like the fleet's workers, lend each machine warm recorders for
    // one epoch at a time, so machines hold no histogram storage.
    let mut loan: Vec<Option<Box<ServiceRecorders>>> = Vec::new();
    let before = LIVE.load(Ordering::Relaxed);
    let cfg = FleetConfig::default();
    let mut machines: Vec<Machine> = (0..MACHINES).map(|i| cfg.build_machine(i)).collect();
    for e in 0..EPOCHS {
        let start = SimTime::ZERO + EPOCH.saturating_mul(e);
        for m in machines.iter_mut() {
            // East-west arrivals spread over the epoch, VM churn on
            // about one machine in eight, and a storm at epoch 4.
            for _ in 0..12 {
                let at = start + SimDuration::from_nanos(rng.next_below(EPOCH.as_nanos()));
                let cpu = CpuId(rng.next_below(8) as u32);
                m.inject_rx_for_tenant(at, IoKind::Network, 512, cpu, TenantId(0));
            }
            let creates = if e == 4 {
                2
            } else {
                u32::from(rng.chance(0.125))
            };
            for _ in 0..creates {
                vm_id += 1;
                m.schedule_vm_create(VmCreateRequest::at_density(vm_id, 2, start), &factory);
            }
            m.swap_dp_recorders(&mut loan);
            m.run_until(start + EPOCH);
            m.swap_dp_recorders(&mut loan);
            for r in loan.iter_mut().flatten() {
                r.merged = LatencyRecorder::new();
            }
        }
    }
    drop(loan);
    let live = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let mut table: Vec<(&'static str, usize)> = Vec::new();
    for m in &machines {
        for (name, bytes) in m.resident_components() {
            match table.iter_mut().find(|(n, _)| *n == name) {
                Some(row) => row.1 += bytes,
                None => table.push((name, bytes)),
            }
        }
    }
    let counted: usize = machines.iter().map(Machine::resident_bytes).sum();
    assert_eq!(counted, table.iter().map(|&(_, b)| b).sum::<usize>());
    let ratio = counted as f64 / live;
    let report = table
        .iter()
        .map(|(name, bytes)| {
            format!(
                "  {name:<16} {:>8.1} kB",
                *bytes as f64 / 1e3 / MACHINES as f64
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    eprintln!(
        "per machine: live heap {:.1} kB, resident_bytes {:.1} kB (ratio {ratio:.3})\n{report}",
        live / 1e3 / MACHINES as f64,
        counted as f64 / 1e3 / MACHINES as f64,
    );
    assert!(
        (0.9..=1.1).contains(&ratio),
        "resident_bytes covers {:.1} % of the live heap\n{report}",
        ratio * 100.0
    );
}
