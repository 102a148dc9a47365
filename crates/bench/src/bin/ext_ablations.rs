//! §9 future-work ablations: pipeline-aware yielding and cache/TLB
//! isolation.
//!
//! The paper's future-work section proposes (a) consulting accelerator
//! pipeline metadata before yielding, to avoid guaranteed
//! false-positive yields, and (b) cache/TLB isolation to remove the
//! residual DP overhead caused by vCPU cache pollution. Both are
//! implemented behind `TaiChiConfig` flags; this binary quantifies
//! each against stock Tai Chi.

use taichi_bench::{emit, emit_trace, sweep_with, Knobs};
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::{MachineConfig, TaiChiConfig};
use taichi_cp::{CpTaskKind, TaskFactory};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::{pct, Table};
use taichi_sim::{Dist, Rng, SimTime};

struct Outcome {
    dp_mean_ns: f64,
    dp_p999_ns: u64,
    false_yield_rate: f64,
    vetoes: u64,
    cp_ms: f64,
}

fn run(base: &MachineConfig, taichi: TaiChiConfig) -> Outcome {
    let label = format!(
        "ext_ablations_pipeline{}_cache{}",
        taichi.pipeline_aware_yield as u8, taichi.cache_isolation as u8
    );
    let cfg = MachineConfig {
        taichi,
        ..base.clone()
    };
    let mut m = Machine::new(cfg, Mode::TaiChi);
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / 8.0),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..8).map(CpuId).collect(),
    ));
    let factory = TaskFactory::default();
    let mut rng = Rng::new(base.seed ^ 0xE);
    m.schedule_cp_batches((1..800).step_by(2).map(SimTime::from_millis), move || {
        vec![
            factory.build(CpTaskKind::DeviceManagement, &mut rng),
            factory.build(CpTaskKind::Monitoring, &mut rng),
        ]
    });
    m.run_until(SimTime::from_millis(800));
    emit_trace(&label, &m);
    let r = RunReport::collect(&m);
    Outcome {
        dp_mean_ns: r.dp.total_latency().mean(),
        dp_p999_ns: r.dp.total_latency().percentile(99.9),
        false_yield_rate: if r.yields == 0 {
            0.0
        } else {
            r.hw_probe_exits as f64 / r.yields as f64
        },
        vetoes: m.yield_vetoes(),
        cp_ms: r.mean_cp_turnaround_ms(),
    }
}

fn main() {
    let knobs = Knobs::init();
    let base = knobs.machine();
    // The four ablation configs are independent machine runs: fan
    // them out across workers, results in input order.
    let runs = sweep_with(
        knobs.workers,
        vec![
            TaiChiConfig::default(),
            TaiChiConfig {
                pipeline_aware_yield: true,
                ..TaiChiConfig::default()
            },
            TaiChiConfig {
                cache_isolation: true,
                ..TaiChiConfig::default()
            },
            TaiChiConfig {
                pipeline_aware_yield: true,
                cache_isolation: true,
                ..TaiChiConfig::default()
            },
        ],
        |taichi| run(&base, taichi),
    );
    let [stock, pipeline, isolation, both] = <[_; 4]>::try_from(runs).ok().unwrap();

    let mut t = Table::new(
        "Future-work ablations (§9): pipeline-aware yield + cache isolation",
        &[
            "config",
            "dp mean (us)",
            "dp p999 (us)",
            "false-yield rate",
            "vetoes",
            "cp mean (ms)",
        ],
    );
    for (name, o) in [
        ("stock taichi", &stock),
        ("+pipeline-aware", &pipeline),
        ("+cache-isolation", &isolation),
        ("+both", &both),
    ] {
        t.row(&[
            name.to_string(),
            format!("{:.2}", o.dp_mean_ns / 1e3),
            format!("{:.1}", o.dp_p999_ns as f64 / 1e3),
            format!("{:.3}", o.false_yield_rate),
            o.vetoes.to_string(),
            format!("{:.2}", o.cp_ms),
        ]);
    }
    emit("ext_ablations", &t);

    println!(
        "cache isolation removes {} of the DP mean-latency overhead; \
         pipeline awareness vetoed {} guaranteed-false yields",
        pct((stock.dp_mean_ns - isolation.dp_mean_ns) / stock.dp_mean_ns),
        pipeline.vetoes
    );
}
