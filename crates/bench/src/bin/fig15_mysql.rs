//! Figure 15: MySQL (192 sysbench threads) under baseline vs Tai Chi.
//!
//! Paper: 1.56 % average overhead, peaking at 1.63 % on average query
//! throughput.

use taichi_bench::{emit, sweep_with, Knobs};
use taichi_core::machine::Mode;
use taichi_sim::report::{grouped, pct, Table};
use taichi_workloads::mysql;

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let runs = sweep_with(knobs.workers, vec![Mode::Baseline, Mode::TaiChi], |m| {
        mysql::run(m, &cfg)
    });
    let [base, taichi] = <[_; 2]>::try_from(runs).ok().unwrap();

    let mut t = Table::new(
        "Figure 15: MySQL throughput (192 sysbench threads)",
        &["metric", "baseline", "taichi", "overhead"],
    );
    let mut overheads = Vec::new();
    for (name, b, x) in [
        ("max_query (qps)", base.max_query, taichi.max_query),
        ("avg_query (qps)", base.avg_query, taichi.avg_query),
        ("max_trans (tps)", base.max_trans, taichi.max_trans),
        ("avg_trans (tps)", base.avg_trans, taichi.avg_trans),
    ] {
        let over = (b - x) / b;
        overheads.push(over);
        t.row(&[name.to_string(), grouped(b), grouped(x), pct(over)]);
    }
    emit("fig15_mysql", &t);

    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    let peak = overheads.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "paper: 1.56% avg overhead (peak 1.63%) | measured: {} avg (peak {})",
        pct(avg),
        pct(peak)
    );
}
