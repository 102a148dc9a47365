//! Figure 16: Nginx requests/second (wrk, 10 000 connections), HTTP
//! and HTTPS, under baseline vs Tai Chi.
//!
//! Paper: 0.51 % average overhead, up to 1 % for short connections.

use taichi_bench::{emit, sweep_with, Knobs};
use taichi_core::machine::Mode;
use taichi_sim::report::{grouped, pct, Table};
use taichi_workloads::nginx;

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let runs = sweep_with(knobs.workers, vec![Mode::Baseline, Mode::TaiChi], |m| {
        nginx::run(m, &cfg)
    });
    let [base, taichi] = <[_; 2]>::try_from(runs).ok().unwrap();

    let mut t = Table::new(
        "Figure 16: Nginx avg requests/second (10k connections)",
        &["protocol", "baseline", "taichi", "overhead"],
    );
    let http_over = (base.http_rps - taichi.http_rps) / base.http_rps;
    let https_over = (base.https_rps - taichi.https_rps) / base.https_rps;
    t.row(&[
        "HTTP".into(),
        grouped(base.http_rps),
        grouped(taichi.http_rps),
        pct(http_over),
    ]);
    t.row(&[
        "HTTPS".into(),
        grouped(base.https_rps),
        grouped(taichi.https_rps),
        pct(https_over),
    ]);
    emit("fig16_nginx", &t);

    println!(
        "paper: 0.51% avg overhead (<=1% short-connection) | measured: avg {}, http {}",
        pct((http_over + https_over) / 2.0),
        pct(http_over)
    );
}
