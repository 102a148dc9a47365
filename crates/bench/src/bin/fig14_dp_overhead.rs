//! Figure 14: data-plane overhead of Tai Chi across netperf and
//! sockperf cases, normalized to the baseline.
//!
//! Paper: 0.6 % average overhead, worst 1.92 % (tcp_stream avg_tx_pps).

use taichi_bench::{emit, sweep_with, Knobs};
use taichi_core::machine::Mode;
use taichi_sim::report::{pct, Table};
use taichi_workloads::netperf::{self, NetperfCase};
use taichi_workloads::sockperf;

fn main() {
    let knobs = Knobs::init();
    let cfg = knobs.machine();
    let mut t = Table::new(
        "Figure 14: Tai Chi DP performance normalized to baseline",
        &["case", "metric", "baseline", "taichi", "normalized"],
    );
    let mut overheads: Vec<f64> = Vec::new();
    let push = |t: &mut Table, case: &str, metric: &str, base: f64, taichi: f64| {
        let norm = taichi / base;
        t.row(&[
            case.to_string(),
            metric.to_string(),
            format!("{base:.0}"),
            format!("{taichi:.0}"),
            format!("{norm:.4}"),
        ]);
        norm
    };

    let cases = [
        (NetperfCase::UdpStream, "udp_stream"),
        (NetperfCase::TcpStream, "tcp_stream"),
        (NetperfCase::TcpRr, "tcp_rr"),
    ];
    // All (case, mode) machine runs are independent: fan the six out
    // across workers; results come back in input order (baseline and
    // taichi adjacent per case) so rows render exactly as serially.
    let jobs: Vec<(NetperfCase, Mode)> = cases
        .iter()
        .flat_map(|&(c, _)| [(c, Mode::Baseline), (c, Mode::TaiChi)])
        .collect();
    let mut net = sweep_with(knobs.workers, jobs, |(c, m)| netperf::run(c, m, &cfg)).into_iter();

    for (case, name) in cases {
        let b = net.next().unwrap();
        let x = net.next().unwrap();
        if case == NetperfCase::UdpStream {
            let n = push(
                &mut t,
                name,
                "avg_rx_bw (Mb/s)",
                b.avg_rx_bw_gbps * 1e3,
                x.avg_rx_bw_gbps * 1e3,
            );
            overheads.push(1.0 - n);
        } else {
            let n1 = push(&mut t, name, "avg_rx_pps", b.avg_rx_pps, x.avg_rx_pps);
            let n2 = push(&mut t, name, "avg_tx_pps", b.avg_tx_pps, x.avg_tx_pps);
            overheads.push(1.0 - n1);
            overheads.push(1.0 - n2);
        }
    }

    let tcp = sweep_with(knobs.workers, vec![Mode::Baseline, Mode::TaiChi], |m| {
        sockperf::run_tcp(m, &cfg)
    });
    let [bt, xt] = <[_; 2]>::try_from(tcp).ok().unwrap();
    let n = push(&mut t, "sockperf_tcp", "CPS", bt.cps, xt.cps);
    overheads.push(1.0 - n);
    let n = push(
        &mut t,
        "sockperf_tcp",
        "avg_rx_pps",
        bt.avg_rx_pps,
        xt.avg_rx_pps,
    );
    overheads.push(1.0 - n);

    let udp = sweep_with(knobs.workers, vec![Mode::Baseline, Mode::TaiChi], |m| {
        sockperf::run_udp(m, &cfg)
    });
    let [bu, xu] = <[_; 2]>::try_from(udp).ok().unwrap();
    // Latency metrics are inverted (lower is better): normalize as
    // baseline/taichi so <1.0 still means overhead.
    for (metric, b, x) in [
        ("udp_avg_lat (us)", bu.avg_lat_us, xu.avg_lat_us),
        ("udp_p99_lat (us)", bu.p99_lat_us, xu.p99_lat_us),
        ("udp_p999_lat (us)", bu.p999_lat_us, xu.p999_lat_us),
    ] {
        let norm = b / x;
        t.row(&[
            "sockperf_udp".into(),
            metric.into(),
            format!("{b:.1}"),
            format!("{x:.1}"),
            format!("{norm:.4}"),
        ]);
        overheads.push(1.0 - norm);
    }

    emit("fig14_dp_overhead", &t);

    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    let worst = overheads.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "paper: avg 0.6% overhead, worst 1.92% | measured: avg {}, worst {}",
        pct(avg),
        pct(worst)
    );
}
