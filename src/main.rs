//! `taichi` — command-line front end to the simulator.
//!
//! ```text
//! taichi run   [--mode M] [--seed N] [--util F] [--bursty] [--cp N] [--until MS]
//! taichi compare [--seed N] [--util F] [--cp N] [--until MS]
//! taichi vmstorm [--density D] [--vms N] [--mode M] [--seed N]
//! taichi modes
//! ```
//!
//! A thin, dependency-free argument parser over the library: the same
//! flows the examples script, but parameterized for exploration.

use taichi::core::machine::{Machine, Mode};
use taichi::core::metrics::RunReport;
use taichi::core::MachineConfig;
use taichi::cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi::dp::{ArrivalPattern, TrafficGen};
use taichi::hw::{CpuId, IoKind};
use taichi::sim::report::Table;
use taichi::sim::{Dist, Rng, SimDuration, SimTime};

use std::process::ExitCode;

/// Parsed command-line options (shared across subcommands; unused
/// flags are simply ignored by commands that don't consume them).
#[derive(Clone, Debug)]
struct Opts {
    mode: Mode,
    seed: u64,
    util: f64,
    bursty: bool,
    cp_tasks: u32,
    until_ms: u64,
    density: u32,
    vms: u32,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            mode: Mode::TaiChi,
            seed: 0xD1CE,
            util: 0.3,
            bursty: true,
            cp_tasks: 16,
            until_ms: 1000,
            density: 4,
            vms: 4,
        }
    }
}

fn parse_mode(s: &str) -> Option<Mode> {
    Some(match s {
        "baseline" => Mode::Baseline,
        "taichi" => Mode::TaiChi,
        "taichi-no-hwprobe" | "no-hwprobe" => Mode::TaiChiNoHwProbe,
        "taichi-vdp" | "vdp" => Mode::TaiChiVdp,
        "type2" => Mode::Type2,
        _ => return None,
    })
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--mode" => {
                let v = val("--mode")?;
                o.mode = parse_mode(v)
                    .ok_or_else(|| format!("unknown mode '{v}' (see `taichi modes`)"))?;
            }
            "--seed" => {
                let v = val("--seed")?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a number"))?;
            }
            "--util" => {
                let v = val("--util")?;
                o.util = v
                    .parse()
                    .map_err(|_| format!("--util: '{v}' is not a number"))?;
                if !(0.01..=2.0).contains(&o.util) {
                    return Err(format!("--util must be in [0.01, 2.0], got {}", o.util));
                }
            }
            "--bursty" => o.bursty = true,
            "--smooth" => o.bursty = false,
            "--cp" => {
                let v = val("--cp")?;
                o.cp_tasks = v
                    .parse()
                    .map_err(|_| format!("--cp: '{v}' is not a number"))?;
            }
            "--until" => {
                let v = val("--until")?;
                o.until_ms = v
                    .parse()
                    .map_err(|_| format!("--until: '{v}' is not a number (ms)"))?;
                if o.until_ms == 0 {
                    return Err("--until must be positive".into());
                }
            }
            "--density" => {
                let v = val("--density")?;
                o.density = v
                    .parse()
                    .map_err(|_| format!("--density: '{v}' is not a number"))?;
                if o.density == 0 {
                    return Err("--density must be positive".into());
                }
            }
            "--vms" => {
                let v = val("--vms")?;
                o.vms = v
                    .parse()
                    .map_err(|_| format!("--vms: '{v}' is not a number"))?;
                if o.vms == 0 {
                    return Err("--vms must be positive".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(o)
}

fn traffic(o: &Opts, dp_cpus: u32) -> TrafficGen {
    let pattern = if o.bursty {
        let duty = (o.util / 0.9).clamp(0.02, 1.0);
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(200.0 * (1.0 - duty) / duty.max(0.01)),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / 8.0),
        }
    } else {
        ArrivalPattern::OpenLoop {
            gap_us: Dist::exponential(1.5 / o.util / 8.0),
        }
    };
    TrafficGen::new(
        pattern,
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(CpuId).collect(),
    )
}

fn build(o: &Opts, mode: Mode) -> Machine {
    let cfg = MachineConfig {
        seed: o.seed,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, mode);
    // Spread the same aggregate offered load over however many DP CPUs
    // this mode actually has (type-2 loses one to emulation).
    let dp_cpus = m.services().len() as u32;
    m.add_traffic(traffic(o, dp_cpus));
    if o.cp_tasks > 0 {
        let synth = SynthCp::default();
        let mut rng = Rng::new(o.seed ^ 0xC11);
        m.schedule_cp_batch(synth.workload(o.cp_tasks, &mut rng), SimTime::ZERO);
    }
    m
}

fn report_row(mode: Mode, r: &RunReport) -> Vec<String> {
    vec![
        mode.to_string(),
        r.dp.packets().to_string(),
        format!("{:.2}", r.dp.total_latency().mean() / 1e3),
        format!("{:.2}", r.dp.total_latency().percentile(99.0) as f64 / 1e3),
        format!("{:.1}", r.mean_cp_turnaround_ms()),
        r.cp_finished.to_string(),
        r.yields.to_string(),
    ]
}

const HEADER: [&str; 7] = [
    "mode",
    "packets",
    "dp mean (us)",
    "dp p99 (us)",
    "cp mean (ms)",
    "cp finished",
    "yields",
];

fn cmd_run(o: &Opts) -> ExitCode {
    let mut m = build(o, o.mode);
    m.run_until(SimTime::from_millis(o.until_ms));
    let r = RunReport::collect(&m);
    let mut t = Table::new(
        &format!(
            "taichi run — mode {} seed {:#x} util {:.0}% {} cp {} for {} ms",
            o.mode,
            o.seed,
            o.util * 100.0,
            if o.bursty { "bursty" } else { "smooth" },
            o.cp_tasks,
            o.until_ms
        ),
        &HEADER,
    );
    t.row(&report_row(o.mode, &r));
    print!("{}", t.render());
    ExitCode::SUCCESS
}

fn cmd_compare(o: &Opts) -> ExitCode {
    let mut t = Table::new(
        &format!(
            "taichi compare — seed {:#x} util {:.0}% cp {} for {} ms",
            o.seed,
            o.util * 100.0,
            o.cp_tasks,
            o.until_ms
        ),
        &HEADER,
    );
    let mut cp_means = Vec::new();
    for mode in Mode::all() {
        let mut m = build(o, mode);
        m.run_until(SimTime::from_millis(o.until_ms));
        let r = RunReport::collect(&m);
        cp_means.push((mode, r.mean_cp_turnaround_ms()));
        t.row(&report_row(mode, &r));
    }
    print!("{}", t.render());
    if let (Some(base), Some(tc)) = (
        cp_means.iter().find(|(m, _)| *m == Mode::Baseline),
        cp_means.iter().find(|(m, _)| *m == Mode::TaiChi),
    ) {
        if tc.1 > 0.0 {
            println!(
                "\ncontrol-plane speedup (baseline/taichi): {:.2}x",
                base.1 / tc.1
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_vmstorm(o: &Opts) -> ExitCode {
    let mut m = build(
        &Opts {
            cp_tasks: 0,
            ..o.clone()
        },
        o.mode,
    );
    let factory = TaskFactory::default();
    for i in 0..o.vms {
        let mut req =
            VmCreateRequest::at_density(i as u64, o.density, SimTime::from_millis(i as u64 * 5));
        req.qemu_boot = SimDuration::from_millis(10);
        m.schedule_vm_create(req, &factory);
    }
    m.run_until_or(SimTime::from_secs(120), |m| {
        m.vm_startup_times().len() as u32 >= o.vms
    });
    let times = m.vm_startup_times();
    if (times.len() as u32) < o.vms {
        eprintln!(
            "error: only {}/{} VMs started within 120 s of simulated time",
            times.len(),
            o.vms
        );
        return ExitCode::FAILURE;
    }
    let mut t = Table::new(
        &format!(
            "taichi vmstorm — mode {} density {}x, {} VMs",
            o.mode, o.density, o.vms
        ),
        &["vm", "startup (ms)"],
    );
    for (i, d) in times.iter().enumerate() {
        t.row(&[i.to_string(), format!("{:.1}", d.as_millis_f64())]);
    }
    let mean = times.iter().map(|d| d.as_millis_f64()).sum::<f64>() / times.len() as f64;
    t.row(&["mean".into(), format!("{mean:.1}")]);
    print!("{}", t.render());
    ExitCode::SUCCESS
}

fn cmd_modes() -> ExitCode {
    println!("available modes:");
    for m in Mode::all() {
        let desc = match m {
            Mode::Baseline => "production static partitioning (8 DP + 4 CP pCPUs)",
            Mode::TaiChi => "full Tai Chi hybrid virtualization",
            Mode::TaiChiNoHwProbe => {
                "Tai Chi without the hardware workload probe (Table 5 ablation)"
            }
            Mode::TaiChiVdp => "type-1-like: data plane inside vCPUs (§6.3)",
            Mode::Type2 => "QEMU+KVM-like: CP in a guest OS, 1 DP CPU lost to emulation",
        };
        println!("  {:<18} {desc}", m.to_string());
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: taichi <command> [flags]\n\
         \n\
         commands:\n\
         \x20 run       simulate one mode and print the run report\n\
         \x20 compare   run every scheduling mode on the same workload\n\
         \x20 vmstorm   VM-creation storm (Figs. 2/17 style)\n\
         \x20 modes     list scheduling modes\n\
         \n\
         flags:\n\
         \x20 --mode M      scheduling mode (default taichi)\n\
         \x20 --seed N      RNG seed (default 0xD1CE as decimal 53710)\n\
         \x20 --util F      target DP utilization 0.01-2.0 (default 0.3)\n\
         \x20 --bursty      on/off bursty arrivals (default)\n\
         \x20 --smooth      smooth Poisson arrivals\n\
         \x20 --cp N        concurrent synth_cp tasks (default 16)\n\
         \x20 --until MS    simulated horizon in ms (default 1000)\n\
         \x20 --density D   vmstorm instance density (default 4)\n\
         \x20 --vms N       vmstorm VM count (default 4)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    if cmd == "modes" {
        return cmd_modes();
    }
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "vmstorm" => cmd_vmstorm(&opts),
        _ => {
            eprintln!("error: unknown command '{cmd}'");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_opts(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_when_no_flags() {
        let o = parse(&[]).expect("empty args parse");
        assert_eq!(o.mode, Mode::TaiChi);
        assert_eq!(o.cp_tasks, 16);
        assert!(o.bursty);
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "--mode",
            "type2",
            "--seed",
            "7",
            "--util",
            "0.5",
            "--smooth",
            "--cp",
            "3",
            "--until",
            "250",
            "--density",
            "2",
            "--vms",
            "6",
        ])
        .expect("valid flags parse");
        assert_eq!(o.mode, Mode::Type2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.util, 0.5);
        assert!(!o.bursty);
        assert_eq!(o.cp_tasks, 3);
        assert_eq!(o.until_ms, 250);
        assert_eq!(o.density, 2);
        assert_eq!(o.vms, 6);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--util", "9"]).is_err());
        assert!(parse(&["--until", "0"]).is_err());
        assert!(parse(&["--vms", "0"]).is_err());
        assert!(parse(&["--density", "0"]).is_err());
        assert!(parse(&["--seed", "xyz"]).is_err());
        assert!(parse(&["--mode", "nope"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--mode"]).is_err(), "missing value");
    }

    #[test]
    fn mode_aliases() {
        assert_eq!(parse_mode("vdp"), Some(Mode::TaiChiVdp));
        assert_eq!(parse_mode("no-hwprobe"), Some(Mode::TaiChiNoHwProbe));
        assert_eq!(parse_mode(""), None);
    }
}
