//! Command-line parsing and the environment fence.
//!
//! A measurement must be steered by its flags alone: any `TAICHI_*`
//! variable in the environment is a usage error, because library code
//! still reads several of them.

use std::ffi::OsString;

/// The benchmark's workloads, in the order a full run executes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Harvest,
    DpSaturated,
    FleetRack,
    PaperSuite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Harvest,
        Workload::DpSaturated,
        Workload::FleetRack,
        Workload::PaperSuite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Harvest => "harvest",
            Workload::DpSaturated => "dp_saturated",
            Workload::FleetRack => "fleet_rack",
            Workload::PaperSuite => "paper_suite",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The default seed, shared with the experiment binaries; output
/// digests are committed for it.
pub const DEFAULT_SEED: u64 = 0xD1CE;

pub const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--repeat N]

  --workload  harvest | dp_saturated | fleet_rack | paper_suite (default: all,
              each in its own child process)
  --seed      decimal or 0x-prefixed hex u64 (default 0xD1CE)
  --seconds   measuring time per run, 1..=600 (default 10)
  --trace     1 runs the traced pass and reports per-layer metrics (default 0)
  --repeat    runs every selected workload N times, 1..=50, alternating the
              order, and prints medians and quartiles (default 1)

No TAICHI_* environment variable may be set.";

/// Checked command-line options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: u32,
}

impl Args {
    /// True when this process should measure one workload itself
    /// rather than orchestrate child runs.
    pub fn single(&self) -> bool {
        self.workload.is_some() && self.repeat == 1
    }

    /// The flags that reproduce this run for `workload` in a child.
    pub fn child_flags(&self, workload: Workload) -> Vec<String> {
        vec![
            "--workload".into(),
            workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ]
    }
}

/// Parse outcome that is not a run.
#[derive(Debug, PartialEq, Eq)]
pub enum Stop {
    /// `--help`: print usage, exit 0.
    Help,
    /// Bad input: print the message and usage, exit 2.
    Usage(String),
}

fn parse_u64(flag: &str, raw: &str, range: std::ops::RangeInclusive<u64>) -> Result<u64, Stop> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(v) if range.contains(&v) => Ok(v),
        _ => Err(Stop::Usage(format!(
            "{flag} {raw:?} is not a number in {}..={}",
            range.start(),
            range.end()
        ))),
    }
}

/// Parses the arguments (without the program name) after checking the
/// environment for `TAICHI_*` variables.
pub fn parse(
    args: impl IntoIterator<Item = String>,
    env: impl IntoIterator<Item = (OsString, OsString)>,
) -> Result<Args, Stop> {
    let mut fenced: Vec<String> = env
        .into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("TAICHI_"))
        .collect();
    if !fenced.is_empty() {
        fenced.sort();
        return Err(Stop::Usage(format!(
            "unset {} first: the benchmark configures every run through its flags",
            fenced.join(", ")
        )));
    }
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        repeat: 1,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Err(Stop::Help);
        }
        let known = ["--workload", "--seed", "--seconds", "--trace", "--repeat"];
        if !known.contains(&flag.as_str()) {
            return Err(Stop::Usage(format!("unknown argument {flag:?}")));
        }
        let Some(value) = it.next() else {
            return Err(Stop::Usage(format!("{flag} needs a value")));
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value)
                    .ok_or_else(|| Stop::Usage(format!("unknown workload {value:?}")))?;
                out.workload = Some(w);
            }
            "--seed" => out.seed = parse_u64(&flag, &value, 0..=u64::MAX)?,
            "--seconds" => out.seconds = parse_u64(&flag, &value, 1..=600)?,
            "--trace" => out.trace = parse_u64(&flag, &value, 0..=1)? == 1,
            _ => out.repeat = parse_u64(&flag, &value, 1..=50)? as u32,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Args, Stop> {
        parse(args.iter().map(|s| s.to_string()), Vec::new())
    }

    fn usage(r: Result<Args, Stop>) -> String {
        match r {
            Err(Stop::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn defaults() {
        let a = run(&[]).expect("no flags is valid");
        assert_eq!(a.workload, None);
        assert_eq!(a.seed, 0xD1CE);
        assert_eq!((a.seconds, a.trace, a.repeat), (10, false, 1));
        assert!(!a.single());
    }

    #[test]
    fn driver_flags() {
        let a = run(&[
            "--workload",
            "fleet_rack",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::FleetRack));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(a.single());
        assert_eq!(run(&["--seed", "0xD1CE"]).expect("hex").seed, 53_710);
        let back = parse(a.child_flags(Workload::Harvest), Vec::new()).expect("round trip");
        assert_eq!(back.workload, Some(Workload::Harvest));
        assert_eq!((back.seed, back.seconds, back.trace), (7, 12, true));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(usage(run(&["--bogus"])).contains("unknown argument"));
        assert!(usage(run(&["--workload", "nope"])).contains("unknown workload"));
        assert!(usage(run(&["--workload"])).contains("needs a value"));
        assert!(usage(run(&["--seed", "-1"])).contains("--seed"));
        assert!(usage(run(&["--seed", "0xZZ"])).contains("--seed"));
        assert!(usage(run(&["--seed", "18446744073709551616"])).contains("--seed"));
        assert!(usage(run(&["--seconds", "0"])).contains("--seconds"));
        assert!(usage(run(&["--trace", "2"])).contains("--trace"));
        assert!(usage(run(&["--repeat", "51"])).contains("--repeat"));
        assert_eq!(run(&["--help"]), Err(Stop::Help));
    }

    #[test]
    fn rejects_taichi_environment() {
        let env = vec![
            (OsString::from("PATH"), OsString::from("/bin")),
            (OsString::from("TAICHI_QUEUE"), OsString::from("heap")),
            (OsString::from("TAICHI_SEED"), OsString::from("1")),
        ];
        let msg = usage(parse(Vec::new(), env));
        assert!(msg.contains("TAICHI_QUEUE, TAICHI_SEED"), "{msg}");
        let clean = vec![(OsString::from("PATH"), OsString::from("/bin"))];
        assert!(parse(Vec::new(), clean).is_ok());
    }
}
