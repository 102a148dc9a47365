//! Shared helpers for the experiment binaries.
//!
//! Every `figN`/`tableN` binary prints an aligned table to stdout and
//! writes the same rows as CSV under `target/experiments/`, so the
//! paper's figures can be regenerated from a single
//! `cargo run -p taichi-bench --bin <id>`. Each binary resolves its
//! [`Knobs`] once at the top of `main`; this is the only crate that
//! reads the process environment.

use std::fs;
use std::path::PathBuf;

use taichi_core::MachineConfig;
use taichi_sim::report::Table;
use taichi_sim::{FaultPlan, TraceConfig};

/// Directory where experiment CSVs are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints `table` and persists its CSV as `<name>.csv`.
pub fn emit(name: &str, table: &Table) {
    println!("{}", table.render());
    let path = results_dir().join(format!("{name}.csv"));
    if let Err(e) = fs::write(&path, table.to_csv()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[csv] {}", path.display());
    }
}

/// Seed every experiment binary uses unless `TAICHI_SEED` overrides it.
const DEFAULT_SEED: u64 = 0xD1CE;

/// Deterministic parallel sweep with an explicit worker count (see
/// [`taichi_sim::par`]); binaries pass [`Knobs::workers`].
pub use taichi_sim::par::sweep_with;

/// Everything the process environment and the shared flags may say
/// about a run, resolved once at the top of `main`. Library code never
/// reads the environment: a binary turns these into explicit
/// [`MachineConfig`]s (see [`Knobs::machine`]) and worker counts.
///
/// | Knob | Source | Default |
/// |------|--------|---------|
/// | `seed` | `TAICHI_SEED=<u64>` | `0xD1CE` |
/// | `workers` | `TAICHI_WORKERS=<n >= 1>` | available parallelism |
/// | `trace` | `--trace`, or `TAICHI_TRACE[=<path>]` (a non-empty value is the dump path) | off |
/// | `faults` | `TAICHI_FAULTS=<spec>` ([`FaultPlan::apply_spec`] format) | no faults |
#[derive(Clone, Debug)]
pub struct Knobs {
    /// Base RNG seed.
    pub seed: u64,
    /// Sweep worker threads (>= 1; 1 is the serial reference path).
    pub workers: usize,
    /// Scheduler trace switch and dump destination.
    pub trace: TraceConfig,
    /// Fault-injection plan for the machines a binary builds.
    pub faults: FaultPlan,
}

/// Usage line shared by every binary whose only flag is `--trace`.
const KNOBS_USAGE: &str = "[--trace]  (environment: TAICHI_SEED=<u64>, \
     TAICHI_WORKERS=<n >= 1>, TAICHI_TRACE[=<path>], TAICHI_FAULTS=<spec>)";

impl Knobs {
    /// Parses the knobs from `args` (without the program name) and the
    /// variable lookup `env`, consuming `--trace`; returns the knobs and
    /// the arguments left for the binary's own flags. Pure: tests pass
    /// any `env` without touching the process environment.
    pub fn parse(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
        available: usize,
    ) -> Result<(Knobs, Vec<String>), String> {
        let seed = match env("TAICHI_SEED") {
            None => DEFAULT_SEED,
            Some(s) => s
                .trim()
                .parse()
                .map_err(|_| format!("TAICHI_SEED={s:?} is not a valid u64 seed"))?,
        };
        let workers = resolve_workers(env("TAICHI_WORKERS").as_deref(), available)?;
        let faults = match env("TAICHI_FAULTS") {
            None => FaultPlan::default(),
            Some(spec) => FaultPlan::default()
                .apply_spec(&spec)
                .map_err(|e| format!("TAICHI_FAULTS={spec:?}: {e}"))?,
        };
        let dump = env("TAICHI_TRACE");
        let flag = args.iter().any(|a| a == "--trace");
        let trace = TraceConfig {
            enabled: flag || dump.is_some(),
            dump: dump.filter(|p| !p.is_empty()).map(PathBuf::from),
            ..TraceConfig::default()
        };
        let rest = args.iter().filter(|a| *a != "--trace").cloned().collect();
        let knobs = Knobs {
            seed,
            workers,
            trace,
            faults,
        };
        Ok((knobs, rest))
    }

    /// Resolves the knobs of a binary whose only flag is `--trace`. Bad
    /// input — an invalid knob value or any other argument — prints
    /// `error: ...` and a usage line, then exits with status 2.
    pub fn init() -> Knobs {
        let (knobs, rest) = Knobs::init_with_args(KNOBS_USAGE);
        if let Some(a) = rest.first() {
            usage_error(KNOBS_USAGE, &format!("unknown argument {a:?}"));
        }
        knobs
    }

    /// Like [`Knobs::init`] for a binary with flags of its own: returns
    /// the arguments the knobs did not consume. `usage` (the text after
    /// the program name) is printed with any knob error.
    pub fn init_with_args(usage: &str) -> (Knobs, Vec<String>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        Knobs::parse(&args, |v| std::env::var(v).ok(), available)
            .unwrap_or_else(|e| usage_error(usage, &e))
    }

    /// The base machine configuration: defaults plus this run's seed,
    /// trace, and faults.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig {
            seed: self.seed,
            trace: self.trace.clone(),
            faults: self.faults,
            ..MachineConfig::default()
        }
    }
}

/// Resolves a `TAICHI_WORKERS` value: unset means `available`; zero or
/// anything but a positive integer is an error.
fn resolve_workers(var: Option<&str>, available: usize) -> Result<usize, String> {
    let Some(s) = var else {
        return Ok(available.max(1));
    };
    match s.trim().parse::<usize>() {
        Ok(0) => Err("TAICHI_WORKERS=0 requests zero workers (expected an integer >= 1)".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "TAICHI_WORKERS={s:?} is not a valid worker count (expected an integer >= 1)"
        )),
    }
}

/// Prints `error: <msg>` and `usage: <program> <usage>` to stderr, then
/// exits with status 2.
pub fn usage_error(usage: &str, msg: &str) -> ! {
    let program = std::env::args()
        .next()
        .map(PathBuf::from)
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "taichi-bench".into());
    eprintln!("error: {msg}");
    eprintln!("usage: {program} {usage}");
    std::process::exit(2);
}

/// Dumps a machine's scheduler trace as `<name>.trace.tsv` under the
/// results directory, or to the machine's `trace.dump` path (see
/// [`Machine::export_trace`](taichi_core::machine::Machine::export_trace)),
/// and prints where it landed. No-op when the machine was built
/// without tracing.
pub fn emit_trace(name: &str, machine: &taichi_core::machine::Machine) {
    let default = results_dir().join(format!("{name}.trace.tsv"));
    if let Some(path) = machine.export_trace(&default) {
        println!("[trace] {}", path.display());
    }
}

/// Peak resident set size of this process in kB, read from
/// `/proc/self/status` (`VmHWM`). Linux-only; answers `None` elsewhere
/// or if the field is missing, so callers must treat it as a
/// best-effort diagnostic, never an identity-compared value.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time this process has used so far, user plus system, summed
/// over all its threads: `getrusage(RUSAGE_SELF)`. Unlike wall time it
/// does not grow while the host runs someone else's work, which makes
/// it the denominator for throughput gates on shared machines. Linux
/// only; `None` elsewhere or if the call fails.
pub fn cpu_time_s() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_long};
        #[repr(C)]
        struct Timeval {
            sec: c_long,
            usec: c_long,
        }
        /// `struct rusage`: the two times, then 14 `long` counters.
        #[repr(C)]
        struct Rusage {
            utime: Timeval,
            stime: Timeval,
            counters: [c_long; 14],
        }
        extern "C" {
            fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
        }
        const RUSAGE_SELF: c_int = 0;
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            counters: [0; 14],
        };
        // SAFETY: `ru` is a writable `struct rusage` with the C layout,
        // and getrusage writes nothing outside it.
        if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
            return None;
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Some(secs(&ru.utime) + secs(&ru.stime))
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Path of a committed `BENCH_*.json` trajectory file at the
/// repository root.
pub fn bench_json_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Writes a trajectory file's new contents: always to
/// `target/experiments/<name>` (the copy CI uploads), and to the
/// committed root file only for a full run, so `--quick` runs leave
/// the working tree untouched.
pub fn write_bench_json(name: &str, json: &str, quick: bool) {
    let root = (!quick).then(|| bench_json_path(name));
    for path in root.into_iter().chain([results_dir().join(name)]) {
        if let Err(e) = fs::write(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[json] {}", path.display());
        }
    }
}

/// Extracts `"key": { ... }` (balanced braces) from `text`, including
/// the key itself — enough JSON awareness to carry a committed frozen
/// block forward without a parser dependency.
pub fn json_block<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let start = text.find(&format!("\"{key}\""))?;
    let open = start + text[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[start..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Pulls the first `"key": <number>` out of a JSON block.
pub fn json_number(block: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = block.find(&tag)?;
    let num = block[at + tag.len()..]
        .trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .next()?;
    num.parse().ok()
}

/// Minimal micro-benchmark loop (the workspace builds without network
/// access, so Criterion is not available): runs `f` for a warmup, then
/// measures batches until ~0.2 s elapses and returns ns/iter.
pub fn bench_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    const WARMUP: u32 = 1_000;
    for _ in 0..WARMUP {
        std::hint::black_box(f());
    }
    let mut iters = 0u64;
    let mut batch = 1_000u64;
    let start = std::time::Instant::now();
    loop {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        iters += batch;
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 200 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        batch = batch.saturating_mul(2);
    }
}

/// Coarse measurement loop for whole-machine runs: returns wall
/// ms/iter over a fixed iteration count, plus CPU ms/iter
/// ([`cpu_time_s`] over the same loop; `None` where CPU time is
/// unavailable).
pub fn bench_coarse_ms<T>(iters: u32, mut f: impl FnMut() -> T) -> (f64, Option<f64>) {
    std::hint::black_box(f()); // warmup
    let cpu_before = cpu_time_s();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let wall = start.elapsed().as_secs_f64() * 1e3 / iters as f64;
    let cpu = cpu_time_s()
        .zip(cpu_before)
        .map(|(after, before)| (after - before) * 1e3 / iters as f64);
    (wall, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    fn parse(a: &[&str], vars: &[(&str, &str)]) -> Result<(Knobs, Vec<String>), String> {
        let lookup = |v: &str| {
            vars.iter()
                .find(|(k, _)| *k == v)
                .map(|(_, val)| val.to_string())
        };
        Knobs::parse(&args(a), lookup, 3)
    }

    #[test]
    fn seed_default() {
        let (k, rest) = parse(&[], &[]).unwrap();
        assert_eq!(k.seed, DEFAULT_SEED);
        assert_eq!(k.workers, 3, "unset workers means available parallelism");
        assert!(!k.trace.enabled && k.trace.dump.is_none());
        assert!(!k.faults.is_active());
        assert!(rest.is_empty());
        assert_eq!(k.machine().seed, DEFAULT_SEED);
    }

    #[test]
    fn seed_and_faults_parse_or_fail() {
        let (k, _) = parse(
            &[],
            &[("TAICHI_SEED", " 42 "), ("TAICHI_FAULTS", "all=0.05")],
        )
        .unwrap();
        assert_eq!(k.seed, 42);
        assert!(k.machine().faults.is_active());
        let e = parse(&[], &[("TAICHI_SEED", "junk")]).unwrap_err();
        assert!(e.contains("TAICHI_SEED=\"junk\""), "{e}");
        let e = parse(&[], &[("TAICHI_FAULTS", "ipi_drop=2")]).unwrap_err();
        assert!(e.starts_with("TAICHI_FAULTS="), "{e}");
    }

    #[test]
    fn trace_from_flag_or_env() {
        let (k, rest) = parse(&["--trace", "--quick"], &[]).unwrap();
        assert!(k.trace.enabled && k.trace.dump.is_none());
        assert_eq!(rest, args(&["--quick"]), "unknown flags are left over");
        let (k, _) = parse(&[], &[("TAICHI_TRACE", "")]).unwrap();
        assert!(k.trace.enabled && k.trace.dump.is_none());
        let (k, _) = parse(&[], &[("TAICHI_TRACE", "/tmp/t.tsv")]).unwrap();
        assert_eq!(k.machine().trace.dump, Some(PathBuf::from("/tmp/t.tsv")));
        assert!(k.machine().trace.enabled);
    }

    #[test]
    fn zero_workers_is_a_usage_error() {
        let e = resolve_workers(Some("0"), 8).unwrap_err();
        assert!(e.contains("TAICHI_WORKERS=0"), "{e}");
        assert!(parse(&[], &[("TAICHI_WORKERS", "0")]).is_err());
    }

    #[test]
    fn unparsable_workers_is_a_usage_error() {
        let e = resolve_workers(Some("lots"), 6).unwrap_err();
        assert!(e.contains("\"lots\""), "{e}");
    }

    #[test]
    fn valid_and_unset_workers_resolve() {
        assert_eq!(resolve_workers(Some(" 3 "), 8), Ok(3));
        assert_eq!(resolve_workers(None, 5), Ok(5));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn cpu_time_grows_with_work() {
        let before = cpu_time_s().expect("getrusage works on Linux");
        let mut x = 0u64;
        while cpu_time_s().unwrap() < before + 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_time_s().unwrap();
        assert!(
            after >= before + 0.02 && after < before + 60.0,
            "{before} -> {after}"
        );
    }

    #[test]
    fn emit_writes_csv() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into()]);
        emit("selftest", &t);
        let p = results_dir().join("selftest.csv");
        assert!(p.exists());
        let _ = std::fs::remove_file(p);
    }
}
