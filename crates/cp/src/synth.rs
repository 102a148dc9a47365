//! The `synth_cp` benchmark (§6.1, Table 3).
//!
//! An in-house synthetic CP stressor: each task is tuned to ~50 ms of
//! CPU time, mixing user-space computation, syscalls, and
//! non-preemptible kernel routines (so it "accesses non-preemptible
//! kernel routines" like the classic CP tasks it emulates). The
//! benchmark spawns `concurrency` tasks simultaneously and reports the
//! average task execution (turnaround) time — the Fig. 11 metric.

use taichi_os::Program;
use taichi_sim::{Rng, SimDuration};

/// Fraction of each round spent in a non-preemptible routine.
const ROUTINE_FRACTION: f64 = 0.4;
/// Fraction of each round spent in preemptible syscall work.
const SYSCALL_FRACTION: f64 = 0.2;

/// Builder for synth_cp task programs.
#[derive(Clone, Debug)]
pub struct SynthCp {
    /// Target CPU time per task.
    pub task_cpu_time: SimDuration,
    /// Number of (compute, syscall, routine) rounds per task.
    pub rounds: u32,
}

impl Default for SynthCp {
    fn default() -> Self {
        SynthCp {
            task_cpu_time: SimDuration::from_millis(50),
            rounds: 10,
        }
    }
}

impl SynthCp {
    /// Builds one synth_cp task program.
    ///
    /// Round durations are jittered ±10 % (deterministically per RNG)
    /// so concurrent tasks do not phase-lock, while total CPU time per
    /// task stays at `task_cpu_time` in expectation.
    pub fn task(&self, rng: &mut Rng) -> Program {
        let rounds = self.rounds.max(1);
        let per_round = self.task_cpu_time.as_nanos() / rounds as u64;
        let mut p = Program::new();
        for _ in 0..rounds {
            let jitter = 0.9 + 0.2 * rng.next_f64();
            let round_ns = (per_round as f64 * jitter) as u64;
            let routine = (round_ns as f64 * ROUTINE_FRACTION) as u64;
            let syscall = (round_ns as f64 * SYSCALL_FRACTION) as u64;
            let compute = round_ns.saturating_sub(routine + syscall);
            p = p
                .compute(SimDuration::from_nanos(compute))
                .syscall(SimDuration::from_nanos(syscall))
                .critical(SimDuration::from_nanos(routine));
        }
        p
    }

    /// Builds `concurrency` task programs for one benchmark run.
    pub fn workload(&self, concurrency: u32, rng: &mut Rng) -> Vec<Program> {
        (0..concurrency).map(|_| self.task(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_cpu_time_close_to_target() {
        let s = SynthCp::default();
        let mut rng = Rng::new(1);
        let mut total = 0u64;
        let n = 200;
        for _ in 0..n {
            total += s.task(&mut rng).total_cpu_time().as_nanos();
        }
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!((mean_ms - 50.0).abs() < 2.0, "mean {mean_ms} ms");
    }

    #[test]
    fn task_contains_all_three_segment_kinds() {
        let s = SynthCp::default();
        let mut rng = Rng::new(2);
        let p = s.task(&mut rng);
        assert_eq!(p.len() as u32, 3 * s.rounds);
        assert!(crate::task::has_non_preemptible(&p));
    }

    #[test]
    fn routines_are_ms_scale() {
        // Default: 50 ms / 10 rounds * 0.4 = ~2 ms routines — squarely
        // in the Fig. 5 1–5 ms band.
        let s = SynthCp::default();
        let mut rng = Rng::new(3);
        let p = s.task(&mut rng);
        let routine_ns: Vec<u64> = p
            .segments()
            .iter()
            .filter(|seg| seg.is_non_preemptible())
            .map(|seg| seg.cpu_time().as_nanos())
            .collect();
        assert_eq!(routine_ns.len(), 10);
        for ns in routine_ns {
            assert!((1_500_000..3_000_000).contains(&ns), "routine {ns} ns");
        }
    }

    #[test]
    fn workload_size() {
        let s = SynthCp::default();
        let mut rng = Rng::new(4);
        assert_eq!(s.workload(32, &mut rng).len(), 32);
    }

    #[test]
    fn zero_rounds_clamped() {
        let s = SynthCp {
            rounds: 0,
            ..SynthCp::default()
        };
        let mut rng = Rng::new(5);
        let p = s.task(&mut rng);
        assert_eq!(p.len(), 3);
    }
}
