//! Deterministic parallel fan-out for independent simulation runs.
//!
//! Every experiment in this repo is a set of fully self-contained
//! `(mode, seed, knobs)` machine runs: each builds its own `Machine`,
//! its own RNG streams, and never touches shared state. That makes the
//! sweep embarrassingly parallel *without* giving up determinism — the
//! only ordering that matters is the order results are **emitted** in,
//! and [`sweep_with`] returns them in input order regardless of which
//! worker finished first. The worker count is always the caller's: the
//! experiment binaries resolve it once from their knobs.
//!
//! The implementation is plain `std::thread` (the workspace builds
//! offline; no rayon): workers pull job indices from an atomic counter
//! and write results into per-index cells, so no two workers ever
//! contend on the same result and no channel reordering can occur.
//! A job can ask for its input position ([`job_index`]); the trace
//! export names its dump by it, so dump names do not depend on which
//! worker finished first.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Input position of the [`sweep_with`] job running on this thread.
    static JOB: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The input position of the [`sweep_with`] job running on the
/// calling thread (the innermost one, if sweeps nest), or `None`
/// outside a sweep.
pub fn job_index() -> Option<usize> {
    JOB.with(Cell::get)
}

/// Puts back the enclosing job position when a job ends, panicking
/// or not.
struct RestoreJob(Option<usize>);

impl Drop for RestoreJob {
    fn drop(&mut self) {
        JOB.with(|j| j.set(self.0));
    }
}

/// Runs `f` on the item at input position `i`, with [`job_index`]
/// reading `Some(i)`.
fn run_job<I, T>(f: &impl Fn(I) -> T, i: usize, item: I) -> T {
    let _restore = RestoreJob(JOB.with(|j| j.replace(Some(i))));
    f(item)
}

/// Runs `f` over `items` on `workers` threads, returning the results
/// **in input order** (bit-identical to a serial loop for
/// self-contained jobs). `workers <= 1` runs the jobs serially on the
/// calling thread (the reference ordering the parallel path must
/// reproduce).
pub fn sweep_with<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_job(&f, i, item))
            .collect();
    }
    let jobs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = jobs[i]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("each index is claimed exactly once");
                let out = run_job(&f, i, item);
                *results[i].lock().expect("result mutex poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex poisoned")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_see_their_input_position() {
        assert_eq!(job_index(), None);
        for workers in [1, 4] {
            let seen = sweep_with(workers, (0..32usize).collect(), |_| job_index());
            assert_eq!(
                seen,
                (0..32).map(Some).collect::<Vec<_>>(),
                "{workers} workers"
            );
            assert_eq!(job_index(), None, "{workers} workers");
        }
        // A panicking serial job leaves the caller outside any sweep.
        let caught = std::panic::catch_unwind(|| sweep_with(1, vec![0u8], |_| panic!("job")));
        assert!(caught.is_err());
        assert_eq!(job_index(), None);
    }

    #[test]
    fn preserves_input_order() {
        // Jobs finish out of order (larger inputs first by sleep), yet
        // results come back in input order.
        let items: Vec<u64> = (0..32).collect();
        let out = sweep_with(4, items.clone(), |i| {
            std::thread::sleep(std::time::Duration::from_micros(200 - i * 5));
            i * 10
        });
        assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..64).collect();
        let f = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial = sweep_with(1, items.clone(), f);
        let parallel = sweep_with(8, items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep_with(4, empty, |i| i).is_empty());
        assert_eq!(sweep_with(4, vec![7u32], |i| i + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = sweep_with(16, vec![1u32, 2], |i| i * 2);
        assert_eq!(out, vec![2, 4]);
    }
}
