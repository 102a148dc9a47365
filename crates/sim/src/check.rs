//! Minimal deterministic property-testing harness.
//!
//! The workspace must build and test without network access, so instead
//! of an external property-testing crate the randomized test suites use
//! this helper: every property runs a fixed number of cases, each case
//! driven by an [`Rng`] stream derived from the property name and the
//! case index. Failures therefore reproduce exactly — rerunning the
//! test replays the same cases in the same order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::Rng;

/// FNV-1a hash of the property name, used as the base seed so distinct
/// properties get decorrelated case streams.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Runs `f` for `cases` independent cases.
///
/// Each case receives `(case_index, rng)` where the RNG stream depends
/// only on `name` and the index; a panic inside a case is annotated
/// with the case index before being re-raised so it can be replayed in
/// isolation.
pub fn run_cases<F>(name: &str, cases: u64, mut f: F)
where
    F: FnMut(u64, &mut Rng),
{
    for i in 0..cases {
        let mut rng = Rng::stream(name_seed(name), i);
        let outcome = catch_unwind(AssertUnwindSafe(|| f(i, &mut rng)));
        if let Err(e) = outcome {
            eprintln!("property '{name}' failed at case {i}/{cases}");
            resume_unwind(e);
        }
    }
}

/// Generates a vector whose length and element values are uniform in
/// the given ranges (`len` may be empty when `len_lo == 0`).
pub fn vec_u64(rng: &mut Rng, len_lo: u64, len_hi: u64, val_lo: u64, val_hi: u64) -> Vec<u64> {
    let len = if len_lo == len_hi {
        len_lo
    } else {
        rng.gen_range(len_lo, len_hi)
    };
    (0..len).map(|_| rng.gen_range(val_lo, val_hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_reproducible() {
        let mut first = Vec::new();
        run_cases("repro", 8, |_, rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        run_cases("repro", 8, |_, rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_names_decorrelate() {
        let mut a = Vec::new();
        run_cases("alpha", 4, |_, rng| a.push(rng.next_u64()));
        let mut b = Vec::new();
        run_cases("beta", 4, |_, rng| b.push(rng.next_u64()));
        assert_ne!(a, b);
    }

    #[test]
    fn vec_u64_respects_bounds() {
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let v = vec_u64(&mut rng, 1, 10, 5, 50);
            assert!((1..10).contains(&(v.len() as u64)));
            assert!(v.iter().all(|&x| (5..50).contains(&x)));
        }
    }
}
