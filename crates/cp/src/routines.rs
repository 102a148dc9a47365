//! Production non-preemptible routine durations (Fig. 5).
//!
//! The paper traced non-preemptible kernel routines across dozens of
//! production nodes for 12 hours and reports, for routines exceeding
//! 1 ms: 94.5 % last 1–5 ms, the rest stretch up to a 67 ms maximum.
//! Routines below 1 ms (the vast majority by count) are short lock
//! holds and IRQ-off windows.
//!
//! Two distributions are provided:
//!
//! - [`fig5_routine_ms`]: only the long-tail (>1 ms) population, with
//!   bucket weights matching the published Fig. 5 histogram shape.
//! - `mixed_routine_ms` (crate-internal): the full population — mostly
//!   sub-millisecond holds with a configurable long-tail fraction —
//!   used when synthesising realistic CP task programs.

use taichi_sim::Dist;

/// Fig. 5 long-tail routine durations in milliseconds (>1 ms only).
///
/// Bucket weights follow the published histogram: 94.5 % in 1–5 ms,
/// with the remainder spread over 5–67 ms with geometrically decaying
/// mass (the paper's per-bucket counts decay roughly 10× per bucket).
pub fn fig5_routine_ms() -> Dist {
    Dist::Empirical {
        buckets: vec![
            (1.0, 5.0, 94.5),
            (5.0, 10.0, 4.0),
            (10.0, 20.0, 1.0),
            (20.0, 40.0, 0.4),
            (40.0, 67.0, 0.1),
        ],
    }
}

/// Full routine population in milliseconds.
///
/// `long_tail_fraction` of routines come from [`fig5_routine_ms`]; the
/// rest are sub-millisecond holds (log-uniform-ish over 10 µs–1 ms,
/// approximated piecewise).
pub(crate) fn mixed_routine_ms(long_tail_fraction: f64) -> Dist {
    let short = Dist::Empirical {
        buckets: vec![(0.01, 0.05, 40.0), (0.05, 0.2, 35.0), (0.2, 1.0, 25.0)],
    };
    Dist::Mixture {
        parts: vec![
            (1.0 - long_tail_fraction.clamp(0.0, 1.0), short),
            (long_tail_fraction.clamp(0.0, 1.0), fig5_routine_ms()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taichi_sim::Rng;

    #[test]
    fn fig5_shape_matches_paper() {
        let d = fig5_routine_ms();
        let mut rng = Rng::new(5);
        let n = 200_000;
        let mut in_1_5 = 0usize;
        let mut max = 0.0f64;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!((1.0..=67.0).contains(&x), "sample {x}");
            if x < 5.0 {
                in_1_5 += 1;
            }
            max = max.max(x);
        }
        let frac = in_1_5 as f64 / n as f64;
        assert!((frac - 0.945).abs() < 0.01, "1–5 ms fraction {frac}");
        assert!(max > 40.0, "tail missing, max {max}");
    }

    #[test]
    fn mixed_is_mostly_short() {
        let d = mixed_routine_ms(0.02);
        let mut rng = Rng::new(6);
        let n = 100_000;
        let long = (0..n).filter(|_| d.sample(&mut rng) > 1.0).count();
        let frac = long as f64 / n as f64;
        assert!((frac - 0.02).abs() < 0.005, "long fraction {frac}");
    }

    #[test]
    fn mixed_extremes_clamp() {
        let all_long = mixed_routine_ms(5.0); // clamped to 1.0
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            assert!(all_long.sample(&mut rng) >= 1.0);
        }
        let all_short = mixed_routine_ms(-1.0); // clamped to 0.0
        for _ in 0..1000 {
            assert!(all_short.sample(&mut rng) <= 1.0);
        }
    }
}
