//! Probability distributions for workload modelling.
//!
//! All samplers draw from the crate's deterministic [`Rng`] and return
//! `f64` values; duration-valued helpers convert to [`SimDuration`].
//! The set covers what the Tai Chi evaluation needs:
//!
//! - [`Dist::Exponential`] — Poisson inter-arrival times for open-loop
//!   packet/request generators.
//! - [`Dist::LogNormal`] — service-time spread (heavy right tail).
//! - [`Dist::Pareto`] / [`Dist::BoundedPareto`] — heavy-tailed routine
//!   durations.
//! - [`Dist::Empirical`] — piecewise distributions fitted to published
//!   production data (e.g. the Fig. 5 non-preemptible-routine histogram).
//! - [`Dist::Uniform`], [`Dist::Constant`], [`Dist::Bimodal`] — building
//!   blocks for synthetic benchmarks.

use crate::rng::Rng;
use crate::time::SimDuration;

/// A sampleable probability distribution over non-negative reals.
#[derive(Clone, Debug)]
pub enum Dist {
    /// Always returns `value`.
    Constant { value: f64 },
    /// Uniform over `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given `mean` (rate = 1/mean).
    Exponential { mean: f64 },
    /// Log-normal parameterised by the *target* mean and the sigma of the
    /// underlying normal (shape). `mu` is derived so that the sampled
    /// mean equals `mean`.
    LogNormal { mean: f64, sigma: f64 },
    /// Pareto with minimum `scale` and tail index `shape` (> 0).
    Pareto { scale: f64, shape: f64 },
    /// Pareto truncated to `[scale, cap]` by inverse-transform over the
    /// truncated CDF (no rejection, so sampling cost is constant).
    BoundedPareto { scale: f64, shape: f64, cap: f64 },
    /// Two-point mixture: `value_a` with probability `p_a`, else
    /// `value_b`.
    Bimodal {
        p_a: f64,
        value_a: f64,
        value_b: f64,
    },
    /// Piecewise-uniform empirical distribution: each bucket
    /// `(lo, hi, weight)` is chosen with probability proportional to
    /// `weight`, then a value is drawn uniformly inside it.
    Empirical { buckets: Vec<(f64, f64, f64)> },
    /// A mixture of sub-distributions with the given weights.
    Mixture { parts: Vec<(f64, Dist)> },
}

impl Dist {
    /// Convenience constructor for a constant distribution.
    pub fn constant(value: f64) -> Dist {
        Dist::Constant { value }
    }

    /// Convenience constructor for an exponential with mean in the same
    /// unit the caller will interpret samples in.
    pub fn exponential(mean: f64) -> Dist {
        Dist::Exponential { mean }
    }

    /// Convenience constructor for a uniform distribution.
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        Dist::Uniform { lo, hi }
    }

    /// Draws one sample.
    ///
    /// Samples are clamped to be non-negative (every quantity we model —
    /// durations, sizes, counts — is non-negative).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let v = match self {
            Dist::Constant { value } => *value,
            Dist::Uniform { lo, hi } => lo + (hi - lo) * rng.next_f64(),
            Dist::Exponential { mean } => -mean * rng.next_f64_open().ln(),
            Dist::LogNormal { mean, sigma } => {
                // mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
                let mu = mean.ln() - sigma * sigma / 2.0;
                let z = sample_standard_normal(rng);
                (mu + sigma * z).exp()
            }
            Dist::Pareto { scale, shape } => {
                let u = rng.next_f64_open();
                scale / u.powf(1.0 / shape)
            }
            Dist::BoundedPareto { scale, shape, cap } => {
                // Inverse transform of the truncated Pareto CDF.
                let l = *scale;
                let h = *cap;
                let a = *shape;
                let u = rng.next_f64();
                let la = l.powf(a);
                let ha = h.powf(a);
                let x = (1.0 - u * (1.0 - la / ha)).powf(-1.0 / a) * l;
                x.min(h)
            }
            Dist::Bimodal {
                p_a,
                value_a,
                value_b,
            } => {
                if rng.chance(*p_a) {
                    *value_a
                } else {
                    *value_b
                }
            }
            Dist::Empirical { buckets } => sample_empirical(buckets, rng),
            Dist::Mixture { parts } => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                let mut pick = rng.next_f64() * total;
                for (w, d) in parts {
                    if pick < *w {
                        return d.sample(rng).max(0.0);
                    }
                    pick -= w;
                }
                parts.last().map(|(_, d)| d.sample(rng)).unwrap_or(0.0)
            }
        };
        v.max(0.0)
    }

    /// Hoists per-sample constants for hot sampling loops.
    ///
    /// [`Dist::sample`] re-derives dependent parameters on every draw
    /// (the log-normal location `mu = ln(mean) - sigma²/2` costs a
    /// transcendental per call), and its Box–Muller step discards the
    /// second normal of every generated pair. Loops that sample the
    /// same distribution millions of times prepare it once: the
    /// prepared log-normal keeps `mu` hoisted **and** caches the spare
    /// Box–Muller value, halving the transcendental cost per draw.
    ///
    /// Still fully deterministic — the values are a pure function of
    /// the `Rng` stream and the call sequence — but the prepared
    /// sampler consumes uniforms at a different rate than
    /// [`Dist::sample`], so the two produce different (identically
    /// distributed) realizations from the same stream.
    pub fn prepared(&self) -> PreparedDist {
        match self {
            Dist::LogNormal { mean, sigma } => PreparedDist::LogNormal {
                mu: mean.ln() - sigma * sigma / 2.0,
                sigma: *sigma,
                spare: None,
            },
            other => PreparedDist::Plain(other.clone()),
        }
    }

    /// Draws one sample interpreted as microseconds.
    pub fn sample_micros(&self, rng: &mut Rng) -> SimDuration {
        SimDuration::from_nanos((self.sample(rng) * 1_000.0).round().max(0.0) as u64)
    }

    /// Draws one sample interpreted as milliseconds.
    pub fn sample_millis(&self, rng: &mut Rng) -> SimDuration {
        SimDuration::from_nanos((self.sample(rng) * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Returns the analytic mean where one exists in closed form.
    ///
    /// Used by generators to translate a target utilization into an
    /// arrival rate. `Mixture` and `Empirical` means are computed from
    /// their components (bucket midpoints for `Empirical`).
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant { value } => *value,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { mean } => *mean,
            Dist::LogNormal { mean, .. } => *mean,
            Dist::Pareto { scale, shape } => {
                if *shape > 1.0 {
                    shape * scale / (shape - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            Dist::BoundedPareto { scale, shape, cap } => {
                // E[X] for truncated Pareto (shape != 1).
                let l = *scale;
                let h = *cap;
                let a = *shape;
                if (a - 1.0).abs() < 1e-12 {
                    let la = l.powf(a);
                    let ha = h.powf(a);
                    la / (1.0 - la / ha) * a * (h / l).ln() / l.powf(a - 1.0)
                } else {
                    let num = l.powf(a) / (1.0 - (l / h).powf(a));
                    num * a / (a - 1.0) * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
                }
            }
            Dist::Bimodal {
                p_a,
                value_a,
                value_b,
            } => p_a * value_a + (1.0 - p_a) * value_b,
            Dist::Empirical { buckets } => {
                let total: f64 = buckets.iter().map(|(_, _, w)| w).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                buckets
                    .iter()
                    .map(|(lo, hi, w)| (lo + hi) / 2.0 * w / total)
                    .sum()
            }
            Dist::Mixture { parts } => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                parts.iter().map(|(w, d)| d.mean() * w / total).sum()
            }
        }
    }
}

/// A distribution with per-sample constants hoisted and the Box–Muller
/// pair cached (see [`Dist::prepared`]).
///
/// Deterministic given the `Rng` stream and the call sequence, but not
/// draw-for-draw identical to [`Dist::sample`]: the prepared log-normal
/// consumes one uniform pair per **two** samples.
#[derive(Clone, Debug)]
pub enum PreparedDist {
    /// Log-normal with the location parameter already derived and the
    /// second normal of each Box–Muller pair banked for the next draw.
    LogNormal {
        mu: f64,
        sigma: f64,
        spare: Option<f64>,
    },
    /// Any other family (no per-sample constants worth hoisting).
    Plain(Dist),
}

impl PreparedDist {
    /// Draws one sample. `&mut self` because the log-normal banks the
    /// spare Box–Muller value between calls — the dominant cost of a
    /// normal draw is the `ln`/`sqrt`/`sin_cos` triple, and using both
    /// halves of the pair amortizes it over two samples (the two halves
    /// are independent standard normals, so the distribution is
    /// unchanged).
    pub fn sample(&mut self, rng: &mut Rng) -> f64 {
        match self {
            PreparedDist::LogNormal { mu, sigma, spare } => {
                let z = match spare.take() {
                    Some(z) => z,
                    None => {
                        let (z1, z2) = sample_standard_normal_pair(rng);
                        *spare = Some(z2);
                        z1
                    }
                };
                (*mu + *sigma * z).exp().max(0.0)
            }
            PreparedDist::Plain(d) => d.sample(rng),
        }
    }
}

/// Samples a standard normal via Box–Muller (one value per call; the
/// second value is discarded to keep the sampler stateless).
fn sample_standard_normal(rng: &mut Rng) -> f64 {
    let u1 = rng.next_f64_open();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The full Box–Muller transform: both independent standard normals
/// from one uniform pair (the first matches [`sample_standard_normal`]
/// on the same stream position).
fn sample_standard_normal_pair(rng: &mut Rng) -> (f64, f64) {
    let u1 = rng.next_f64_open();
    let u2 = rng.next_f64();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * cos, r * sin)
}

/// Samples from a piecewise-uniform empirical distribution.
fn sample_empirical(buckets: &[(f64, f64, f64)], rng: &mut Rng) -> f64 {
    let total: f64 = buckets.iter().map(|(_, _, w)| w).sum();
    if total <= 0.0 || buckets.is_empty() {
        return 0.0;
    }
    let mut pick = rng.next_f64() * total;
    for &(lo, hi, w) in buckets {
        if pick < w {
            return lo + (hi - lo) * rng.next_f64();
        }
        pick -= w;
    }
    let &(lo, hi, _) = buckets.last().expect("checked non-empty");
    lo + (hi - lo) * rng.next_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &Dist, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::constant(7.5);
        let mut rng = Rng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
        assert_eq!(d.mean(), 7.5);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::uniform(2.0, 4.0);
        let mut rng = Rng::new(2);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((empirical_mean(&d, 3, 100_000) - 3.0).abs() < 0.02);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::exponential(50.0);
        let m = empirical_mean(&d, 4, 200_000);
        assert!((m - 50.0).abs() / 50.0 < 0.02, "mean {m}");
    }

    #[test]
    fn lognormal_mean_matches_parameter() {
        let d = Dist::LogNormal {
            mean: 100.0,
            sigma: 0.8,
        };
        let m = empirical_mean(&d, 5, 300_000);
        assert!((m - 100.0).abs() / 100.0 < 0.05, "mean {m}");
    }

    #[test]
    fn pareto_respects_scale() {
        let d = Dist::Pareto {
            scale: 10.0,
            shape: 2.0,
        };
        let mut rng = Rng::new(6);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 10.0);
        }
        // Analytic mean = shape*scale/(shape-1) = 20.
        let m = empirical_mean(&d, 7, 400_000);
        assert!((m - 20.0).abs() / 20.0 < 0.1, "mean {m}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = Dist::BoundedPareto {
            scale: 1.0,
            shape: 1.3,
            cap: 67.0,
        };
        let mut rng = Rng::new(8);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=67.0).contains(&x), "sample {x}");
        }
    }

    #[test]
    fn bounded_pareto_mean_close_to_analytic() {
        let d = Dist::BoundedPareto {
            scale: 1.0,
            shape: 1.5,
            cap: 100.0,
        };
        let analytic = d.mean();
        let m = empirical_mean(&d, 9, 400_000);
        assert!(
            (m - analytic).abs() / analytic < 0.05,
            "sampled {m}, analytic {analytic}"
        );
    }

    #[test]
    fn bimodal_mixes() {
        let d = Dist::Bimodal {
            p_a: 0.9,
            value_a: 1.0,
            value_b: 100.0,
        };
        let m = empirical_mean(&d, 10, 100_000);
        let want = 0.9 * 1.0 + 0.1 * 100.0;
        assert!((m - want).abs() / want < 0.05, "mean {m}");
    }

    #[test]
    fn empirical_buckets_weighting() {
        // 94.5% of mass in [1,5), the rest in [5,67) — the Fig. 5 shape.
        let d = Dist::Empirical {
            buckets: vec![(1.0, 5.0, 94.5), (5.0, 67.0, 5.5)],
        };
        let mut rng = Rng::new(11);
        let n = 100_000;
        let mut in_low = 0usize;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!((1.0..67.0).contains(&x));
            if x < 5.0 {
                in_low += 1;
            }
        }
        let frac = in_low as f64 / n as f64;
        assert!((frac - 0.945).abs() < 0.01, "low fraction {frac}");
    }

    #[test]
    fn mixture_weights() {
        let d = Dist::Mixture {
            parts: vec![(3.0, Dist::constant(1.0)), (1.0, Dist::constant(5.0))],
        };
        let m = empirical_mean(&d, 12, 100_000);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((d.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_unit_helpers() {
        let d = Dist::constant(2.5);
        let mut rng = Rng::new(13);
        assert_eq!(d.sample_micros(&mut rng).as_nanos(), 2_500);
        assert_eq!(d.sample_millis(&mut rng).as_nanos(), 2_500_000);
    }

    #[test]
    fn samples_never_negative() {
        let dists = [
            Dist::LogNormal {
                mean: 1.0,
                sigma: 2.0,
            },
            Dist::uniform(0.0, 1.0),
            Dist::exponential(1.0),
        ];
        let mut rng = Rng::new(14);
        for d in &dists {
            for _ in 0..10_000 {
                assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }
}
