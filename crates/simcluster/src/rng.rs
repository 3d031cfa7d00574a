//! Deterministic randomness for simulations.
//!
//! Wraps `rand::SmallRng` with the distributions the workload models need
//! (uniform, truncated normal, lognormal) implemented directly so we stay
//! within the approved crate set (no `rand_distr`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded simulation RNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    /// Spare value from the Box-Muller pair.
    spare_gauss: Option<f64>,
}

impl SimRng {
    /// Create from a 64-bit seed. The same seed always produces the same
    /// sequence, so every experiment in the repo is reproducible.
    pub fn seeded(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            spare_gauss: None,
        }
    }

    /// Derive an independent stream (e.g. per worker) from this one.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
        SimRng::seeded(s)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds reversed: [{lo}, {hi})");
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Standard normal via Box-Muller.
    pub fn gauss(&mut self) -> f64 {
        if let Some(z) = self.spare_gauss.take() {
            return z;
        }
        loop {
            let u1: f64 = self.inner.gen::<f64>();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2: f64 = self.inner.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.spare_gauss = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal with mean and standard deviation, truncated below at `floor`.
    /// Task durations and memory footprints are modelled this way: mostly
    /// tight around the mean, never negative.
    pub fn normal_trunc(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        let v = mean + std_dev * self.gauss();
        v.max(floor)
    }

    /// Lognormal: exp(Normal(mu, sigma)). Heavy-tailed — used for the
    /// variant-count-dependent VEP memory model (§VI-C3).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.gauss()).exp()
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p
    }

    /// Raw u64, for deriving ids.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut root1 = SimRng::seeded(7);
        let mut root2 = SimRng::seeded(7);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut g1 = root1.fork(2);
        assert_ne!(f1.next_u64(), g1.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SimRng::seeded(3);
        for _ in 0..1000 {
            let v = rng.uniform(40.0, 70.0);
            assert!((40.0..70.0).contains(&v));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
    }

    #[test]
    fn gauss_moments_are_sane() {
        let mut rng = SimRng::seeded(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gauss()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn normal_trunc_respects_floor() {
        let mut rng = SimRng::seeded(5);
        for _ in 0..1000 {
            assert!(rng.normal_trunc(1.0, 5.0, 0.1) >= 0.1);
        }
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut rng = SimRng::seeded(9);
        let samples: Vec<f64> = (0..5000).map(|_| rng.lognormal(0.0, 1.0)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[samples.len() / 2];
        assert!(mean > median, "lognormal should be right-skewed");
    }

    #[test]
    fn chance_probability() {
        let mut rng = SimRng::seeded(13);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
